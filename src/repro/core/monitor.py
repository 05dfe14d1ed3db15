"""Sweep orchestration: the full transfer-function measurement.

:class:`TransferFunctionMonitor` is the user-facing entry point of the
library: given a PLL, a stimulus family and a sweep plan, it runs the
Table 2 sequence at every modulation frequency (Table 2 stage 5 is the
loop here), folds the counted results through eqs. (7)–(8) into a
:class:`~repro.analysis.bode.BodeResponse`, extracts the loop
parameters, and optionally applies on-chip limits.

A tone where the sequence fails outright (the peak detector starves,
lock is lost) is recorded as a failed tone rather than aborting the
sweep — a dead tone is diagnostic information for a structural test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.bode import BodeResponse, log_frequency_grid
from repro.analysis.fitting import EstimatedParameters, estimate_second_order
from repro.core.architecture import BISTConfig
from repro.core.evaluation import evaluate_sweep
from repro.core.executor import (
    SweepExecutor,
    ToneCallback,
    ToneOutcome,
    executor_for,
)
from repro.core.limits import LimitReport, TestLimits
from repro.core.sequencer import ToneMeasurement, ToneTestSequencer
from repro.core.warm import LockStateCache, ToneMeasurementCache
from repro.engines import FARM_ENGINES, validate_engine
from repro.errors import ConfigurationError, MeasurementError
from repro.pll.config import ChargePumpPLL
from repro.stimulus.modulation import ModulatedStimulus

__all__ = ["SweepPlan", "SweepResult", "TransferFunctionMonitor"]


@dataclass(frozen=True)
class SweepPlan:
    """Which modulation frequencies to test, and which is the reference.

    The reference tone (eq. 7's ``ΔF_ref_max``) must sit well inside the
    loop bandwidth; by the paper's convention it is the lowest tone.
    """

    frequencies_hz: Tuple[float, ...]

    def __post_init__(self) -> None:
        freqs = tuple(sorted(float(f) for f in self.frequencies_hz))
        if len(freqs) < 2:
            raise ConfigurationError(
                f"a sweep needs at least 2 tones, got {len(freqs)}"
            )
        if freqs[0] <= 0.0:
            raise ConfigurationError("sweep frequencies must be positive")
        if len(set(freqs)) != len(freqs):
            raise ConfigurationError("sweep frequencies must be distinct")
        object.__setattr__(self, "frequencies_hz", freqs)

    @property
    def reference_frequency(self) -> float:
        """The in-band reference tone (lowest frequency)."""
        return self.frequencies_hz[0]

    @classmethod
    def around(
        cls,
        fn_hz: float,
        decades_below: float = 1.0,
        decades_above: float = 0.9,
        points: int = 13,
    ) -> "SweepPlan":
        """Log-spaced sweep bracketing an expected natural frequency."""
        if fn_hz <= 0.0:
            raise ConfigurationError(f"fn_hz must be positive, got {fn_hz!r}")
        grid = log_frequency_grid(
            fn_hz / 10.0 ** decades_below,
            fn_hz * 10.0 ** decades_above,
            points,
        )
        return cls(tuple(float(f) for f in grid))


@dataclass
class SweepResult:
    """Everything produced by one full transfer-function measurement."""

    stimulus_label: str
    plan: SweepPlan
    measurements: List[ToneMeasurement]
    response: BodeResponse
    estimated: Optional[EstimatedParameters]
    failed_tones: Dict[float, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Whether every planned tone produced a measurement."""
        return not self.failed_tones

    def summary(self) -> str:
        """Multi-line digest for logs and reports."""
        lines = [
            f"sweep [{self.stimulus_label}]: "
            f"{len(self.measurements)}/{len(self.plan.frequencies_hz)} tones"
        ]
        if self.estimated is not None:
            lines.append(f"  {self.estimated}")
        for f_mod, reason in sorted(self.failed_tones.items()):
            lines.append(f"  tone {f_mod:g} Hz FAILED: {reason}")
        return "\n".join(lines)


class TransferFunctionMonitor:
    """The complete on-chip closed-loop transfer-function BIST.

    Parameters
    ----------
    pll:
        Device under test.
    stimulus:
        Modulated-reference family (one of the
        :mod:`repro.stimulus.modulation` classes).
    config:
        Test-hardware parameters; defaults are sized for the paper's
        set-up.
    correct_filter_zero:
        Apply the capacitor-node correction (see
        :mod:`repro.core.evaluation`) using the *designed* loop-filter
        zero time constant, so the reported response is the paper's
        eq. (4) transfer function.  ``False`` reports the raw
        capacitor-referred response.
    cache:
        Optional externally owned :class:`~repro.core.warm.LockStateCache`
        to serve warm starts from.  Passing one cache to many monitors —
        the batch-screening pattern — lets a whole lot share settled
        states: each (stimulus, tone, device-physics) family settles
        once, every behaviourally identical device thereafter restores
        it.  ``None`` (default) gives the monitor a private cache.
    """

    def __init__(
        self,
        pll: ChargePumpPLL,
        stimulus: ModulatedStimulus,
        config: BISTConfig = BISTConfig(),
        correct_filter_zero: bool = True,
        cache: Optional[LockStateCache] = None,
    ) -> None:
        self.pll = pll
        self.stimulus = stimulus
        self.config = config
        self.correct_filter_zero = correct_filter_zero
        #: Warm-start cache of settled stage-0 states, shared by every
        #: sweep and single-tone measurement this monitor runs: once a
        #: tone has settled, re-measuring it restores the settled loop
        #: (bit-identically) instead of re-simulating the settle.
        self.lock_cache = cache if cache is not None else LockStateCache()
        self._sequencer = ToneTestSequencer(
            pll, stimulus, config, cache=self.lock_cache
        )

    def _zero_tau(self) -> Optional[float]:
        if not self.correct_filter_zero:
            return None
        lf = self.pll.loop_filter
        tau = getattr(lf, "tau2", None)
        if tau is None:
            tau = getattr(lf, "tau", None)
        if tau is None:
            raise ConfigurationError(
                f"{type(lf).__name__} exposes no zero time constant; "
                "construct the monitor with correct_filter_zero=False"
            )
        return float(tau)

    def measure_tone(self, f_mod: float) -> ToneMeasurement:
        """Single-tone measurement (Table 2 stages 0–4).

        Served warm from :attr:`lock_cache` when the tone's settled
        state is already known — bit-identical to a cold run.
        """
        return self._sequencer.run(f_mod)

    def measure_nominal_frequency(self, gate_cycles: int = 128) -> float:
        """Counted unmodulated baseline, memoised per ``gate_cycles``.

        Delegates to the monitor's single sequencer, so every caller
        (reports, screens, repeated sweeps) shares one settled baseline
        measurement per (PLL, stimulus, config, gate) instead of
        re-simulating a throwaway lock per call.
        """
        return self._sequencer.measure_nominal_frequency(gate_cycles)

    def run(
        self,
        plan: SweepPlan,
        n_workers: int = 1,
        executor: Optional[SweepExecutor] = None,
        settle: str = "fixed",
        on_outcome: Optional[ToneCallback] = None,
        engine: str = "scalar",
        measurement_cache=None,
    ) -> SweepResult:
        """Sweep every planned tone and evaluate eqs. (7)–(8).

        Tones are independent (each builds or warm-restores its own
        simulator), so the sweep accepts an executor: the default
        ``n_workers=1`` runs the serial loop, ``n_workers > 1`` fans the
        tones out over a batched process pool (degrading to serial, with
        a :class:`~repro.core.executor.ParallelFallbackWarning`, when
        only one CPU is visible), and an explicit ``executor`` overrides
        both.  Results are identical — bit for bit — whichever executor
        runs the tones; only the wall time changes.

        ``settle`` selects the stage-0 policy per tone: ``"fixed"``
        (Table 2's fixed wait, the default) or ``"adaptive"`` (lock
        detection with fixed-wait fallback; approximate — counted
        results match the fixed policy to counter resolution).  The
        monitor's :attr:`lock_cache` serves repeated fixed-settle tones
        warm.

        ``engine`` selects how stage 0 (the settle) is simulated:
        ``"scalar"`` (default) runs each tone's settle inside its own
        event loop as before; ``"vectorized"`` first settles every
        cacheable tone of the plan on the settle farm's per-lane kernel
        (:func:`repro.pll.lot.premeasure_lot`), warming
        :attr:`lock_cache` — and, on the serial in-process path, carries
        the lanes on through stages 1–4 so the sweep's tones are
        answered from finished measurements (or published failures) —
        then runs the same sweep, warm;
        ``"closed_form"`` names the same farm; ``"auto"`` does too,
        and where a named farm engine would refuse (an adaptive settle
        policy) it degrades to the scalar path instead of raising.
        Counted results are bit-identical on every engine (the farm's
        snapshot guarantee); only wall time changes.  The named farm
        engines require ``settle="fixed"`` — the adaptive policy's lock
        detection is inherently per-device scalar.

        ``measurement_cache`` optionally shares *finished* stage 1–4
        measurements across behaviourally identical sweeps (a
        :class:`~repro.core.warm.ToneMeasurementCache`, typically one
        per batch screen): when a lot's dies have equal physics, the
        first die measures each tone and the rest reuse the result —
        byte-identical reports, because a hit only differs in the
        comparison-excluded ``timing``.  Honoured on the in-process
        serial path with fixed settling; ignored (with fidelity, not
        silently wrong) by pool and custom executors.

        ``on_outcome`` streams per-tone completions to the caller as the
        executor produces them (see
        :data:`~repro.core.executor.ToneCallback`) — the sweep-job
        service forwards them to its subscribers so watchers see tone
        results mid-flight, not after the sweep.  A callback raising
        :class:`~repro.core.executor.SweepAborted` abandons the
        remaining tones; the caller keeps the outcomes it has seen and
        can later finish the plan and fold everything through
        :meth:`evaluate_outcomes` (the resume path).

        Raises
        ------
        MeasurementError
            Only if the *reference* tone fails — without the in-band
            reference no magnitude can be computed at all.
        """
        validate_engine(engine)
        if engine in ("vectorized", "closed_form") and settle != "fixed":
            # A named farm engine is an explicit ask; refusing beats
            # silently running something else.  ``auto`` is a policy,
            # not an ask — it degrades to scalar below instead.
            raise ConfigurationError(
                f"engine={engine!r} requires settle='fixed' "
                f"(got settle={settle!r})"
            )
        if engine in FARM_ENGINES and settle == "fixed":
            # Imported lazily: repro.pll.lot pulls in the NumPy settle
            # farm, which scalar-only callers never need.
            from repro.pll.lot import premeasure_lot

            # The farm can also carry stages 1-4, but only the serial
            # in-process executor consults a measurement cache — so the
            # measurement phase is worth running exactly when its
            # results have somewhere to land.  Callers without their
            # own cache get a private one scoped to this sweep.
            serial_dedup_ok = executor is None and n_workers == 1
            if serial_dedup_ok and measurement_cache is None:
                measurement_cache = ToneMeasurementCache()
            premeasure_lot(
                [(self.pll, self.stimulus, self.config,
                  plan.frequencies_hz)],
                self.lock_cache,
                measurement_cache if serial_dedup_ok else None,
                engine=engine,
            )
        custom_executor = executor is not None
        if executor is None:
            executor = executor_for(
                n_workers, n_tones=len(plan.frequencies_hz)
            )
        kwargs = {"settle": settle, "cache": self.lock_cache}
        if on_outcome is not None:
            # Only threaded through when given: third-party executors
            # predating the streaming seam keep working unchanged.
            kwargs["on_outcome"] = on_outcome
        if (
            measurement_cache is not None
            and not custom_executor
            and n_workers == 1
            and settle == "fixed"
        ):
            # Same compatibility discipline as on_outcome: the kwarg only
            # appears on the executors we built ourselves, and only on
            # the serial path where a live in-process cache can help.
            kwargs["measurement_cache"] = measurement_cache
        outcomes = executor.run_tones(
            self.pll,
            self.stimulus,
            self.config,
            plan.frequencies_hz,
            **kwargs,
        )
        return self.evaluate_outcomes(plan, outcomes)

    def evaluate_outcomes(
        self,
        plan: SweepPlan,
        outcomes: Sequence[ToneOutcome],
    ) -> SweepResult:
        """Fold plan-ordered tone outcomes through eqs. (7)–(8).

        This is the second half of :meth:`run`, split out so callers
        that collected the outcomes themselves — a streaming service
        assembling tones as they arrive, or a resumed job combining a
        partial run with the re-run remainder — produce a
        :class:`SweepResult` byte-identical to a one-shot ``run`` of
        the same plan.  ``outcomes`` must be in plan order (the
        executor contract); the reference tone is ``outcomes[0]``.

        Raises
        ------
        MeasurementError
            If the outcome count does not match the plan, or the
            *reference* tone failed.
        """
        if len(outcomes) != len(plan.frequencies_hz):
            raise MeasurementError(
                f"executor returned {len(outcomes)} outcomes for "
                f"{len(plan.frequencies_hz)} planned tones"
            )
        # The reference tone is identified by *position in the plan*
        # (index 0 — the plan sorts ascending and the reference is the
        # lowest tone), never by comparing f_mod values: executors
        # contract to return outcomes in plan order, and a tone whose
        # frequency round-trips through any transport must still be
        # recognised as the reference.
        measurements: List[ToneMeasurement] = []
        failed: Dict[float, str] = {}
        for index, outcome in enumerate(outcomes):
            is_reference = index == 0
            if outcome.failed:
                if is_reference:
                    raise MeasurementError(
                        f"in-band reference tone {outcome.f_mod:g} Hz "
                        f"failed: {outcome.error}"
                    )
                failed[outcome.f_mod] = outcome.error
                continue
            m = outcome.measurement
            # A non-positive peak deviation means the tone produced no
            # usable measurement (grossly defective or unsettled loop) —
            # that is a diagnostic outcome, recorded per tone rather
            # than fatal.
            if m.delta_f_hz <= 0.0:
                if is_reference:
                    raise MeasurementError(
                        f"in-band reference tone {m.f_mod:g} Hz measured a "
                        f"non-positive deviation ({m.delta_f_hz:.3g} Hz)"
                    )
                failed[m.f_mod] = (
                    f"non-positive peak deviation ({m.delta_f_hz:.3g} Hz)"
                )
                continue
            measurements.append(m)
        response = evaluate_sweep(
            measurements,
            label=self.stimulus.label,
            zero_correction_tau=self._zero_tau(),
        )
        estimated: Optional[EstimatedParameters]
        try:
            estimated = estimate_second_order(response)
        except MeasurementError:
            estimated = None
        return SweepResult(
            stimulus_label=self.stimulus.label,
            plan=plan,
            measurements=measurements,
            response=response,
            estimated=estimated,
            failed_tones=failed,
        )

    def run_and_check(
        self,
        plan: SweepPlan,
        limits: TestLimits,
        n_workers: int = 1,
        executor: Optional[SweepExecutor] = None,
        settle: str = "fixed",
        on_outcome: Optional[ToneCallback] = None,
        engine: str = "scalar",
        measurement_cache=None,
    ) -> Tuple[SweepResult, LimitReport]:
        """Sweep then compare against on-chip limits (go/no-go).

        A sweep from which no parameters could be extracted fails every
        configured band (NaN values), because "could not measure" is a
        reject, not a pass.
        """
        result = self.run(
            plan, n_workers=n_workers, executor=executor, settle=settle,
            on_outcome=on_outcome, engine=engine,
            measurement_cache=measurement_cache,
        )
        if result.estimated is None:
            nan = float("nan")
            estimated = EstimatedParameters(
                fn_hz=nan, zeta=nan, f_peak_hz=nan, peak_db=nan,
                f3db_hz=None, phase_at_peak_deg=None,
            )
            return result, limits.check(estimated)
        return result, limits.check(result.estimated)
