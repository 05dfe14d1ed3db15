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

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.bode import BodeResponse, log_frequency_grid
from repro.analysis.fitting import EstimatedParameters, estimate_second_order
from repro.core.architecture import BISTConfig
from repro.core.evaluation import evaluate_sweep
from repro.core.executor import ToneCallback, ToneOutcome, executor_for
from repro.core.limits import LimitReport, TestLimits
from repro.core.sequencer import (
    ToneMeasurement,
    ToneTestSequencer,
    ToneTiming,
    measurement_cache_key,
)
from repro.core.warm import ToneMeasurementCache
from repro.engines import validate_engine
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

    The monitor holds no warm state of its own: finished tones are
    shared through the ``measurement_cache`` that :meth:`run` takes.
    """

    def __init__(
        self,
        pll: ChargePumpPLL,
        stimulus: ModulatedStimulus,
        config: BISTConfig = BISTConfig(),
        correct_filter_zero: bool = True,
    ) -> None:
        self.pll = pll
        self.stimulus = stimulus
        self.config = config
        self.correct_filter_zero = correct_filter_zero
        self._sequencer = ToneTestSequencer(pll, stimulus, config)

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
        """Single-tone measurement (Table 2 stages 0–4), always simulated."""
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
        on_outcome: Optional[ToneCallback] = None,
        engine: str = "auto",
        measurement_cache: Optional[ToneMeasurementCache] = None,
    ) -> SweepResult:
        """Sweep every planned tone and evaluate eqs. (7)–(8).

        Tones are independent (each builds and settles its own
        simulator), so the monitor decides per tone where its outcome
        comes from.  It first looks every tone up in
        ``measurement_cache`` once (these lookups are the only ones its
        hit/miss counters see); a hit is answered from it: the finished
        measurement re-stamped with a warm
        :class:`~repro.core.sequencer.ToneTiming`, or the cached
        :class:`~repro.errors.MeasurementError` text as a failed tone.
        Only the misses run — under ``"auto"`` the farm first, then
        whatever it could not answer on
        :func:`~repro.core.executor.executor_for` ``(n_workers)``: the
        serial loop, or a batched process pool (degrading to serial,
        with a :class:`~repro.core.executor.ParallelFallbackWarning`,
        when only one CPU is visible) — and every outcome they produce
        is published back to ``measurement_cache``.  Results are identical
        — bit for bit — whichever way a tone is answered; only the wall
        time changes.

        Stage 0 of every tone the cache cannot answer is Table 2's fixed
        wait, simulated from lock.

        ``engine`` selects how the tones are simulated: ``"auto"``
        (default) first runs every cacheable tone the cache did not
        answer through the settle farm's per-lane kernel
        (:func:`repro.pll.lot.premeasure_lot`), which publishes finished
        measurements (or failures) to ``measurement_cache`` — a private
        one when the caller passes none — whatever ``n_workers`` is; the
        monitor reads those publications back without counting them.
        A tone the farm cannot represent, or ejects mid-measurement, is
        left to the executor.  ``"scalar"`` runs each tone inside its own
        event loop: the reference.  Counted results are bit-identical on
        both engines.

        ``measurement_cache`` optionally shares *finished* stage 1–4
        measurements across behaviourally identical sweeps (a
        :class:`~repro.core.warm.ToneMeasurementCache`, typically one
        per batch screen): when a lot's dies have equal physics, the
        first die measures each tone and the rest reuse the result —
        byte-identical reports, because a hit only differs in the
        comparison-excluded ``timing``.  Only tones
        :func:`~repro.core.sequencer.measurement_cache_key` keys are
        cached.

        ``on_outcome`` streams per-tone completions to the caller in
        plan order (see :data:`~repro.core.executor.ToneCallback`), so
        the in-band reference tone always comes first — the sweep-job
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
        freqs = plan.frequencies_hz
        auto = validate_engine(engine) == "auto"
        dedup = measurement_cache
        if dedup is None and auto:
            dedup = ToneMeasurementCache()
        keys = [
            None if dedup is None
            else measurement_cache_key(self.pll, self.stimulus,
                                       self.config, f_mod)
            for f_mod in freqs
        ]
        outcomes: List[Optional[ToneOutcome]] = [None] * len(freqs)

        def answer(index: int, lookup) -> None:
            hit = lookup(keys[index]) if keys[index] is not None else None
            if isinstance(hit, str):
                outcomes[index] = ToneOutcome(f_mod=freqs[index], error=hit)
            elif hit is not None:
                outcomes[index] = ToneOutcome(
                    f_mod=freqs[index],
                    measurement=replace(
                        hit, timing=ToneTiming(0.0, 0.0, 0.0, warm=True)
                    ),
                )

        # One counted lookup per tone: a hit is a tone an earlier sweep
        # measured, never one this sweep's farm pass publishes below.
        if dedup is not None:
            for index in range(len(freqs)):
                answer(index, dedup.get)
        if auto:
            # Imported lazily: repro.pll.lot pulls in the NumPy settle
            # farm, which scalar-only callers never need.
            from repro.pll.lot import premeasure_lot

            unanswered = [i for i, out in enumerate(outcomes) if out is None]
            premeasure_lot(
                [(self.pll, self.stimulus, self.config,
                  [freqs[index] for index in unanswered])],
                dedup,
            )
            for index in unanswered:
                answer(index, dedup.peek)
        released = 0

        def release() -> None:
            # Hand the caller every outcome up to the first tone still
            # running: executors (a pool's chunks especially) finish
            # out of order, callers see plan order.
            nonlocal released
            while released < len(outcomes) and outcomes[released] is not None:
                if on_outcome is not None:
                    on_outcome(released, outcomes[released])
                released += 1

        misses = [index for index, out in enumerate(outcomes) if out is None]

        def collect(miss: int, outcome: ToneOutcome) -> None:
            index = misses[miss]
            outcomes[index] = outcome
            if keys[index] is not None:
                dedup.put(keys[index], outcome.error if outcome.failed
                          else outcome.measurement)
            release()

        release()
        if misses:
            executor_for(n_workers, n_tones=len(misses)).run_tones(
                self.pll,
                self.stimulus,
                self.config,
                [freqs[index] for index in misses],
                on_outcome=collect,
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
        the same plan.  ``outcomes`` must be in plan order (the order
        :meth:`run` releases them in); the reference tone is
        ``outcomes[0]``.

        Raises
        ------
        MeasurementError
            If the outcome count does not match the plan, or the
            *reference* tone failed.
        """
        if len(outcomes) != len(plan.frequencies_hz):
            raise MeasurementError(
                f"got {len(outcomes)} outcomes for "
                f"{len(plan.frequencies_hz)} planned tones"
            )
        # The reference tone is identified by *position in the plan*
        # (index 0 — the plan sorts ascending and the reference is the
        # lowest tone), never by comparing f_mod values: outcomes
        # arrive in plan order, and a tone whose
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
        on_outcome: Optional[ToneCallback] = None,
        engine: str = "auto",
        measurement_cache: Optional[ToneMeasurementCache] = None,
    ) -> Tuple[SweepResult, LimitReport]:
        """Sweep then compare against on-chip limits (go/no-go).

        A sweep from which no parameters could be extracted fails every
        configured band (NaN values), because "could not measure" is a
        reject, not a pass.
        """
        result = self.run(
            plan, n_workers=n_workers, on_outcome=on_outcome, engine=engine,
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
