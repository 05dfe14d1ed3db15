"""Scalar execution of the tones a sweep's measurement cache cannot answer.

Table 2 stage 5 — "increase FN and repeat" — makes the tones of a sweep
independent: every tone builds and settles its own closed-loop
simulator from the same immutable (PLL, stimulus, config) triple, so
tones can run in any order, in any process, and produce bit-identical
:class:`~repro.core.sequencer.ToneMeasurement` records.
:class:`~repro.core.monitor.TransferFunctionMonitor` answers every tone
its measurement cache holds and hands only the misses to an executor.

:class:`SerialSweepExecutor` is the in-process loop over one shared
sequencer.
:class:`ProcessPoolSweepExecutor` fans the tones out over a
``concurrent.futures.ProcessPoolExecutor``, **one task per tone**,
submitted in the order given and harvested as they complete.  Stage 0
waits a fixed number of modulation cycles, so a tone's cost scales with
``1 / f_mod``; a plan runs in ascending ``f_mod``, so an idle worker
always takes the most expensive tone left.  That is the longest-first
schedule: it balances the pool without a cost model, and the in-band
reference tone, the plan's first and most expensive, starts at once
and streams the moment it finishes.  A task's payload is about a
kilobyte and its pickle round trip well under a millisecond, against
tens to hundreds of milliseconds of simulation per tone.  Nothing warm travels
either way, since the monitor's finished measurements are the only
warm state a later sweep reads.

Both executors return :class:`ToneOutcome` records in the order given,
with per-tone :class:`~repro.errors.MeasurementError` failures captured
as data (a dead tone is a diagnostic outcome, not a crash), so the
monitor behaves identically whichever executor runs the tones.

:func:`executor_for` picks the executor honestly: when only one CPU is
visible to the process (affinity masks, containers) or the tone count
cannot feed a pool, a parallel request degrades to the serial executor
with a :class:`ParallelFallbackWarning` instead of silently paying
process spawn cost for a slower sweep.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.architecture import BISTConfig
from repro.core.sequencer import ToneMeasurement, ToneTestSequencer
from repro.errors import ConfigurationError, MeasurementError, ReproError
from repro.pll.config import ChargePumpPLL
from repro.stimulus.modulation import ModulatedStimulus

__all__ = [
    "ToneOutcome",
    "ToneCallback",
    "SweepAborted",
    "SerialSweepExecutor",
    "ProcessPoolSweepExecutor",
    "ParallelFallbackWarning",
    "executor_for",
    "REPRO_NUM_WORKERS_ENV",
]

#: Per-tone completion hook: ``on_outcome(index, outcome)`` is invoked
#: as tones finish.  The serial executor calls it after every tone; the
#: pool executor calls it as each tone's task completes (indices can
#: arrive out of order; the monitor releases them to its own caller in
#: plan order).  Raising :class:`SweepAborted` from the callback stops
#: the sweep at that boundary.
ToneCallback = Callable[[int, "ToneOutcome"], None]

#: Environment variable that pins the worker count for every
#: :func:`executor_for` call in the process — CI runners and the
#: sweep-job service use it to make parallelism deterministic without
#: threading a flag through every call site.
REPRO_NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"


class ParallelFallbackWarning(RuntimeWarning):
    """A parallel sweep request degraded to the serial executor.

    Emitted by :func:`executor_for` when worker processes could only
    slow the sweep down (a single visible CPU, or too few tones to feed
    a pool).  The sweep still runs — serially — so results are
    unaffected; the warning exists so "I asked for 8 workers and got no
    speedup" is diagnosable instead of silent.  It fires at most once
    per process: a sweep service falling back on every job would
    otherwise bury its own logs.
    """


class SweepAborted(ReproError):
    """A per-tone callback asked the executor to stop the sweep.

    Raised *by* :data:`ToneCallback` implementations (never by the
    executors themselves) to abandon the remaining tones at the next
    completion boundary — the sweep-job service uses it for job
    cancellation and per-job timeouts.  The executor stops dispatching,
    tears its pool down cleanly, and lets the exception propagate to the
    caller that installed the callback.
    """


@dataclass(frozen=True)
class ToneOutcome:
    """Result of one tone's Table 2 sequence: a measurement or a failure.

    Exactly one of :attr:`measurement` and :attr:`error` is set.  The
    error carries the :class:`~repro.errors.MeasurementError` text so it
    survives pickling across process boundaries with full fidelity.
    """

    f_mod: float
    measurement: Optional[ToneMeasurement] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        """Whether the tone raised instead of measuring."""
        return self.error is not None


#: One pool task: ``(pll, stimulus, config, f_mod)``.
TonePayload = Tuple[ChargePumpPLL, ModulatedStimulus, BISTConfig, float]


def _measure(sequencer: ToneTestSequencer, f_mod: float) -> ToneOutcome:
    """One tone's outcome: its measurement or its captured
    :class:`~repro.errors.MeasurementError`."""
    try:
        return ToneOutcome(f_mod=f_mod, measurement=sequencer.run(f_mod))
    except MeasurementError as exc:
        return ToneOutcome(f_mod=f_mod, error=str(exc))


def _run_tone(payload: TonePayload) -> ToneOutcome:
    """Worker: run one tone; its outcome comes back pickled."""
    pll, stimulus, config, f_mod = payload
    return _measure(ToneTestSequencer(pll, stimulus, config), f_mod)


class SerialSweepExecutor:
    """Run the tones one after another in the calling process.

    A single sequencer serves the whole sweep; every tone settles from
    lock.
    """

    def run_tones(
        self,
        pll: ChargePumpPLL,
        stimulus: ModulatedStimulus,
        config: BISTConfig,
        frequencies_hz: Sequence[float],
        *,
        on_outcome: Optional[ToneCallback] = None,
    ) -> List[ToneOutcome]:
        """One :class:`ToneOutcome` per frequency, same order as given.

        With ``on_outcome`` set, every tone's outcome is delivered the
        moment it exists — the streaming path the sweep-job service's
        watchers ride on.
        """
        sequencer = ToneTestSequencer(pll, stimulus, config)
        outcomes: List[ToneOutcome] = []
        for index, f_mod in enumerate(frequencies_hz):
            outcome = _measure(sequencer, f_mod)
            outcomes.append(outcome)
            if on_outcome is not None:
                # A SweepAborted raised here (cancellation, timeout)
                # propagates: the remaining tones are deliberately
                # abandoned, and the callback owner already holds every
                # outcome produced so far.
                on_outcome(index, outcome)
        return outcomes


class ProcessPoolSweepExecutor:
    """Fan the tones out over a process pool, one task per tone.

    Tasks are submitted in the order given (plan order: ascending
    ``f_mod``, descending simulation cost), so each idle worker takes
    the most expensive tone left; results are re-assembled in the order
    given, bit-identical to the serial run.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers!r}"
            )
        self.n_workers = n_workers

    def run_tones(
        self,
        pll: ChargePumpPLL,
        stimulus: ModulatedStimulus,
        config: BISTConfig,
        frequencies_hz: Sequence[float],
        *,
        on_outcome: Optional[ToneCallback] = None,
    ) -> List[ToneOutcome]:
        """Order-preserving parallel execution of the tones.

        Tones are harvested **as they complete**, so ``on_outcome`` sees
        each tone the moment its worker finishes it.  A callback raising
        :class:`SweepAborted` cancels every not-yet-started tone (tones
        already running in workers finish but are discarded) and
        propagates after the pool is torn down.
        """
        freqs = list(frequencies_hz)
        workers = min(self.n_workers, len(freqs))
        if workers <= 1:
            return SerialSweepExecutor().run_tones(
                pll, stimulus, config, freqs, on_outcome=on_outcome,
            )
        outcomes: List[Optional[ToneOutcome]] = [None] * len(freqs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                index_of = {
                    pool.submit(_run_tone, (pll, stimulus, config, f)): i
                    for i, f in enumerate(freqs)
                }
                for future in as_completed(index_of):
                    # A worker exception (not a per-tone failure — those
                    # travel as data) aborts the sweep.
                    index = index_of[future]
                    outcomes[index] = future.result()
                    if on_outcome is not None:
                        on_outcome(index, outcomes[index])
            except BaseException:
                pool.shutdown(wait=True, cancel_futures=True)
                raise
        return outcomes  # type: ignore[return-value]


def _visible_cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        pass
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        count = probe()
        if count:
            return count
    return os.cpu_count() or 1


# ParallelFallbackWarning fires at most once per process (see
# _warn_fallback); tests reset this through _reset_fallback_warning().
_fallback_warned = False


def _warn_fallback(message: str) -> None:
    """Emit :class:`ParallelFallbackWarning` at most once per process.

    A long-lived process (CI collecting hundreds of sweeps, the
    sweep-job service falling back on every job of a session) would
    otherwise repeat the same diagnostic until it drowns the log; the
    condition it reports — the host's visible CPU count — does not
    change within a process, so once is informative and twice is noise.
    """
    global _fallback_warned
    if _fallback_warned:
        return
    _fallback_warned = True
    warnings.warn(message, ParallelFallbackWarning, stacklevel=3)


def _reset_fallback_warning() -> None:
    """Re-arm the once-per-process fallback warning (test hook)."""
    global _fallback_warned
    _fallback_warned = False


def _env_worker_override() -> Optional[int]:
    """Worker count pinned by ``REPRO_NUM_WORKERS``, or ``None``.

    Raises
    ------
    ConfigurationError
        If the variable is set but not a positive integer — a silent
        fallback would defeat the variable's whole purpose (deterministic
        worker counts on CI and under the service).
    """
    raw = os.environ.get(REPRO_NUM_WORKERS_ENV)
    if raw is None or raw.strip() == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 1:
        raise ConfigurationError(
            f"{REPRO_NUM_WORKERS_ENV}={raw!r} is not a positive integer"
        )
    return value


def executor_for(
    n_workers: int,
    n_tones: Optional[int] = None,
) -> Union[SerialSweepExecutor, ProcessPoolSweepExecutor]:
    """Pick the executor a worker request actually benefits from.

    ``n_workers == 1`` is the serial executor.  A parallel request
    degrades to serial — with a :class:`ParallelFallbackWarning`, at
    most once per process — when only one CPU is visible to this process
    (pool overhead with zero parallelism) or when ``n_tones`` (if given)
    cannot feed two workers.  Otherwise the pool is capped at the
    visible CPU count.

    Setting the ``REPRO_NUM_WORKERS`` environment variable overrides
    ``n_workers`` for every call in the process: CI runners pin it to
    ``1`` for deterministic serial runs, and a deployed sweep-job
    service pins its parallelism without a config change.  The fallback
    and CPU-cap logic still apply to the overridden value.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers!r}")
    override = _env_worker_override()
    if override is not None:
        n_workers = override
    if n_workers == 1:
        return SerialSweepExecutor()
    visible = _visible_cpu_count()
    if visible <= 1:
        _warn_fallback(
            f"parallel sweep requested (n_workers={n_workers}) but only "
            "1 CPU is visible to this process; running serially instead "
            "(process-pool overhead would make the sweep slower)"
        )
        return SerialSweepExecutor()
    if n_tones is not None and n_tones < 2:
        _warn_fallback(
            f"parallel sweep requested (n_workers={n_workers}) for "
            f"{n_tones} tone(s); running serially instead"
        )
        return SerialSweepExecutor()
    return ProcessPoolSweepExecutor(min(n_workers, visible))
