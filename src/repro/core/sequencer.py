"""The Table 2 test sequence, one modulation tone at a time.

:class:`ToneTestSequencer` drives a fresh closed-loop simulation through
the paper's five stages for a single modulation frequency ``FN``:

===== =====================================================================
stage action (Table 2)
===== =====================================================================
0     Ref set: modulation applied at FN, loop closed and settling from lock
1     Set phase counter: started at the peak of the input modulation
2     Monitor peak: the Figure 7 detector watches for the output-frequency
      maximum
3     Peak occurred: the MFREQ pulse *itself* switches the hold mux
      (A=C, A=D) and stops the phase counter — within the same PFD cycle,
      exactly as hard-wired logic would
4     Measure: the reciprocal frequency counter reads the held (frozen)
      output frequency; both counters' results are stored
===== =====================================================================

Stage 5 of the table — "increase FN and repeat" — is the sweep loop of
:class:`~repro.core.monitor.TransferFunctionMonitor`.

Every stage transition is logged with its time, so tests can assert the
sequence matches the paper's table ordering.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Hashable, List, Optional, Tuple, Union

from repro.core.architecture import BISTConfig
from repro.core.counters import FrequencyCounter, PhaseCount, PhaseCounter
from repro.core.hold import HeldFrequencyResult
from repro.core.peak_detector import PeakEvent, PeakFrequencyDetector
from repro.core.warm import BoundedCache
from repro.errors import ConfigurationError, MeasurementError
from repro.pll.config import ChargePumpPLL
from repro.pll.simulator import PLLTransientSimulator, RecordLevel
from repro.stimulus.modulation import ModulatedStimulus

__all__ = [
    "MeasurementScript",
    "TestStage",
    "ToneMeasurement",
    "ToneTestSequencer",
    "ToneTiming",
    "NominalFrequencyMemoStats",
    "nominal_frequency_memo_stats",
    "predicted_peak_delay",
    "measurement_cache_key",
    "reset_nominal_frequency_memo",
    "tone_is_cacheable",
]

#: Process-wide memo for :meth:`ToneTestSequencer.measure_nominal_frequency`,
#: keyed on (physics signature, f_nominal, test clock, record level,
#: gate_cycles) — never on the device *object*, so renamed same-physics
#: dies (a vectorised lot, a repeated library fault) share one measured
#: baseline.  Entries are single floats; the bound is a leak guard for
#: very long-lived processes.
_NOMINAL_FREQUENCY_MEMO = BoundedCache(4096)


@dataclass(frozen=True)
class NominalFrequencyMemoStats:
    """Point-in-time counters for the nominal-frequency memo."""

    hits: int
    misses: int
    evictions: int
    size: int
    limit: int


def nominal_frequency_memo_stats() -> NominalFrequencyMemoStats:
    """Snapshot the process-wide memo's hit/miss/eviction counters."""
    detail = _NOMINAL_FREQUENCY_MEMO.stats_detail
    return NominalFrequencyMemoStats(
        hits=detail["hits"],
        misses=detail["misses"],
        evictions=detail["evictions"],
        size=detail["entries"],
        limit=detail["capacity"],
    )


def reset_nominal_frequency_memo() -> None:
    """Clear the memo's entries and counters (test/bench isolation)."""
    _NOMINAL_FREQUENCY_MEMO.clear()


class TestStage(enum.Enum):
    """Stages of Table 2 (plus a terminal DONE marker)."""

    __test__ = False  # not a pytest test class despite the name

    REF_SET = 0
    SET_PHASE_COUNTER = 1
    MONITOR_PEAK = 2
    PEAK_OCCURRED = 3
    MEASURE = 4
    DONE = 5


@dataclass(frozen=True)
class ToneTiming:
    """Wall-clock breakdown of one tone's Table 2 sequence.

    ``settle_s`` covers stage 0 (closed-loop settling), ``monitor_s``
    stages 1–3 (arm, watch for the peak) and ``measure_s`` stage 4
    (hold-and-count).  ``warm`` records whether the whole tone was
    answered from a :class:`~repro.core.warm.ToneMeasurementCache` (the
    three times then read zero) instead of being simulated.  Timing is
    observability only — it never participates in measurement-equality
    comparisons.
    """

    settle_s: float
    monitor_s: float
    measure_s: float
    warm: bool = False

    @property
    def total_s(self) -> float:
        """Whole-tone wall time."""
        return self.settle_s + self.monitor_s + self.measure_s


@dataclass
class ToneMeasurement:
    """Everything the BIST stores for one modulation frequency."""

    f_mod: float
    modulation_period: float
    held: HeldFrequencyResult
    phase_count: PhaseCount
    f_out_nominal: float
    arm_time: float
    peak_event: PeakEvent
    stage_log: List[Tuple[TestStage, float]] = field(default_factory=list)
    # Wall-clock observability; excluded from equality so measurement
    # comparisons stay about measured values.
    timing: Optional[ToneTiming] = field(default=None, compare=False)

    @property
    def delta_f_hz(self) -> float:
        """Measured peak output-frequency deviation ``ΔF`` (eq. 7's input)."""
        return self.held.vco_frequency_hz - self.f_out_nominal

    @property
    def phase_delay_deg(self) -> float:
        """Eq. (8) phase lag between input and output modulation peaks."""
        return self.phase_count.phase_delay_deg(self.modulation_period)

    def __str__(self) -> str:
        return (
            f"ToneMeasurement(f_mod={self.f_mod:.4g} Hz, "
            f"dF={self.delta_f_hz:+.4g} Hz, "
            f"phase={-self.phase_delay_deg:.1f} deg)"
        )


def tone_is_cacheable(pll: ChargePumpPLL, f_mod: float) -> bool:
    """Whether tone ``f_mod``'s finished measurement may be reused.

    The one cacheability rule shared by the monitor's measurement dedup
    and the farm's premeasure: at least one PFD compare cycle must fit
    between the settle end and the arm instant (``8·f_mod ≤ f_ref``),
    so the peak detector the farm attaches to a settled lane sees the
    same history the scalar sequence's does.
    """
    return f_mod > 0.0 and 8.0 * f_mod <= pll.f_ref


def measurement_cache_key(
    pll: ChargePumpPLL,
    stimulus: ModulatedStimulus,
    config: BISTConfig,
    f_mod: float,
) -> Optional[Hashable]:
    """Dedup key for a finished tone measurement, or ``None``.

    Stages 0–4 are a pure function of (physics, stimulus, tone, config),
    so the key is the device's physics signature (never its name), the
    stimulus's cache key, the tone and the full frozen config (every
    stage reads it; what the simulator records does not change what the
    counters measure, so the record level is not part of it).  ``None``
    means the tone is not reproducible enough to dedup — exotic stimulus
    without a cache key, or a tone :func:`tone_is_cacheable` refuses —
    and must simply run.
    """
    if not tone_is_cacheable(pll, f_mod):
        return None
    try:
        return (
            pll.physics_signature(),
            stimulus.cache_key(),
            float(f_mod),
            config,
        )
    except Exception:  # noqa: BLE001 - unhashable config / odd stimulus
        return None


def predicted_peak_delay(pll: ChargePumpPLL, f_mod: float) -> Optional[float]:
    """Predicted lag of the output-modulation peak behind the input peak.

    The linearised closed-loop transfer function
    ``H(s) = (2ζωₙs + ωₙ²) / (s² + 2ζωₙs + ωₙ²)`` delays the output
    envelope by ``-∠H(jω)/ω`` seconds at the tone frequency, so the
    MFREQ pulse is expected that long after the arm instant.  The
    monitor stage uses the prediction to step straight to the polling
    boundary just *before* the expected peak window instead of visiting
    every quarter-period boundary from the arm onwards.

    Returns ``None`` when the linearisation is unavailable (exotic
    device models) or the delay falls outside ``(0, 1/f_mod)`` —
    callers then poll from the first quarter boundary exactly as the
    unpredicted path always has.
    """
    try:
        wn = pll.natural_frequency()
        zeta = pll.damping(exact=True)
    except Exception:  # noqa: BLE001 - exotic device: no linearisation
        return None
    w = 2.0 * math.pi * f_mod
    lead = math.atan2(2.0 * zeta * wn * w, wn * wn)
    lag = math.atan2(2.0 * zeta * wn * w, wn * wn - w * w)
    delay = (lag - lead) / w
    if not math.isfinite(delay) or not (0.0 < delay < 1.0 / f_mod):
        return None
    return delay


class MeasurementScript:
    """Stages 1–4 of Table 2 as an explicit boundary-driven state machine.

    The scalar sequencer's stages 1–4 are a sequence of *run-to-target*
    steps: run to the arm instant, poll quarter-period boundaries until
    the MFREQ capture, flush the charge pump, grow the feedback-edge
    window until the reciprocal count fits, count.  This class is that
    control flow with the simulator advance factored out: callers ask
    :meth:`next_target` where to run, advance their engine (the scalar
    event loop *or* one lane of the vectorized farm) to exactly that
    time, and call :meth:`advance` to fire the stage logic at the
    boundary.  Every floating-point expression — target arithmetic,
    counter calls, error messages — is the scalar sequencer's own, so
    any engine that reproduces the simulator's event stream reproduces
    the scalar measurement bit-for-bit, stage log included.

    The arm instant is the ``config.settle_cycles``-th modulation peak:
    Table 2's fixed stage-0 wait ends there.

    States: ``ARM`` (run to the arm instant) → ``MONITOR`` (stages 2–3,
    poll for the capture) → ``FLUSH`` (let the in-flight pump pulse
    finish) → ``HOLD`` (stage 4, grow the count window) → ``DONE``.
    The MFREQ capture itself arrives *between* boundaries, via
    :meth:`capture_event` (scalar observer callback) or :meth:`capture`
    (farm latch kernel).

    ``probe`` arguments duck-type the simulator surface the stages
    read: ``output_frequency``, ``fb_edges`` (with ``count_in_gate``
    and the counter protocol) and ``close_loop()``.
    """

    ARM = "arm"
    MONITOR = "monitor"
    FLUSH = "flush"
    HOLD = "hold"
    DONE = "done"

    def __init__(
        self,
        pll: ChargePumpPLL,
        stimulus: ModulatedStimulus,
        config: BISTConfig,
        f_mod: float,
        max_wait_cycles: float = 3.0,
    ) -> None:
        self.pll = pll
        self.config = config
        self.f_mod = f_mod
        self.t_mod = 1.0 / f_mod
        self.max_wait_cycles = max_wait_cycles
        self.t_arm = stimulus.modulation_peak_time(
            f_mod, start_time=0.0, index=config.settle_cycles
        )
        self.deadline = self.t_arm + max_wait_cycles * self.t_mod
        # Boundaries skipped straight to the predicted peak window.  The
        # visited boundaries are a suffix of the exact capped recurrence
        # ``t = min(t + 0.25·t_mod, deadline)`` the full poll walks, so
        # a capture noticed at boundary k is noticed at the bit-same
        # instant whether or not earlier boundaries were visited.
        delay = predicted_peak_delay(pll, f_mod)
        self._k0 = 1
        if delay is not None:
            self._k0 = max(1, int(math.floor(delay / (0.25 * self.t_mod))))
        self.stage_log: List[Tuple[TestStage, float]] = [
            (TestStage.REF_SET, 0.0)
        ]
        self.phase_counter = PhaseCounter(config.test_clock_hz)
        self.freq_counter = FrequencyCounter(config.test_clock_hz)
        self.state = self.ARM
        self.captured = False
        self.event: Optional[PeakEvent] = None
        self.phase_count: Optional[PhaseCount] = None
        self.held: Optional[HeldFrequencyResult] = None
        self.t_engage = 0.0
        self._f_at_engage = 0.0
        self._f_fb_estimate = 0.0
        self._hold_checks = 0
        self._finish_pending = False
        self._target: Optional[float] = self.t_arm

    @property
    def monitoring(self) -> bool:
        """True while in stages 1–3 (the monitor wall-time bucket)."""
        return self.state in (self.ARM, self.MONITOR)

    def next_target(self) -> Optional[float]:
        """Simulation time to advance to next; ``None`` once DONE."""
        return self._target

    def capture_event(self, event: PeakEvent) -> bool:
        """Scalar observer callback: the detector emitted ``event``.

        Returns True when this event is *the* capture (first MFREQ
        maximum after the arm) — the caller must then open the loop, as
        the hold mux flips within the same PFD cycle.
        """
        if self.captured or not event.is_maximum or event.time <= self.t_arm:
            return False
        self.event = event
        self.phase_count = self.phase_counter.stop(event.time)
        self.captured = True
        return True

    def capture(self, t_event: float) -> None:
        """Farm capture: the batched latch fired its maximum at ``t_event``.

        The caller has already applied the scalar guard (first maximum
        strictly after the arm instant) in array form.
        """
        self.event = PeakEvent(time=t_event, is_maximum=True)
        self.phase_count = self.phase_counter.stop(t_event)
        self.captured = True

    def advance(self, now: float, probe) -> None:
        """Fire the stage logic at boundary ``now`` (= the last target)."""
        if self.state == self.ARM:
            self.phase_counter.start(self.t_arm)
            self.stage_log.append((TestStage.SET_PHASE_COUNTER, self.t_arm))
            self.stage_log.append((TestStage.MONITOR_PEAK, self.t_arm))
            self.state = self.MONITOR
            t_next = self.t_arm
            for _ in range(self._k0):
                t_next = min(t_next + 0.25 * self.t_mod, self.deadline)
            self._target = t_next
            return
        if self.state == self.MONITOR:
            if self.captured:
                assert self.event is not None
                self.stage_log.append(
                    (TestStage.PEAK_OCCURRED, self.event.time)
                )
                self.stage_log.append((TestStage.MEASURE, now))
                self.t_engage = now
                self.state = self.FLUSH
                # Two reference periods guarantee the pump is back to
                # tri-state before the control node is sampled.
                self._target = now + 2.0 / self.pll.f_ref
                return
            if now >= self.deadline:
                self.phase_counter.abort()
                raise MeasurementError(
                    f"peak detector produced no MFREQ within "
                    f"{self.max_wait_cycles:g} modulation cycles at "
                    f"f_mod={self.f_mod:g} Hz"
                )
            self._target = min(now + 0.25 * self.t_mod, self.deadline)
            return
        if self.state == self.FLUSH:
            self._f_at_engage = probe.output_frequency
            self._f_fb_estimate = max(
                self._f_at_engage / self.pll.n,
                self.pll.vco.f_min / self.pll.n,
            )
            self.state = self.HOLD
            # Fall through: the first have-enough-edges check runs at
            # this same instant, as the scalar hold loop's does.
        if self.state == self.HOLD:
            periods = self.config.frequency_count_periods
            if self._finish_pending:
                self._finish(now, probe)
                return
            self._hold_checks += 1
            have = probe.fb_edges.count_in_gate(self.t_engage, now + 1e-12)
            if have >= periods + 1:
                self._finish(now, probe)
                return
            missing = periods + 1 - have
            self._target = now + (missing + 2) / self._f_fb_estimate
            if self._hold_checks >= 64:
                # The scalar loop gives up re-estimating after 64 checks
                # and counts whatever the final advance provides.
                self._finish_pending = True
            return
        raise MeasurementError("measurement script already finished")

    def _finish(self, now: float, probe) -> None:
        """Stage 4 proper: reciprocal-count the held frequency."""
        measurement = self.freq_counter.measure_reciprocal(
            probe.fb_edges,
            start=self.t_engage,
            periods=self.config.frequency_count_periods,
        ).scaled(self.pll.n)
        f_at_release = probe.output_frequency
        probe.close_loop()
        self.held = HeldFrequencyResult(
            vco_frequency_hz=measurement.frequency_hz,
            measurement=measurement,
            engage_time=self.t_engage,
            frequency_at_engage=self._f_at_engage,
            frequency_at_release=f_at_release,
        )
        self.stage_log.append((TestStage.DONE, now))
        self.state = self.DONE
        self._target = None


class ToneTestSequencer:
    """Run Table 2 stages 0–4 for one tone.

    Parameters
    ----------
    pll:
        Device under test.
    stimulus:
        Modulated-reference family (sine FM / FSK).
    config:
        On-chip test-hardware parameters.
    record:
        Recording level for the per-tone simulations.  The sequence only
        reads the rising-edge trains and the PFD cycle records — none of
        the analogue traces — so ``"counters"`` (the default) skips the
        three per-event trace appends without changing any measured
        value.  Pass ``"full"`` to keep the traces (e.g. for the figure
        benches that plot a tone's waveforms).
    """

    def __init__(
        self,
        pll: ChargePumpPLL,
        stimulus: ModulatedStimulus,
        config: BISTConfig = BISTConfig(),
        record: Union[RecordLevel, str] = RecordLevel.COUNTERS,
    ) -> None:
        config.validate_against_pfd(pll.pfd_reset_delay)
        self.pll = pll
        self.stimulus = stimulus
        self.config = config
        self.record_level = RecordLevel.coerce(record)
        if self.record_level is RecordLevel.OFF:
            raise ConfigurationError(
                "the Table 2 sequence reads the rising-edge trains; "
                "use record='counters' or record='full'"
            )

    def run(
        self,
        f_mod: float,
        max_wait_cycles: float = 3.0,
    ) -> ToneMeasurement:
        """Execute the sequence for modulation frequency ``f_mod`` (Hz).

        ``max_wait_cycles`` bounds how long stage 2 waits for the peak
        detector (in modulation periods) before declaring a failure —
        which *is* a legitimate test outcome for some injected faults.

        Stage 0 is Table 2's fixed wait: ``settle_cycles`` modulation
        periods from the nominal lock point, always simulated.
        """
        cfg = self.config
        t_mod = 1.0 / f_mod
        stage_log: List[Tuple[TestStage, float]] = []
        wall_start = perf_counter()

        # ---- stage 0: apply modulation with the loop locked -----------
        # The peak detector is attached *after* the settle (its latch
        # re-aligns on the first observed PFD cycle, well before the arm
        # instant), exactly as the farm attaches its latch to a settled
        # lane, so both engines see identical observer history from the
        # settle end onwards.
        source = self.stimulus.make_source(f_mod, start_time=0.0)
        sim = PLLTransientSimulator(self.pll, source, record=self.record_level)
        stage_log.append((TestStage.REF_SET, 0.0))
        sim.run_until(cfg.settle_cycles / f_mod)
        wall_settled = perf_counter()

        detector = PeakFrequencyDetector(
            inverter_delay=cfg.detector_inverter_delay,
            and_gate_delay=cfg.detector_and_delay,
        )
        sim.add_cycle_observer(detector.on_cycle)

        # ---- stages 1-4: the shared boundary-driven script -------------
        # The same MeasurementScript drives the vectorized farm's
        # per-lane kernel; here its targets feed the scalar event loop
        # directly.
        script = MeasurementScript(
            self.pll, self.stimulus, cfg, f_mod,
            max_wait_cycles=max_wait_cycles,
        )
        script.stage_log = stage_log  # REF_SET@0.0 already logged above

        def on_peak(event: PeakEvent) -> None:
            if script.capture_event(event):
                sim.open_loop()  # the mux flips within the same PFD cycle

        detector.on_event = on_peak
        wall_monitored = wall_settled
        while True:
            target = script.next_target()
            if target is None:
                break
            if target > sim.now:
                sim.run_until(target)
            monitoring = script.monitoring
            script.advance(sim.now, sim)
            if monitoring and not script.monitoring:
                wall_monitored = perf_counter()
        assert script.held is not None and script.phase_count is not None
        wall_end = perf_counter()

        return ToneMeasurement(
            f_mod=f_mod,
            modulation_period=t_mod,
            held=script.held,
            phase_count=script.phase_count,
            f_out_nominal=self.pll.f_out_nominal,
            arm_time=script.t_arm,
            peak_event=script.event,
            stage_log=script.stage_log,
            timing=ToneTiming(
                settle_s=wall_settled - wall_start,
                monitor_s=wall_monitored - wall_settled,
                measure_s=wall_end - wall_monitored,
            ),
        )

    def measure_nominal_frequency(self, gate_cycles: int = 128) -> float:
        """Stage-0 companion: count the unmodulated output frequency.

        Runs the loop closed with a constant reference and reciprocal-
        counts the divided output, giving the ``f_out`` baseline that
        ``ΔF`` measurements subtract (the paper references deviations to
        the locked nominal frequency).

        The baseline depends only on the device *physics* (not its
        name), the stimulus's nominal frequency, the test clock and
        ``gate_cycles``, so it is memoised process-wide on exactly that
        key — every sequencer measuring a behaviourally identical die
        (each renamed die of a lot, each repeat of a library fault)
        shares one settled baseline instead of re-simulating a
        throwaway lock per device.
        """
        key = (
            self.pll.physics_signature(),
            float(self.stimulus.f_nominal),
            float(self.config.test_clock_hz),
            self.record_level.value,
            int(gate_cycles),
        )
        cached = _NOMINAL_FREQUENCY_MEMO.get(key)
        if cached is not None:
            return cached

        from repro.stimulus.waveforms import ConstantFrequencySource

        source = ConstantFrequencySource(self.stimulus.f_nominal)
        sim = PLLTransientSimulator(self.pll, source, record=self.record_level)
        counter = FrequencyCounter(self.config.test_clock_hz)
        settle = 64.0 / self.stimulus.f_nominal
        sim.run_until(settle)
        t0 = sim.now
        f_fb = self.pll.f_out_nominal / self.pll.n
        sim.run_for((gate_cycles + 2) / f_fb)
        value = counter.measure_reciprocal(
            sim.fb_edges, start=t0, periods=gate_cycles
        ).scaled(self.pll.n).frequency_hz
        _NOMINAL_FREQUENCY_MEMO.put(key, value)
        return value
