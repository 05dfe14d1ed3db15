"""Event-driven closed-loop CP-PLL transient simulator.

The simulator advances from PFD-relevant event to event (reference
rising edges, divided-VCO rising edges, PFD resets, charge-pump
activations), evolving the loop-filter capacitor and the VCO phase in
closed form between events (DESIGN.md §6).  There is no time-stepping
truncation error; the only numerical knob is the edge-crossing solver
tolerance (~1e-13 s).

Observables produced per run (:class:`TransientResult`):

* rising-edge trains of the reference and the divided VCO output — what
  the BIST frequency/phase counters see;
* UP/DOWN waveforms of the PFD, with real dead-zone glitches — what the
  peak-detector latch of Figure 7 samples;
* sampled traces of the VCO control node, capacitor voltage and
  instantaneous output frequency — the analogue ground truth used by
  tests and by the Figure 8 bench.

The simulator also implements the paper's **loop-hold** mechanism
(Section 4, PFD property (3)): :meth:`open_loop` re-routes the reference
onto *both* PFD inputs (the Figure 6 mux setting A=C, B=D), so the pump
only emits contention glitches, the capacitor holds, and the VCO
free-runs at its captured frequency while the divided output keeps
clocking the frequency counter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Tuple, Union

from repro.errors import ConfigurationError, LockError, SimulationError
from repro.pll.charge_pump import Drive
from repro.pll.config import ChargePumpPLL
from repro.pll.pfd import PFDCycle, PhaseFrequencyDetector
from repro.sim.probes import Trace
from repro.sim.signals import PulseTrain

__all__ = [
    "RecordLevel",
    "ReferenceSource",
    "PLLTransientSimulator",
    "TransientResult",
]


class RecordLevel(enum.Enum):
    """How much a transient run records, from heaviest to lightest.

    * ``FULL`` — analogue traces, PFD UP/DOWN waveforms and the rising-
      edge trains: everything the figure benches plot.
    * ``COUNTERS`` — only the reference/feedback rising-edge trains, the
      records the BIST counters actually read.  Analogue traces and PFD
      waveforms are skipped, which roughly halves the per-event work of
      a sweep tone.
    * ``OFF`` — nothing is recorded; only the scalar loop state (time,
      capacitor voltage, VCO phase) evolves.  Edge-history queries such
      as :meth:`PLLTransientSimulator.run_until_locked` are unavailable.
    """

    FULL = "full"
    COUNTERS = "counters"
    OFF = "off"

    @classmethod
    def coerce(cls, value: Union["RecordLevel", str]) -> "RecordLevel":
        """Accept either a member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            options = ", ".join(repr(m.value) for m in cls)
            raise ConfigurationError(
                f"unknown record level {value!r}; expected one of {options}"
            ) from None


class ReferenceSource(Protocol):
    """Anything that produces the PLL reference rising-edge times.

    Implementations live in :mod:`repro.stimulus`; the simulator only
    requires strictly increasing times.
    """

    def next_edge(self) -> float:
        """Return the time of the next reference rising edge."""
        ...


@dataclass
class TransientResult:
    """Recorded observables of one transient run."""

    ref_edges: PulseTrain
    fb_edges: PulseTrain
    pfd: PhaseFrequencyDetector
    control_trace: Trace
    cap_trace: Trace
    frequency_trace: Trace
    end_time: float = 0.0
    events: int = 0

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"TransientResult(t_end={self.end_time:.6g}s, events={self.events}, "
            f"ref_edges={len(self.ref_edges)}, fb_edges={len(self.fb_edges)})"
        )


class PLLTransientSimulator:
    """Closed-loop behavioral simulation of one :class:`ChargePumpPLL`.

    Parameters
    ----------
    pll:
        The PLL description (components + operating point).
    reference:
        Source of reference rising-edge times (see :mod:`repro.stimulus`).
    initial_control_voltage:
        Starting VCO control voltage; defaults to the locked operating
        point (Table 2 assumes the test starts from lock).
    sample_interval:
        Optional uniform sampling period for the analogue traces, in
        addition to samples taken at every event.  ``None`` records at
        events only.
    record_pfd:
        Record UP/DOWN edge streams (needed by the peak detector and the
        Figure 5/8 benches).  Only honoured at ``record="full"``; the
        lighter levels always skip the waveforms.
    record:
        Recording policy (:class:`RecordLevel` or its string value).
        ``"full"`` (default) records everything; ``"counters"`` keeps
        only the rising-edge trains the BIST counters read; ``"off"``
        records nothing.  Sweeps run thousands of events per tone and
        never look at the analogue traces, so the tone sequencer uses
        ``"counters"``.
    """

    def __init__(
        self,
        pll: ChargePumpPLL,
        reference: ReferenceSource,
        initial_control_voltage: Optional[float] = None,
        sample_interval: Optional[float] = None,
        record_pfd: bool = True,
        start_time: float = 0.0,
        record: Union[RecordLevel, str] = RecordLevel.FULL,
    ) -> None:
        if sample_interval is not None and sample_interval <= 0.0:
            raise ConfigurationError(
                f"sample_interval must be positive, got {sample_interval!r}"
            )
        self.pll = pll
        self.reference = reference
        self.sample_interval = sample_interval
        self.record_level = RecordLevel.coerce(record)
        self._record_traces = self.record_level is RecordLevel.FULL
        self._record_edges = self.record_level is not RecordLevel.OFF

        self._t = start_time
        self._pfd = PhaseFrequencyDetector(
            reset_delay=pll.pfd_reset_delay,
            record=record_pfd and self._record_traces,
            name=f"{pll.name}.pfd",
        )
        v0 = (
            initial_control_voltage
            if initial_control_voltage is not None
            else pll.locked_control_voltage()
        )
        self._vc = pll.loop_filter.state_for_output(v0)
        self._applied_drive: Drive = pll.pump.idle_drive()
        self._pending_activation: Optional[Tuple[float, Drive]] = None

        # VCO phase bookkeeping, in cycles.  The feedback divider is
        # folded in: a divided rising edge occurs each time the phase
        # crosses the next multiple of N.
        self._vco_phase = 0.0
        self._fb_target = float(pll.n)

        self._t_ref_next = reference.next_edge()
        if self._t_ref_next < start_time:
            raise SimulationError(
                f"reference source produced an edge at t={self._t_ref_next!r} "
                f"before the simulation start {start_time!r}"
            )
        self._next_sample = (
            start_time + sample_interval if sample_interval is not None else None
        )
        self._loop_open = False
        self._cycle_observers: List[Callable[[PFDCycle], None]] = []

        self.ref_edges = PulseTrain(f"{pll.name}.ref")
        self.fb_edges = PulseTrain(f"{pll.name}.fb")
        self.control_trace = Trace(f"{pll.name}.vcontrol")
        self.cap_trace = Trace(f"{pll.name}.vcap")
        self.frequency_trace = Trace(f"{pll.name}.fout")
        self._events = 0
        # (output_segment, state_segment) for the current (vc, drive);
        # invalidated whenever either changes.  Each event interrogates
        # the segments several times (event search, advance, recording),
        # so rebuilding them per call dominated the per-event cost.
        self._seg_cache: Optional[Tuple] = None
        initial_segment, __ = self._segments()
        self._record(self._t, initial_segment.value(0.0))

    # ------------------------------------------------------------------
    # public control
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._t

    @property
    def control_voltage(self) -> float:
        """VCO control-node voltage at the current instant."""
        segment = self.pll.loop_filter.output_segment(self._vc, self._applied_drive)
        return segment.value(0.0)

    @property
    def output_frequency(self) -> float:
        """Instantaneous VCO frequency at the current instant.

        Includes the filter zero's feed-through: read *inside* a
        charge-pump pulse this hops by hundreds of hertz for the pulse
        duration.  For the slow (cycle-averaged) frequency use
        :attr:`output_frequency_smoothed`.
        """
        return self.pll.vco.frequency_of_voltage(self.control_voltage)

    @property
    def output_frequency_smoothed(self) -> float:
        """Capacitor-referred VCO frequency — the cycle-averaged value.

        The capacitor node carries the loop's integrated state without
        the per-pulse feed-through steps, so this is the frequency a
        counter (or the paper's hold-and-count) reports.
        """
        return self.pll.vco.frequency_of_voltage(self._vc)

    @property
    def loop_is_open(self) -> bool:
        """Whether the hold mux currently routes REF to both PFD inputs."""
        return self._loop_open

    def add_cycle_observer(self, observer: Callable[[PFDCycle], None]) -> None:
        """Register a callback fired after every completed PFD cycle.

        Observers receive the :class:`~repro.pll.pfd.PFDCycle` record and
        may act on the simulator (e.g. the BIST peak detector engaging
        :meth:`open_loop` the instant the output-frequency peak is
        detected — the mux switch-over of Table 2 stage 3).
        """
        self._cycle_observers.append(observer)

    def open_loop(self) -> None:
        """Break the loop: REF drives both PFD inputs (Fig. 6, A=C B=D).

        From here on the PFD sees coincident edges, emits only dead-zone
        glitches, and the VCO frequency holds (up to pump leakage and
        filter leak faults — which is exactly what the hold-accuracy
        ablation measures).

        The PFD flip-flops are cleared at the switch-over: a pulse in
        flight would otherwise be stranded ON (its terminating feedback
        edge no longer reaches the PFD) and charge the filter for a full
        reference period.  Clearing on mux hand-over is the conservative
        hardware design, and what the Table 2 sequencer's timing
        (engaging right after a PFD reset) implicitly assumes.
        """
        self._loop_open = True
        self._pfd.reset_state(self._t)
        self._pending_activation = None
        self._apply_drive(self.pll.pump.idle_drive())

    def close_loop(self) -> None:
        """Re-close the loop after a hold.

        The PFD flip-flops are cleared, mirroring the mux switch-over
        transient being short compared to a reference period.
        """
        self._loop_open = False
        self._pfd.reset_state(self._t)
        self._pending_activation = None
        self._apply_drive(self.pll.pump.idle_drive())

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run_until(self, t_end: float) -> None:
        """Advance the simulation to ``t_end`` seconds (absolute)."""
        if t_end < self._t:
            raise SimulationError(
                f"t_end {t_end!r} precedes current time {self._t!r}"
            )
        while True:
            event_time, kind = self._next_event(t_end)
            if kind == "end":
                self._advance_to(t_end)
                return
            self._advance_to(event_time)
            self._dispatch(kind)
            self._events += 1

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.run_until(self._t + duration)

    def run_until_locked(
        self,
        tolerance_cycles: float = 1e-3,
        consecutive: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> float:
        """Run until the loop is phase-locked; return the lock time.

        Lock is declared when ``consecutive`` successive reference edges
        each have a feedback edge within ``tolerance_cycles`` of a
        reference period.  ``consecutive`` defaults to roughly two loop
        natural periods' worth of reference cycles — edges also align
        briefly at phase-error *extrema* during an underdamped
        transient, so the streak must outlast those stationary points.
        Raises :class:`~repro.errors.LockError` on timeout.
        """
        if not self._record_edges:
            raise ConfigurationError(
                "run_until_locked needs the rising-edge trains; construct "
                "the simulator with record='full' or record='counters'"
            )
        t_start = self._t
        period = 1.0 / self.pll.f_ref
        if consecutive is None:
            try:
                fn_hz = self.pll.natural_frequency() / (2.0 * math.pi)
                consecutive = max(8, int(2.0 * self.pll.f_ref / fn_hz))
            except Exception:
                consecutive = 50
        if timeout is None:
            timeout = 5000.0 * period
        deadline = t_start + timeout
        checked = len(self.ref_edges)
        good = 0
        while self._t < deadline:
            self.run_until(min(self._t + 20.0 * period, deadline))
            # O(1) cached view of the edge buffer; together with the
            # incrementally advancing ``checked`` index each edge is
            # examined exactly once over the whole settle (the old
            # per-chunk ``np.array(list)`` copy made this quadratic).
            ref = self.ref_edges.as_array()
            # Leave the most recent edge unchecked: its feedback partner
            # may not have been produced yet.
            while checked < len(ref) - 1:
                t_ref = ref[checked]
                prev = self.fb_edges.last_at_or_before(t_ref + 0.5 * period)
                checked += 1
                if prev is None:
                    good = 0
                    continue
                if abs(prev - t_ref) <= tolerance_cycles * period:
                    good += 1
                    if good >= consecutive:
                        return float(t_ref)
                else:
                    good = 0
        raise LockError(
            f"{self.pll.name}: no lock within {timeout:.3g}s "
            f"(tolerance {tolerance_cycles} cycles, "
            f"streak {consecutive} edges)"
        )

    def result(self) -> TransientResult:
        """Snapshot of everything recorded so far."""
        return TransientResult(
            ref_edges=self.ref_edges,
            fb_edges=self.fb_edges,
            pfd=self._pfd,
            control_trace=self.control_trace,
            cap_trace=self.cap_trace,
            frequency_trace=self.frequency_trace,
            end_time=self._t,
            events=self._events,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _segments(self):
        cached = self._seg_cache
        if cached is None:
            cached = self._seg_cache = self.pll.loop_filter.segment_pair(
                self._vc, self._applied_drive
            )
        return cached

    def _next_event(self, t_end: float) -> Tuple[float, str]:
        """Earliest upcoming event: its absolute time and kind.

        Ties are resolved with a fixed priority (activation, reset,
        feedback, reference, sample, end) so behaviour is deterministic;
        coincident reference/feedback edges are both processed, one
        event at a time.  The winner is tracked inline (ascending
        priority order, strict ``<`` on time) instead of building and
        min-scanning a candidate list — this runs once per event.
        """
        # Candidates are checked in descending priority number and each
        # replaces the winner on ``<=``, which reproduces the
        # (time, priority) lexicographic minimum of the old list scan.
        best_t, best_kind = t_end, "end"
        if self._next_sample is not None and self._next_sample <= best_t:
            best_t, best_kind = self._next_sample, "sample"
        if self._t_ref_next <= best_t:
            best_t, best_kind = self._t_ref_next, "ref"
        # The feedback edge (priority 2) is interleaved here so the
        # cheaper candidates above already bound the solver horizon.
        horizon = best_t
        pending_reset = self._pfd.pending_reset_time
        if pending_reset is not None and pending_reset < horizon:
            horizon = pending_reset
        if self._pending_activation is not None:
            t_act = self._pending_activation[0]
            if t_act < horizon:
                horizon = t_act
        dt_h = horizon - self._t
        if dt_h < 0.0:
            raise SimulationError(
                f"event horizon {horizon!r} precedes current time {self._t!r}"
            )
        need = self._fb_target - self._vco_phase
        if need <= 1e-9:
            # The phase target was reached (or is within a nanocycle of
            # being reached — under 1e-13 s even for the slowest loops,
            # i.e. inside the edge solver's own tolerance) at the
            # previous event: the divided edge is due *now*.  Exact lock
            # does this every cycle, and quantizing the sub-tolerance
            # residual to zero is what keeps coincident reference and
            # feedback edges *bit-identical* instead of dithering one
            # ulp apart.  Anything beyond tolerance is a genuine
            # bookkeeping bug.
            if need < -1e-6:
                raise SimulationError(
                    f"feedback phase overshot its target by {-need!r} "
                    "cycles; divider bookkeeping is corrupt"
                )
            if self._t <= best_t:
                best_t, best_kind = self._t, "fb"
        elif dt_h > 0.0:
            out_segment = self._segments()[0]
            dt_fb = self.pll.vco.time_to_phase(out_segment, need, dt_h)
            if dt_fb is not None and self._t + dt_fb <= best_t:
                best_t, best_kind = self._t + dt_fb, "fb"
        if pending_reset is not None and pending_reset <= best_t:
            best_t, best_kind = pending_reset, "reset"
        if self._pending_activation is not None:
            t_act = self._pending_activation[0]
            if t_act <= best_t:
                best_t, best_kind = t_act, "activate"
        return best_t, best_kind

    def _advance_to(self, t_next: float) -> None:
        dt = t_next - self._t
        if dt < 0.0:
            raise SimulationError(
                f"cannot advance backwards: {t_next!r} < {self._t!r}"
            )
        if dt == 0.0:
            return
        out_segment, state_segment = self._segments()
        self._vco_phase += self.pll.vco.phase_advance(out_segment, dt)
        self._vc = state_segment.value(dt)
        self._seg_cache = None
        self._t = t_next
        if self._record_traces:
            self._record(t_next, out_segment.value(dt))

    def _record(self, t: float, vout: float) -> None:
        if not self._record_traces:
            return
        self.control_trace.append(t, vout)
        self.cap_trace.append(t, self._vc)
        self.frequency_trace.append(t, self.pll.vco.frequency_of_voltage(vout))

    def _dispatch(self, kind: str) -> None:
        if kind == "ref":
            if self._record_edges:
                self.ref_edges.record(self._t)
            self._pfd.on_ref_edge(self._t)
            if self._loop_open:
                # Hold mux: the same edge also clocks the FB input.
                self._pfd.on_fb_edge(self._t)
            self._drive_update()
            t_next = self.reference.next_edge()
            if t_next <= self._t_ref_next:
                raise SimulationError(
                    "reference source must produce strictly increasing edges"
                )
            self._t_ref_next = t_next
        elif kind == "fb":
            # Land exactly on the divider boundary despite solver tolerance.
            self._vco_phase = self._fb_target
            self._fb_target += float(self.pll.n)
            if self._record_edges:
                self.fb_edges.record(self._t)
            if not self._loop_open:
                self._pfd.on_fb_edge(self._t)
                self._drive_update()
        elif kind == "reset":
            cycle = self._pfd.on_reset(self._t)
            self._drive_update()
            for observer in self._cycle_observers:
                observer(cycle)
        elif kind == "activate":
            assert self._pending_activation is not None
            __, drive = self._pending_activation
            self._pending_activation = None
            self._apply_drive(drive)
        elif kind == "sample":
            assert self._next_sample is not None and self.sample_interval
            self._next_sample += self.sample_interval
        else:  # pragma: no cover - guarded by _next_event
            raise SimulationError(f"unknown event kind {kind!r}")

    def _drive_update(self) -> None:
        pump = self.pll.pump
        target = pump.drive_for_state(self._pfd.state)
        applied = self._applied_drive
        # The pump interns its drives, so the unchanged-drive case (every
        # coincident-edge cycle of a locked loop) is an identity hit.
        if target is applied or target == applied:
            return
        idle = pump.idle_drive()
        if target is idle or target == idle or pump.turn_on_delay == 0.0:
            # De-assertion is immediate; so is everything on an ideal pump.
            self._pending_activation = None
            self._apply_drive(target)
        else:
            # Assertion suffers the turn-on delay: pulses narrower than
            # the delay never reach the filter — the dead zone.
            self._pending_activation = (self._t + pump.turn_on_delay, target)

    def _apply_drive(self, drive: Drive) -> None:
        applied = self._applied_drive
        if drive is applied or drive == applied:
            return
        self._applied_drive = drive
        self._seg_cache = None
        # The control node can jump discontinuously when the drive
        # changes (the filter zero); re-record so traces show the step.
        if self._record_traces:
            out_segment, _ = self._segments()
            self._record(self._t, out_segment.value(0.0))

    def __repr__(self) -> str:
        return (
            f"PLLTransientSimulator(pll={self.pll.name!r}, t={self._t!r}, "
            f"events={self._events}, loop_open={self._loop_open!r})"
        )
