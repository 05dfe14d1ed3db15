"""Lot farm: N devices' closed-form event loops, settled and measured.

The scalar :class:`~repro.pll.simulator.PLLTransientSimulator` advances
one device edge-to-edge with closed-form analogue segments.  Stage 0 of
the Table 2 tone sequence — the fixed settling wait — dominates a cold
sweep's cost and touches no measurement hardware, so its event loop is
a pure function of (device physics, stimulus, tone).  This module runs
*many* such settles, each lane on one per-lane kernel
(:meth:`VectorizedLotSimulator._kernel_run`): a specialised scalar
transcription of the same event loop, with the inter-event update
written out in closed form — the polynomial (ramp/hold) or exponential
update between PFD switching instants that Kuznetsov et al.
(arXiv:1901.01468) derive.  The kernel keeps no copy of those laws: it
unpacks into locals the :class:`~repro.pll.loop_filter.SegmentLaw`
the loop filter itself derives for each drive, the one the scalar
engine builds its segments from.  Nor does it copy a VCO tuning curve:
a lane whose VCO has one (the 74HCT4046A's bounded cubic, which has no
closed-form phase integral) calls that VCO's own Simpson rule and
tuning law, as the scalar engine does.

Each lane is one record (:class:`_Lane`): its job, physics table, edge
supply and result, and the scalar simulator's state fields, which the
kernel unpacks into its locals and writes back at its boundaries.

Every lane carries Table 2 stages 1–4 as well.  Once the kernel has
settled a lane, its :class:`~repro.core.sequencer.MeasurementScript` is
armed on the same record and the kernel runs the lane again; the stage
control flow is that shared script, fired at its run-to-target
boundaries with the record as its simulator surface, and the
measurement hardware adds a few event hooks: the hold mux on open
lanes, the Figure 7 latch at every PFD reset, the feedback-edge record
for the reciprocal count.

Bit-identity contract
---------------------
A lane that completes in the farm publishes a
:class:`~repro.core.sequencer.ToneMeasurement` (or a
:class:`~repro.errors.MeasurementError` text) equal to the scalar
sequencer's for the same tone, and its settled state between stage 0
and stage 1 is bit-identical to the scalar simulator's at
``settle_end``.  That holds because:

* every floating-point expression replicates the scalar engine's
  operation sequence exactly (same association, same operand order);
* transcendentals go through scalar :func:`math.exp` /
  :func:`math.expm1`, as in the scalar engine;
* reference edges come from the *real* stimulus source, one per
  (stimulus, tone) group, pulled only as a lane reaches the end of the
  train the group's lanes share;
* a charge pump with a turn-on delay (the dead-zone fault) carries the
  scalar engine's pending-activation event through the kernel;
* a lane the farm cannot represent at all — a VCO subclass, a filter
  class with segment methods of its own (whose segments need not
  follow its laws) or one whose law cannot be derived, an exotic
  source — never enters it and runs nothing here;
* a lane that leaves the supported envelope — where the scalar engine
  raises, or splits a linear VCO's segment at a clamp, or bisects on
  after Newton stalls; the exits are listed under ``_kernel_run`` — is
  *ejected*, mid-settle or mid-measurement, and publishes nothing.

The orchestrating sweep measures every tone the farm left unanswered
from t = 0 on the scalar engine, so correctness never depends on the
fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.sequencer import (
    MeasurementScript,
    ToneMeasurement,
    ToneTiming,
)
from repro.errors import MeasurementError, ReproError
from repro.pll.charge_pump import Drive
from repro.pll.loop_filter import LAW_CONST, LAW_EXP, LAW_RAMP, LoopFilter
from repro.pll.pfd import PFDState
from repro.pll.vco import VCO
from repro.sim.signals import PulseTrain
from repro.sim.segments import (
    ConstantSegment,
    ExponentialSegment,
    RampSegment,
)
from repro.stimulus.waveforms import EdgeSourceBase

__all__ = ["SettleLane", "LaneResult", "VectorizedLotSimulator"]


class _Unsupported(Exception):
    """Internal: this lane cannot be represented on the farm kernel."""


# Event kinds the kernel dispatches; ``_ACT`` is the pump's delayed
# switch-on.
_END, _REF, _FB, _RESET, _ACT = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class SettleLane:
    """One tone job: device × stimulus × tone.

    The farm settles the lane up to ``settle_end`` (Table 2 stage 0),
    then carries it through stages 1–4 as the scalar sequencer would
    with ``config``, the :class:`~repro.core.architecture.BISTConfig`
    whose counters/detector it uses; the phase counter arms at the
    config's ``settle_cycles``-th modulation peak.
    """

    pll: object
    stimulus: object
    f_mod: float
    settle_end: float
    config: object


@dataclass
class LaneResult:
    """Outcome of one lane.

    ``mode`` is ``"vector"`` (settled on the farm's kernel),
    ``"ejected"`` (left the supported envelope mid-settle) or
    ``"scalar"`` (the farm cannot represent it and ran nothing).
    ``nonlinear`` marks lanes whose VCO has a tuning curve, any
    callable (the 4046's compressed cubic, a Ko fault's scaled copy, a
    custom law), whose phase the VCO's own Simpson rule integrates.
    ``measurement`` is set when the farm ran the lane's stages 1–4 to
    an end: the finished
    :class:`~repro.core.sequencer.ToneMeasurement`, or the
    :class:`~repro.errors.MeasurementError` text the scalar sequencer
    raises for the same tone.  ``None`` — always so for ejected and
    scalar lanes, and for a ``"vector"`` lane whose measurement was
    ejected — means the orchestrating sweep measures the tone from
    t = 0 on the scalar engine.
    """

    mode: str
    nonlinear: bool = False
    measurement: Union[ToneMeasurement, str, None] = None


class _PhysicsTable:
    """Per-device constants: drives, segment laws, lock point, divider.

    The segment-law rows are the loop filter's own laws
    (:meth:`~repro.pll.loop_filter.LoopFilter.segment_law`), one per
    interned drive, flattened for the kernel.  The VCO's constants are
    read off ``vco`` itself.
    """

    def __init__(self, pll):
        vco = pll.vco
        pump = pll.pump
        filt = pll.loop_filter
        if type(vco) is not VCO:
            raise _Unsupported("non-standard VCO")
        self.nonlinear = vco.tuning_curve is not None
        #: Pump switch-on delay: a non-zero one arms the kernel's
        #: pending-activation event.
        self.turn_on_delay = float(getattr(pump, "turn_on_delay", 0.0))
        self.pll = pll
        self.vco = vco
        #: The scalar engine's initial filter state (the nominal lock).
        self.vc_lock = float(
            filt.state_for_output(pll.locked_control_voltage()))
        self.nf = float(pll.n)
        self.reset_delay = float(pll.pfd_reset_delay)

        self.drives: List[Drive] = []
        self.s_to_drive = [
            self._intern(pump.drive_for_state(PFDState(up=up, dn=dn)))
            for up, dn in ((False, False), (True, False),
                           (False, True), (True, True))
        ]
        self.idle_idx = self._intern(pump.idle_drive())
        # The scalar engine's ``a is b or a == b`` drive comparison,
        # tabulated over the interned drives.
        self.same = [[a is b or a == b for b in self.drives]
                     for a in self.drives]
        if any(getattr(type(filt), name, None) is not getattr(LoopFilter, name)
               for name in ("state_segment", "output_segment", "segment_pair")):
            raise _Unsupported(f"filter {type(filt).__name__}")
        #: One segment law per interned drive, as a flat tuple the
        #: kernel unpacks into its locals.  A law that cannot be derived
        #: raises the filter's ConfigurationError: the lane runs scalar.
        self.law_rows = [(w.kind, w.asymptote, w.tau, w.slope, 0.5 * w.slope,
                          w.scale, w.offset, w.out_asymptote, w.offset)
                         for w in map(filt.segment_law, self.drives)]

    def _intern(self, drive: Drive) -> int:
        for i, d in enumerate(self.drives):
            if d is drive:
                return i
        self.drives.append(drive)
        return len(self.drives) - 1

class _EdgeSupply:
    """One (stimulus, tone) group's reference edges: a train shared by
    the group's lanes, pulled from the group's source only when a lane
    reaches its end."""

    __slots__ = ("source", "edges")

    def __init__(self, source: EdgeSourceBase, first: float) -> None:
        self.source: Optional[EdgeSourceBase] = source
        self.edges = [first]

    @classmethod
    def start(cls, source: EdgeSourceBase) -> Optional["_EdgeSupply"]:
        """The supply seeded with the source's first edge, or ``None``
        if the group cannot start."""
        try:
            first = source.next_edge()
        except ReproError:
            return None
        if first < 0.0:
            return None  # the scalar engine rejects this identically
        return cls(source, first)

    def pull(self) -> bool:
        """Append the source's next edge.  ``False`` if it raised or did
        not increase; that retires the source, so every lane of the
        group ejects at the same edge."""
        source = self.source
        if source is None:
            return False
        try:
            edge = source.next_edge()
        except ReproError:
            edge = None
        if edge is None or edge <= self.edges[-1]:
            self.source = None
            return False
        self.edges.append(edge)
        return True


class _Lane:
    """One farm lane: its job, physics table, edge supply and result,
    and the scalar simulator's state, field for field (``None``
    wherever the simulator holds ``None``).

    The kernel unpacks the state fields into its locals and writes them
    back at its boundaries.  The record is also the simulator surface a
    :class:`MeasurementScript` reads: ``output_frequency`` goes through
    the *real* filter/VCO objects (``output_segment(...).value(0.0)``,
    exactly as the scalar property) so the boundary reads are
    bit-identical by construction, not by transcription; ``close_loop``
    mirrors the scalar ``close_loop()`` (PFD cleared, pending
    activation dropped, pump idled, rise times retained).
    """

    __slots__ = ("job", "table", "supply", "result",
                 "t", "vc", "phase", "fbt", "j", "tref", "up", "dn",
                 "levt", "pres", "upr", "dnr", "drive", "tact", "act",
                 "events", "loop_open", "script", "fb_edges")

    def __init__(self, job: SettleLane, table: _PhysicsTable,
                 supply: _EdgeSupply) -> None:
        self.job = job
        self.table = table
        self.supply = supply
        self.result: Optional[LaneResult] = None  # set once settled
        self.t = 0.0
        self.vc = table.vc_lock
        self.phase = 0.0
        self.fbt = table.nf
        self.j = 0
        self.tref = supply.edges[0]
        self.up = False
        self.dn = False
        self.levt: Optional[float] = None
        self.pres: Optional[float] = None
        self.upr: Optional[float] = None
        self.dnr: Optional[float] = None
        self.drive = table.idle_idx
        # Pending pump activation: its time (None = none) and drive index.
        self.tact: Optional[float] = None
        self.act = 0
        self.events = 0
        # Stages 1–4: the hold mux, the armed script and the
        # post-capture feedback-edge record.
        self.loop_open = False
        self.script: Optional[MeasurementScript] = None
        self.fb_edges: Optional[PulseTrain] = None

    @property
    def output_frequency(self) -> float:
        table = self.table
        v_out = table.pll.loop_filter.output_segment(
            self.vc, table.drives[self.drive]
        ).value(0.0)
        return table.vco.frequency_of_voltage(v_out)

    def close_loop(self) -> None:
        self.loop_open = False
        self.up = False
        self.dn = False
        self.pres = None
        self.tact = None
        self.drive = self.table.idle_idx


class VectorizedLotSimulator:
    """Settle and measure N lanes; see the module docstring.

    Parameters
    ----------
    lanes:
        The settle jobs; lanes with equal (stimulus cache key, tone)
        share one reference source and its edge train.

    ``lanes`` holds one :class:`_Lane` record per job, in job order,
    or ``None`` for a job the farm cannot represent.  Every record
    settles on the per-lane kernel (:meth:`_kernel_run`), whatever the
    farm's width, and every settled lane then runs stages 1–4 on the
    same kernel.
    """

    def __init__(self, lanes: Sequence[SettleLane]):
        #: Wall-clock split of the farm run: stage 0 (settle) vs the
        #: measurement's stages 1–3 (monitor) and 4 (measure).
        self.wall_settle_s = 0.0
        self.wall_monitor_s = 0.0
        self.wall_measure_s = 0.0
        tables: Dict[int, _PhysicsTable] = {}
        groups: Dict[Tuple, Optional[_EdgeSupply]] = {}
        self.lanes: List[Optional[_Lane]] = []
        for job in lanes:
            try:
                key, source = self._group_source(job)
                table = tables.get(id(job.pll))
                if table is None:
                    table = tables[id(job.pll)] = _PhysicsTable(job.pll)
            except Exception:  # noqa: BLE001 - the scalar sweep reproduces it
                # _Unsupported physics, or an error building the lane
                # (say a tuning curve that raises in the lock search).
                self.lanes.append(None)
                continue
            if key not in groups:
                groups[key] = _EdgeSupply.start(source)
            supply = groups[key]
            self.lanes.append(
                None if supply is None else _Lane(job, table, supply))

    def _group_source(self, job: SettleLane) -> Tuple[Tuple, EdgeSourceBase]:
        """The job's (stimulus cache key, tone) group key and a fresh
        reference source for it."""
        stim = job.stimulus
        cache_key = stim.cache_key()  # AttributeError -> unsupported
        source = stim.make_source(job.f_mod, 0.0)
        if not isinstance(source, EdgeSourceBase):
            raise _Unsupported("source is not a plain edge source")
        return (cache_key, float(job.f_mod)), source

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> List[LaneResult]:
        """Settle every lane, then run its stages 1–4 on the same lane
        record; returns one :class:`LaneResult` per job.

        A lane whose script cannot be built, or whose first target lies
        before the lane's time, keeps ``measurement`` ``None`` and
        publishes nothing.

        The wall split reads the clock when a lane's script leaves
        stages 1–3: time before goes to monitor, time after to measure.
        Each finished measurement is stamped with its own lane's split.
        """
        out = []
        for lane in self.lanes:
            if lane is None:
                out.append(LaneResult(mode="scalar"))
                continue
            t0 = perf_counter()
            self._kernel_run(lane)
            t1 = perf_counter()
            self.wall_settle_s += t1 - t0
            if lane.result.mode == "vector" and self._arm(lane):
                flip = self._kernel_run(lane)
                t3 = perf_counter()
                t2 = t3 if flip is None else flip
                self.wall_monitor_s += t2 - t1
                self.wall_measure_s += t3 - t2
                measurement = lane.result.measurement
                if isinstance(measurement, ToneMeasurement):
                    measurement.timing = ToneTiming(t1 - t0, t2 - t1, t3 - t2)
            out.append(lane.result)
        return out

    def _arm(self, lane: _Lane) -> bool:
        """Arm stage 1 on a settled lane: its measurement script.

        ``False`` leaves the tone to the scalar sweep: the script cannot
        be built (an exotic stimulus), or its first target precedes the
        lane's time.
        """
        job = lane.job
        try:
            script = MeasurementScript(
                lane.table.pll, job.stimulus, job.config, job.f_mod)
        except Exception:  # noqa: BLE001 - exotic stimulus: scalar path
            return False
        target = script.next_target()
        if target is None or target < lane.t:
            return False
        lane.script = script
        return True

    # ------------------------------------------------------------------
    # the per-lane kernel: stage 0 settle and stages 1-4
    # ------------------------------------------------------------------
    def _kernel_run(self, lane: _Lane) -> Optional[float]:
        """Run one lane to its END in a specialised scalar kernel.

        A straight-line transcription of the scalar event loop
        (``run_until`` → ``_next_event`` → ``_advance_to`` →
        ``_dispatch``) with the per-event machinery peeled away: law
        coefficients live in unpacked locals, the reference edges come
        from the group's shared train (a REF event at its end pulls the
        next edge from the group's source), transcendentals are bound
        locals, and the feedback-edge solver is inlined (the constant-law
        one-division fast path, and the safeguarded Newton iteration of
        ``solve_increasing`` for ramp/exponential laws).  Between PFD
        switching instants the state update is closed form: the control
        voltage ramps, holds or relaxes exponentially, and the linear
        VCO's phase is the matching polynomial/exponential integral.
        Every floating-point expression replicates the scalar engine's
        operand order exactly, so a kernel-completed lane is
        bit-identical to a scalar run.  A lane whose VCO has a tuning
        curve makes the scalar engine's own calls instead:
        ``vco._numeric_phase`` for the window, Newton and advance
        integrals and ``vco.frequency_of_voltage`` for the Newton slope.
        An event on the window's horizon (every window the feedback
        edge overshoots) advances by the window's own integral, and on
        a linear lane's exponential law by its decay factor, as the
        scalar engine would recompute them.

        A pump with a turn-on delay adds the scalar engine's activation
        event: the activation time bounds the feedback solver's horizon
        and wins ties, fires as an event that leaves the PFD untouched,
        and is armed, re-armed or cleared by the transcribed
        ``_drive_update`` with its ``is``/``==`` drive comparisons (a
        target equal to the applied drive returns early and leaves a
        pending activation armed, as in scalar).

        The lane record's state fields are unpacked into locals here
        and written back at every END and when a settle ends.  Without
        a :class:`~repro.core.sequencer.MeasurementScript` on the lane,
        END is ``settle_end``: the lane settles, its state stays on the
        record, and its result records the mode.  With one (armed by
        :meth:`_arm`), END is the script's next target, and the scalar
        sequencer's measurement hardware rides on the same events:

        * on an open (held) lane a REF edge also clocks DN — the hold
          mux feeds the reference to both PFD inputs;
        * on an open lane an FB edge is recorded for the reciprocal
          count and reaches neither the PFD nor the drive;
        * on a closed lane the Figure 7 latch is sampled at every
          RESET, after the drive update (the scalar dispatch order);
          its first post-arm maximum is the capture, which opens the
          loop as ``open_loop()`` does — UP, DN, the pending reset and
          the pending activation cleared, the pump idled;
        * at END the locals are written back, the script advances over
          the record itself, and the locals its ``close_loop()`` may
          have changed are read back.

        The script's end publishes the finished measurement, or the
        :class:`~repro.errors.MeasurementError` text, on the lane's
        result.  Returns the wall-clock instant the script left stages
        1–3 (``None`` if it never did, or when settling).

        A state the kernel cannot advance faithfully ejects the lane
        *from its pre-event state*, at an exit whose comment names it.
        The scalar engine raises there (the feedback phase overshot its
        target; the tuning curve raised in a window, a Newton step or an
        advance; the reference source failed; the stage script raised
        other than a MeasurementError at a boundary or at the capture),
        or goes on where the kernel does not: ``phase_advance`` splits a
        linear VCO's segment at a clamp (a window checks both ends of a
        monotone exponential or ramp segment, an advance a held one),
        and ``solve_increasing`` bisects on after Newton stalls.  No
        other scalar error can arise: every event candidate is at or
        after ``t``, a reset is pending only once both rise times are
        set, and a reset wins its ties.  An ejected lane publishes
        nothing: the orchestrating sweep measures its tone from t = 0
        on the scalar engine, which reproduces any error itself.
        """
        table = lane.table
        script = lane.script
        if script is None:
            t_end = float(lane.job.settle_end)
        else:
            t_end = script.next_target()
            inv_d = script.config.detector_inverter_delay
            and_d = script.config.detector_and_delay
            t_arm = script.t_arm
        supply = lane.supply
        edges = supply.edges
        n_edges = len(edges)
        laws = table.law_rows
        s_to_drive = table.s_to_drive
        same = table.same
        idle_idx = table.idle_idx
        delay = table.turn_on_delay
        vco = table.vco
        base_hz = vco._base_hz
        gain = vco.gain_hz_per_v
        f_center = vco.f_center
        v_center = vco.v_center
        f_min = vco.f_min
        f_max = vco.f_max
        v_lo = vco._v_lo
        v_hi = vco._v_hi
        nf = table.nf
        rdelay = table.reset_delay
        nonlinear = table.nonlinear
        numeric_phase = vco._numeric_phase
        frequency_of_voltage = vco.frequency_of_voltage
        exp_ = math.exp
        expm1_ = math.expm1

        # Mutable loop state, unpacked from the lane record.
        t = lane.t
        vc = lane.vc
        phase = lane.phase
        fbt = lane.fbt
        j = lane.j
        tref = lane.tref
        up = lane.up
        dn = lane.dn
        levt = lane.levt
        pres = lane.pres
        upr = lane.upr
        dnr = lane.dnr
        drive_idx = lane.drive
        tact = lane.tact
        act_idx = lane.act
        events = lane.events
        # Stage 1–4 state: the hold mux, the post-capture feedback
        # record, and the Figure 7 latch output (None = never clocked).
        open_ = lane.loop_open
        fb_rec = lane.fb_edges
        latch_q = None
        outcome = None  # the script's end: a measurement or error text
        flip = None

        (l_kind, l_asym, l_tau, l_slope, l_half,
         l_oa, l_ob, l_oasym, l_ooff) = laws[drive_idx]

        # Clamps below are written ``if f_min > f: f = f_min`` /
        # ``if f_max < f: f = f_max``: exactly the builtin
        # ``min(max(f, f_min), f_max)`` the scalar engine evaluates, NaN
        # and signed zeros included, without the two calls.
        eject = False
        while True:
            # --- event selection (transcribes _next_event) ------------
            best_t = t_end
            ekind = _END
            if tref <= best_t:
                best_t = tref
                ekind = _REF
            horizon = best_t
            if pres is not None and pres < horizon:
                horizon = pres
            if tact is not None and tact < horizon:
                horizon = tact
            dt_h = horizon - t
            # The window's phase integral over dt_h, and its decay factor
            # on a linear lane's exponential law, once computed: an event
            # on the horizon advances by exactly them.
            pa_hi = None
            e_hi = None
            need = fbt - phase
            if need <= 1e-9:
                if need < -1e-6:
                    eject = True  # scalar raises "overshot its target"
                    break
                if t <= best_t:
                    best_t = t
                    ekind = _FB
            elif dt_h > 0.0:
                if l_kind == LAW_EXP:
                    out_v = l_oa * vc + l_ob
                elif l_kind == LAW_RAMP:
                    out_v = vc + l_ooff
                else:
                    out_v = vc
                dt_fb = None
                if l_kind == LAW_CONST and not nonlinear:
                    # Tri-stated filter, linear VCO: one division.
                    f = f_center + gain * (out_v - v_center)
                    if f_min > f:
                        f = f_min
                    if f_max < f:
                        f = f_max
                    cand = need / f
                    if cand <= dt_h:
                        dt_fb = cand
                else:
                    # Generic crossing: time_to_phase's reachability
                    # guard plus solve_increasing, inlined.
                    if nonlinear:
                        if l_kind == LAW_EXP:
                            seg = ExponentialSegment(out_v, l_oasym,
                                                     l_tau)
                        elif l_kind == LAW_RAMP:
                            seg = RampSegment(out_v, l_slope)
                        else:
                            seg = ConstantSegment(out_v)
                    gap0 = out_v - l_oasym
                    gk = gap0 * l_tau
                    # pa(dt_h): bracketing guard.  A linear lane's
                    # window must hold both ends of the segment inside
                    # the clamp voltages, where the closed form holds;
                    # the segment is monotone, so every shorter dt the
                    # solver and the advance take stays inside too.
                    if nonlinear:
                        try:
                            pa_hi = numeric_phase(seg, dt_h)
                        except Exception:  # noqa: BLE001 - scalar repro
                            eject = True  # curve raised (window)
                            break
                    elif l_kind == LAW_EXP:
                        x = -dt_h / l_tau
                        e_hi = exp_(x)
                        v1 = l_oasym + gap0 * e_hi
                        # The start is checked as the scalar reads it
                        # (out_v) and as the formula gives it at dt = 0
                        # (l_oasym + gap0): they may differ by rounding.
                        if not (v_lo <= v1 <= v_hi
                                and v_lo <= out_v <= v_hi
                                and v_lo <= l_oasym + gap0 <= v_hi):
                            eject = True  # exp segment meets a clamp
                            break
                        pa_hi = base_hz * dt_h + gain * (
                            l_oasym * dt_h + gk * -expm1_(x))
                    else:  # LAW_RAMP
                        v1 = out_v + l_slope * dt_h
                        if not (v_lo <= v1 <= v_hi
                                and v_lo <= out_v <= v_hi):
                            eject = True  # ramp meets a clamp
                            break
                        pa_hi = base_hz * dt_h + gain * (
                            out_v * dt_h + (l_half * dt_h) * dt_h)
                    if pa_hi >= need:
                        # solve_increasing(pa, need, 0.0, dt_h):
                        # pa(0) == 0 so f_lo = -need < 0 always.
                        if pa_hi == need:
                            dt_fb = dt_h
                        else:
                            lo = 0.0
                            hi = dt_h
                            x_s = 0.5 * (lo + hi)
                            for _ in range(200):
                                if hi - lo <= 1e-13:
                                    dt_fb = 0.5 * (lo + hi)
                                    break
                                if nonlinear:
                                    try:
                                        pa_x = numeric_phase(seg, x_s)
                                        f_d = frequency_of_voltage(
                                            seg.value(x_s))
                                    except Exception:  # noqa: BLE001
                                        eject = True  # curve raised (Newton)
                                        break
                                elif l_kind == LAW_EXP:
                                    x = -x_s / l_tau
                                    v1 = l_oasym + gap0 * exp_(x)
                                    pa_x = base_hz * x_s + gain * (
                                        l_oasym * x_s
                                        + gk * -expm1_(x))
                                else:
                                    v1 = out_v + l_slope * x_s
                                    pa_x = base_hz * x_s + gain * (
                                        out_v * x_s
                                        + (l_half * x_s) * x_s)
                                f_x = pa_x - need
                                if f_x == 0.0:
                                    dt_fb = x_s
                                    break
                                if f_x < 0.0:
                                    lo = x_s
                                else:
                                    hi = x_s
                                # Newton candidate off the segment's
                                # instantaneous frequency (a nonlinear
                                # lane's came with its phase above).  On
                                # a linear lane the output voltage at x_s
                                # is v1, the same expression evaluated
                                # above.
                                if not nonlinear:
                                    f_d = f_center + gain * (v1 - v_center)
                                    if f_min > f_d:
                                        f_d = f_min
                                    if f_max < f_d:
                                        f_d = f_max
                                x_next = None
                                if f_d > 0.0:
                                    candidate = x_s - f_x / f_d
                                    if lo < candidate < hi:
                                        x_next = candidate
                                if x_next is None:
                                    x_next = 0.5 * (lo + hi)
                                x_s = x_next
                            else:
                                # The scalar solve bisects on.
                                eject = True  # Newton stalled
                            if eject:
                                break
                if dt_fb is not None and t + dt_fb <= best_t:
                    best_t = t + dt_fb
                    ekind = _FB
            if pres is not None and pres <= best_t:
                best_t = pres
                ekind = _RESET
            if tact is not None and tact <= best_t:
                best_t = tact
                ekind = _ACT

            # --- the next reference edge, pulled pre-commit -----------
            if ekind == _REF and j + 1 >= n_edges:
                if not supply.pull():
                    eject = True  # the source failed
                    break
                n_edges += 1

            # --- advance (transcribes _advance_to + phase_advance) ----
            dt = best_t - t
            if dt > 0.0:
                if dt == dt_h:
                    pa = pa_hi  # None unless the window integrated dt_h
                else:
                    pa = None
                    e_hi = None
                if pa is None and nonlinear:
                    try:
                        pa = numeric_phase(seg, dt)
                    except Exception:  # noqa: BLE001 - scalar repro
                        eject = True  # curve raised (advance)
                        break
                # An advance over a moving segment follows its window in
                # the same pass: out_v and gk are this segment's.
                if l_kind == LAW_EXP:
                    e = e_hi
                    if e is None:
                        x = -dt / l_tau
                        e = exp_(x)
                    if pa is None:
                        pa = base_hz * dt + gain * (
                            l_oasym * dt + gk * -expm1_(x))
                    vc = l_asym + (vc - l_asym) * e
                elif l_kind == LAW_RAMP:
                    if pa is None:
                        pa = base_hz * dt + gain * (
                            out_v * dt + (l_half * dt) * dt)
                    vc = vc + l_slope * dt
                elif pa is None:
                    # A held segment has no window check.
                    if not v_lo <= vc <= v_hi:
                        eject = True  # held voltage past a clamp
                        break
                    pa = base_hz * dt + gain * (vc * dt)
                phase = phase + pa
            t = best_t

            if ekind == _END:
                if script is None:
                    break
                # --- run-to-target boundary: fire the stage script ----
                (lane.t, lane.vc, lane.phase, lane.fbt, lane.j, lane.tref,
                 lane.up, lane.dn, lane.levt, lane.pres, lane.upr, lane.dnr,
                 lane.drive, lane.tact, lane.act, lane.events,
                 lane.loop_open) = (t, vc, phase, fbt, j, tref, up, dn, levt,
                                    pres, upr, dnr, drive_idx, tact, act_idx,
                                    events, open_)
                monitoring = script.monitoring
                try:
                    script.advance(t, lane)
                except MeasurementError as exc:
                    # A legitimate test outcome (no-MFREQ starvation, a
                    # count that never gated), raised with the scalar
                    # sequencer's own text: published, not replayed.
                    outcome = str(exc)
                    break
                except Exception:  # noqa: BLE001 - scalar reproduces it
                    eject = True  # script.advance raised
                    break
                if monitoring and not script.monitoring:
                    flip = perf_counter()
                t_end = script.next_target()
                if t_end is None:
                    outcome = ToneMeasurement(
                        f_mod=script.f_mod,
                        modulation_period=script.t_mod,
                        held=script.held,
                        phase_count=script.phase_count,
                        f_out_nominal=table.pll.f_out_nominal,
                        arm_time=script.t_arm,
                        peak_event=script.event,
                        stage_log=script.stage_log,
                    )
                    break
                # The script's close_loop() may have touched the loop.
                open_ = lane.loop_open
                up = lane.up
                dn = lane.dn
                pres = lane.pres
                tact = lane.tact
                drive_idx = lane.drive
                (l_kind, l_asym, l_tau, l_slope, l_half,
                 l_oa, l_ob, l_oasym, l_ooff) = laws[drive_idx]
                continue

            # --- commit the dispatch ----------------------------------
            events += 1
            if ekind == _ACT:
                # The pump switches on: no PFD activity, no drive
                # update — only the delayed drive is applied.
                tact = None
                if not same[act_idx][drive_idx]:
                    drive_idx = act_idx
                    (l_kind, l_asym, l_tau, l_slope, l_half,
                     l_oa, l_ob, l_oasym, l_ooff) = laws[drive_idx]
                continue
            if ekind == _FB:
                phase = fbt
                fbt = fbt + nf
                if fb_rec is not None:
                    fb_rec.record(best_t)
                if open_:
                    # The hold mux keeps the PFD's FB input on the
                    # reference: the edge is counted, nothing else.
                    continue
                levt = best_t
                if not dn:
                    dn = True
                    dnr = best_t
                    if up:
                        pres = best_t + rdelay
            elif ekind == _REF:
                levt = best_t
                if not up:
                    up = True
                    upr = best_t
                    if dn:
                        pres = best_t + rdelay
                if open_ and not dn:
                    # Hold mux: the same edge also clocks DN.
                    dn = True
                    dnr = best_t
                    if up:
                        pres = best_t + rdelay
                j += 1
                tref = edges[j]
            else:  # _RESET
                levt = best_t
                up = False
                dn = False
                pres = None
            # Transcribes _drive_update.  A target equal to the applied
            # drive returns early and leaves a pending activation armed.
            new_idx = s_to_drive[(1 if up else 0) + (2 if dn else 0)]
            if new_idx != drive_idx and not same[new_idx][drive_idx]:
                if delay == 0.0 or same[new_idx][idle_idx]:
                    tact = None
                    drive_idx = new_idx
                    (l_kind, l_asym, l_tau, l_slope, l_half,
                     l_oa, l_ob, l_oasym, l_ooff) = laws[drive_idx]
                else:
                    tact = best_t + delay
                    act_idx = new_idx
            if ekind == _RESET and script is not None and not open_:
                # Figure 7 latch: D = NOT(DN still high one inverter
                # delay before the AND-gated clock); a falling Q is the
                # output-frequency maximum (MFREQ).
                t_clk = max(upr, dnr) + and_d
                t_look = t_clk - inv_d
                d = not (dnr <= t_look < best_t)
                if latch_q and not d and t_clk > t_arm:
                    # Stage 3: the first post-arm MFREQ stops the phase
                    # counter and flips the hold mux.  open_loop() also
                    # clears the flip-flops and the pending reset, which
                    # this reset just did.
                    try:
                        script.capture(t_clk)
                    except Exception:  # noqa: BLE001 - scalar repro
                        eject = True  # script.capture raised
                        break
                    open_ = True
                    fb_rec = PulseTrain(f"{table.pll.name}.fb")
                    lane.fb_edges = fb_rec
                    tact = None
                    if not same[idle_idx][drive_idx]:
                        drive_idx = idle_idx
                        (l_kind, l_asym, l_tau, l_slope, l_half,
                         l_oa, l_ob, l_oasym, l_ooff) = laws[drive_idx]
                latch_q = d

        if script is not None:
            # The script's end is published on the lane's result; an
            # ejection leaves the tone to the sweep's scalar engine.
            lane.script = None
            lane.fb_edges = None
            if not eject:
                lane.result.measurement = outcome
            return flip
        # Write the locals back: stage 1 arms on this settled state (an
        # ejected lane keeps its pre-event state, which nothing arms).
        (lane.t, lane.vc, lane.phase, lane.fbt, lane.j, lane.tref, lane.up,
         lane.dn, lane.levt, lane.pres, lane.upr, lane.dnr, lane.drive,
         lane.tact, lane.act, lane.events) = (
            t, vc, phase, fbt, j, tref, up, dn, levt, pres, upr, dnr,
            drive_idx, tact, act_idx, events)
        lane.result = LaneResult(
            mode="ejected" if eject else "vector", nonlinear=nonlinear,
        )
        return None
