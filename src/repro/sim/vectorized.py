"""Lot farm: N devices' closed-form event loops, settled and measured.

The scalar :class:`~repro.pll.simulator.PLLTransientSimulator` advances
one device edge-to-edge with closed-form analogue segments.  Stage 0 of
the Table 2 tone sequence — the fixed settling wait — dominates a cold
sweep's cost and touches no measurement hardware, so its event loop is
a pure function of (device physics, stimulus, tone).  This module runs
*many* such settles, each lane on one per-lane kernel
(:meth:`VectorizedLotSimulator._kernel_run`): a specialised scalar
transcription of the same event loop, with the segment laws unpacked
into locals and the inter-event update written out in closed form —
the polynomial (ramp/hold) or exponential update between PFD switching
instants that Kuznetsov et al. (arXiv:1901.01468) derive.

The kernel also carries Table 2 stages 1–4.  A lane with a
:class:`MeasureSpec` re-enters it from its settled state; the stage
control flow is the shared
:class:`~repro.core.sequencer.MeasurementScript`, fired at its
run-to-target boundaries, and the measurement hardware adds a few event
hooks: the hold mux on open lanes, the Figure 7 latch at every PFD
reset, the feedback-edge record for the reciprocal count.

Bit-identity contract
---------------------
A lane that completes in the farm yields a
:class:`~repro.pll.simulator.SimulatorSnapshot` **bit-identical** to
what the scalar engine produces for the same settle, and a lane it
measures a :class:`~repro.core.sequencer.ToneMeasurement` (or a
:class:`~repro.errors.MeasurementError` text) equal to the scalar
sequencer's.  That holds because:

* every floating-point expression replicates the scalar engine's
  operation sequence exactly (same association, same operand order);
* transcendentals go through scalar :func:`math.exp` /
  :func:`math.expm1`, as in the scalar engine;
* reference edges come from the *real* stimulus source's phase law,
  generated once per (stimulus, tone) group and shared by every lane in
  the group;
* a charge pump with a turn-on delay (the dead-zone fault) carries the
  scalar engine's pending-activation event through the kernel;
* a lane the farm cannot represent at all — an unrecognised tuning
  curve, an exotic filter or source — never enters it and runs
  nothing here;
* a lane that leaves the supported envelope mid-settle — VCO clamp
  excursion, a PFD anomaly — is *ejected*: its state (a valid
  event-boundary snapshot, a pending activation included) is
  materialised and a scalar simulator finishes the settle, from which
  the kernel measures;
* a lane ejected mid-measurement publishes nothing.

The orchestrating sweep settles and measures every tone the farm left
unanswered on the scalar engine, so correctness never depends on the
fast path.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sequencer import (
    MeasurementScript,
    ToneMeasurement,
    ToneTiming,
)
from repro.errors import MeasurementError, ReproError
from repro.pll.charge_pump import Drive, DriveKind
from repro.pll.hct4046 import HCT4046Config
from repro.pll.loop_filter import PassiveLagLeadFilter, SeriesRCFilter
from repro.pll.pfd import PFDSnapshot, PFDState
from repro.pll.simulator import (
    PLLTransientSimulator,
    RecordLevel,
    SimulatorSnapshot,
)
from repro.pll.vco import VCO
from repro.sim.signals import PulseTrain
from repro.sim.segments import (
    ClampedCubicLaw,
    ConstantSegment,
    ExponentialSegment,
    RampSegment,
)
from repro.stimulus.waveforms import (
    EdgeSourceBase,
    PiecewiseConstantFrequencySource,
)

__all__ = ["MeasureSpec", "SettleLane", "LaneResult",
           "VectorizedLotSimulator"]


class _Unsupported(Exception):
    """Internal: this lane cannot be represented on the farm kernel."""


# Segment-law kinds, per (physics, drive) row.
_CONST, _RAMP, _EXP = 0, 1, 2

# Event kinds the kernel dispatches; ``_ACT`` is the pump's delayed
# switch-on.
_END, _REF, _FB, _RESET, _ACT = 0, 1, 2, 3, 4


def _tuning_law_for(curve) -> Optional[ClampedCubicLaw]:
    """A batchable law replicating ``curve``, or ``None`` if unknown.

    Only the 4046 device model's bound :meth:`tuning_curve` is
    recognised; anything else (a lambda, a subclass override) stays on
    the scalar path.  The caller still probe-verifies the returned law
    against the real curve, so recognition is a fast filter, not the
    correctness guarantee.
    """
    fn = getattr(curve, "__func__", None)
    cfg = getattr(curve, "__self__", None)
    if fn is HCT4046Config.tuning_curve and type(cfg) is HCT4046Config:
        return cfg.tuning_law()
    return None


def _simpson_phase(law: ClampedCubicLaw, segment, dt: float,
                   f_min: float, f_max: float) -> float:
    """Composite-Simpson phase integral over one segment, batched.

    Bit-identical to :meth:`repro.pll.vco.VCO._numeric_phase` for a VCO
    whose ``tuning_curve`` the ``law`` replicates: the 33 node voltages
    come from ``segment.evolve_batch`` (scalar ``math.exp`` per element),
    the tuning law is applied through ``law.evolve_batch`` (masked rail
    clamp), the ``[f_min, f_max]`` clamp through ``np.minimum``/
    ``np.maximum`` (elementwise-identical to scalar ``min``/``max``),
    and the weighted sum accumulates in the scalar node order.
    """
    n = 32
    h = dt / n
    if type(segment) is ConstantSegment:
        # Every node sees the same voltage (the dominant tri-stated
        # state of a locked loop); evaluate the law once but keep the
        # node-by-node accumulation order so the sum stays bit-exact.
        f0 = law.evolve(segment.initial)
        f0 = min(max(f0, f_min), f_max)
        total = f0 + f0
        for i in range(1, n):
            total += (4.0 if i % 2 else 2.0) * f0
        return float(total * h / 3.0)
    offs = np.empty(n + 1, dtype=np.float64)
    for i in range(1, n):
        offs[i] = i * h
    offs[0] = 0.0
    offs[n] = dt
    f = law.evolve_batch(segment.evolve_batch(offs))
    f = np.minimum(np.maximum(f, f_min), f_max)
    total = f[0] + f[n]
    for i in range(1, n):
        total += (4.0 if i % 2 else 2.0) * f[i]
    return float(total * h / 3.0)


def _pcw_edge_train(source, t_end: float) -> Optional[List[float]]:
    """Inline edge generation for a piecewise-constant-frequency source.

    A straight-line transcription of
    :meth:`~repro.stimulus.waveforms.EdgeSourceBase.next_edge` with the
    phase/frequency laws of
    :class:`~repro.stimulus.waveforms.PiecewiseConstantFrequencySource`
    flattened into the loop body (same expressions, same operation
    order, same solver iteration), producing bit-identical edge times
    several times faster than the generic method-dispatch path.  The
    source's linear segment scan takes the first ``i`` with
    ``frac_t <= t1s[i]``; on the sorted segment end times (every dwell
    is positive) that is exactly ``bisect_left(t1s, frac_t)``, so the
    selected segment — and every computed value — is unchanged.  Each
    edge costs ~27 phase/frequency evaluations, and the frequency at an
    instant whose phase was just evaluated rides along for free.

    Returns ``None`` whenever the source is not the exact expected type
    and state, or any condition the generic path would treat as an
    error arises — the caller then falls back to pulling edges from the
    real source.
    """
    if type(source) is not PiecewiseConstantFrequencySource:
        return None
    if source._k != 0 or source._t_last != source.start_time:
        return None
    start = source.start_time
    sched = source.schedule
    f0 = sched[0][0]
    cyc = source._cycle
    ppc = source._phase_per_cycle
    bounds = source._bounds
    n_seg = len(sched)
    t0s = [b[0] for b in bounds[:-1]]
    p0s = [b[1] for b in bounds[:-1]]
    t1s = [b[0] for b in bounds[1:]]
    fs = [f for f, _d in sched]
    floor = math.floor
    bisect = bisect_left

    edges: List[float] = []
    t_last = start
    k = 0
    while True:
        k += 1
        target = float(k)
        lo = t_last
        # f_lo = freq_at(lo)
        rel = lo - start
        if rel <= 0.0:
            f_lo = f0
        else:
            frac_t = rel - floor(rel / cyc) * cyc
            i = bisect(t1s, frac_t)
            f_lo = fs[i] if i < n_seg else f0
        if f_lo <= 0.0:
            return None
        hi = lo + 1.5 / f_lo
        for _ in range(64):
            # ph = phase_at(hi); the frequency at the same instant
            # shares rel/frac_t/i, so it rides along for free.
            rel = hi - start
            if rel <= 0.0:
                ph = rel * f0
                fq = f0
            else:
                cycles = floor(rel / cyc)
                frac_t = rel - cycles * cyc
                i = bisect(t1s, frac_t)
                if i < n_seg:
                    ph = (cycles * ppc + p0s[i]) + fs[i] * (frac_t - t0s[i])
                    fq = fs[i]
                else:
                    ph = (cycles * ppc + ppc) + f0 * 0.0
                    fq = f0
            if ph >= target:
                break
            lo = hi
            hi = lo + 1.5 / max(fq, 1e-12)
        else:
            return None
        # solve_increasing(phase_at, target, lo, hi, derivative=freq_at)
        f_hi_b = ph - target  # ph is phase_at(hi) from the bracket break
        # f_lo_b = phase_at(lo) - target
        rel = lo - start
        if rel <= 0.0:
            ph = rel * f0
        else:
            cycles = floor(rel / cyc)
            frac_t = rel - cycles * cyc
            i = bisect(t1s, frac_t)
            if i < n_seg:
                ph = (cycles * ppc + p0s[i]) + fs[i] * (frac_t - t0s[i])
            else:
                ph = (cycles * ppc + ppc) + f0 * 0.0
        f_lo_b = ph - target
        if f_lo_b > 0.0 or f_hi_b < 0.0:
            return None
        if f_lo_b == 0.0:
            t_edge = lo
        elif f_hi_b == 0.0:
            t_edge = hi
        else:
            x = 0.5 * (lo + hi)
            t_edge = None
            for _ in range(200):
                if hi - lo <= 1e-13:
                    t_edge = 0.5 * (lo + hi)
                    break
                # f_x = phase_at(x) - target, keeping the segment index
                # for the derivative below (freq_at(x) shares it).
                rel = x - start
                if rel <= 0.0:
                    ph = rel * f0
                    d = f0
                else:
                    cycles = floor(rel / cyc)
                    frac_t = rel - cycles * cyc
                    i = bisect(t1s, frac_t)
                    if i < n_seg:
                        ph = (cycles * ppc + p0s[i]) \
                            + fs[i] * (frac_t - t0s[i])
                        d = fs[i]
                    else:
                        ph = (cycles * ppc + ppc) + f0 * 0.0
                        d = f0
                f_x = ph - target
                if f_x == 0.0:
                    t_edge = x
                    break
                if f_x < 0.0:
                    lo = x
                else:
                    hi = x
                x_next = None
                if d > 0.0:
                    candidate = x - f_x / d
                    if lo < candidate < hi:
                        x_next = candidate
                if x_next is None:
                    x_next = 0.5 * (lo + hi)
                x = x_next
            if t_edge is None:
                return None
        if t_edge <= t_last and k > 1:
            return None
        t_last = t_edge
        if not edges and t_edge < 0.0:
            return None
        edges.append(t_edge)
        if t_edge > t_end:
            return edges


@dataclass(frozen=True)
class MeasureSpec:
    """Stage 1–4 measurement request riding on a :class:`SettleLane`.

    ``config`` is the :class:`~repro.core.architecture.BISTConfig` whose
    counters/detector the scalar sequencer would use; the phase counter
    arms at its ``settle_cycles``-th modulation peak, as in the scalar
    sequencer.
    """

    config: object
    max_wait_cycles: float = 3.0


@dataclass(frozen=True)
class SettleLane:
    """One settle job: device × stimulus × tone, up to ``settle_end``.

    ``measure`` asks the farm to carry the lane through Table 2 stages
    1–4 after the settle.
    """

    pll: object
    stimulus: object
    f_mod: float
    settle_end: float
    record: RecordLevel = RecordLevel.COUNTERS
    measure: Optional[MeasureSpec] = None


@dataclass
class LaneResult:
    """Outcome of one lane.

    ``mode`` is ``"vector"`` (settled on the farm's kernel),
    ``"ejected"`` (left the supported envelope mid-settle, scalar
    finish) or ``"scalar"`` (the farm cannot represent it: nothing ran,
    and ``snapshot`` is ``None``).  An ejected lane whose scalar finish
    raised carries the text in ``error`` and no ``snapshot``; the
    orchestrating sweep reproduces the identical error itself.
    ``nonlinear`` marks lanes whose device carries a recognised
    nonlinear (4046-style) VCO tuning curve.  ``measurement`` is set
    when the lane carried a :class:`MeasureSpec` and the farm ran its
    stages 1–4 to an end: the finished :class:`~repro.core.sequencer.
    ToneMeasurement`, or the :class:`~repro.errors.MeasurementError`
    text the scalar sequencer raises for the same tone.  ``None``
    means the orchestrating sweep runs the tone on the scalar engine.
    """

    snapshot: Optional[SimulatorSnapshot]
    mode: str
    error: Optional[str] = None
    nonlinear: bool = False
    measurement: Union[ToneMeasurement, str, None] = None


@dataclass
class _LawRow:
    """Replicated segment laws for one (filter, drive) pair.

    ``kind`` selects the closed form; the coefficients reproduce the
    filter's ``segment_pair`` output bit-for-bit (verified at build
    time against the real filter at a probe voltage).
    """

    kind: int
    asym: float = 0.0      # state-law asymptote (exp)
    tau: float = 1.0       # state/output time constant (exp)
    slope: float = 0.0     # state/output slope (ramp)
    half_slope: float = 0.0
    o_a: float = 1.0       # output initial = o_a * vc + o_b  (exp)
    o_b: float = 0.0
    o_asym: float = 0.0    # output-law asymptote (exp)
    o_off: float = 0.0     # output initial = vc + o_off      (ramp)


def _build_law(filt, drive: Drive) -> _LawRow:
    """Replicate the loop filter's segment formulas for one drive."""
    if type(filt) is PassiveLagLeadFilter:
        r_total = drive.source_resistance + filt.r1 + filt.r2
        r_out = filt.r2
    elif type(filt) is SeriesRCFilter:
        r_total = drive.source_resistance + filt.r
        r_out = filt.r
    else:
        raise _Unsupported(f"filter {type(filt).__name__}")
    r_l = filt.leak_resistance
    leaky = math.isfinite(r_l)
    if drive.kind is DriveKind.VOLTAGE:
        if r_total <= 0.0:
            raise _Unsupported("voltage drive into zero series resistance")
        if leaky:
            tau = filt.c * r_total * r_l / (r_total + r_l)
            asym = drive.value * r_l / (r_total + r_l)
        else:
            tau = filt.c * r_total
            asym = drive.value
        k = r_out / r_total
        return _LawRow(
            kind=_EXP, asym=asym, tau=tau,
            o_a=1.0 - k, o_b=k * drive.value,
            o_asym=(1.0 - k) * asym + k * drive.value,
        )
    if drive.kind is DriveKind.CURRENT:
        o_off = drive.value * r_out
        if leaky:
            asym = drive.value * r_l
            return _LawRow(
                kind=_EXP, asym=asym, tau=r_l * filt.c,
                o_a=1.0, o_b=o_off, o_asym=asym + o_off,
            )
        slope = drive.value / filt.c
        return _LawRow(
            kind=_RAMP, slope=slope, half_slope=0.5 * slope, o_off=o_off,
        )
    # HIGH_Z
    if leaky:
        return _LawRow(kind=_EXP, asym=0.0, tau=r_l * filt.c,
                       o_a=1.0, o_b=0.0, o_asym=0.0)
    return _LawRow(kind=_CONST)


def _verify_law(filt, drive: Drive, row: _LawRow, probe_vc: float) -> None:
    """Cross-check a replicated law against the real filter.

    Guards the bit-identity contract against future filter changes: a
    mismatch demotes the physics to the scalar path instead of
    producing silently-wrong fast-path results.
    """
    out, state = filt.segment_pair(probe_vc, drive)
    if row.kind == _CONST:
        ok = (type(state).__name__ == "ConstantSegment"
              and state.initial == probe_vc and out is state)
    elif row.kind == _RAMP:
        ok = (isinstance(state, RampSegment)
              and isinstance(out, RampSegment)
              and state.initial == probe_vc
              and state.slope == row.slope
              and out.slope == row.slope
              and out.initial == probe_vc + row.o_off)
    else:
        ok = (isinstance(state, ExponentialSegment)
              and isinstance(out, ExponentialSegment)
              and state.initial == probe_vc
              and state.asymptote == row.asym
              and state.tau == row.tau
              and out.tau == row.tau
              and out.asymptote == row.o_asym
              and out.initial == row.o_a * probe_vc + row.o_b)
    if not ok:
        raise _Unsupported(
            f"filter {type(filt).__name__} law mismatch under "
            f"{drive.kind.name} drive"
        )


class _PhysicsTable:
    """Per-device constants: drives, segment laws, VCO line, divider."""

    def __init__(self, pll, probe_vc: float):
        vco = pll.vco
        pump = pll.pump
        filt = pll.loop_filter
        if type(vco) is not VCO:
            raise _Unsupported("non-standard VCO")
        self.nonlinear = False
        self.law: Optional[ClampedCubicLaw] = None
        if vco.tuning_curve is not None:
            law = _tuning_law_for(vco.tuning_curve)
            if law is None:
                raise _Unsupported("unrecognised nonlinear VCO tuning curve")
            # Probe-verify the replicated law against the real curve at
            # the operating point, the rails, beyond the rails and
            # mid-rail: a mismatch (a future model change) demotes the
            # lane to the scalar path instead of silently diverging.
            for v in (probe_vc, 0.0, law.v_rail, law.v_center,
                      -0.5 * law.v_rail, 1.5 * law.v_rail):
                if law.evolve(v) != vco.tuning_curve(v):
                    raise _Unsupported("nonlinear tuning law mismatch")
            self.nonlinear = True
            self.law = law
        #: Pump switch-on delay: a non-zero one arms the kernel's
        #: pending-activation event.
        self.turn_on_delay = float(getattr(pump, "turn_on_delay", 0.0))
        if math.isnan(self.turn_on_delay):
            # An activation due at NaN never compares due: scalar only.
            raise _Unsupported("NaN pump turn-on delay")
        try:
            self.base_hz = vco._base_hz
            self.v_lo = vco._v_lo
            self.v_hi = vco._v_hi
        except AttributeError:
            raise _Unsupported("VCO without precomputed clamp window")
        self.pll = pll
        self.vco = vco
        #: The scalar engine's initial filter state (the nominal lock).
        self.vc_lock = float(probe_vc)
        self.gain = vco.gain_hz_per_v
        self.f_center = vco.f_center
        self.v_center = vco.v_center
        self.f_min = vco.f_min
        self.f_max = vco.f_max
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
        laws = [_build_law(filt, d) for d in self.drives]
        for drive, row in zip(self.drives, laws):
            _verify_law(filt, drive, row, probe_vc)
        #: One segment law per interned drive, as a flat tuple the
        #: kernel unpacks into its locals.
        self.law_rows = [(r.kind, r.asym, r.tau, r.slope, r.half_slope,
                          r.o_a, r.o_b, r.o_asym, r.o_off) for r in laws]

    def _intern(self, drive: Drive) -> int:
        for i, d in enumerate(self.drives):
            if d is drive:
                return i
        self.drives.append(drive)
        return len(self.drives) - 1

    def drive_index(self, drive: Drive) -> Optional[int]:
        """Index of ``drive`` among the interned drives (``is`` first,
        then ``==``); ``None`` for a drive this table never produces."""
        for i, d in enumerate(self.drives):
            if d is drive:
                return i
        for i, d in enumerate(self.drives):
            if d == drive:
                return i
        return None


class VectorizedLotSimulator:
    """Settle N lanes (and measure those that ask); see the module docstring.

    Parameters
    ----------
    lanes:
        The settle jobs; lanes with equal (stimulus cache key, tone)
        share one generated reference-edge stream.

    Every lane the farm can represent settles on the per-lane kernel
    (:meth:`_kernel_run`), whatever the farm's width; every settled lane
    with a :class:`MeasureSpec` then runs stages 1–4 on the same kernel.
    """

    def __init__(self, lanes: Sequence[SettleLane]):
        self.lanes = list(lanes)
        self.stats = {"vector": 0, "ejected": 0, "scalar": 0,
                      "failed": 0, "nonlinear": 0,
                      "measured": 0, "measure_ejected": 0,
                      "measure_failed": 0}
        #: Wall-clock split of the farm run: stage 0 (settle) vs the
        #: measurement's stages 1–3 (monitor) and 4 (measure).
        self.wall_settle_s = 0.0
        self.wall_monitor_s = 0.0
        self.wall_measure_s = 0.0
        self._results: List[Optional[LaneResult]] = [None] * len(self.lanes)
        self._vec: List[int] = []          # lane positions in the farm
        self._fallback: List[int] = []     # lane positions the farm skips
        self._prepare()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        tables: Dict[int, _PhysicsTable] = {}
        groups: Dict[Tuple, Optional[List[float]]] = {}
        group_end: Dict[Tuple, float] = {}
        group_lanes: Dict[Tuple, List[int]] = {}

        candidates: List[Tuple[int, _PhysicsTable, Tuple]] = []
        for pos, lane in enumerate(self.lanes):
            try:
                key = self._group_key(lane)
                table = tables.get(id(lane.pll))
                if table is None:
                    probe = lane.pll.loop_filter.state_for_output(
                        lane.pll.locked_control_voltage()
                    )
                    table = _PhysicsTable(lane.pll, probe)
                    tables[id(lane.pll)] = table
            except (_Unsupported, ReproError, AttributeError, TypeError):
                self._fallback.append(pos)
                continue
            candidates.append((pos, table, key))
            end = lane.settle_end
            if lane.measure is not None:
                end = max(end, self._measure_horizon(lane))
            group_end[key] = max(group_end.get(key, 0.0), end)
            group_lanes.setdefault(key, []).append(pos)

        supported: List[Tuple[int, _PhysicsTable, List[float]]] = []
        for pos, table, key in candidates:
            if key not in groups:
                groups[key] = self._generate_edges(self.lanes[pos],
                                                   group_end[key])
                if groups[key] is None:
                    self._fallback.extend(group_lanes[key])
            edges = groups[key]
            if edges is not None:
                supported.append((pos, table, edges))
        self._init_lanes(supported)

    def _measure_horizon(self, lane: SettleLane) -> float:
        """Edge-train horizon covering stages 1–4 for one lane.

        An estimate, not a bound: the peak-watch deadline, the two
        reference-period flush, and a generous multiple of the
        reciprocal-count window.  A lane that outruns it hits the
        edge-exhaustion eject in :meth:`_kernel_run` and measures on
        the scalar path — lossless, merely slower.
        """
        spec = lane.measure
        try:
            pll = lane.pll
            t_mod = 1.0 / lane.f_mod
            t_arm = lane.stimulus.modulation_peak_time(
                lane.f_mod, start_time=0.0,
                index=spec.config.settle_cycles,
            )
            deadline = t_arm + spec.max_wait_cycles * t_mod
            periods = spec.config.frequency_count_periods
            count = 4.0 * (periods + 8) * pll.n / pll.f_out_nominal
            return deadline + 2.0 / pll.f_ref + count
        except Exception:  # noqa: BLE001 - estimate only; eject covers
            return lane.settle_end

    def _group_key(self, lane: SettleLane) -> Tuple:
        stim = lane.stimulus
        cache_key = stim.cache_key()  # AttributeError -> unsupported
        source = stim.make_source(lane.f_mod, 0.0)
        if not isinstance(source, EdgeSourceBase):
            raise _Unsupported("source is not a plain edge source")
        if (type(source).snapshot_state is not EdgeSourceBase.snapshot_state
                or type(source).restore_state
                is not EdgeSourceBase.restore_state):
            raise _Unsupported("source overrides its snapshot protocol")
        return (cache_key, float(lane.f_mod))

    def _generate_edges(self, lane: SettleLane,
                        t_end: float) -> Optional[List[float]]:
        """Pull the source's edge train out to just past ``t_end``.

        Piecewise-constant sources (the multitone FSK stimulus) go
        through the inlined transcription :func:`_pcw_edge_train`; its
        first edges are cross-checked against the real generator at
        runtime before being trusted.  Everything else — and any bail —
        pulls every edge from the real source.
        """
        try:
            source = lane.stimulus.make_source(lane.f_mod, 0.0)
            fast = _pcw_edge_train(source, t_end)
            if fast:
                if all(source.next_edge() == fast[i]
                       for i in range(min(2, len(fast)))):
                    return fast
                source = lane.stimulus.make_source(lane.f_mod, 0.0)
            edges = [source.next_edge()]
            if edges[0] < 0.0:
                return None  # the scalar engine rejects this identically
            while edges[-1] <= t_end:
                nxt = source.next_edge()
                if nxt <= edges[-1]:
                    return None
                edges.append(nxt)
        except ReproError:
            return None
        return edges

    def _init_lanes(
        self,
        supported: List[Tuple[int, _PhysicsTable, List[float]]],
    ) -> None:
        """Lane state at t = 0: the scalar simulator's fields, one list
        entry per farm lane (``None`` wherever the simulator holds
        ``None``), read into the kernel's locals and written back at
        its boundaries."""
        n = len(supported)
        self._vec = [pos for pos, __, __ in supported]
        self._tables = [table for __, table, __ in supported]
        self._edges = [edges for __, __, edges in supported]
        self._t = [0.0] * n
        self._vc = [table.vc_lock for table in self._tables]
        self._phase = [0.0] * n
        self._fbt = [table.nf for table in self._tables]
        self._j = [0] * n
        self._tref = [edges[0] for edges in self._edges]
        self._up = [False] * n
        self._dn = [False] * n
        self._levt: List[Optional[float]] = [None] * n
        self._pres: List[Optional[float]] = [None] * n
        self._upr: List[Optional[float]] = [None] * n
        self._dnr: List[Optional[float]] = [None] * n
        self._drive = [table.idle_idx for table in self._tables]
        # Pending pump activation: its time (None = none) and drive index.
        self._tact: List[Optional[float]] = [None] * n
        self._act = [0] * n
        self._events = [0] * n
        # Stage 1–4 state the script's probe reads and writes: the hold
        # mux, the script itself and the post-capture feedback record.
        self._open = [False] * n
        self._mscript: List[Optional[MeasurementScript]] = [None] * n
        self._fb_rec: List[Optional[PulseTrain]] = [None] * n

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> List[LaneResult]:
        """Settle every lane, then run stages 1–4 for lanes carrying a
        :class:`MeasureSpec`; returns one :class:`LaneResult` per lane."""
        wall0 = perf_counter()
        for pos in self._fallback:
            self._results[pos] = LaneResult(snapshot=None, mode="scalar")
        for i in range(len(self._vec)):
            self._kernel_run(i)
        self.wall_settle_s += perf_counter() - wall0
        self._run_measure()
        out = []
        for pos, result in enumerate(self._results):
            assert result is not None, f"lane {pos} never resolved"
            self.stats[result.mode] += 1
            if result.error is not None:
                self.stats["failed"] += 1
            if result.nonlinear:
                self.stats["nonlinear"] += 1
            out.append(result)
        return out

    # ------------------------------------------------------------------
    # measurement: Table 2 stages 1-4 on the per-lane kernel
    # ------------------------------------------------------------------
    def _run_measure(self) -> None:
        """Carry every settled lane with a MeasureSpec through stages 1–4.

        Each such lane is reloaded from its settle result (a farm- or
        scalar-finished snapshot) and driven through the
        arm / peak-watch / hold-and-count stages by :meth:`_kernel_run`,
        the same kernel that settles lanes.  A lane whose script
        finishes publishes its :class:`~repro.core.sequencer.
        ToneMeasurement`; one whose script raises
        :class:`~repro.errors.MeasurementError` publishes the error
        text, which the scalar sequencer raises identically from the
        same snapshot.  A lane the kernel cannot load or advance
        faithfully publishes nothing and the orchestrating sweep runs
        the tone on the scalar engine, so correctness never depends on
        this phase.

        The wall split reads the clock when a lane's script leaves
        stages 1–3: time before goes to monitor, time after to measure.
        """
        for i, pos in enumerate(self._vec):
            lane = self.lanes[pos]
            result = self._results[pos]
            if lane.measure is None or result.snapshot is None:
                continue
            if not self._load_measure_state(i, lane, result.snapshot):
                self.stats["measure_ejected"] += 1
                continue
            t0 = perf_counter()
            flip = self._kernel_run(i)
            t2 = perf_counter()
            t1 = t2 if flip is None else flip
            self.wall_monitor_s += t1 - t0
            self.wall_measure_s += t2 - t1

    def _load_measure_state(self, i: int, lane: SettleLane,
                            snap: SimulatorSnapshot) -> bool:
        """Restore one settled snapshot into the lane state; arm stage 1.

        Mirrors :meth:`~repro.pll.simulator.PLLTransientSimulator.
        restore` for the state the kernel carries, a pending pump
        activation included; anything it cannot represent (an
        unknown drive, a foreign edge cursor, an open loop) leaves the
        lane settle-only for the scalar sequencer.
        """
        table = self._tables[i]
        spec = lane.measure
        if snap.loop_open or snap.next_sample is not None:
            return False
        drive_idx = table.drive_index(snap.applied_drive)
        if drive_idx is None:
            return False
        t_act, act_idx = None, 0
        if snap.pending_activation is not None:
            t_act, act_drive = snap.pending_activation
            act_idx = table.drive_index(act_drive)
            if act_idx is None:
                return False
        state = snap.source_state
        try:
            j = int(state[0]) - 1
            t_last = float(state[1])
        except (TypeError, ValueError, IndexError):
            return False
        edges = self._edges[i]
        if not (0 <= j < len(edges)):
            return False
        if edges[j] != snap.t_ref_next or t_last != snap.t_ref_next:
            return False
        try:
            script = MeasurementScript(
                table.pll, lane.stimulus, spec.config, lane.f_mod,
                max_wait_cycles=spec.max_wait_cycles,
            )
        except Exception:  # noqa: BLE001 - exotic stimulus: scalar path
            return False
        target = script.next_target()
        if target is None or target < snap.time:
            return False
        pfd = snap.pfd
        self._t[i] = snap.time
        self._vc[i] = snap.vc
        self._phase[i] = snap.vco_phase
        self._fbt[i] = snap.fb_target
        self._j[i] = j
        self._tref[i] = edges[j]
        self._up[i] = pfd.up
        self._dn[i] = pfd.dn
        self._levt[i] = pfd.last_event_time
        self._pres[i] = pfd.pending_reset
        self._upr[i] = pfd.last_up_rise
        self._dnr[i] = pfd.last_dn_rise
        self._drive[i] = drive_idx
        self._tact[i] = t_act
        self._act[i] = act_idx
        self._events[i] = snap.events
        self._mscript[i] = script
        return True

    # ------------------------------------------------------------------
    # the per-lane kernel: stage 0 settle and stages 1-4
    # ------------------------------------------------------------------
    def _kernel_run(self, lane: int) -> Optional[float]:
        """Run one lane to its END in a specialised scalar kernel.

        A straight-line transcription of the scalar event loop
        (``run_until`` → ``_next_event`` → ``_advance_to`` →
        ``_dispatch``) with the per-event machinery peeled away: law
        coefficients live in unpacked locals, the reference edges come
        from the pregenerated shared train, transcendentals are bound
        locals, and the feedback-edge solver is inlined (the constant-law
        one-division fast path, and the safeguarded Newton iteration of
        ``solve_increasing`` for ramp/exponential laws).  Between PFD
        switching instants the state update is closed form: the control
        voltage ramps, holds or relaxes exponentially, and the linear
        VCO's phase is the matching polynomial/exponential integral.
        Every floating-point expression replicates the scalar engine's
        operand order exactly, so a kernel-completed lane is
        bit-identical to a scalar run.  Nonlinear (4046-style) lanes
        integrate phase via :func:`_simpson_phase`, bit-identical to
        ``VCO._numeric_phase``.

        A pump with a turn-on delay adds the scalar engine's activation
        event: the activation time bounds the feedback solver's horizon
        and wins ties, fires as an event that leaves the PFD untouched,
        and is armed, re-armed or cleared by the transcribed
        ``_drive_update`` with its ``is``/``==`` drive comparisons (a
        target equal to the applied drive returns early and leaves a
        pending activation armed, as in scalar).

        Without a :class:`~repro.core.sequencer.MeasurementScript` on
        the lane, END is ``settle_end`` and the lane's result is its
        settled snapshot.  With one (loaded by
        :meth:`_load_measure_state`), END is the script's next target,
        and the scalar sequencer's measurement hardware rides on the
        same events:

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
          a :class:`_LaneProbe`, and the locals the probe may have
          changed are read back.

        The script's end publishes the finished measurement, or the
        :class:`~repro.errors.MeasurementError` text, on the lane's
        result.  Returns the wall-clock instant the script left stages
        1–3 (``None`` if it never did, or when settling).

        Any state the kernel cannot advance faithfully — a clamp-window
        excursion, a solver failure, any condition the scalar engine
        treats as an error — ejects the lane *from its pre-event state*.
        A settling lane is finished (or its error reproduced) by a
        scalar simulator from that snapshot; a measuring lane keeps its
        settle-only result.
        """
        table = self._tables[lane]
        script = self._mscript[lane]
        if script is None:
            t_end = float(self.lanes[self._vec[lane]].settle_end)
        else:
            t_end = script.next_target()
            inv_d = script.config.detector_inverter_delay
            and_d = script.config.detector_and_delay
            t_arm = script.t_arm
        edges = self._edges[lane]
        n_edges = len(edges)
        laws = table.law_rows
        s_to_drive = table.s_to_drive
        same = table.same
        idle_idx = table.idle_idx
        delay = table.turn_on_delay
        base_hz = table.base_hz
        gain = table.gain
        f_center = table.f_center
        v_center = table.v_center
        f_min = table.f_min
        f_max = table.f_max
        v_lo = table.v_lo
        v_hi = table.v_hi
        nf = table.nf
        rdelay = table.reset_delay
        nonlinear = table.nonlinear
        nl_law = table.law
        exp_ = math.exp
        expm1_ = math.expm1

        # Mutable loop state, unpacked from the lane lists.
        t = self._t[lane]
        vc = self._vc[lane]
        phase = self._phase[lane]
        fbt = self._fbt[lane]
        j = self._j[lane]
        tref = self._tref[lane]
        up = self._up[lane]
        dn = self._dn[lane]
        levt = self._levt[lane]
        pres = self._pres[lane]
        upr = self._upr[lane]
        dnr = self._dnr[lane]
        drive_idx = self._drive[lane]
        tact = self._tact[lane]
        act_idx = self._act[lane]
        events = self._events[lane]
        # Stage 1–4 state: the hold mux, the post-capture feedback
        # record, and the Figure 7 latch output (None = never clocked).
        open_ = False
        fb_rec = None
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
            if dt_h < 0.0:
                eject = True  # scalar raises "horizon precedes time"
                break
            need = fbt - phase
            if need <= 1e-9:
                if need < -1e-6:
                    eject = True  # scalar raises "overshot its target"
                    break
                if t <= best_t:
                    best_t = t
                    ekind = _FB
            elif dt_h > 0.0:
                if l_kind == _EXP:
                    out_v = l_oa * vc + l_ob
                elif l_kind == _RAMP:
                    out_v = vc + l_ooff
                else:
                    out_v = vc
                dt_fb = None
                if l_kind == _CONST and not nonlinear:
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
                    seg = None
                    if nonlinear:
                        if l_kind == _EXP:
                            seg = ExponentialSegment(out_v, l_oasym,
                                                     l_tau)
                        elif l_kind == _RAMP:
                            seg = RampSegment(out_v, l_slope)
                        else:
                            seg = ConstantSegment(out_v)
                    gap0 = out_v - l_oasym
                    gk = gap0 * l_tau
                    # pa(dt_h): bracketing guard.  A linear lane's
                    # window must hold both ends of the segment; once
                    # it does, out_v is known in range and the solver
                    # below only re-checks the moving end.
                    if nonlinear:
                        pa_hi = _simpson_phase(nl_law, seg, dt_h,
                                               f_min, f_max)
                    elif l_kind == _EXP:
                        x = -dt_h / l_tau
                        v1 = l_oasym + gap0 * exp_(x)
                        if not (v_lo <= v1 <= v_hi
                                and v_lo <= out_v <= v_hi):
                            eject = True  # clamp excursion mid-solve
                            break
                        pa_hi = base_hz * dt_h + gain * (
                            l_oasym * dt_h + gk * -expm1_(x))
                    else:  # _RAMP
                        v1 = out_v + l_slope * dt_h
                        if not (v_lo <= v1 <= v_hi
                                and v_lo <= out_v <= v_hi):
                            eject = True
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
                                    pa_x = _simpson_phase(
                                        nl_law, seg, x_s, f_min, f_max)
                                elif l_kind == _EXP:
                                    x = -x_s / l_tau
                                    v1 = l_oasym + gap0 * exp_(x)
                                    if not v_lo <= v1 <= v_hi:
                                        eject = True
                                        break
                                    pa_x = base_hz * x_s + gain * (
                                        l_oasym * x_s
                                        + gk * -expm1_(x))
                                else:
                                    v1 = out_v + l_slope * x_s
                                    if not v_lo <= v1 <= v_hi:
                                        eject = True
                                        break
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
                                # instantaneous frequency.  On a linear
                                # lane the output voltage at x_s is v1,
                                # the same expression evaluated above.
                                if nonlinear:
                                    if l_kind == _EXP:
                                        v_d = l_oasym \
                                            + gap0 * exp_(-x_s / l_tau)
                                    elif l_kind == _RAMP:
                                        v_d = out_v + l_slope * x_s
                                    else:
                                        v_d = out_v
                                    f_d = nl_law.evolve(v_d)
                                else:
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
                                eject = True  # scalar: ConvergenceError
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

            # --- dispatch validity (checks only, pre-commit) ----------
            if ekind != _END and ekind != _ACT:
                if levt is not None and best_t < levt:
                    eject = True  # PFD monotonicity violation
                    break
                if ekind == _RESET:
                    if upr is None or dnr is None:
                        eject = True  # reset with no cycle in flight
                        break
                else:
                    if pres is not None and best_t >= pres:
                        eject = True  # edge after pending reset was due
                        break
                    if ekind == _REF and j + 1 >= n_edges:
                        eject = True  # edge train exhausted
                        break

            # --- advance (transcribes _advance_to + phase_advance) ----
            dt = best_t - t
            if dt > 0.0:
                if l_kind == _EXP:
                    ov = l_oa * vc + l_ob
                    x = -dt / l_tau
                    e = exp_(x)
                    gap0 = ov - l_oasym
                    if nonlinear:
                        pa = _simpson_phase(
                            nl_law, ExponentialSegment(ov, l_oasym,
                                                       l_tau),
                            dt, f_min, f_max)
                    else:
                        v1 = l_oasym + gap0 * e
                        if not (v_lo <= v1 <= v_hi and v_lo <= ov <= v_hi):
                            eject = True
                            break
                        pa = base_hz * dt + gain * (
                            l_oasym * dt + (gap0 * l_tau) * -expm1_(x))
                    vc = l_asym + (vc - l_asym) * e
                elif l_kind == _RAMP:
                    ov = vc + l_ooff
                    if nonlinear:
                        pa = _simpson_phase(
                            nl_law, RampSegment(ov, l_slope),
                            dt, f_min, f_max)
                    else:
                        v1 = ov + l_slope * dt
                        if not (v_lo <= v1 <= v_hi and v_lo <= ov <= v_hi):
                            eject = True
                            break
                        pa = base_hz * dt + gain * (
                            ov * dt + (l_half * dt) * dt)
                    vc = vc + l_slope * dt
                else:
                    if nonlinear:
                        pa = _simpson_phase(
                            nl_law, ConstantSegment(vc),
                            dt, f_min, f_max)
                    else:
                        if not v_lo <= vc <= v_hi:
                            eject = True
                            break
                        pa = base_hz * dt + gain * (vc * dt)
                phase = phase + pa
            t = best_t

            if ekind == _END:
                if script is None:
                    break
                # --- run-to-target boundary: fire the stage script ----
                self._store_lane(lane, t, vc, phase, fbt, j, tref, up, dn,
                                 levt, pres, upr, dnr, drive_idx, tact,
                                 act_idx, events)
                self._open[lane] = open_
                monitoring = script.monitoring
                try:
                    script.advance(t, _LaneProbe(self, lane))
                except MeasurementError as exc:
                    # A legitimate test outcome (no-MFREQ starvation, a
                    # count that never gated), raised with the scalar
                    # sequencer's own text: published, not replayed.
                    outcome = str(exc)
                    break
                except Exception:  # noqa: BLE001 - scalar reproduces it
                    eject = True
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
                        timing=ToneTiming(0.0, 0.0, 0.0, warm=True),
                    )
                    break
                # The probe's close_loop() may have touched the loop.
                open_ = self._open[lane]
                up = self._up[lane]
                dn = self._dn[lane]
                pres = self._pres[lane]
                tact = self._tact[lane]
                drive_idx = self._drive[lane]
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
                        eject = True
                        break
                    open_ = True
                    fb_rec = PulseTrain(f"{table.pll.name}.fb")
                    self._fb_rec[lane] = fb_rec
                    tact = None
                    if not same[idle_idx][drive_idx]:
                        drive_idx = idle_idx
                        (l_kind, l_asym, l_tau, l_slope, l_half,
                         l_oa, l_ob, l_oasym, l_ooff) = laws[drive_idx]
                latch_q = d

        if script is not None:
            # A measuring lane's settle result stands either way; the
            # script's end is published on it, an ejection leaves the
            # tone to the sweep's scalar engine.
            self._mscript[lane] = None
            self._fb_rec[lane] = None
            if eject:
                self.stats["measure_ejected"] += 1
            else:
                self._results[self._vec[lane]].measurement = outcome
                self.stats["measured" if isinstance(outcome, ToneMeasurement)
                           else "measure_failed"] += 1
            return flip
        # Write the locals back so _materialize sees this state (the
        # pre-event state on ejection; the finished state otherwise).
        self._store_lane(lane, t, vc, phase, fbt, j, tref, up, dn, levt,
                         pres, upr, dnr, drive_idx, tact, act_idx, events)
        if eject:
            self._hand_off(lane)
        else:
            self._results[self._vec[lane]] = LaneResult(
                snapshot=self._materialize(lane), mode="vector",
                nonlinear=nonlinear,
            )
        return None

    def _store_lane(self, lane: int, t, vc, phase, fbt, j, tref, up, dn,
                    levt, pres, upr, dnr, drive_idx, tact, act_idx,
                    events) -> None:
        """Write one lane's kernel locals back to the lane lists."""
        self._t[lane] = t
        self._vc[lane] = vc
        self._phase[lane] = phase
        self._fbt[lane] = fbt
        self._j[lane] = j
        self._tref[lane] = tref
        self._up[lane] = up
        self._dn[lane] = dn
        self._levt[lane] = levt
        self._pres[lane] = pres
        self._upr[lane] = upr
        self._dnr[lane] = dnr
        self._drive[lane] = drive_idx
        self._tact[lane] = tact
        self._act[lane] = act_idx
        self._events[lane] = events

    # ------------------------------------------------------------------
    # scalar hand-off
    # ------------------------------------------------------------------
    def _materialize(self, lane: int) -> SimulatorSnapshot:
        """The lane's state as a real simulator snapshot."""
        table = self._tables[lane]
        j = self._j[lane]
        edge = float(self._edges[lane][j])
        t_act = self._tact[lane]
        return SimulatorSnapshot(
            pll_name=table.pll.name,
            time=float(self._t[lane]),
            vc=float(self._vc[lane]),
            vco_phase=float(self._phase[lane]),
            fb_target=float(self._fbt[lane]),
            applied_drive=table.drives[self._drive[lane]],
            pending_activation=None if t_act is None
            else (float(t_act), table.drives[self._act[lane]]),
            loop_open=False,
            t_ref_next=edge,
            next_sample=None,
            events=int(self._events[lane]),
            pfd=PFDSnapshot(
                up=bool(self._up[lane]),
                dn=bool(self._dn[lane]),
                last_event_time=self._levt[lane],
                pending_reset=self._pres[lane],
                last_up_rise=self._upr[lane],
                last_dn_rise=self._dnr[lane],
            ),
            source_state=(float(j + 1), edge),
            pll_signature=table.pll.physics_signature(),
        )

    def _finish_from_snapshot(self, spec: SettleLane,
                              snap: SimulatorSnapshot, mode: str,
                              nonlinear: bool) -> LaneResult:
        """Finish one lane in a scalar simulator from a farm snapshot."""
        try:
            source = spec.stimulus.make_source(spec.f_mod, 0.0)
            sim = PLLTransientSimulator(spec.pll, source, record=spec.record)
            sim.restore(snap)
            sim.run_until(spec.settle_end)
            return LaneResult(snapshot=sim.snapshot(), mode=mode,
                              nonlinear=nonlinear)
        except Exception as exc:  # noqa: BLE001 - leave the lane cold;
            # the orchestrating sweep reproduces the identical error
            return LaneResult(snapshot=None, mode=mode, error=str(exc),
                              nonlinear=nonlinear)

    def _hand_off(self, lane: int) -> None:
        """Finish one ejected lane in a scalar simulator from its state."""
        spec = self.lanes[self._vec[lane]]
        nonlinear = self._tables[lane].nonlinear
        try:
            snap = self._materialize(lane)
        except Exception as exc:  # noqa: BLE001 - leave the lane cold
            self._results[self._vec[lane]] = LaneResult(
                snapshot=None, mode="ejected", error=str(exc),
                nonlinear=nonlinear,
            )
            return
        self._results[self._vec[lane]] = self._finish_from_snapshot(
            spec, snap, "ejected", nonlinear
        )


class _LaneProbe:
    """The simulator surface :class:`MeasurementScript` reads, over one
    farm lane.

    ``output_frequency`` goes through the *real* filter/VCO objects
    (``output_segment(...).value(0.0)``, exactly as the scalar
    property) so the boundary reads are bit-identical by construction,
    not by transcription; ``close_loop`` mirrors the scalar
    ``close_loop()`` (PFD cleared, pending activation dropped, pump
    idled, rise times retained).
    """

    __slots__ = ("farm", "lane")

    def __init__(self, farm: VectorizedLotSimulator, lane: int) -> None:
        self.farm = farm
        self.lane = lane

    @property
    def output_frequency(self) -> float:
        farm = self.farm
        lane = self.lane
        table = farm._tables[lane]
        drive = table.drives[farm._drive[lane]]
        v_out = table.pll.loop_filter.output_segment(
            farm._vc[lane], drive
        ).value(0.0)
        return table.vco.frequency_of_voltage(v_out)

    @property
    def fb_edges(self) -> PulseTrain:
        return self.farm._fb_rec[self.lane]

    def close_loop(self) -> None:
        farm = self.farm
        lane = self.lane
        farm._open[lane] = False
        farm._up[lane] = False
        farm._dn[lane] = False
        farm._pres[lane] = None
        farm._tact[lane] = None
        farm._drive[lane] = farm._tables[lane].idle_idx
