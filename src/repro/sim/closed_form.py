"""Closed-form per-edge settle tier: analytic event-to-event advance.

The vectorized farm already runs whole lots of Stage-0 settles through
array arithmetic, but every lane still pays for generality: branch
dispatch across three segment laws, exponential transcendentals, and
nonlinear-VCO hooks sit in the hot loop even when a lane never uses
them.  For the physics Kuznetsov et al.'s closed-form CP-PLL model
covers exactly — an ideal tri-state PFD driving a passive (lag-lead or
series-RC) filter with current-mode or tri-stated charge-pump drives
into a *linear* VCO tuning law — the inter-event state update is pure
polynomial algebra: the control voltage ramps (or holds) between PFD
switching instants and the VCO phase is a quadratic (or linear) in the
elapsed time.  No exponentials, no quadrature, no segment objects.

:class:`ClosedFormLotSimulator` is that tier.  It subclasses the farm
and settles every eligible lane in :meth:`_cf_settle` — a specialised
transcription of the scalar event loop with *only* the constant and
ramp laws compiled in — before handing whatever remains (exponential
filter laws, recognised-nonlinear VCOs, runtime ejections) to the
inherited vectorized machinery, which in turn ejects to scalar exactly
as before.  That is the ``closed_form → vectorized → scalar`` cascade
``engine="auto"`` exposes: one farm object, three tiers, each lane
settled by the cheapest engine whose preconditions hold.

Bit-identity contract
---------------------
Identical to the parent's, and guarded the same two ways:

* every floating-point expression in :meth:`_cf_settle` and
  :func:`_cf_edge_train` replicates the scalar engine's operation
  sequence exactly (same association, same operand order), so a lane
  completed here is bit-identical to a cold scalar settle;
* eligibility is decided by the same probe-verified physics tables the
  parent builds, and any runtime excursion (clamp window, solver
  failure, PFD anomaly) ejects the lane from its pre-event state for a
  scalar finish — correctness never depends on the fast path.

Lanes completed by this tier report ``mode == "closed_form"`` in their
:class:`~repro.sim.vectorized.LaneResult`; the parent's modes are
unchanged for lanes that fall through.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Optional

import numpy as np

from repro.errors import ReproError
from repro.sim.vectorized import (
    _CONST,
    _END,
    _EXP,
    _FB,
    _RAMP,
    _REF,
    _RESET,
    _EdgeGroup,
    LaneResult,
    SettleLane,
    VectorizedLotSimulator,
)
from repro.stimulus.waveforms import PiecewiseConstantFrequencySource

__all__ = ["ClosedFormLotSimulator"]


def _cf_edge_train(source, t_end: float) -> Optional[List[float]]:
    """Fully-inlined edge generation for the multitone FSK source.

    A second transcription of
    :meth:`~repro.stimulus.waveforms.EdgeSourceBase.next_edge` over the
    piecewise-constant phase law — the same expressions, operation
    order and solver iteration as
    :func:`~repro.sim.vectorized._pcw_edge_train`, hence bit-identical
    edges — but with the phase/frequency closures flattened into the
    loop body and the linear segment scan replaced by
    :func:`bisect.bisect_left` over the segment end times.  The scan
    takes the first ``i`` with ``frac_t <= t1s[i]``; on the sorted
    ``t1s`` that is exactly ``bisect_left(t1s, frac_t)``, so the
    selected segment (and therefore every computed value) is unchanged.
    Each edge costs ~27 phase/frequency evaluations; removing the
    closure-call and scan overhead from each is what makes the
    closed-form tier's setup phase cheap.

    Returns ``None`` on any condition the generic path would treat as
    an error — the caller then falls back to the parent's generator.
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


class ClosedFormLotSimulator(VectorizedLotSimulator):
    """The tiered farm: closed-form lanes first, then the parent.

    Construction is the parent's; on top of it every lane's physics
    table is classified once: a lane is *closed-form eligible* when its
    VCO tuning law is linear, its pump switches on without delay, and
    every reachable (filter, drive) law is constant or ramp — i.e. no
    exponential segment can ever occur.
    Eligible lanes settle in :meth:`_cf_settle`; everything else (and
    any runtime ejection) flows through the inherited vectorized /
    scalar tiers unchanged.
    """

    def __init__(self, lanes, drain_width: int = 8,
                 lockstep_width: int = 64):
        super().__init__(lanes, drain_width=drain_width,
                         lockstep_width=lockstep_width)
        self.stats["closed_form"] = 0
        self._cf_ok = [
            not (t.nonlinear or t.turn_on_delay)
            and all(r.kind != _EXP for r in t.laws)
            for t in self._tables
        ]

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _generate_edges(self, lane: SettleLane,
                        t_end: float) -> Optional[_EdgeGroup]:
        """Try the inlined train first; fall back to the parent's path.

        Same runtime guard as the parent: the first edges are
        cross-checked against the real generator before being trusted.
        """
        try:
            source = lane.stimulus.make_source(lane.f_mod, 0.0)
            fast = _cf_edge_train(source, t_end)
            if fast:
                ok = True
                for i in range(min(2, len(fast))):
                    if source.next_edge() != fast[i]:
                        ok = False
                        break
                if ok:
                    return _EdgeGroup(np.asarray(fast, dtype=np.float64))
        except ReproError:
            pass
        return super()._generate_edges(lane, t_end)

    # ------------------------------------------------------------------
    # run: the tier cascade
    # ------------------------------------------------------------------
    def _run_farm(self) -> None:
        """Closed-form tier, then the inherited kernel/lockstep tiers.

        Eligible lanes always take :meth:`_cf_settle`, regardless of
        farm width — unlike lockstep it has no per-iteration overhead
        to amortise, so it beats the scalar drain even for a single
        lane.  Whatever is still active afterwards (ineligible physics;
        the parent re-applies its own drain/kernel/lockstep heuristics
        to exactly that population) falls through to ``super()``.
        """
        for i in np.flatnonzero(self._active).tolist():
            if self._cf_ok[i]:
                self._cf_settle(i)
        super()._run_farm()

    # ------------------------------------------------------------------
    # the closed-form settle loop
    # ------------------------------------------------------------------
    def _cf_settle(self, lane: int) -> None:
        """Settle one eligible lane with analytic per-edge updates.

        A specialisation of the parent's :meth:`_kernel_run` with
        the exponential and nonlinear branches *removed at compile
        time* rather than skipped at runtime: between PFD events the
        control voltage is ``vc + slope*dt`` (ramp) or ``vc``
        (tri-stated), the phase advance is the closed-form quadratic
        ``base*dt + gain*(v0*dt + (slope/2*dt)*dt)``, and the
        feedback-edge instant comes from one division (constant law) or
        the safeguarded Newton iteration on the quadratic (ramp law) —
        every expression in the same operand order as the scalar
        engine, so a completed lane is bit-identical to a cold scalar
        settle.  Any state this loop cannot advance faithfully — a
        clamp-window excursion, a solver failure, any condition the
        scalar engine treats as an error — ejects the lane from its
        pre-event state for a scalar finish, exactly like the parent's
        ejections.
        """
        table = self._tables[lane]
        settle_end = float(self._settle_end[lane])
        edges = self._edges[lane].tolist()
        n_edges = len(edges)
        laws = [(r.kind, r.slope, r.half_slope, r.o_off)
                for r in table.laws]
        s_to_drive = table.s_to_drive
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

        # Mutable loop state, unpacked from the arrays.
        t = float(self._t[lane])
        vc = float(self._vc[lane])
        phase = float(self._phase[lane])
        fbt = float(self._fbt[lane])
        j = int(self._j[lane])
        tref = float(self._tref[lane])
        up = bool(self._up[lane])
        dn = bool(self._dn[lane])

        def _opt(arr: np.ndarray) -> Optional[float]:
            v = float(arr[lane])
            return None if math.isnan(v) else v

        levt = _opt(self._levt)
        pres = _opt(self._pres)
        upr = _opt(self._upr)
        dnr = _opt(self._dnr)
        drive_idx = int(self._drive[lane])
        events = int(self._events[lane])

        l_kind, l_slope, l_half, l_ooff = laws[drive_idx]

        eject = False
        while True:
            # --- event selection (transcribes _next_event) ------------
            best_t = settle_end
            ekind = _END
            if tref <= best_t:
                best_t = tref
                ekind = _REF
            horizon = best_t
            if pres is not None and pres < horizon:
                horizon = pres
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
                if l_kind == _CONST:
                    # Tri-stated filter, linear VCO: one division.
                    f = f_center + gain * (vc - v_center)
                    f = min(max(f, f_min), f_max)
                    cand = need / f
                    if cand <= dt_h and t + cand <= best_t:
                        best_t = t + cand
                        ekind = _FB
                else:  # _RAMP: quadratic crossing, Newton-safeguarded
                    out_v = vc + l_ooff
                    v1 = out_v + l_slope * dt_h
                    va, vb = (v1, out_v) if v1 < out_v else (out_v, v1)
                    if not (v_lo <= va and vb <= v_hi):
                        eject = True  # clamp excursion mid-solve
                        break
                    pa_hi = base_hz * dt_h + gain * (
                        out_v * dt_h + (l_half * dt_h) * dt_h)
                    dt_fb = None
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
                                v1 = out_v + l_slope * x_s
                                va, vb = (v1, out_v) \
                                    if v1 < out_v else (out_v, v1)
                                if not (v_lo <= va and vb <= v_hi):
                                    eject = True
                                    break
                                pa_x = base_hz * x_s + gain * (
                                    out_v * x_s + (l_half * x_s) * x_s)
                                f_x = pa_x - need
                                if f_x == 0.0:
                                    dt_fb = x_s
                                    break
                                if f_x < 0.0:
                                    lo = x_s
                                else:
                                    hi = x_s
                                # Newton candidate off the ramp's
                                # instantaneous frequency.
                                v_d = out_v + l_slope * x_s
                                f_d = f_center + gain * (v_d - v_center)
                                f_d = min(max(f_d, f_min), f_max)
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

            # --- dispatch validity (checks only, pre-commit) ----------
            if ekind != _END:
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
                        eject = True  # edge train exhausted (bug guard)
                        break

            # --- advance (closed form: ramp or hold) ------------------
            dt = best_t - t
            if dt > 0.0:
                if l_kind == _RAMP:
                    ov = vc + l_ooff
                    v1 = ov + l_slope * dt
                    va, vb = (v1, ov) if v1 < ov else (ov, v1)
                    if not (v_lo <= va and vb <= v_hi):
                        eject = True
                        break
                    pa = base_hz * dt + gain * (
                        ov * dt + (l_half * dt) * dt)
                    vc = vc + l_slope * dt
                else:
                    if not (v_lo <= vc and vc <= v_hi):
                        eject = True
                        break
                    pa = base_hz * dt + gain * (vc * dt)
                phase = phase + pa
            t = best_t

            # --- commit the dispatch ----------------------------------
            if ekind == _END:
                break
            events += 1
            levt = best_t
            if ekind == _REF:
                if not up:
                    up = True
                    upr = best_t
                    if dn:
                        pres = best_t + rdelay
                j += 1
                tref = edges[j]
            elif ekind == _FB:
                phase = fbt
                fbt = fbt + nf
                if not dn:
                    dn = True
                    dnr = best_t
                    if up:
                        pres = best_t + rdelay
            else:  # _RESET
                up = False
                dn = False
                pres = None
            new_idx = s_to_drive[(1 if up else 0) + (2 if dn else 0)]
            if new_idx != drive_idx:
                drive_idx = new_idx
                l_kind, l_slope, l_half, l_ooff = laws[drive_idx]

        # Write the locals back so _materialize sees this state (the
        # pre-event state on ejection; the finished state otherwise).
        self._t[lane] = t
        self._vc[lane] = vc
        self._phase[lane] = phase
        self._fbt[lane] = fbt
        self._j[lane] = j
        self._tref[lane] = tref
        self._up[lane] = up
        self._dn[lane] = dn
        nan = float("nan")
        self._levt[lane] = nan if levt is None else levt
        self._pres[lane] = nan if pres is None else pres
        self._upr[lane] = nan if upr is None else upr
        self._dnr[lane] = nan if dnr is None else dnr
        self._drive[lane] = drive_idx
        self._events[lane] = events
        if eject:
            self._hand_off(lane, "ejected")
            return
        self._active[lane] = False
        self._results[self._vec[lane]] = LaneResult(
            snapshot=self._materialize(lane), mode="closed_form",
            nonlinear=False,
        )
