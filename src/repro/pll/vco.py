"""Voltage-controlled oscillator with exact phase accumulation.

The VCO converts the loop-filter output voltage into an instantaneous
frequency and integrates it into phase.  Because the control node
between PFD events follows a closed-form
:class:`~repro.sim.segments.AnalogSegment`, the phase advance over a
segment — and therefore the time of the next output (or divided-output)
edge — can be computed without time stepping:

* **linear tuning** (``f = f_center + gain * (v - v_center)``, clamped
  to ``[f_min, f_max]``): the phase integral is closed-form; clamp
  crossings are found analytically and the segment is subdivided there.
* **non-linear tuning curves** (the 74HCT4046A model): the phase
  integral falls back to composite-Simpson quadrature, which is ample
  because the control node moves a tiny fraction of a time constant
  between edges.

Phase is accounted in **cycles** (not radians) so that divider and edge
arithmetic stays in integers.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.segments import AnalogSegment, ConstantSegment, crossing_time
from repro.sim.solvers import solve_increasing

__all__ = ["VCO"]

_SIMPSON_INTERVALS = 32
#: Interior Simpson weights, nodes 1 .. n-1.
_SIMPSON_WEIGHTS = tuple(4.0 if i % 2 else 2.0
                         for i in range(1, _SIMPSON_INTERVALS))


class VCO:
    """Behavioral VCO.

    Parameters
    ----------
    f_center:
        Output frequency in Hz at ``v_center``.
    gain_hz_per_v:
        Tuning gain ``Ko`` in Hz/V; must be positive.  (Table 3 of the
        paper quotes the same quantity in both Mrad/s/V and Hz/V.)
    v_center:
        Control voltage at which ``f_center`` is produced (mid-rail for
        the 4046-style loop).
    f_min, f_max:
        Hard oscillation range.  ``f_min`` must be positive: a real
        oscillator never runs backwards, and a strictly positive floor
        keeps phase strictly increasing for the edge solver.
    tuning_curve:
        Optional override ``f(v) -> Hz`` for non-linear devices.  When
        provided it is still clamped to ``[f_min, f_max]``; it must be
        non-decreasing in ``v`` over the operating range.
    """

    def __init__(
        self,
        f_center: float,
        gain_hz_per_v: float,
        v_center: float = 0.0,
        f_min: Optional[float] = None,
        f_max: Optional[float] = None,
        tuning_curve: Optional[Callable[[float], float]] = None,
    ) -> None:
        if f_center <= 0.0:
            raise ConfigurationError(f"f_center must be positive, got {f_center!r}")
        if gain_hz_per_v <= 0.0:
            raise ConfigurationError(
                f"gain_hz_per_v must be positive, got {gain_hz_per_v!r}"
            )
        self.f_center = f_center
        self.gain_hz_per_v = gain_hz_per_v
        self.v_center = v_center
        self.f_min = f_min if f_min is not None else f_center * 0.01
        self.f_max = f_max if f_max is not None else f_center * 100.0
        if self.f_min <= 0.0:
            raise ConfigurationError(f"f_min must be positive, got {self.f_min!r}")
        if self.f_max <= self.f_min:
            raise ConfigurationError(
                f"f_max ({self.f_max!r}) must exceed f_min ({self.f_min!r})"
            )
        if not (self.f_min <= f_center <= self.f_max):
            raise ConfigurationError(
                f"f_center {f_center!r} outside [{self.f_min!r}, {self.f_max!r}]"
            )
        self.tuning_curve = tuning_curve
        # Derived constants of the linear law, precomputed because
        # phase_advance sits on the simulator's per-event fast path.
        self._base_hz = self.f_center - self.gain_hz_per_v * self.v_center
        self._v_lo = self.v_center + (self.f_min - self.f_center) / self.gain_hz_per_v
        self._v_hi = self.v_center + (self.f_max - self.f_center) / self.gain_hz_per_v

    # ------------------------------------------------------------------
    # static characteristics
    # ------------------------------------------------------------------
    @property
    def gain_rad_per_sv(self) -> float:
        """Tuning gain ``Ko`` in rad/s per volt (the eq. 1 convention)."""
        return 2.0 * math.pi * self.gain_hz_per_v

    def frequency_of_voltage(self, v: float) -> float:
        """Instantaneous output frequency in Hz for control voltage ``v``."""
        if self.tuning_curve is not None:
            f = self.tuning_curve(v)
        else:
            f = self.f_center + self.gain_hz_per_v * (v - self.v_center)
        return min(max(f, self.f_min), self.f_max)

    def voltage_for_frequency(self, f: float) -> float:
        """Control voltage producing frequency ``f`` (linear model inverse).

        For a non-linear tuning curve the inverse is found by bisection
        over a generous voltage bracket.
        """
        if not (self.f_min <= f <= self.f_max):
            raise ConfigurationError(
                f"frequency {f!r} Hz outside VCO range "
                f"[{self.f_min!r}, {self.f_max!r}]"
            )
        if self.tuning_curve is None:
            return self.v_center + (f - self.f_center) / self.gain_hz_per_v
        # Bracket: linear estimate +/- wide margin, then bisect.  The
        # result is verified, which catches non-monotone tuning curves
        # (the bisection silently mis-converges on those).
        span = max(abs(f - self.f_center) / self.gain_hz_per_v, 1.0) * 10.0
        lo = self.v_center - span
        hi = self.v_center + span
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.frequency_of_voltage(mid) < f:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12:
                break
        v = 0.5 * (lo + hi)
        realised = self.frequency_of_voltage(v)
        if abs(realised - f) > 1e-6 * max(abs(f), 1.0) + 1e-3:
            raise ConfigurationError(
                f"voltage_for_frequency({f!r}) converged to v={v!r} which "
                f"produces {realised!r} Hz — is the tuning curve monotone "
                "over the bracket?"
            )
        return v

    # ------------------------------------------------------------------
    # phase accumulation over analogue segments
    # ------------------------------------------------------------------
    #: ``(segment, dt, phase)`` of the last numeric integral.  The
    #: scalar simulator's event search integrates a window that its
    #: advance then asks for again when the next event falls on the
    #: window's end (or on the crossing solver's last iterate).
    _last_numeric: Tuple[Optional[AnalogSegment], float, float] = (
        None, 0.0, 0.0)

    def phase_advance(self, segment: AnalogSegment, dt: float) -> float:
        """Phase (in cycles) accumulated over ``[0, dt]`` of ``segment``."""
        if dt < 0.0:
            raise ValueError(f"dt must be non-negative, got {dt!r}")
        if dt == 0.0:
            return 0.0
        if self.tuning_curve is not None:
            last_segment, last_dt, last_phase = self._last_numeric
            if last_segment is segment and last_dt == dt:
                return last_phase
            phase = self._numeric_phase(segment, dt)
            self._last_numeric = (segment, dt, phase)
            return phase
        # Fast path: the segment laws are monotone, so when both
        # endpoints sit inside the clamp window the whole interval does,
        # and the phase integral is a single closed-form piece.  This is
        # the overwhelmingly common case for a settled loop and is
        # bit-identical to the general path below (which for one
        # unclamped piece computes 0.0 + base*dt + gain*(I(dt) - 0.0)).
        v0 = segment.initial
        v1, v_int = segment.value_and_integral(dt)
        if v1 < v0:
            v0, v1 = v1, v0
        if self._v_lo <= v0 and v1 <= self._v_hi:
            return self._base_hz * dt + self.gain_hz_per_v * v_int
        total = 0.0
        for t0, t1, clamped_f in self._linear_pieces(segment, dt):
            if clamped_f is not None:
                total += clamped_f * (t1 - t0)
            else:
                v_integral = segment.integral(t1) - segment.integral(t0)
                total += self._base_hz * (t1 - t0) + self.gain_hz_per_v * v_integral
        return total

    def frequency_at(self, segment: AnalogSegment, dt: float) -> float:
        """Instantaneous frequency ``dt`` seconds into the segment."""
        return self.frequency_of_voltage(segment.value(dt))

    def time_to_phase(
        self,
        segment: AnalogSegment,
        target_cycles: float,
        dt_max: float,
        tol: float = 1e-13,
    ) -> Optional[float]:
        """Time within ``[0, dt_max]`` at which the phase advance reaches
        ``target_cycles``, or ``None`` if it is not reached in the window.

        The phase advance is strictly increasing (``f >= f_min > 0``), so
        the crossing, when present, is unique.
        """
        if target_cycles <= 0.0:
            return 0.0
        if self.tuning_curve is None and type(segment) is ConstantSegment:
            # Tri-stated loop filter: the frequency is constant, so the
            # phase law is linear and inverts in one division.  This is
            # the dominant state of a locked loop (the pump only drives
            # during the brief PFD pulses), so it skips the Newton solve
            # for most events.
            dt = target_cycles / self.frequency_of_voltage(segment.initial)
            return dt if dt <= dt_max else None
        # The reachability guard's integral is also the solver's fn(hi).
        pa_max = self.phase_advance(segment, dt_max)
        if pa_max < target_cycles:
            return None
        return solve_increasing(
            fn=lambda t: pa_max if t == dt_max
            else self.phase_advance(segment, t),
            target=target_cycles,
            lo=0.0,
            hi=dt_max,
            derivative=lambda t: self.frequency_at(segment, t),
            tol=tol,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _clamp_voltages(self) -> Tuple[float, float]:
        """Control voltages at which the linear law hits f_min / f_max."""
        return self._v_lo, self._v_hi

    def _linear_pieces(
        self, segment: AnalogSegment, dt: float
    ) -> List[Tuple[float, float, Optional[float]]]:
        """Split ``[0, dt]`` at clamp crossings.

        Returns ``(t0, t1, clamped_f)`` triples where ``clamped_f`` is
        ``f_min``/``f_max`` inside a clamped region and ``None`` where
        the linear law applies.  Segment laws are monotone, so each
        threshold is crossed at most once.
        """
        if isinstance(segment, ConstantSegment):
            f = self.frequency_of_voltage(segment.initial)
            v = segment.initial
            v_lo, v_hi = self._clamp_voltages()
            clamped = f if (v < v_lo or v > v_hi) else None
            return [(0.0, dt, clamped if clamped is not None else None)]

        v_lo, v_hi = self._clamp_voltages()
        cut_times = sorted(
            t
            for t in (crossing_time(segment, v_lo), crossing_time(segment, v_hi))
            if t is not None and t < dt
        )
        boundaries = [0.0] + cut_times + [dt]
        pieces: List[Tuple[float, float, Optional[float]]] = []
        for t0, t1 in zip(boundaries[:-1], boundaries[1:]):
            if t1 <= t0:
                continue
            v_mid = segment.value(0.5 * (t0 + t1))
            if v_mid < v_lo:
                pieces.append((t0, t1, self.f_min))
            elif v_mid > v_hi:
                pieces.append((t0, t1, self.f_max))
            else:
                pieces.append((t0, t1, None))
        return pieces

    def _numeric_phase(self, segment: AnalogSegment, dt: float) -> float:
        """Composite-Simpson integral of ``f(v(t))`` over ``[0, dt]``.

        For a VCO with a tuning curve: every node is
        :meth:`frequency_at`, written out over locals, and the nodes are
        summed in its order (both ends, then the interior).  A held
        (constant) segment evaluates the curve once and adds that one
        frequency at every node.  Both engines integrate nonlinear phase
        here.
        """
        curve = self.tuning_curve
        f_min = self.f_min
        f_max = self.f_max
        n = _SIMPSON_INTERVALS
        h = dt / n
        # ``if f_min > f`` / ``if f_max < f`` is exactly the builtin
        # ``min(max(f, f_min), f_max)`` of frequency_of_voltage.
        if type(segment) is ConstantSegment:
            f = curve(segment.initial)
            if f_min > f:
                f = f_min
            if f_max < f:
                f = f_max
            total = f + f
            for weight in _SIMPSON_WEIGHTS:
                total += weight * f
            return total * h / 3.0
        value = segment.value
        total = 0.0
        for t in (0.0, dt):
            f = curve(value(t))
            if f_min > f:
                f = f_min
            if f_max < f:
                f = f_max
            total += f
        for i, weight in enumerate(_SIMPSON_WEIGHTS, 1):
            f = curve(value(i * h))
            if f_min > f:
                f = f_min
            if f_max < f:
                f = f_max
            total += weight * f
        return total * h / 3.0

    def __repr__(self) -> str:
        curve = ", tuning_curve=<custom>" if self.tuning_curve is not None else ""
        return (
            f"VCO(f_center={self.f_center!r}, gain_hz_per_v={self.gain_hz_per_v!r}, "
            f"v_center={self.v_center!r}, f_min={self.f_min!r}, "
            f"f_max={self.f_max!r}{curve})"
        )
