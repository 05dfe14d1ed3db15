"""Edge-time sources: the reference signals fed to the PLL.

A source produces the strictly increasing times of the reference's
rising edges (only rising edges matter to the PFD).  Edge times are
derived from the accumulated phase in *cycles*::

    Φ(t) = ∫ f(τ) dτ,     edge k at the unique t with Φ(t) = k.

All the laws used here have closed-form Φ, and ``f(t) > 0`` everywhere,
so each edge time is found exactly (Newton with bisection safeguard).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Sequence, Tuple

from repro.errors import StimulusError
from repro.sim.solvers import solve_increasing

__all__ = [
    "EdgeSourceBase",
    "ConstantFrequencySource",
    "PiecewiseConstantFrequencySource",
    "SinusoidalFMSource",
    "SinusoidalPMSource",
    "StepFrequencySource",
]


class EdgeSourceBase:
    """Common machinery: an edge counter plus a phase law.

    Subclasses implement :meth:`phase_at` (cycles, strictly increasing)
    and :meth:`frequency_at` (its derivative, Hz, strictly positive).
    The first edge is emitted when the accumulated phase first reaches 1
    — i.e. one nominal period after ``start_time`` for an unmodulated
    source.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.start_time = start_time
        self._k = 0
        self._t_last = start_time

    def phase_at(self, t: float) -> float:
        """Accumulated phase in cycles at absolute time ``t``."""
        raise NotImplementedError

    def frequency_at(self, t: float) -> float:
        """Instantaneous frequency in Hz at absolute time ``t``."""
        raise NotImplementedError

    def next_edge(self) -> float:
        """Time of the next rising edge (strictly increasing).

        ``_k``/``_t_last`` commit together, and only on success: a
        solve that raises leaves the source at its last edge.
        """
        k = self._k + 1
        target = float(k)
        # Bracket: march forward in steps of the current period until the
        # phase passes the target (the first step almost always does).
        lo = self._t_last
        f_lo = self.frequency_at(lo)
        if f_lo <= 0.0:
            raise StimulusError(
                f"instantaneous frequency {f_lo!r} Hz must stay positive"
            )
        hi = lo + 1.5 / f_lo
        for _ in range(64):
            if self.phase_at(hi) >= target:
                break
            lo = hi
            hi = lo + 1.5 / max(self.frequency_at(lo), 1e-12)
        else:
            raise StimulusError("failed to bracket the next edge time")
        t_edge = solve_increasing(
            fn=self.phase_at,
            target=target,
            lo=lo,
            hi=hi,
            derivative=self.frequency_at,
        )
        if t_edge <= self._t_last and k > 1:
            raise StimulusError(
                f"edge times not strictly increasing: {t_edge!r} after "
                f"{self._t_last!r}"
            )
        self._k = k
        self._t_last = t_edge
        return t_edge


class ConstantFrequencySource(EdgeSourceBase):
    """Unmodulated reference: edges at ``start_time + k / f``."""

    def __init__(self, frequency: float, start_time: float = 0.0) -> None:
        if frequency <= 0.0:
            raise StimulusError(f"frequency must be positive, got {frequency!r}")
        super().__init__(start_time)
        self.frequency = frequency

    def phase_at(self, t: float) -> float:
        return (t - self.start_time) * self.frequency

    def frequency_at(self, t: float) -> float:
        return self.frequency

    def next_edge(self) -> float:
        # Exact arithmetic beats the generic solver here.
        self._k += 1
        self._t_last = self.start_time + self._k / self.frequency
        return self._t_last


class PiecewiseConstantFrequencySource(EdgeSourceBase):
    """Ideal FSK: frequency constant within dwell intervals.

    The schedule is a repeating cycle of ``(frequency, dwell)`` pairs —
    the idealised view of the Figure 4 mux hopping between DCO taps with
    perfectly timed switching.  (The hardware-faithful variant that
    switches only on output edges is
    :class:`repro.stimulus.dco.DCOProgrammedSource`.)

    :meth:`next_edge` is the base Newton solve specialised to this
    phase law, and the only copy of it: the scalar engine and the lot
    farm both pull the FSK stimulus's edges from it, and the base solve
    is its test oracle.
    """

    def __init__(
        self,
        schedule: Sequence[Tuple[float, float]],
        start_time: float = 0.0,
    ) -> None:
        if not schedule:
            raise StimulusError("schedule must not be empty")
        for f, dwell in schedule:
            if f <= 0.0:
                raise StimulusError(f"schedule frequency must be positive, got {f!r}")
            if dwell <= 0.0:
                raise StimulusError(f"dwell must be positive, got {dwell!r}")
        super().__init__(start_time)
        self.schedule = list(schedule)
        self._cycle = sum(d for _, d in self.schedule)
        # Per segment: start time and phase, end time, frequency.
        self._t0s: List[float] = []
        self._p0s: List[float] = []
        self._t1s: List[float] = []
        self._fs = [f for f, _ in self.schedule]
        t, p = 0.0, 0.0
        for f, dwell in self.schedule:
            self._t0s.append(t)
            self._p0s.append(p)
            t += dwell
            p += f * dwell
            self._t1s.append(t)
        self._phase_per_cycle = p

    def _locate(self, rel_t: float) -> Tuple[float, float, float]:
        """(phase at segment start, time into segment, frequency)."""
        cycles = math.floor(rel_t / self._cycle)
        frac_t = rel_t - cycles * self._cycle
        base_phase = cycles * self._phase_per_cycle
        # The first segment with frac_t <= its end time: every dwell is
        # positive, so the end times are sorted and bisection finds it.
        i = bisect_left(self._t1s, frac_t)
        if i < len(self._fs):
            return (base_phase + self._p0s[i], frac_t - self._t0s[i],
                    self._fs[i])
        # Floating-point spill-over into the next cycle.
        return base_phase + self._phase_per_cycle, 0.0, self.schedule[0][0]

    def phase_at(self, t: float) -> float:
        rel = t - self.start_time
        if rel <= 0.0:
            return rel * self.schedule[0][0]
        p0, dt, f = self._locate(rel)
        return p0 + f * dt

    def frequency_at(self, t: float) -> float:
        rel = t - self.start_time
        if rel <= 0.0:
            return self.schedule[0][0]
        __, _dt, f = self._locate(rel)
        return f

    def next_edge(self) -> float:
        """Time of the next rising edge: the base solve, specialised.

        :meth:`EdgeSourceBase.next_edge` with :meth:`phase_at`,
        :meth:`frequency_at` and
        :func:`~repro.sim.solvers.solve_increasing` written into one
        loop body: the same expressions in the same operation order,
        the same segment tables and ``bisect_left`` selection, the same
        safeguarded Newton iteration.  The edge times are the base
        solve's bit for bit, at about half its cost, because the
        frequency at an instant whose phase was just evaluated rides
        along.  ``_k``/``_t_last`` commit only on success; wherever the
        base solve would raise, it runs instead and raises its own
        error.
        """
        k = self._k + 1
        target = float(k)
        start = self.start_time
        f0 = self.schedule[0][0]
        cyc = self._cycle
        ppc = self._phase_per_cycle
        t0s = self._t0s
        p0s = self._p0s
        t1s = self._t1s
        fs = self._fs
        n_seg = len(fs)
        floor = math.floor
        bisect = bisect_left

        lo = self._t_last
        # f_lo = frequency_at(lo)
        rel = lo - start
        if rel <= 0.0:
            f_lo = f0
        else:
            frac_t = rel - floor(rel / cyc) * cyc
            i = bisect(t1s, frac_t)
            f_lo = fs[i] if i < n_seg else f0
        if f_lo <= 0.0:
            return EdgeSourceBase.next_edge(self)
        hi = lo + 1.5 / f_lo
        for _ in range(64):
            # ph = phase_at(hi); the frequency at the same instant
            # shares rel/frac_t/i, so it rides along.
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
            return EdgeSourceBase.next_edge(self)
        # solve_increasing(phase_at, target, lo, hi, frequency_at)
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
            return EdgeSourceBase.next_edge(self)
        if f_lo_b == 0.0:
            t_edge = lo
        elif f_hi_b == 0.0:
            t_edge = hi
        else:
            x = 0.5 * (lo + hi)
            for _ in range(200):
                if hi - lo <= 1e-13:
                    t_edge = 0.5 * (lo + hi)
                    break
                # f_x = phase_at(x) - target, keeping the segment for
                # the derivative below (frequency_at(x) shares it).
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
            else:
                return EdgeSourceBase.next_edge(self)
        if t_edge <= self._t_last and k > 1:
            return EdgeSourceBase.next_edge(self)
        self._k = k
        self._t_last = t_edge
        return t_edge


class SinusoidalFMSource(EdgeSourceBase):
    """Exact sinusoidal frequency modulation (the bench ideal).

    ``f(t) = f_nominal + deviation · sin(2π f_mod (t - start_time))``

    The deviation peaks (maximum input frequency) at
    ``start_time + (k + 1/4) / f_mod`` — see
    :meth:`modulation_peak_time`.
    """

    def __init__(
        self,
        f_nominal: float,
        deviation: float,
        f_mod: float,
        start_time: float = 0.0,
    ) -> None:
        if f_nominal <= 0.0:
            raise StimulusError(f"f_nominal must be positive, got {f_nominal!r}")
        if f_mod <= 0.0:
            raise StimulusError(f"f_mod must be positive, got {f_mod!r}")
        if not (0.0 <= deviation < f_nominal):
            raise StimulusError(
                f"deviation must be in [0, f_nominal), got {deviation!r}"
            )
        super().__init__(start_time)
        self.f_nominal = f_nominal
        self.deviation = deviation
        self.f_mod = f_mod

    def phase_at(self, t: float) -> float:
        rel = t - self.start_time
        wm = 2.0 * math.pi * self.f_mod
        return self.f_nominal * rel + self.deviation / wm * (1.0 - math.cos(wm * rel))

    def frequency_at(self, t: float) -> float:
        rel = t - self.start_time
        return self.f_nominal + self.deviation * math.sin(
            2.0 * math.pi * self.f_mod * rel
        )

    def modulation_peak_time(self, index: int = 0) -> float:
        """Absolute time of the ``index``-th maximum of the input
        frequency deviation — where Table 2 stage (1) starts the phase
        counter."""
        return self.start_time + (0.25 + index) / self.f_mod

    @property
    def modulation_period(self) -> float:
        """One modulation cycle, ``1 / f_mod`` — ``Tmod`` of eq. (8)."""
        return 1.0 / self.f_mod


class SinusoidalPMSource(EdgeSourceBase):
    """Exact sinusoidal phase modulation.

    ``θ(t) = 2π f_nominal t + peak_phase · sin(2π f_mod t)``

    Section 2 notes phase modulation and frequency modulation are
    interchangeable for this test; this source exists so tests can show
    the equivalence (PM with ``peak_phase = deviation/f_mod · π/...``
    matching FM).  Monotonicity requires
    ``peak_phase · f_mod < f_nominal``.
    """

    def __init__(
        self,
        f_nominal: float,
        peak_phase_rad: float,
        f_mod: float,
        start_time: float = 0.0,
    ) -> None:
        if f_nominal <= 0.0:
            raise StimulusError(f"f_nominal must be positive, got {f_nominal!r}")
        if f_mod <= 0.0:
            raise StimulusError(f"f_mod must be positive, got {f_mod!r}")
        if peak_phase_rad < 0.0:
            raise StimulusError(
                f"peak_phase_rad must be >= 0, got {peak_phase_rad!r}"
            )
        if peak_phase_rad * f_mod >= f_nominal:
            raise StimulusError(
                "modulation index too large: instantaneous frequency would "
                f"go non-positive (peak_phase={peak_phase_rad!r} rad at "
                f"f_mod={f_mod!r} Hz on f_nominal={f_nominal!r} Hz)"
            )
        super().__init__(start_time)
        self.f_nominal = f_nominal
        self.peak_phase_rad = peak_phase_rad
        self.f_mod = f_mod

    def phase_at(self, t: float) -> float:
        rel = t - self.start_time
        return self.f_nominal * rel + self.peak_phase_rad / (
            2.0 * math.pi
        ) * math.sin(2.0 * math.pi * self.f_mod * rel)

    def frequency_at(self, t: float) -> float:
        rel = t - self.start_time
        return self.f_nominal + self.peak_phase_rad * self.f_mod * math.cos(
            2.0 * math.pi * self.f_mod * rel
        )

    @property
    def equivalent_fm_deviation(self) -> float:
        """Peak frequency deviation this PM produces:
        ``peak_phase · f_mod`` Hz."""
        return self.peak_phase_rad * self.f_mod


class StepFrequencySource(EdgeSourceBase):
    """A single frequency step at a programmed instant (channel hop).

    Before ``step_time`` the source runs at ``f_initial``; from then on
    at ``f_final`` (phase-continuous, like re-programming a reference
    divider).  Used to exercise the loop's transient response — the
    time-domain face of the (fn, ζ) pair the transfer-function test
    measures.
    """

    def __init__(
        self,
        f_initial: float,
        f_final: float,
        step_time: float,
        start_time: float = 0.0,
    ) -> None:
        if f_initial <= 0.0 or f_final <= 0.0:
            raise StimulusError(
                f"frequencies must be positive, got {f_initial!r}, "
                f"{f_final!r}"
            )
        if step_time < start_time:
            raise StimulusError(
                f"step_time {step_time!r} precedes start_time {start_time!r}"
            )
        super().__init__(start_time)
        self.f_initial = f_initial
        self.f_final = f_final
        self.step_time = step_time

    def phase_at(self, t: float) -> float:
        rel = t - self.start_time
        step_rel = self.step_time - self.start_time
        if rel <= step_rel:
            return rel * self.f_initial
        return step_rel * self.f_initial + (rel - step_rel) * self.f_final

    def frequency_at(self, t: float) -> float:
        return self.f_initial if t < self.step_time else self.f_final
