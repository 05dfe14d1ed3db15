"""The digitally-controlled oscillator of Section 3 (Figure 4).

A fast master clock ``Fref`` feeds an N-bit ring counter; dividing by an
integer ``m`` produces a tone ``Fref / m``.  Near a wanted nominal input
frequency ``Fin``, the spacing between adjacent achievable tones is
equation (2) of the paper::

    Fres = Fin - (Fref * Fin) / (Fref + Fin) = Fin² / (Fref + Fin)

Table 1 illustrates the consequence: a 1 kHz input synthesised from a
10 MHz master has ~0.1 Hz resolution (plenty for a ±10 Hz sweep), while
a 1 MHz input from a 100 MHz master has ~9.9 kHz resolution — no usable
quantisation inside a ±10 kHz deviation, "the only way to increase the
resolution is decrease Fin or increase Fref".

:class:`DCO` answers feasibility/quantisation queries;
:class:`DCOProgrammedSource` is the hardware-faithful edge generator: a
:class:`~repro.pll.dividers.RingCounterDivider` whose modulus the
switching control re-programs at output edges, per a dwell schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import StimulusError
from repro.pll.dividers import RingCounterDivider

__all__ = ["DCO", "DCOProgrammedSource", "ResolutionCase"]


@dataclass(frozen=True)
class ResolutionCase:
    """One row of Table 1: a (Fin, Fref) pairing and its consequences."""

    f_in_nominal: float
    f_master: float
    f_max_deviation: float

    @property
    def resolution(self) -> float:
        """Eq. (2) frequency resolution near ``f_in_nominal``."""
        return self.f_in_nominal ** 2 / (self.f_master + self.f_in_nominal)

    @property
    def usable_steps(self) -> int:
        """Distinct tones available within ``±f_max_deviation``."""
        return int(math.floor(self.f_max_deviation / self.resolution))

    @property
    def feasible(self) -> bool:
        """Whether any quantisation of the FM is possible at all.

        Table 1's second case fails this: with resolution comparable to
        the whole deviation, no discrete FM can be produced "without
        increasing Fref".
        """
        return self.usable_steps >= 2


class DCO:
    """Ring-counter DCO: integer division of a master clock.

    Parameters
    ----------
    f_master:
        Master clock frequency in Hz (``Fref`` in eq. 2).
    max_modulus:
        Ring-counter capacity (an N-bit counter caps the modulus); the
        default is practically unbounded.
    """

    def __init__(self, f_master: float, max_modulus: int = 2 ** 24) -> None:
        if f_master <= 0.0:
            raise StimulusError(f"f_master must be positive, got {f_master!r}")
        if max_modulus < 2:
            raise StimulusError(f"max_modulus must be >= 2, got {max_modulus!r}")
        self.f_master = f_master
        self.max_modulus = max_modulus

    def modulus_for(self, f_target: float) -> int:
        """Nearest achievable divider modulus for ``f_target``."""
        if f_target <= 0.0:
            raise StimulusError(f"target frequency must be positive, got {f_target!r}")
        m = int(round(self.f_master / f_target))
        if m < 2:
            raise StimulusError(
                f"target {f_target!r} Hz too close to the master clock "
                f"{self.f_master!r} Hz (modulus {m} < 2)"
            )
        if m > self.max_modulus:
            raise StimulusError(
                f"target {f_target!r} Hz needs modulus {m} beyond the "
                f"ring counter capacity {self.max_modulus}"
            )
        return m

    def quantise(self, f_target: float) -> float:
        """Nearest tone the DCO can actually produce."""
        return self.f_master / self.modulus_for(f_target)

    def resolution(self, f_in_nominal: float) -> float:
        """Eq. (2): tone spacing near ``f_in_nominal``."""
        if f_in_nominal <= 0.0:
            raise StimulusError(
                f"f_in_nominal must be positive, got {f_in_nominal!r}"
            )
        return f_in_nominal ** 2 / (self.f_master + f_in_nominal)

    def quantisation_error(self, f_target: float) -> float:
        """Absolute error between the wanted and achievable tone."""
        return abs(self.quantise(f_target) - f_target)

    def tone_set(
        self, f_nominal: float, deviation: float, steps: int
    ) -> List[float]:
        """The ``steps`` quantised tones approximating one sine cycle.

        Tones sample ``f_nominal + deviation·sin(2π (i + 0.5)/steps)`` at
        dwell midpoints, then snap to the DCO grid.  Raises
        :class:`~repro.errors.StimulusError` when the grid is too coarse
        to distinguish the extreme tones (the Table 1 infeasible case).
        """
        if steps < 2:
            raise StimulusError(f"steps must be >= 2, got {steps!r}")
        if deviation <= 0.0:
            raise StimulusError(f"deviation must be positive, got {deviation!r}")
        tones = []
        for i in range(steps):
            wanted = f_nominal + deviation * math.sin(
                2.0 * math.pi * (i + 0.5) / steps
            )
            tones.append(self.quantise(wanted))
        if max(tones) - min(tones) <= 0.0:
            raise StimulusError(
                f"DCO resolution {self.resolution(f_nominal):.4g} Hz cannot "
                f"quantise a ±{deviation:g} Hz deviation at "
                f"{f_nominal:g} Hz — increase f_master (Table 1)"
            )
        return tones


class DCOProgrammedSource:
    """Hardware-faithful discrete-FM edge source.

    A :class:`~repro.pll.dividers.RingCounterDivider` runs continuously;
    a dwell schedule (the "mux switching control" of Figure 4) selects
    which modulus is in force.  Re-programming takes effect at output
    rising edges only, exactly like the mux hand-over in the paper's
    FPGA implementation, so every output period is an integer number of
    master-clock ticks.

    Parameters
    ----------
    dco:
        The tone-grid/master-clock description.
    schedule:
        Repeating list of ``(modulus, dwell_seconds)`` pairs.
    start_time:
        When the modulation begins; edges before that use the first
        modulus.
    """

    def __init__(
        self,
        dco: DCO,
        schedule: Sequence[Tuple[int, float]],
        start_time: float = 0.0,
    ) -> None:
        if not schedule:
            raise StimulusError("schedule must not be empty")
        for m, dwell in schedule:
            if m < 2 or m > dco.max_modulus:
                raise StimulusError(f"modulus {m!r} out of range")
            if dwell <= 0.0:
                raise StimulusError(f"dwell must be positive, got {dwell!r}")
        self.dco = dco
        self.schedule = list(schedule)
        self.start_time = start_time
        self._cycle = sum(d for __, d in self.schedule)
        self._ring = RingCounterDivider(
            f_master=dco.f_master, modulus=self.schedule[0][0],
            start_time=start_time,
        )

    def _modulus_at(self, t: float) -> int:
        rel = t - self.start_time
        if rel < 0.0:
            return self.schedule[0][0]
        frac = rel % self._cycle
        acc = 0.0
        for m, dwell in self.schedule:
            acc += dwell
            if frac < acc:
                return m
        return self.schedule[-1][0]

    def next_edge(self) -> float:
        """Next output rising edge; the switching control re-programs the
        ring counter for the *following* period based on where that edge
        lands in the dwell schedule."""
        t_edge = self._ring.next_edge()
        self._ring.program(self._modulus_at(t_edge))
        return t_edge

    def frequency_at(self, t: float) -> float:
        """Programmed (ideal) tone frequency at time ``t``."""
        return self.dco.f_master / self._modulus_at(t)
