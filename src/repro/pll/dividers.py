"""Frequency dividers.

Two digital dividers appear in the paper's architecture (Figures 2, 4
and 6): the PLL feedback divider ``/N`` and the reference divider, plus
the **ring counter** inside the DCO stimulus generator whose modulus is
re-programmed on the fly to hop between FM tones.

Both are modelled as edge processors: feed input rising edges, get
output edges.  The closed-loop simulator folds the feedback divider into
VCO phase arithmetic for speed (one solve per divided edge rather than
per VCO cycle); these classes are the explicit digital view used by the
BIST logic, the DCO, and the tests that check the two views agree.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.events import Edge, EdgeKind
from repro.sim.signals import EdgeStream

__all__ = ["EdgeDivider", "RingCounterDivider"]


class EdgeDivider:
    """Divide-by-N counter clocked by input rising edges.

    The output rises on every N-th input rising edge and falls
    ``ceil(N/2)`` input edges later, giving a roughly square output.
    Only rising edges carry timing information for the PFD and the
    counters, so the falling-edge placement is a display nicety.

    A divide-by-one is the identity and needs no divider; use the input
    stream directly, so ``modulus >= 2`` here.

    Parameters
    ----------
    modulus:
        Division ratio N >= 2.
    phase:
        Initial counter value in ``[0, modulus)``; the first output
        rising edge occurs after ``modulus - phase`` input edges
        (``phase == 0`` rises on the very first edge).
    """

    def __init__(self, modulus: int, phase: int = 0, name: str = "div") -> None:
        if modulus < 2:
            raise ConfigurationError(f"modulus must be >= 2, got {modulus!r}")
        if not (0 <= phase < modulus):
            raise ConfigurationError(
                f"phase must be in [0, {modulus}), got {phase!r}"
            )
        self.modulus = modulus
        self.name = name
        self._count = phase
        self._high = False
        self._half = (modulus + 1) // 2
        self.output = EdgeStream(f"{name}.out")

    @property
    def count(self) -> int:
        """Current counter value."""
        return self._count

    def on_input_edge(self, time: float) -> Optional[Edge]:
        """Process one input rising edge; return the output edge, if any."""
        produced: Optional[Edge] = None
        if self._count == 0:
            if self._high:
                # Can only happen with phase tricks; complete the pulse
                # before re-rising so the stream stays alternating.
                self.output.record(time, EdgeKind.FALLING)
            self._high = True
            self.output.record(time, EdgeKind.RISING)
            produced = Edge(time, self.output.net, EdgeKind.RISING)
        elif self._high and self._count == self._half:
            self._high = False
            self.output.record(time, EdgeKind.FALLING)
            produced = Edge(time, self.output.net, EdgeKind.FALLING)
        self._count = (self._count + 1) % self.modulus
        return produced

    def reset(self, phase: int = 0) -> None:
        """Restart the counter at ``phase`` without touching the record."""
        if not (0 <= phase < self.modulus):
            raise ConfigurationError(
                f"phase must be in [0, {self.modulus}), got {phase!r}"
            )
        self._count = phase


class RingCounterDivider:
    """A divider whose modulus can be re-programmed between output edges.

    This is the paper's Figure 4 "N-bit digital ring counter": the DCO
    derives each discrete FM tone by dividing a fast master clock by an
    integer, and the mux switching control re-programs that integer to
    hop tones.  Re-programming takes effect at the next output rising
    edge, exactly like reloading a hardware ring counter, so output
    periods are always whole multiples of the master-clock period.

    For speed this class works directly in the time domain of an ideal
    master clock of frequency ``f_master``: output rising edges land on
    master-clock ticks.
    """

    def __init__(self, f_master: float, modulus: int, start_time: float = 0.0,
                 name: str = "ring") -> None:
        if f_master <= 0.0:
            raise ConfigurationError(f"f_master must be positive, got {f_master!r}")
        if modulus < 2:
            raise ConfigurationError(
                f"ring counter modulus must be >= 2, got {modulus!r}"
            )
        self.f_master = f_master
        self.name = name
        self._modulus = modulus
        self._next_modulus = modulus
        # Output edges land on integer master ticks; track tick index.
        self._tick = round(start_time * f_master)

    @property
    def modulus(self) -> int:
        """Modulus in force for the next output period."""
        return self._next_modulus

    @property
    def output_frequency(self) -> float:
        """Frequency of the tone currently programmed."""
        return self.f_master / self._next_modulus

    def program(self, modulus: int) -> None:
        """Select the modulus for subsequent output periods."""
        if modulus < 2:
            raise ConfigurationError(
                f"ring counter modulus must be >= 2, got {modulus!r}"
            )
        self._next_modulus = modulus

    def next_edge(self) -> float:
        """Time of the next output rising edge; advances the counter."""
        self._modulus = self._next_modulus
        self._tick += self._modulus
        return self._tick / self.f_master

    def peek_next_edge(self) -> float:
        """Time the next rising edge would occur, without advancing."""
        return (self._tick + self._next_modulus) / self.f_master
