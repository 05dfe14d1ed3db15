"""Edge primitives of the digital nets.

The digital side of the test architecture (counters, latches, the test
sequencer) reacts to *edges* — timed logic transitions on named nets.
:class:`Edge` is the record type used throughout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["EdgeKind", "Edge"]


class EdgeKind(enum.Enum):
    """Direction of a logic transition."""

    RISING = "rising"
    FALLING = "falling"

    @property
    def new_level(self) -> int:
        """Logic level after the transition (1 for rising, 0 for falling)."""
        return 1 if self is EdgeKind.RISING else 0

    def opposite(self) -> "EdgeKind":
        """The other edge direction."""
        return EdgeKind.FALLING if self is EdgeKind.RISING else EdgeKind.RISING


@dataclass(frozen=True, order=True)
class Edge:
    """A timed logic transition on a named net.

    Ordering is by time first, then net name, then kind — deterministic
    so that simulations are exactly reproducible run to run.
    """

    time: float
    net: str = ""
    kind: EdgeKind = field(default=EdgeKind.RISING, compare=False)

    @property
    def is_rising(self) -> bool:
        """Whether this edge is a 0 -> 1 transition."""
        return self.kind is EdgeKind.RISING

    @property
    def is_falling(self) -> bool:
        """Whether this edge is a 1 -> 0 transition."""
        return self.kind is EdgeKind.FALLING

    def delayed(self, delay: float) -> "Edge":
        """A copy of this edge shifted later in time by ``delay`` seconds."""
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        return Edge(self.time + delay, self.net, self.kind)

    def inverted(self) -> "Edge":
        """A copy with the opposite transition direction (logic inverter)."""
        return Edge(self.time, self.net, self.kind.opposite())

