"""Recorded digital edge streams.

The entire measurement principle of the paper operates on edge timing:
the PFD compares rising edges, the frequency counter counts rising edges
within a gate, the phase counter counts test-clock pulses between two
events.  :class:`EdgeStream` is the record of one net's transitions with
the query operations those blocks need.
"""

from __future__ import annotations

import bisect
import enum
import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.events import Edge, EdgeKind

__all__ = ["LogicLevel", "EdgeStream", "PulseTrain", "edges_to_frequency"]


class LogicLevel(enum.IntEnum):
    """Binary logic level."""

    LOW = 0
    HIGH = 1


class EdgeStream:
    """An append-only, time-ordered record of logic transitions on one net.

    The stream stores alternating transitions; recording two rising edges
    without a falling edge between them is rejected because it would make
    ``level_at`` ambiguous.
    """

    def __init__(self, net: str = "", initial_level: LogicLevel = LogicLevel.LOW) -> None:
        self.net = net
        self._initial = LogicLevel(initial_level)
        self._times: List[float] = []
        self._kinds: List[EdgeKind] = []

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Edge]:
        for t, k in zip(self._times, self._kinds):
            yield Edge(t, self.net, k)

    def __repr__(self) -> str:
        return f"EdgeStream(net={self.net!r}, edges={len(self)})"

    @property
    def initial_level(self) -> LogicLevel:
        """Logic level before the first recorded edge."""
        return self._initial

    @property
    def times(self) -> Sequence[float]:
        """Transition times, ascending."""
        return self._times

    def record(self, time: float, kind: EdgeKind) -> None:
        """Append a transition; must alternate and be time-ordered."""
        if self._times and time < self._times[-1]:
            raise SimulationError(
                f"edge at t={time!r} on {self.net!r} precedes last edge "
                f"at t={self._times[-1]!r}"
            )
        expected = self._next_kind()
        if kind is not expected:
            raise SimulationError(
                f"non-alternating edge on {self.net!r} at t={time!r}: "
                f"expected {expected.value}, got {kind.value}"
            )
        self._times.append(time)
        self._kinds.append(kind)

    def record_level(self, time: float, level: LogicLevel) -> None:
        """Record a transition to ``level``; no-op if already at that level."""
        current = self.level_at(time) if self._times else self._initial
        if current == level:
            return
        self.record(time, EdgeKind.RISING if level else EdgeKind.FALLING)

    def _next_kind(self) -> EdgeKind:
        if not self._kinds:
            return EdgeKind.FALLING if self._initial else EdgeKind.RISING
        return self._kinds[-1].opposite()

    def level_at(self, time: float) -> LogicLevel:
        """Logic level at ``time`` (transitions take effect at their instant)."""
        idx = bisect.bisect_right(self._times, time)
        if idx == 0:
            return self._initial
        return LogicLevel(self._kinds[idx - 1].new_level)

    def edges(self, kind: Optional[EdgeKind] = None) -> List[Edge]:
        """All edges, optionally filtered by direction."""
        out = list(self)
        if kind is None:
            return out
        return [e for e in out if e.kind is kind]

    def rising_times(self) -> np.ndarray:
        """Times of all rising edges as an array."""
        return np.array(
            [t for t, k in zip(self._times, self._kinds) if k is EdgeKind.RISING]
        )

    def falling_times(self) -> np.ndarray:
        """Times of all falling edges as an array."""
        return np.array(
            [t for t, k in zip(self._times, self._kinds) if k is EdgeKind.FALLING]
        )

    def count_in_gate(
        self, start: float, stop: float, kind: EdgeKind = EdgeKind.RISING
    ) -> int:
        """Number of ``kind`` edges with ``start <= t < stop``.

        This is exactly what a gated hardware counter sees (the edge that
        coincides with the gate opening is counted; the one at closing is
        not).
        """
        if stop < start:
            raise ValueError(f"gate closes ({stop!r}) before it opens ({start!r})")
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, stop)
        return sum(1 for i in range(lo, hi) if self._kinds[i] is kind)

    def next_edge_after(
        self, time: float, kind: Optional[EdgeKind] = None
    ) -> Optional[Edge]:
        """First edge strictly after ``time`` (optionally of a given kind)."""
        idx = bisect.bisect_right(self._times, time)
        while idx < len(self._times):
            if kind is None or self._kinds[idx] is kind:
                return Edge(self._times[idx], self.net, self._kinds[idx])
            idx += 1
        return None

    def pulse_widths(self) -> np.ndarray:
        """Durations of all completed high pulses.

        Used by tests that check dead-zone glitch widths on the PFD
        outputs (Figure 5 of the paper).
        """
        widths = []
        rise: Optional[float] = None
        for t, k in zip(self._times, self._kinds):
            if k is EdgeKind.RISING:
                rise = t
            elif rise is not None:
                widths.append(t - rise)
                rise = None
        return np.array(widths)

    def duty_cycle(self, start: float, stop: float) -> float:
        """Fraction of ``[start, stop]`` spent high."""
        if stop <= start:
            raise ValueError("duty_cycle needs a non-empty window")
        high = 0.0
        level = self.level_at(start)
        t_prev = start
        idx = bisect.bisect_right(self._times, start)
        while idx < len(self._times) and self._times[idx] < stop:
            t = self._times[idx]
            if level:
                high += t - t_prev
            level = LogicLevel(self._kinds[idx].new_level)
            t_prev = t
            idx += 1
        if level:
            high += stop - t_prev
        return high / (stop - start)


class PulseTrain:
    """An append-only record of rising-edge times on one net.

    The PFD, the frequency counter and the phase counter all operate on
    rising edges only (Section 4 of the paper), so for the reference and
    feedback nets a bare train of rising-edge times is the natural
    record — lighter than a full :class:`EdgeStream` and without its
    alternation bookkeeping.

    Edge times live in an amortised-growth numpy buffer: :meth:`record`
    is on the simulator fast path (two calls per reference cycle), and
    :meth:`as_array`/:attr:`times` are read inside polling loops (lock
    detection checks every new edge), so reads return a cached
    **read-only view** in O(1) instead of materialising a fresh copy of
    the whole history.  A view is a valid snapshot until the next
    :meth:`record`.
    """

    __slots__ = ("net", "_t", "_n", "_last", "_view")

    _INITIAL_CAPACITY = 64

    def __init__(self, net: str = "") -> None:
        self.net = net
        self._t = np.empty(self._INITIAL_CAPACITY, dtype=np.float64)
        self._n = 0
        self._last = -math.inf
        self._view: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"PulseTrain(net={self.net!r}, edges={len(self)})"

    @property
    def times(self) -> np.ndarray:
        """Edge times, ascending (read-only array view, no copy)."""
        return self.as_array()

    def record(self, time: float) -> None:
        """Append one rising edge; times must be strictly increasing."""
        if time <= self._last:
            raise SimulationError(
                f"edge at t={time!r} on {self.net!r} does not follow "
                f"last edge at t={self._last!r}"
            )
        n = self._n
        if n == self._t.size:
            grown = np.empty(2 * self._t.size, dtype=np.float64)
            grown[:n] = self._t[:n]
            self._t = grown
        self._t[n] = time
        self._n = n + 1
        self._last = time
        self._view = None

    def as_array(self) -> np.ndarray:
        """Edge times as a read-only float array view (O(1), cached)."""
        view = self._view
        if view is None:
            view = self._t[: self._n].view()
            view.flags.writeable = False
            self._view = view
        return view

    def count_in_gate(self, start: float, stop: float) -> int:
        """Number of edges with ``start <= t < stop`` — the hardware
        frequency-counter view of a gate."""
        if stop < start:
            raise ValueError(f"gate closes ({stop!r}) before it opens ({start!r})")
        t = self._t[: self._n]
        return int(
            np.searchsorted(t, stop, side="left")
            - np.searchsorted(t, start, side="left")
        )

    def next_after(self, time: float) -> Optional[float]:
        """First edge strictly after ``time``, or ``None``."""
        idx = int(np.searchsorted(self._t[: self._n], time, side="right"))
        return float(self._t[idx]) if idx < self._n else None

    def last_at_or_before(self, time: float) -> Optional[float]:
        """Latest edge with ``t <= time``, or ``None``."""
        idx = int(np.searchsorted(self._t[: self._n], time, side="right"))
        return float(self._t[idx - 1]) if idx > 0 else None

    def instantaneous_frequency(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-period frequency estimate; see :func:`edges_to_frequency`."""
        return edges_to_frequency(self.as_array())

    def mean_frequency(self, start: float, stop: float) -> float:
        """Average frequency over ``[start, stop]`` from the edge count.

        This is exactly what a hardware counter reports: edges divided
        by gate time.
        """
        if stop <= start:
            raise ValueError("gate must have positive width")
        return self.count_in_gate(start, stop) / (stop - start)


def edges_to_frequency(
    rising_times: Iterable[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Instantaneous frequency estimate from consecutive rising edges.

    Returns ``(midpoint_times, frequencies)`` where each frequency is the
    reciprocal of one period and is attributed to the midpoint of that
    period.  This is the standard period-counting view of a square wave's
    frequency and is what the paper's frequency counter approximates over
    longer gates.
    """
    t = np.asarray(
        rising_times if isinstance(rising_times, np.ndarray) else list(rising_times),
        dtype=float,
    )
    if t.size < 2:
        return np.empty(0), np.empty(0)
    periods = np.diff(t)
    if np.any(periods <= 0.0):
        raise SimulationError("rising-edge times must be strictly increasing")
    mids = 0.5 * (t[:-1] + t[1:])
    return mids, 1.0 / periods
