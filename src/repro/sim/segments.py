"""Closed-form analogue segments.

Between two consecutive edges seen by the phase-frequency detector the
digital drive applied to the loop filter is constant (the charge pump
either sources, sinks, or is tri-stated).  Over such an interval every
node of a first-order RC loop filter follows one of three laws:

* a **constant** (tri-stated passive filter: the capacitor holds),
* a **linear ramp** (constant charge-pump current into a capacitor),
* an **exponential relaxation** towards an asymptote (rail-driven
  passive filter, or constant current into an R-C with leakage).

Each law is represented here as a small immutable object exposing
``value(dt)``, ``derivative(dt)`` and ``integral(dt)``, the last being
what the VCO needs to accumulate phase exactly.  :func:`crossing_time`
computes when a segment crosses a threshold, used for sub-dividing
segments at VCO clamp boundaries.

The algebra here is what lets the behavioral simulator advance from edge
to edge with no time-stepping truncation error (DESIGN.md §6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

__all__ = [
    "AnalogSegment",
    "ConstantSegment",
    "RampSegment",
    "ExponentialSegment",
    "crossing_time",
]


@dataclass(frozen=True)
class AnalogSegment:
    """Base class for a single-law analogue evolution starting at ``dt = 0``.

    Subclasses must be immutable and implement :meth:`value`,
    :meth:`derivative` and :meth:`integral`.  All times are *relative to
    the segment start* and non-negative.
    """

    initial: float

    def value(self, dt: float) -> float:
        """Node value ``dt`` seconds after the segment start."""
        raise NotImplementedError

    def derivative(self, dt: float) -> float:
        """Time-derivative of the node value at offset ``dt``."""
        raise NotImplementedError

    def integral(self, dt: float) -> float:
        """Exact integral of the node value over ``[0, dt]``."""
        raise NotImplementedError

    def value_and_integral(self, dt: float) -> "tuple[float, float]":
        """``(value(dt), integral(dt))`` in one call.

        The VCO phase fast path needs both per event; subclasses share
        the per-call bookkeeping while producing bit-identical results
        to the individual methods.
        """
        return self.value(dt), self.integral(dt)

    def _check_dt(self, dt: float) -> None:
        if dt < 0.0:
            raise ValueError(f"segment offset must be non-negative, got {dt!r}")


@dataclass(frozen=True)
class ConstantSegment(AnalogSegment):
    """A held node: the tri-stated loop filter capacitor."""

    def value(self, dt: float) -> float:
        self._check_dt(dt)
        return self.initial

    def derivative(self, dt: float) -> float:
        self._check_dt(dt)
        return 0.0

    def integral(self, dt: float) -> float:
        self._check_dt(dt)
        return self.initial * dt

    def value_and_integral(self, dt: float) -> "tuple[float, float]":
        self._check_dt(dt)
        return self.initial, self.initial * dt


@dataclass(frozen=True)
class RampSegment(AnalogSegment):
    """A linear ramp: constant current ``I`` into an ideal capacitor ``C``.

    ``slope`` is in node-units per second (for a capacitor, ``I / C``).
    """

    slope: float = 0.0

    def value(self, dt: float) -> float:
        self._check_dt(dt)
        return self.initial + self.slope * dt

    def derivative(self, dt: float) -> float:
        self._check_dt(dt)
        return self.slope

    def integral(self, dt: float) -> float:
        self._check_dt(dt)
        return self.initial * dt + 0.5 * self.slope * dt * dt

    def value_and_integral(self, dt: float) -> "tuple[float, float]":
        self._check_dt(dt)
        return (
            self.initial + self.slope * dt,
            self.initial * dt + 0.5 * self.slope * dt * dt,
        )


@dataclass(frozen=True)
class ExponentialSegment(AnalogSegment):
    """Exponential relaxation ``v(dt) = v_inf + (v0 - v_inf) * exp(-dt/tau)``.

    This is the law of a rail-driven passive lag-lead filter (Figure 9 of
    the paper) and of any single-pole RC network under constant drive.

    Parameters
    ----------
    initial:
        Node value at the segment start, ``v0``.
    asymptote:
        Steady-state value the node relaxes towards, ``v_inf``.
    tau:
        Relaxation time constant in seconds; must be positive.
    """

    asymptote: float = 0.0
    tau: float = 1.0

    def __post_init__(self) -> None:
        if not (self.tau > 0.0) or not math.isfinite(self.tau):
            raise ConfigurationError(
                f"exponential segment requires a finite positive tau, got {self.tau!r}"
            )

    def value(self, dt: float) -> float:
        self._check_dt(dt)
        return self.asymptote + (self.initial - self.asymptote) * math.exp(-dt / self.tau)

    def derivative(self, dt: float) -> float:
        self._check_dt(dt)
        return -(self.initial - self.asymptote) / self.tau * math.exp(-dt / self.tau)

    def integral(self, dt: float) -> float:
        self._check_dt(dt)
        decay = -math.expm1(-dt / self.tau)  # 1 - exp(-dt/tau), accurate for small dt
        return self.asymptote * dt + (self.initial - self.asymptote) * self.tau * decay

    def value_and_integral(self, dt: float) -> "tuple[float, float]":
        self._check_dt(dt)
        x = -dt / self.tau
        gap = self.initial - self.asymptote
        return (
            self.asymptote + gap * math.exp(x),
            self.asymptote * dt + gap * self.tau * -math.expm1(x),
        )


def crossing_time(segment: AnalogSegment, threshold: float) -> Optional[float]:
    """Earliest strictly-positive time at which ``segment`` reaches ``threshold``.

    Returns ``None`` when the segment never reaches the threshold (for an
    exponential this includes asymptotic approach without attainment).
    The segment laws used here are monotone, so the crossing, when it
    exists, is unique.
    """
    if isinstance(segment, ConstantSegment):
        return None
    if isinstance(segment, RampSegment):
        if segment.slope == 0.0:
            return None
        dt = (threshold - segment.initial) / segment.slope
        if not math.isfinite(dt):
            return None  # slope too shallow: the crossing is "never"
        return dt if dt > 0.0 else None
    if isinstance(segment, ExponentialSegment):
        gap0 = segment.initial - segment.asymptote
        gap1 = threshold - segment.asymptote
        if gap0 == 0.0:
            return None
        ratio = gap1 / gap0
        # The exponential moves monotonically from ``initial`` towards the
        # asymptote, so the threshold is reachable only when it lies strictly
        # between them: 0 < ratio < 1.
        if not (0.0 < ratio < 1.0):
            return None
        return -segment.tau * math.log(ratio)
    raise TypeError(f"unsupported segment type: {type(segment).__name__}")
