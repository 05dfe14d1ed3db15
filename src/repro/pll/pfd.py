"""Tri-state phase-frequency detector.

The PFD of a CP-PLL is two D-flip-flops with their D inputs tied high,
clocked by the rising edges of the reference and feedback signals, and
an AND gate that resets both a propagation delay after both outputs go
high.  Section 4 of the paper leans on three behavioural facts that this
model reproduces exactly:

1. Only **rising edges** matter.
2. When the loop is locked and edges coincide, both outputs emit
   **dead-zone glitches** whose width equals the reset propagation delay
   (Figure 5) — these glitches clock the peak-detector latch of
   Figure 7.
3. If the same signal drives both inputs, the net charge-pump activity
   is nil and the **VCO frequency holds** — the basis of the paper's
   hold-and-count measurement (PFD property (3), Section 4).

The model is event-driven: callers feed rising edges via
:meth:`on_ref_edge` / :meth:`on_fb_edge` and fire the scheduled reset
via :meth:`on_reset`.  UP and DOWN output waveforms (including the
glitches) are recorded as :class:`~repro.sim.signals.EdgeStream` so that
downstream digital circuitry can observe real pulse widths.

Charge-pump dead-zone defects are *not* modelled here: a turn-on delay
on the charge pump (see
:class:`repro.pll.charge_pump.ChargePump`) produces the dead zone
causally, which is also where the physics puts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.events import EdgeKind
from repro.sim.signals import EdgeStream

__all__ = ["PFDState", "PFDCycle", "PhaseFrequencyDetector"]


@dataclass(frozen=True)
class PFDState:
    """Instantaneous state of the two PFD output flip-flops."""

    up: bool
    dn: bool

    @property
    def both(self) -> bool:
        """Both flip-flops set — the reset (dead-zone) window."""
        return self.up and self.dn

    @property
    def idle(self) -> bool:
        """Neither flip-flop set."""
        return not (self.up or self.dn)


_IDLE = PFDState(False, False)
# The state space is four points and _on_edge runs once per input edge,
# so the states are interned rather than constructed per event.
_STATES = {
    (False, False): _IDLE,
    (True, False): PFDState(True, False),
    (False, True): PFDState(False, True),
    (True, True): PFDState(True, True),
}


@dataclass(frozen=True)
class PFDCycle:
    """One completed PFD compare cycle (both inputs seen, reset fired).

    This is the record the Figure 7 peak-detector latch works from: who
    rose first determines which output was the wide pulse and which was
    the dead-zone glitch.
    """

    up_rise: float
    dn_rise: float
    reset_time: float

    @property
    def ref_leading(self) -> bool:
        """True when the reference edge arrived first (UP was wide)."""
        return self.up_rise < self.dn_rise

    @property
    def coincident(self) -> bool:
        """Both edges at the same instant (locked / held loop)."""
        return self.up_rise == self.dn_rise

    @property
    def phase_error_seconds(self) -> float:
        """Signed edge skew: positive when the reference leads."""
        return self.dn_rise - self.up_rise

    @property
    def up_width(self) -> float:
        """Width of the UP pulse."""
        return self.reset_time - self.up_rise

    @property
    def dn_width(self) -> float:
        """Width of the DOWN pulse."""
        return self.reset_time - self.dn_rise


class PhaseFrequencyDetector:
    """Event-driven tri-state PFD with an explicit reset propagation delay.

    Parameters
    ----------
    reset_delay:
        Propagation delay of the D-latches plus AND gate, in seconds.
        This is the width of the dead-zone glitches of Figure 5 and must
        be positive (a physical gate always has delay).
    record:
        When true, UP/DOWN waveforms are recorded as edge streams.
    name:
        Instance name used in recorded net names and error messages.
    """

    def __init__(
        self,
        reset_delay: float = 5e-9,
        record: bool = True,
        name: str = "pfd",
    ) -> None:
        if reset_delay <= 0.0:
            raise ConfigurationError(
                f"reset_delay must be positive, got {reset_delay!r}"
            )
        self.reset_delay = reset_delay
        self.name = name
        self._state = _IDLE
        self._last_event_time: Optional[float] = None
        self._pending_reset: Optional[float] = None
        self._last_up_rise: Optional[float] = None
        self._last_dn_rise: Optional[float] = None
        self.up_stream: Optional[EdgeStream] = (
            EdgeStream(f"{name}.up") if record else None
        )
        self.dn_stream: Optional[EdgeStream] = (
            EdgeStream(f"{name}.dn") if record else None
        )

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    @property
    def state(self) -> PFDState:
        """Current flip-flop state."""
        return self._state

    @property
    def pending_reset_time(self) -> Optional[float]:
        """Absolute time of the scheduled reset, if both outputs are high."""
        return self._pending_reset

    def reset_state(self, time: Optional[float] = None) -> None:
        """Force both flip-flops low (power-on clear / mux switch-over).

        When waveform recording is enabled and an output is currently
        high, ``time`` is required so the recorded streams stay
        consistent (the forced clear is a real falling edge).
        """
        if self._state != _IDLE and (
            self.up_stream is not None or self.dn_stream is not None
        ):
            if time is None:
                raise SimulationError(
                    f"{self.name}: reset_state with outputs high needs a "
                    "time to record the forced falling edges"
                )
            self._check_monotonic(time)
            self._set_state(time, _IDLE)
        else:
            self._state = _IDLE
        self._pending_reset = None

    # ------------------------------------------------------------------
    # event inputs
    # ------------------------------------------------------------------
    def on_ref_edge(self, time: float) -> PFDState:
        """Rising edge on the reference input; returns the new state."""
        return self._on_edge(time, is_ref=True)

    def on_fb_edge(self, time: float) -> PFDState:
        """Rising edge on the feedback input; returns the new state."""
        return self._on_edge(time, is_ref=False)

    def on_reset(self, time: float) -> PFDCycle:
        """Fire the scheduled AND-gate reset; returns the completed cycle."""
        if self._pending_reset is None:
            raise SimulationError(f"{self.name}: reset fired with none pending")
        if abs(time - self._pending_reset) > 1e-15 + 1e-9 * abs(time):
            raise SimulationError(
                f"{self.name}: reset fired at t={time!r}, expected "
                f"t={self._pending_reset!r}"
            )
        self._check_monotonic(time)
        assert self._last_up_rise is not None and self._last_dn_rise is not None
        cycle = PFDCycle(
            up_rise=self._last_up_rise,
            dn_rise=self._last_dn_rise,
            reset_time=time,
        )
        self._pending_reset = None
        self._set_state(time, _IDLE)
        return cycle

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_monotonic(self, time: float) -> None:
        if self._last_event_time is not None and time < self._last_event_time:
            raise SimulationError(
                f"{self.name}: event at t={time!r} precedes previous event "
                f"at t={self._last_event_time!r}"
            )
        self._last_event_time = time

    def _on_edge(self, time: float, is_ref: bool) -> PFDState:
        self._check_monotonic(time)
        if self._pending_reset is not None and time >= self._pending_reset:
            # Caller failed to drain the reset first; that is a sequencing
            # bug in the driving simulator, not a physical situation.
            raise SimulationError(
                f"{self.name}: input edge at t={time!r} arrived after pending "
                f"reset at t={self._pending_reset!r} was due"
            )
        up, dn = self._state.up, self._state.dn
        if is_ref:
            if up:
                return self._state  # flip-flop already set; extra edge ignored
            up = True
            self._last_up_rise = time
        else:
            if dn:
                return self._state
            dn = True
            self._last_dn_rise = time
        new_state = _STATES[up, dn]
        self._set_state(time, new_state)
        if new_state.both:
            self._pending_reset = time + self.reset_delay
        return self._state

    def _set_state(self, time: float, new_state: PFDState) -> None:
        if self.up_stream is not None and new_state.up != self._state.up:
            self.up_stream.record(
                time, EdgeKind.RISING if new_state.up else EdgeKind.FALLING
            )
        if self.dn_stream is not None and new_state.dn != self._state.dn:
            self.dn_stream.record(
                time, EdgeKind.RISING if new_state.dn else EdgeKind.FALLING
            )
        self._state = new_state

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def recorded_pulses(self) -> Tuple[List[float], List[float]]:
        """Widths of completed UP and DOWN pulses seen so far.

        Convenience for tests and the Figure 5 bench; requires the PFD to
        have been constructed with ``record=True``.
        """
        if self.up_stream is None or self.dn_stream is None:
            raise SimulationError(f"{self.name}: recording disabled")
        return (
            list(self.up_stream.pulse_widths()),
            list(self.dn_stream.pulse_widths()),
        )

    @staticmethod
    def gain_v_per_rad(vdd: float) -> float:
        """Small-signal PC2 gain of a rail-driving PFD: ``VDD / 4π`` V/rad.

        This is the textbook (and 74HCT4046A datasheet) phase-detector
        gain used in Table 3 of the paper for the loop's linear model.
        """
        if vdd <= 0.0:
            raise ConfigurationError(f"vdd must be positive, got {vdd!r}")
        return vdd / (4.0 * math.pi)
