"""Charge pumps: the interface between PFD pulses and the loop filter.

Two hardware styles are provided, matching the two loop-filter styles in
use:

* :class:`CurrentChargePump` — current-steering sources, the textbook
  "charge pump" that pairs with a series-RC filter.
* :class:`RailDriverChargePump` — the 74HCT4046A PC2 style used in the
  paper's experiment: a three-state output that drives the filter to VDD
  through a PMOS, to ground through an NMOS, or floats.  This pairs with
  the passive lag-lead filter of Figure 9.

Both map a :class:`~repro.pll.pfd.PFDState` to a :class:`Drive`, the
quantity the loop filter integrates.  Non-idealities relevant to the
paper's fault-detection story are parameters here:

* ``turn_on_delay`` — finite switch turn-on time.  PFD pulses narrower
  than this produce no drive at all: the classic **dead zone**, modelled
  causally (activation is delayed; deactivation is immediate).
* UP/DOWN asymmetry (current mismatch, or unequal driver resistances) —
  shifts the locked phase offset and distorts the measured response.
* ``leakage_current`` — constant parasitic charge/discharge while
  tri-stated, which defeats the hold-and-count mechanism when large.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.pll.pfd import PFDState

__all__ = [
    "DriveKind",
    "Drive",
    "ChargePump",
    "CurrentChargePump",
    "RailDriverChargePump",
]


class DriveKind(enum.Enum):
    """Electrical nature of the charge-pump output."""

    HIGH_Z = "high_z"
    VOLTAGE = "voltage"
    CURRENT = "current"


@dataclass(frozen=True)
class Drive:
    """What the loop filter sees at its input node.

    ``value`` is volts for :attr:`DriveKind.VOLTAGE`, amps (positive =
    charging) for :attr:`DriveKind.CURRENT`, and ignored for
    :attr:`DriveKind.HIGH_Z`.  ``source_resistance`` only applies to
    voltage drives.
    """

    kind: DriveKind
    value: float = 0.0
    source_resistance: float = 0.0

    @property
    def is_active(self) -> bool:
        """Whether the drive moves the filter at all."""
        if self.kind is DriveKind.HIGH_Z:
            return False
        if self.kind is DriveKind.CURRENT:
            return self.value != 0.0
        return True


HIGH_Z = Drive(DriveKind.HIGH_Z)


class ChargePump:
    """Base class mapping PFD states to loop-filter drives.

    Parameters
    ----------
    turn_on_delay:
        Seconds between the PFD asserting a pulse and the pump actually
        driving.  Zero models an ideal pump; a non-zero value creates a
        dead zone of exactly that width (used as a fault).
    leakage_current:
        Amps flowing into (positive) or out of (negative) the filter
        while the pump is tri-stated.  An ideal pump has zero.
    """

    def __init__(self, turn_on_delay: float = 0.0, leakage_current: float = 0.0):
        if not turn_on_delay >= 0.0:  # NaN fails too
            raise ConfigurationError(
                f"turn_on_delay must be >= 0, got {turn_on_delay!r}"
            )
        self.turn_on_delay = turn_on_delay
        self.leakage_current = leakage_current
        # Per-state drive cache: the PFD has four states and pump
        # parameters are fixed after construction, so repeated calls
        # return the *same* Drive object — the simulator's drive-change
        # comparisons then short-circuit on identity.
        self._drive_cache: Dict[Tuple[bool, bool], Drive] = {}
        self._idle_cache: Optional[Drive] = None

    def drive_for_state(self, state: PFDState) -> Drive:
        """Drive produced while the PFD sits in ``state`` (post turn-on)."""
        key = (state.up, state.dn)
        drive = self._drive_cache.get(key)
        if drive is None:
            drive = self._drive_cache[key] = self._drive_for_state(state)
        return drive

    def _drive_for_state(self, state: PFDState) -> Drive:
        """Uncached mapping from PFD state to drive; subclass hook."""
        raise NotImplementedError

    def idle_drive(self) -> Drive:
        """Drive while tri-stated (leakage only)."""
        idle = self._idle_cache
        if idle is None:
            if self.leakage_current != 0.0:
                idle = Drive(DriveKind.CURRENT, self.leakage_current)
            else:
                idle = HIGH_Z
            self._idle_cache = idle
        return idle

    @property
    def gain_v_per_rad(self) -> float:
        """Small-signal phase-detector+pump gain (``Kd`` in eq. 1)."""
        raise NotImplementedError


class CurrentChargePump(ChargePump):
    """Current-steering charge pump.

    Parameters
    ----------
    i_up / i_dn:
        Source and sink current magnitudes in amps; both positive.
        Mismatch between them is the classic pump asymmetry defect.
    """

    def __init__(
        self,
        i_up: float,
        i_dn: float = None,
        turn_on_delay: float = 0.0,
        leakage_current: float = 0.0,
    ) -> None:
        super().__init__(turn_on_delay, leakage_current)
        if i_dn is None:
            i_dn = i_up
        if i_up <= 0.0 or i_dn <= 0.0:
            raise ConfigurationError(
                f"pump currents must be positive, got i_up={i_up!r}, i_dn={i_dn!r}"
            )
        self.i_up = i_up
        self.i_dn = i_dn

    def _drive_for_state(self, state: PFDState) -> Drive:
        if state.both:
            mismatch = self.i_up - self.i_dn
            if mismatch == 0.0:
                return self.idle_drive()
            return Drive(DriveKind.CURRENT, mismatch)
        if state.up:
            return Drive(DriveKind.CURRENT, self.i_up)
        if state.dn:
            return Drive(DriveKind.CURRENT, -self.i_dn)
        return self.idle_drive()

    @property
    def gain_v_per_rad(self) -> float:
        """Pump gain ``I / 2π`` in A/rad (units fold into the filter's Z(s)).

        For current-mode loops the conventional ``Kd`` carries amps per
        radian; the mean of source and sink is used so a mismatched pump
        reports its average small-signal gain.
        """
        import math

        return 0.5 * (self.i_up + self.i_dn) / (2.0 * math.pi)

    def __repr__(self) -> str:
        return (
            f"CurrentChargePump(i_up={self.i_up!r}, i_dn={self.i_dn!r}, "
            f"turn_on_delay={self.turn_on_delay!r})"
        )


class RailDriverChargePump(ChargePump):
    """Three-state rail driver (74HCT4046A PC2 output stage).

    Parameters
    ----------
    vdd:
        Supply rail in volts.
    r_up / r_dn:
        On-resistances of the pull-up and pull-down devices.  Unequal
        values model driver asymmetry; both add to the filter's R1 and
        are one source of the measured-vs-theory discrepancy the paper
        attributes to non-linear pump operation.
    contention:
        By default the PC2 stage tri-states during the reset-overlap
        window (both flip-flops set), which is what makes the paper's
        hold mechanism drift-free: coincident edges produce *no* drive.
        Set ``contention=True`` to model a crude driver in which both
        devices conduct during the overlap, forming a resistive divider
        to mid-rail — a defect that visibly degrades the hold.
    """

    def __init__(
        self,
        vdd: float,
        r_up: float = 0.0,
        r_dn: float = 0.0,
        turn_on_delay: float = 0.0,
        leakage_current: float = 0.0,
        contention: bool = False,
    ) -> None:
        super().__init__(turn_on_delay, leakage_current)
        if vdd <= 0.0:
            raise ConfigurationError(f"vdd must be positive, got {vdd!r}")
        if r_up < 0.0 or r_dn < 0.0:
            raise ConfigurationError(
                f"driver resistances must be >= 0, got r_up={r_up!r}, r_dn={r_dn!r}"
            )
        self.vdd = vdd
        self.r_up = r_up
        self.r_dn = r_dn
        self.contention = contention

    def _drive_for_state(self, state: PFDState) -> Drive:
        if state.both:
            if not self.contention:
                return self.idle_drive()
            # Both devices conduct during the reset window, forming a
            # resistive divider between the rails.
            r_up = max(self.r_up, 1e-3)
            r_dn = max(self.r_dn, 1e-3)
            v = self.vdd * r_dn / (r_up + r_dn)
            r = r_up * r_dn / (r_up + r_dn)
            return Drive(DriveKind.VOLTAGE, v, r)
        if state.up:
            return Drive(DriveKind.VOLTAGE, self.vdd, self.r_up)
        if state.dn:
            return Drive(DriveKind.VOLTAGE, 0.0, self.r_dn)
        return self.idle_drive()

    @property
    def gain_v_per_rad(self) -> float:
        """PC2 small-signal gain ``VDD / 4π`` V/rad (datasheet value)."""
        import math

        return self.vdd / (4.0 * math.pi)

    def __repr__(self) -> str:
        return (
            f"RailDriverChargePump(vdd={self.vdd!r}, r_up={self.r_up!r}, "
            f"r_dn={self.r_dn!r}, turn_on_delay={self.turn_on_delay!r})"
        )
