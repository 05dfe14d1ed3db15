"""Macro-level fault injection.

The motivation for the paper's technique is *test*: a shifted transfer
function reveals a defective loop.  This module injects the classic
macro-level CP-PLL defects — the same catalogue the authors study in
their companion IMSTW/ETW papers — as parameterised transformations of
a healthy :class:`~repro.pll.config.ChargePumpPLL`:

========================  ====================================================
fault kind                physical story
========================  ====================================================
LEAKY_CAPACITOR           resistive path across the loop-filter capacitor
PUMP_LEAKAGE              tri-stated pump sources/sinks a parasitic current
CP_DEAD_ZONE              pump turn-on slower than the PFD reset glitch
CP_ASYMMETRY              source/sink strength mismatch
VCO_GAIN_SHIFT            Ko off its nominal value (process fault)
R1_SHIFT / R2_SHIFT       filter resistors off value (τ1 / τ2, so ωn / ζ move)
CAP_SHIFT                 filter capacitor off value (both τ1 and τ2 move)
========================  ====================================================

Faults never mutate the input PLL: :func:`apply_fault` returns a new
:class:`ChargePumpPLL` built from transformed copies of the affected
components, so healthy and faulty loops can be simulated side by side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import FaultInjectionError
from repro.pll.charge_pump import (
    ChargePump,
    CurrentChargePump,
    RailDriverChargePump,
)
from repro.pll.config import ChargePumpPLL, callable_signature
from repro.pll.loop_filter import LoopFilter, PassiveLagLeadFilter, SeriesRCFilter
from repro.pll.vco import VCO

__all__ = ["FaultKind", "Fault", "apply_fault", "FAULT_LIBRARY", "fault_library"]


class FaultKind(enum.Enum):
    """Catalogue of injectable macro-level defects."""

    LEAKY_CAPACITOR = "leaky_capacitor"
    PUMP_LEAKAGE = "pump_leakage"
    CP_DEAD_ZONE = "cp_dead_zone"
    CP_ASYMMETRY = "cp_asymmetry"
    VCO_GAIN_SHIFT = "vco_gain_shift"
    R1_SHIFT = "r1_shift"
    R2_SHIFT = "r2_shift"
    CAP_SHIFT = "cap_shift"


@dataclass(frozen=True)
class Fault:
    """One injectable defect.

    ``magnitude`` is interpreted per kind:

    * ``LEAKY_CAPACITOR`` — leak resistance in ohms (smaller = worse).
    * ``PUMP_LEAKAGE`` — parasitic current in amps (signed).
    * ``CP_DEAD_ZONE`` — pump turn-on delay in seconds.
    * ``CP_ASYMMETRY`` — fractional strength imbalance (0.2 = up side
      20 % stronger than down side).
    * ``VCO_GAIN_SHIFT`` / ``R1_SHIFT`` / ``R2_SHIFT`` / ``CAP_SHIFT`` —
      multiplicative factor on the nominal value (0.5 = half nominal).
    """

    kind: FaultKind
    magnitude: float
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", f"{self.kind.value}={self.magnitude:g}")


def _fault_filter(lf: LoopFilter, fault: Fault) -> LoopFilter:
    if isinstance(lf, PassiveLagLeadFilter):
        if fault.kind is FaultKind.LEAKY_CAPACITOR:
            if fault.magnitude <= 0.0:
                raise FaultInjectionError("leak resistance must be positive")
            return PassiveLagLeadFilter(lf.r1, lf.r2, lf.c, fault.magnitude)
        if fault.kind is FaultKind.R1_SHIFT:
            return PassiveLagLeadFilter(
                lf.r1 * fault.magnitude, lf.r2, lf.c, lf.leak_resistance
            )
        if fault.kind is FaultKind.R2_SHIFT:
            return PassiveLagLeadFilter(
                lf.r1, lf.r2 * fault.magnitude, lf.c, lf.leak_resistance
            )
        if fault.kind is FaultKind.CAP_SHIFT:
            return PassiveLagLeadFilter(
                lf.r1, lf.r2, lf.c * fault.magnitude, lf.leak_resistance
            )
    if isinstance(lf, SeriesRCFilter):
        if fault.kind is FaultKind.LEAKY_CAPACITOR:
            if fault.magnitude <= 0.0:
                raise FaultInjectionError("leak resistance must be positive")
            return SeriesRCFilter(lf.r, lf.c, fault.magnitude)
        if fault.kind is FaultKind.R2_SHIFT:
            return SeriesRCFilter(lf.r * fault.magnitude, lf.c, lf.leak_resistance)
        if fault.kind is FaultKind.CAP_SHIFT:
            return SeriesRCFilter(lf.r, lf.c * fault.magnitude, lf.leak_resistance)
        if fault.kind is FaultKind.R1_SHIFT:
            raise FaultInjectionError(
                "series-RC filter has no R1; use R2_SHIFT for its resistor"
            )
    raise FaultInjectionError(
        f"fault {fault.kind.value!r} does not apply to {type(lf).__name__}"
    )


def _fault_pump(pump: ChargePump, fault: Fault) -> ChargePump:
    if fault.kind is FaultKind.PUMP_LEAKAGE:
        if isinstance(pump, CurrentChargePump):
            return CurrentChargePump(
                pump.i_up, pump.i_dn, pump.turn_on_delay, fault.magnitude
            )
        if isinstance(pump, RailDriverChargePump):
            return RailDriverChargePump(
                pump.vdd, pump.r_up, pump.r_dn, pump.turn_on_delay,
                fault.magnitude, pump.contention,
            )
    if fault.kind is FaultKind.CP_DEAD_ZONE:
        if fault.magnitude < 0.0:
            raise FaultInjectionError("dead-zone delay must be >= 0")
        if isinstance(pump, CurrentChargePump):
            return CurrentChargePump(
                pump.i_up, pump.i_dn, fault.magnitude, pump.leakage_current
            )
        if isinstance(pump, RailDriverChargePump):
            return RailDriverChargePump(
                pump.vdd, pump.r_up, pump.r_dn, fault.magnitude,
                pump.leakage_current, pump.contention,
            )
    if fault.kind is FaultKind.CP_ASYMMETRY:
        k = 1.0 + fault.magnitude
        if k <= 0.0:
            raise FaultInjectionError(
                f"asymmetry factor {fault.magnitude!r} would invert the pump"
            )
        if isinstance(pump, CurrentChargePump):
            return CurrentChargePump(
                pump.i_up * k, pump.i_dn, pump.turn_on_delay, pump.leakage_current
            )
        if isinstance(pump, RailDriverChargePump):
            if pump.r_up == 0.0 and pump.r_dn == 0.0:
                raise FaultInjectionError(
                    "an ideal (0 ohm) rail driver has no strength to "
                    "mis-match; model the device with finite on-resistances "
                    "first"
                )
            # A stronger up side means a *lower* pull-up resistance.
            return RailDriverChargePump(
                pump.vdd, pump.r_up / k, pump.r_dn, pump.turn_on_delay,
                pump.leakage_current, pump.contention,
            )
    raise FaultInjectionError(
        f"fault {fault.kind.value!r} does not apply to {type(pump).__name__}"
    )


@dataclass(frozen=True)
class _ScaledTuningCurve:
    """A tuning curve with its gain scaled by ``k`` about ``f0``.

    A module-level class rather than a closure, so a faulted device
    pickles into pool workers.  Its physics signature is the nominal
    curve's with ``k`` and ``f0``, so equally faulted 4046 dies share
    their tones; a nominal curve with no signature (a lambda) leaves
    the device's signature to degrade to its name, as for any custom
    curve.
    """

    nominal: Callable[[float], float]
    k: float
    f0: float

    def __call__(self, v: float) -> float:
        return self.f0 + self.k * (self.nominal(v) - self.f0)

    def physics_signature(self) -> Optional[Tuple]:
        nominal = callable_signature(self.nominal)
        if nominal is None:
            return None
        return ("scaled", nominal, self.k, self.f0)


def _fault_vco(vco: VCO, fault: Fault) -> VCO:
    if fault.kind is not FaultKind.VCO_GAIN_SHIFT:
        raise FaultInjectionError(
            f"fault {fault.kind.value!r} does not apply to the VCO"
        )
    if fault.magnitude <= 0.0:
        raise FaultInjectionError("VCO gain factor must be positive")
    scaled_gain = vco.gain_hz_per_v * fault.magnitude
    curve = vco.tuning_curve
    if curve is not None:
        curve = _ScaledTuningCurve(curve, fault.magnitude, vco.f_center)
    return VCO(
        f_center=vco.f_center,
        gain_hz_per_v=scaled_gain,
        v_center=vco.v_center,
        f_min=vco.f_min,
        f_max=vco.f_max,
        tuning_curve=curve,
    )


def apply_fault(pll: ChargePumpPLL, fault: Fault) -> ChargePumpPLL:
    """Return a new PLL with ``fault`` injected; the input is untouched."""
    pump = pll.pump
    lf = pll.loop_filter
    vco = pll.vco
    if fault.kind in (
        FaultKind.LEAKY_CAPACITOR,
        FaultKind.R1_SHIFT,
        FaultKind.R2_SHIFT,
        FaultKind.CAP_SHIFT,
    ):
        lf = _fault_filter(lf, fault)
    elif fault.kind in (
        FaultKind.PUMP_LEAKAGE,
        FaultKind.CP_DEAD_ZONE,
        FaultKind.CP_ASYMMETRY,
    ):
        pump = _fault_pump(pump, fault)
    elif fault.kind is FaultKind.VCO_GAIN_SHIFT:
        vco = _fault_vco(vco, fault)
    else:  # pragma: no cover - enum is exhaustive
        raise FaultInjectionError(f"unknown fault kind {fault.kind!r}")
    return replace(
        pll,
        pump=pump,
        loop_filter=lf,
        vco=vco,
        name=f"{pll.name}+{fault.label}",
    )


def fault_library() -> List[Fault]:
    """Representative defect set used by the fault-detection ablation.

    Magnitudes are chosen to be *macro* faults — comfortably outside
    normal process spread — matching the paper's framing of the test as
    a go/no-go structural check.
    """
    return [
        Fault(FaultKind.LEAKY_CAPACITOR, 50e3, "cap leak 50k"),
        Fault(FaultKind.CP_DEAD_ZONE, 100e-6, "pump dead zone 100us"),
        Fault(FaultKind.VCO_GAIN_SHIFT, 0.5, "Ko half nominal"),
        Fault(FaultKind.VCO_GAIN_SHIFT, 2.0, "Ko double nominal"),
        Fault(FaultKind.R2_SHIFT, 0.1, "R2 at 10% (zeta collapse)"),
        Fault(FaultKind.CAP_SHIFT, 3.0, "C tripled"),
        Fault(FaultKind.R1_SHIFT, 3.0, "R1 tripled"),
    ]


#: Shared instance of the representative defect set.
FAULT_LIBRARY: Dict[str, Fault] = {f.label: f for f in fault_library()}
