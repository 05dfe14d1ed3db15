"""Loop filters with exact piecewise-analytic behaviour.

Two filters cover both charge-pump styles:

* :class:`PassiveLagLeadFilter` — the paper's Figure 9 network: the
  drive reaches the VCO control node through R1; from that node R2 in
  series with C goes to ground.  Its voltage transfer function is
  equation (3) of the paper::

      F(s) = (1 + s*tau2) / (1 + s*(tau1 + tau2)),
      tau1 = (Rs + R1) * C,   tau2 = R2 * C,

  where ``Rs`` is the driver's output resistance.
* :class:`SeriesRCFilter` — the classic current-mode charge-pump filter
  (R in series with C to ground), with transimpedance
  ``Z(s) = R + 1/(sC)``.

Filters here are **stateless descriptors**: the single state variable —
the capacitor voltage — is owned by the simulator and passed in.  Both
filters are one capacitor seen through two resistances: the series
resistance from the drive to the capacitor and the output resistance
from the VCO control node to the capacitor.  From those the
:class:`LoopFilter` base derives, once per drive, the
:class:`SegmentLaw` both nodes follow until the drive changes (a
constant, a ramp or an exponential relaxation, the per-edge updates of
Kuznetsov et al., arXiv:1901.01468), and builds closed-form
:mod:`~repro.sim.segments` from it for any state.  That law is the only
copy: the scalar simulator reads it through the segment methods and the
lot farm (:mod:`repro.sim.vectorized`) reads it directly, which is what
makes edge-to-edge simulation exact on both engines.

An optional ``leak_resistance`` across the capacitor models the leaky-
capacitor defect that undermines the paper's hold-and-count step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.pll.charge_pump import Drive, DriveKind
from repro.sim.segments import (
    AnalogSegment,
    ConstantSegment,
    ExponentialSegment,
    RampSegment,
)

__all__ = ["LoopFilter", "PassiveLagLeadFilter", "SegmentLaw", "SeriesRCFilter"]

ComplexLike = Union[complex, np.ndarray]

#: :attr:`SegmentLaw.kind` values: how the capacitor moves under a drive.
LAW_CONST, LAW_RAMP, LAW_EXP = 0, 1, 2


@dataclass(frozen=True)
class SegmentLaw:
    """Both filter nodes' evolution under one drive, from any state ``vc``.

    The capacitor holds (``LAW_CONST``), ramps at ``slope``
    (``LAW_RAMP``) or relaxes towards ``asymptote`` with time constant
    ``tau`` (``LAW_EXP``).  The control node follows the same law from
    ``scale * vc + offset`` (a ramp: ``vc + offset``) towards
    ``out_asymptote``.  ``passthrough`` marks a tri-stated drive: no
    series current flows, so the control node *is* the capacitor node.
    """

    kind: int
    asymptote: float = 0.0
    tau: float = 1.0
    slope: float = 0.0
    scale: float = 1.0
    offset: float = 0.0
    out_asymptote: float = 0.0
    passthrough: bool = False

    def __post_init__(self) -> None:
        if self.kind == LAW_EXP:
            # The segment's own tau check, made once per law: a law is
            # only ever derived if every segment built from it is valid.
            ExponentialSegment(initial=0.0, asymptote=self.asymptote,
                               tau=self.tau)


class LoopFilter:
    """Interface shared by all loop filters.

    A subclass supplies the capacitance ``c``, the ``leak_resistance``
    across it, and its two resistances (:meth:`_series_resistance`,
    :meth:`_output_resistance`).  The base derives each drive's
    :class:`SegmentLaw` once, on first use (:meth:`segment_law`), and
    builds segments from it.  The simulator asks for a fresh
    :meth:`segment_pair` whenever its state or drive has moved since
    the last one (after every advance); the lot farm reads the laws.
    """

    @property
    def has_leak(self) -> bool:
        """Whether a finite leak resistance is configured."""
        return math.isfinite(self.leak_resistance)

    def _leak_repr(self) -> str:
        return f", leak_resistance={self.leak_resistance!r}" if self.has_leak else ""

    def _series_resistance(self, source_resistance: float) -> float:
        """Resistance from a voltage drive to the capacitor."""
        raise NotImplementedError

    def _output_resistance(self) -> float:
        """Resistance from the VCO control node to the capacitor."""
        raise NotImplementedError

    # -- segment laws ---------------------------------------------------
    def segment_law(self, drive: Drive) -> SegmentLaw:
        """The law both nodes follow under ``drive``.

        Derived on the first call for a drive object and memoised in the
        private ``_laws`` (keyed by identity: pumps intern their drives,
        and private attributes stay out of
        :meth:`~repro.pll.config.ChargePumpPLL.physics_signature`).  Like
        a pump's drive cache, this takes the parameters as fixed after
        construction.
        """
        try:
            known, law = self._laws[id(drive)]
        except AttributeError:
            self._laws = {}
        except KeyError:
            pass
        else:
            if known is drive:
                return law
        law = self._derive_law(drive)
        if len(self._laws) >= 16:
            self._laws.clear()  # a caller minting a Drive per call
        self._laws[id(drive)] = (drive, law)
        return law

    def _derive_law(self, drive: Drive) -> SegmentLaw:
        c = self.c
        r_l = self.leak_resistance
        leaky = math.isfinite(r_l)
        if drive.kind is DriveKind.VOLTAGE:
            r_total = self._series_resistance(drive.source_resistance)
            if leaky:
                tau = c * r_total * r_l / (r_total + r_l)
                asymptote = drive.value * r_l / (r_total + r_l)
            else:
                tau = c * r_total
                asymptote = drive.value
            # vout = (1 - k) * vc + k * vdrive : same tau, scaled.  A zero
            # r_total leaves tau zero, which the law's own check rejects.
            k = self._output_resistance() / r_total if r_total else math.nan
            return SegmentLaw(
                LAW_EXP, asymptote, tau, scale=1.0 - k,
                offset=k * drive.value,
                out_asymptote=(1.0 - k) * asymptote + k * drive.value,
            )
        if drive.kind is DriveKind.CURRENT:
            # The injected current adds a constant drop on top of vc.
            offset = drive.value * self._output_resistance()
            if leaky:
                asymptote = drive.value * r_l
                return SegmentLaw(LAW_EXP, asymptote, r_l * c, offset=offset,
                                  out_asymptote=asymptote + offset)
            return SegmentLaw(LAW_RAMP, slope=drive.value / c, offset=offset)
        # HIGH_Z: the capacitor holds, or bleeds through the leak.
        if leaky:
            return SegmentLaw(LAW_EXP, 0.0, r_l * c, passthrough=True)
        return SegmentLaw(LAW_CONST, passthrough=True)

    def state_segment(self, vc: float, drive: Drive) -> AnalogSegment:
        """Capacitor-voltage evolution from state ``vc`` under ``drive``."""
        return self.segment_pair(vc, drive)[1]

    def output_segment(self, vc: float, drive: Drive) -> AnalogSegment:
        """VCO-control-node evolution from state ``vc`` under ``drive``."""
        return self.segment_pair(vc, drive)[0]

    def segment_pair(self, vc: float, drive: Drive
                     ) -> Tuple[AnalogSegment, AnalogSegment]:
        """``(output_segment, state_segment)`` for one state/drive.

        The simulator's entry point: one law lookup serves both nodes.
        """
        law = self.segment_law(drive)
        if law.kind == LAW_EXP:
            state = ExponentialSegment(initial=vc, asymptote=law.asymptote,
                                       tau=law.tau)
        elif law.kind == LAW_RAMP:
            state = RampSegment(initial=vc, slope=law.slope)
        else:
            state = ConstantSegment(initial=vc)
        if law.passthrough:
            return state, state
        if law.kind == LAW_RAMP:
            return RampSegment(initial=vc + law.offset, slope=law.slope), state
        return ExponentialSegment(
            initial=law.scale * vc + law.offset,
            asymptote=law.out_asymptote,
            tau=law.tau,
        ), state

    def state_for_output(self, vout: float) -> float:
        """Capacitor voltage that yields ``vout`` in the tri-stated condition.

        Used to initialise the loop at its locked operating point: with
        no series current the control node sits at the capacitor.
        """
        return vout

    # -- frequency domain ------------------------------------------------
    def frequency_response(self, s: ComplexLike, drive_kind: DriveKind,
                           source_resistance: float = 0.0) -> ComplexLike:
        """``F(s)`` (voltage drive) or ``Z(s)`` (current drive) at ``s``."""
        if drive_kind is DriveKind.VOLTAGE:
            return self.voltage_transfer(s, source_resistance)
        if drive_kind is DriveKind.CURRENT:
            return self.transimpedance(s)
        raise ConfigurationError("HIGH_Z has no transfer function")

    def voltage_transfer(self, s: ComplexLike, source_resistance: float = 0.0
                         ) -> ComplexLike:
        """Vout/Vdrive for a rail driver with the given output resistance."""
        raise NotImplementedError

    def transimpedance(self, s: ComplexLike) -> ComplexLike:
        """Vout/Idrive for a current-steering pump."""
        raise NotImplementedError

    def _capacitor_impedance(self, s: ComplexLike) -> ComplexLike:
        """The capacitor's impedance at ``s``, shunted by any leak."""
        s = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
        if self.has_leak:
            return self.leak_resistance / (1.0 + s * self.leak_resistance * self.c)
        return 1.0 / (s * self.c)


def _check_positive(name: str, value: float) -> None:
    if value <= 0.0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


class PassiveLagLeadFilter(LoopFilter):
    """The Figure 9 network: drive --R1--> vout --R2--C--> gnd.

    Parameters
    ----------
    r1, r2:
        Series and zero-setting resistances in ohms.
    c:
        Capacitance in farads.
    leak_resistance:
        Parasitic resistance across the capacitor in ohms;
        ``math.inf`` (default) is the healthy part.
    """

    def __init__(self, r1: float, r2: float, c: float,
                 leak_resistance: float = math.inf) -> None:
        _check_positive("r1", r1)
        _check_positive("c", c)
        if r2 < 0.0:
            raise ConfigurationError(f"r2 must be >= 0, got {r2!r}")
        _check_positive("leak_resistance", leak_resistance)
        self.r1 = r1
        self.r2 = r2
        self.c = c
        self.leak_resistance = leak_resistance

    # -- time constants of eq. (3) / Table 3 ---------------------------
    def tau1(self, source_resistance: float = 0.0) -> float:
        """``(Rs + R1) * C`` — the pole-side time constant of eq. (3)."""
        return (source_resistance + self.r1) * self.c

    @property
    def tau2(self) -> float:
        """``R2 * C`` — the stabilising-zero time constant of eq. (3)."""
        return self.r2 * self.c

    # -- segment laws ---------------------------------------------------
    def _series_resistance(self, source_resistance: float) -> float:
        return source_resistance + self.r1 + self.r2

    def _output_resistance(self) -> float:
        return self.r2

    # -- frequency domain ------------------------------------------------
    def voltage_transfer(self, s: ComplexLike, source_resistance: float = 0.0
                         ) -> ComplexLike:
        ra = source_resistance + self.r1
        z_branch = self.r2 + self._capacitor_impedance(s)
        return z_branch / (ra + z_branch)

    def transimpedance(self, s: ComplexLike) -> ComplexLike:
        """Vout/I for current injected at the control node (leakage path)."""
        return self.r2 + self._capacitor_impedance(s)

    def __repr__(self) -> str:
        return (
            f"PassiveLagLeadFilter(r1={self.r1!r}, r2={self.r2!r}, "
            f"c={self.c!r}{self._leak_repr()})"
        )


class SeriesRCFilter(LoopFilter):
    """Current-mode charge-pump filter: drive --> vout --R--C--> gnd.

    Parameters
    ----------
    r:
        Zero-setting resistance in ohms.
    c:
        Capacitance in farads.
    leak_resistance:
        Parasitic resistance across the capacitor; ``math.inf`` default.
    """

    def __init__(self, r: float, c: float,
                 leak_resistance: float = math.inf) -> None:
        if r < 0.0:
            raise ConfigurationError(f"r must be >= 0, got {r!r}")
        _check_positive("c", c)
        _check_positive("leak_resistance", leak_resistance)
        self.r = r
        self.c = c
        self.leak_resistance = leak_resistance

    @property
    def tau(self) -> float:
        """``R * C`` — the stabilising-zero time constant."""
        return self.r * self.c

    def _series_resistance(self, source_resistance: float) -> float:
        r_total = source_resistance + self.r
        if r_total <= 0.0:
            raise ConfigurationError(
                "voltage drive into a series-RC filter needs non-zero "
                "total resistance"
            )
        return r_total

    def _output_resistance(self) -> float:
        return self.r

    def voltage_transfer(self, s: ComplexLike, source_resistance: float = 0.0
                         ) -> ComplexLike:
        z_branch = self.r + self._capacitor_impedance(s)
        return z_branch / (source_resistance + z_branch)

    def transimpedance(self, s: ComplexLike) -> ComplexLike:
        return self.r + self._capacitor_impedance(s)

    def __repr__(self) -> str:
        return f"SeriesRCFilter(r={self.r!r}, c={self.c!r}{self._leak_repr()})"
