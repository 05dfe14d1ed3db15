"""Assembled charge-pump PLL description.

:class:`ChargePumpPLL` bundles the component descriptors of Figure 2 of
the paper — charge pump, loop filter, VCO, dividers — together with the
nominal reference frequency, and derives the linear small-signal
quantities the paper's analysis needs (loop gain, natural frequency,
damping; equations (1) and (4)–(6)).

The PFD itself is stateful and is instantiated per simulation run by
:class:`~repro.pll.simulator.PLLTransientSimulator`; only its reset
delay lives here.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.pll.charge_pump import ChargePump, CurrentChargePump, DriveKind
from repro.pll.loop_filter import LoopFilter
from repro.pll.vco import VCO

__all__ = ["ChargePumpPLL"]

ComplexLike = Union[complex, np.ndarray]


def _bound_method_signature(value: object) -> Optional[Tuple]:
    """Hashable fingerprint of a bound method on a frozen parameter bag.

    A callable attribute usually forces the signature to degrade to
    identity-by-name — two arbitrary callables cannot be proven equal.
    One shape *can*: a method bound to a frozen dataclass whose fields
    are all scalars (e.g. ``HCT4046Config.tuning_curve``).  The method's
    behaviour is then fully determined by (class, method name, field
    values), so equal fingerprints imply bit-identical outputs and
    finished tones may be shared exactly as for plain scalar components.
    """
    func = getattr(value, "__func__", None)
    owner = getattr(value, "__self__", None)
    if func is None or owner is None:
        return None
    if not dataclasses.is_dataclass(owner):
        return None
    if not type(owner).__dataclass_params__.frozen:
        return None
    fields = []
    for field in dataclasses.fields(owner):
        v = getattr(owner, field.name)
        if isinstance(v, enum.Enum):
            v = v.value
        if v is not None and not isinstance(v, (bool, int, float, str)):
            return None
        fields.append((field.name, v))
    return (
        "boundmethod",
        type(owner).__name__,
        func.__qualname__,
    ) + tuple(fields)


def callable_signature(value: object) -> Optional[Tuple]:
    """Hashable fingerprint of a callable component attribute, or ``None``.

    A callable with a ``physics_signature()`` of its own (a Ko fault's
    scaled tuning curve) fingerprints itself; a bound method on a frozen
    parameter bag goes through :func:`_bound_method_signature`.  Any
    other callable cannot be proven equal to another: ``None``.
    """
    own = getattr(value, "physics_signature", None)
    if own is not None:
        return own()
    return _bound_method_signature(value)


def _component_signature(component: object) -> Optional[Tuple]:
    """Hashable fingerprint of one loop component's physics, or ``None``.

    Components are plain parameter bags: every public instance attribute
    is a scalar that fully determines the component's behaviour.  The
    signature is the sorted ``(attribute, value)`` tuple plus the class
    name, so two separately constructed components with the same
    parameters fingerprint identically.

    A non-scalar public attribute is fingerprinted through
    :func:`callable_signature` when it has a provable shape (the 4046
    tuning curve and its Ko faults' scaled copies do); any other opaque
    attribute cannot be fingerprinted from parameters alone, and
    ``None`` tells the caller to fall back to identity-by-name.
    """
    fields = []
    for key in sorted(vars(component)):
        if key.startswith("_"):
            continue  # derived caches, not physics
        value = vars(component)[key]
        if isinstance(value, enum.Enum):
            value = value.value
        if value is not None and not isinstance(value, (bool, int, float, str)):
            value = callable_signature(value)
            if value is None:
                return None
        fields.append((key, value))
    return (type(component).__name__,) + tuple(fields)


@dataclass
class ChargePumpPLL:
    """A complete CP-PLL: components plus nominal operating point.

    Parameters
    ----------
    pump:
        Charge pump (current-steering or rail-driver).
    loop_filter:
        Loop filter descriptor.
    vco:
        Voltage-controlled oscillator.
    n:
        Feedback division ratio (``N`` in eqs. 4–5).
    f_ref:
        Nominal reference frequency in Hz, *after* any reference
        divider — i.e. the frequency presented at the PFD.
    pfd_reset_delay:
        Reset propagation delay of the PFD in seconds (dead-zone glitch
        width of Figure 5).
    name:
        Label used in reports.
    """

    pump: ChargePump
    loop_filter: LoopFilter
    vco: VCO
    n: int
    f_ref: float
    pfd_reset_delay: float = 5e-9
    name: str = "cp-pll"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"divider n must be >= 1, got {self.n!r}")
        if self.f_ref <= 0.0:
            raise ConfigurationError(
                f"f_ref must be positive, got {self.f_ref!r}"
            )
        if self.pfd_reset_delay <= 0.0:
            raise ConfigurationError(
                f"pfd_reset_delay must be positive, got {self.pfd_reset_delay!r}"
            )
        f_out = self.n * self.f_ref
        if not (self.vco.f_min <= f_out <= self.vco.f_max):
            raise ConfigurationError(
                f"nominal output frequency {f_out!r} Hz is outside the VCO "
                f"range [{self.vco.f_min!r}, {self.vco.f_max!r}]"
            )

    # ------------------------------------------------------------------
    # operating point
    # ------------------------------------------------------------------
    @property
    def f_out_nominal(self) -> float:
        """Nominal VCO output frequency ``N * f_ref`` in Hz."""
        return self.n * self.f_ref

    def locked_control_voltage(self) -> float:
        """Control voltage at which the VCO runs at exactly ``N * f_ref``."""
        return self.vco.voltage_for_frequency(self.f_out_nominal)

    def physics_signature(self) -> Hashable:
        """Hashable fingerprint of the loop *physics*, independent of name.

        Two PLLs with equal signatures are behaviourally identical: they
        produce bit-identical transient trajectories from the same
        stimulus, so finished tone measurements (and anything else
        derived purely from the dynamics) can be shared between them.
        This is what lets a lot screen reuse one device's finished tones
        for every same-configuration device in the lot, and — because an
        injected fault changes component parameters — what keys per-
        fault tones apart in a fault-library screen.

        The signature covers the charge pump, loop filter and VCO
        parameters plus the divider ratio, reference frequency and PFD
        reset delay.  When any component carries an opaque attribute (a
        custom VCO tuning curve, say), parameters alone cannot prove
        behavioural equality, so the signature degrades to the device
        *name* — correct but never shared across differently named
        devices.
        """
        parts = tuple(
            _component_signature(c)
            for c in (self.pump, self.loop_filter, self.vco)
        )
        if any(p is None for p in parts):
            return ("named", self.name)
        return (
            "physics",
            self.n,
            self.f_ref,
            self.pfd_reset_delay,
        ) + parts

    # ------------------------------------------------------------------
    # small-signal quantities (linear model; see analysis.linear_model)
    # ------------------------------------------------------------------
    @property
    def kd(self) -> float:
        """Phase-detector(+pump) gain: V/rad for rail drivers, A/rad for
        current pumps."""
        return self.pump.gain_v_per_rad

    @property
    def ko(self) -> float:
        """VCO gain in rad/s per volt."""
        return self.vco.gain_rad_per_sv

    @property
    def drive_kind(self) -> DriveKind:
        """Whether the pump drives the filter with a voltage or a current."""
        if isinstance(self.pump, CurrentChargePump):
            return DriveKind.CURRENT
        return DriveKind.VOLTAGE

    @property
    def drive_source_resistance(self) -> float:
        """Average driver output resistance seen by a voltage-driven filter."""
        r_up = getattr(self.pump, "r_up", 0.0)
        r_dn = getattr(self.pump, "r_dn", 0.0)
        return 0.5 * (r_up + r_dn)

    def filter_response(self, s: ComplexLike) -> ComplexLike:
        """``F(s)`` (or ``Z(s)`` for current pumps) including driver Rout."""
        return self.loop_filter.frequency_response(
            s, self.drive_kind, self.drive_source_resistance
        )

    def loop_gain_constant(self) -> float:
        """``K = Kd * Ko`` — the product in eq. (5), in rad/s (voltage
        pumps) or rad·A-units folded with Z(s) (current pumps)."""
        return self.kd * self.ko

    def open_loop_transfer(self, s: ComplexLike) -> ComplexLike:
        """Open-loop gain ``G(s) = Kd * F(s) * Ko / (s * N)``."""
        s_arr = np.asarray(s, dtype=complex) if np.ndim(s) else complex(s)
        return self.kd * self.filter_response(s_arr) * self.ko / (s_arr * self.n)

    def closed_loop_transfer(self, s: ComplexLike) -> ComplexLike:
        """Closed-loop phase transfer ``H(s) = θo(s)/θi(s)`` (eq. 1 with
        the divider: ``H = N·G/(1+G)``).

        The paper's eq. (4) is this expression specialised to the
        Figure 9 filter.
        """
        g = self.open_loop_transfer(s)
        return self.n * g / (1.0 + g)

    # ------------------------------------------------------------------
    # second-order parameters (eqs. 5 and 6)
    # ------------------------------------------------------------------
    def _lag_lead_taus(self) -> "tuple[float, float]":
        lf = self.loop_filter
        tau1 = getattr(lf, "tau1", None)
        if callable(tau1):
            return lf.tau1(self.drive_source_resistance), lf.tau2
        raise ConfigurationError(
            "second-order eqs. (5)/(6) apply to the passive lag-lead "
            f"filter; got {type(lf).__name__}"
        )

    def _is_series_rc(self) -> bool:
        # Avoid a hard import cycle: duck-type on the series-RC interface.
        lf = self.loop_filter
        return hasattr(lf, "tau") and hasattr(lf, "r") and not hasattr(lf, "r1")

    def natural_frequency(self) -> float:
        """Natural frequency in rad/s.

        Passive lag-lead (the paper's loop): eq. (5),
        ``ωn = sqrt(K / (N (τ1 + τ2)))``.

        Current-mode series-RC (the classic charge-pump loop):
        ``ωn = sqrt(Kd·Ko / (N·C))`` — the type-2 textbook result.
        """
        if self._is_series_rc():
            return math.sqrt(
                self.loop_gain_constant() / (self.n * self.loop_filter.c)
            )
        tau1, tau2 = self._lag_lead_taus()
        return math.sqrt(self.loop_gain_constant() / (self.n * (tau1 + tau2)))

    def damping(self, exact: bool = False) -> float:
        """Damping factor ζ.

        Lag-lead: ``exact=False`` (default) is the paper's eq. (6),
        ``ζ = ωn τ2 / 2``; ``exact=True`` adds the finite-loop-gain term
        from Gardner, ``ζ = (ωn/2)(τ2 + N/K)``, which matters for
        low-gain loops.  Series-RC type-2 loops use ``ζ = ωn·R·C/2``
        (the ``exact`` flag has no extra term to add there).
        """
        if self._is_series_rc():
            return 0.5 * self.natural_frequency() * self.loop_filter.tau
        __, tau2 = self._lag_lead_taus()
        wn = self.natural_frequency()
        if exact:
            return 0.5 * wn * (tau2 + self.n / self.loop_gain_constant())
        return 0.5 * wn * tau2

    def natural_frequency_hz(self) -> float:
        """Natural frequency in Hz (the paper reports ``Fn ≈ 8 Hz``)."""
        return self.natural_frequency() / (2.0 * math.pi)

    def __repr__(self) -> str:
        return (
            f"ChargePumpPLL(name={self.name!r}, n={self.n!r}, "
            f"f_ref={self.f_ref!r}, pump={self.pump!r}, "
            f"filter={self.loop_filter!r}, vco={self.vco!r})"
        )
