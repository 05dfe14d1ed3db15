"""74HCT4046A-flavoured CP-PLL device model.

The paper's bench experiment drives a Philips 74HCT4046AN — a CMOS PLL
whose PC2 phase comparator is exactly the tri-state PFD + rail driver
modelled in this package.  Two device realities matter for reproducing
the measured curves:

* the **PC2 output stage** has finite, slightly asymmetric on-resistance
  (tens to ~100 Ω at 5 V), which adds to R1 and skews charge/discharge;
* the **VCO tuning law is not straight**: gain compresses towards the
  rails.  The paper attributes the residual theory-vs-measurement
  discrepancy "primarily to the non-linear operation of the particular
  charge pump and loop filter configuration"; this model provides that
  non-linearity in parameterised form so the discrepancy can be
  regenerated and studied.

:func:`make_hct4046_pll` assembles a full :class:`ChargePumpPLL` from a
:class:`HCT4046Config` plus the external loop-filter components of
Figure 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.pll.charge_pump import RailDriverChargePump
from repro.pll.config import ChargePumpPLL
from repro.pll.loop_filter import PassiveLagLeadFilter
from repro.pll.vco import VCO

__all__ = ["HCT4046Config", "make_hct4046_pll"]


@dataclass(frozen=True)
class HCT4046Config:
    """Device parameters of the 4046-style PLL.

    Parameters
    ----------
    vdd:
        Supply voltage; PC2 gain is ``vdd / 4π`` V/rad.
    f_center:
        VCO frequency at mid-rail, in Hz (set externally by the timing
        R/C on a real part; a free parameter here).
    gain_hz_per_v:
        Mid-rail (small-signal) VCO gain in Hz/V.
    curvature:
        Cubic tuning-law compression coefficient ``α`` in::

            f(v) = f_center + Ko * Δv * (1 - α * (Δv / Δv_max)²)

        with ``Δv_max = vdd/2``.  ``α = 0`` is a perfectly linear VCO;
        monotonicity requires ``α < 1/3``.  The default 0.15 gives the
        gentle compression typical of the part.
    r_up / r_dn:
        PC2 driver on-resistances (pull-up PMOS is usually the weaker
        device, hence the asymmetric defaults).
    pfd_reset_delay:
        PC2 internal reset propagation delay — the dead-zone glitch
        width.
    """

    vdd: float = 5.0
    f_center: float = 5000.0
    gain_hz_per_v: float = 1200.0
    curvature: float = 0.15
    r_up: float = 120.0
    r_dn: float = 90.0
    pfd_reset_delay: float = 20e-9

    def __post_init__(self) -> None:
        if self.vdd <= 0.0:
            raise ConfigurationError(f"vdd must be positive, got {self.vdd!r}")
        if not (0.0 <= self.curvature < 1.0 / 3.0):
            raise ConfigurationError(
                "curvature must be in [0, 1/3) for a monotone tuning law, "
                f"got {self.curvature!r}"
            )

    @property
    def v_center(self) -> float:
        """Mid-rail control voltage."""
        return 0.5 * self.vdd

    def tuning_curve(self, v: float) -> float:
        """Compressed-cubic VCO tuning law.

        The cubic is only physical between the rails (beyond them the
        cubic term would bend the curve back down), so the control
        voltage is clamped to ``[0, vdd]`` first — outside the rails the
        oscillator simply pins at its end frequencies, keeping the law
        globally monotone as the :class:`~repro.pll.vco.VCO` requires.
        """
        v = min(max(v, 0.0), self.vdd)
        dv = v - self.v_center
        dv_max = 0.5 * self.vdd
        u = dv / dv_max
        return self.f_center + self.gain_hz_per_v * dv * (1.0 - self.curvature * u * u)

    def make_vco(self) -> VCO:
        """VCO using the compressed tuning curve, clamped to the usable
        range reached at the rails."""
        f_at_low = self.tuning_curve(0.0)
        f_at_high = self.tuning_curve(self.vdd)
        f_min = max(f_at_low, 1e-6)
        curve = None if self.curvature == 0.0 else self.tuning_curve
        return VCO(
            f_center=self.f_center,
            gain_hz_per_v=self.gain_hz_per_v,
            v_center=self.v_center,
            f_min=f_min,
            f_max=f_at_high,
            tuning_curve=curve,
        )

    def make_pump(self) -> RailDriverChargePump:
        """PC2 output stage as a rail-driver charge pump."""
        return RailDriverChargePump(vdd=self.vdd, r_up=self.r_up, r_dn=self.r_dn)

    @property
    def pc2_gain_v_per_rad(self) -> float:
        """PC2 phase-comparator gain ``VDD / 4π`` V/rad."""
        return self.vdd / (4.0 * math.pi)


def make_hct4046_pll(
    config: HCT4046Config,
    r1: float,
    r2: float,
    c: float,
    n: int,
    f_ref: float,
    name: str = "hct4046-pll",
) -> ChargePumpPLL:
    """Assemble the paper's bench PLL: 4046 device + Figure 9 filter.

    Parameters mirror Table 3: external R1/R2/C, feedback modulus ``n``
    and the nominal PFD-side reference frequency ``f_ref``.
    """
    return ChargePumpPLL(
        pump=config.make_pump(),
        loop_filter=PassiveLagLeadFilter(r1=r1, r2=r2, c=c),
        vco=config.make_vco(),
        n=n,
        f_ref=f_ref,
        pfd_reset_delay=config.pfd_reset_delay,
        name=name,
    )
