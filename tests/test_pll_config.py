"""Assembled PLL: operating point and small-signal derivations."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pll.charge_pump import CurrentChargePump, RailDriverChargePump
from repro.pll.config import ChargePumpPLL
from repro.pll.loop_filter import PassiveLagLeadFilter, SeriesRCFilter
from repro.pll.vco import VCO
from repro.presets import paper_pll


def make_pll(**overrides):
    params = dict(
        pump=RailDriverChargePump(vdd=5.0),
        loop_filter=PassiveLagLeadFilter(r1=390e3, r2=33e3, c=470e-9),
        vco=VCO(5000.0, 1200.0, 2.5, f_min=2000.0, f_max=8000.0),
        n=5,
        f_ref=1000.0,
    )
    params.update(overrides)
    return ChargePumpPLL(**params)


class TestValidation:
    def test_divider_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            make_pll(n=0)

    def test_f_ref_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            make_pll(f_ref=0.0)

    def test_nominal_output_must_be_reachable(self):
        with pytest.raises(ConfigurationError):
            make_pll(n=50)  # 50 kHz > VCO max

    def test_reset_delay_positive(self):
        with pytest.raises(ConfigurationError):
            make_pll(pfd_reset_delay=0.0)

    @pytest.mark.parametrize("field", ["f_ref", "pfd_reset_delay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            make_pll(**{field: value})
        with pytest.raises(ConfigurationError, match=field):
            dataclasses.replace(paper_pll(), **{field: value})


class TestOperatingPoint:
    def test_nominal_output(self):
        assert make_pll().f_out_nominal == 5000.0

    def test_locked_control_voltage(self):
        assert make_pll().locked_control_voltage() == pytest.approx(2.5)

    def test_locked_voltage_off_center(self):
        pll = make_pll(f_ref=1100.0)
        v = pll.locked_control_voltage()
        assert v == pytest.approx(2.5 + 500.0 / 1200.0)


class TestSmallSignal:
    def test_kd_from_rail_driver(self):
        assert make_pll().kd == pytest.approx(5.0 / (4 * math.pi))

    def test_ko(self):
        assert make_pll().ko == pytest.approx(2 * math.pi * 1200.0)

    def test_loop_gain_constant(self):
        pll = make_pll()
        assert pll.loop_gain_constant() == pytest.approx(pll.kd * pll.ko)

    def test_closed_loop_dc_gain_is_n(self):
        pll = make_pll()
        h = pll.closed_loop_transfer(1j * 1e-4)
        assert abs(h) == pytest.approx(pll.n, rel=1e-3)

    def test_closed_loop_rolls_off(self):
        pll = make_pll()
        h_lo = abs(pll.closed_loop_transfer(1j * 1.0))
        h_hi = abs(pll.closed_loop_transfer(1j * 1e4))
        assert h_hi < 0.05 * h_lo

    def test_open_loop_crosses_unity(self):
        pll = make_pll()
        w = np.logspace(-1, 4, 500)
        g = np.abs(pll.open_loop_transfer(1j * w))
        assert g[0] > 1.0 and g[-1] < 1.0

    def test_eq5_natural_frequency(self):
        """ωn = sqrt(Kd·Ko / (N (τ1+τ2))) — the paper's eq. (5)."""
        pll = make_pll()
        tau1 = pll.loop_filter.tau1(0.0)
        tau2 = pll.loop_filter.tau2
        expected = math.sqrt(pll.kd * pll.ko / (pll.n * (tau1 + tau2)))
        assert pll.natural_frequency() == pytest.approx(expected)

    def test_eq6_damping(self):
        """ζ = ωn τ2 / 2 — the paper's eq. (6)."""
        pll = make_pll()
        assert pll.damping() == pytest.approx(
            0.5 * pll.natural_frequency() * pll.loop_filter.tau2
        )

    def test_exact_damping_larger(self):
        pll = make_pll()
        assert pll.damping(exact=True) > pll.damping()

    def test_paper_anchors(self):
        """The reconstructed set-up hits the paper's quoted values."""
        pll = paper_pll()
        assert pll.natural_frequency_hz() == pytest.approx(8.74, abs=0.05)
        assert pll.damping() == pytest.approx(0.43, abs=0.01)

    def test_series_rc_second_order_textbook(self):
        """Current-mode type-2 loop: wn = sqrt(Kd*Ko/(N*C)),
        zeta = wn*R*C/2."""
        pll = make_pll(
            pump=CurrentChargePump(i_up=1e-4),
            loop_filter=SeriesRCFilter(r=10e3, c=1e-6),
        )
        expected_wn = math.sqrt(pll.kd * pll.ko / (pll.n * 1e-6))
        assert pll.natural_frequency() == pytest.approx(expected_wn)
        assert pll.damping() == pytest.approx(0.5 * expected_wn * 10e3 * 1e-6)


class TestDriveKinds:
    def test_rail_driver_is_voltage(self):
        from repro.pll.charge_pump import DriveKind

        assert make_pll().drive_kind is DriveKind.VOLTAGE

    def test_current_pump_is_current(self):
        from repro.pll.charge_pump import DriveKind

        pll = make_pll(
            pump=CurrentChargePump(i_up=1e-4),
            loop_filter=SeriesRCFilter(r=10e3, c=1e-6),
        )
        assert pll.drive_kind is DriveKind.CURRENT

    def test_source_resistance_averaged(self):
        pll = make_pll(pump=RailDriverChargePump(vdd=5.0, r_up=120.0, r_dn=80.0))
        assert pll.drive_source_resistance == pytest.approx(100.0)

    def test_filter_response_includes_rout(self):
        pll_ideal = make_pll()
        pll_real = make_pll(
            pump=RailDriverChargePump(vdd=5.0, r_up=50e3, r_dn=50e3)
        )
        w = 2 * math.pi * 10.0
        f_ideal = abs(pll_ideal.filter_response(1j * w))
        f_real = abs(pll_real.filter_response(1j * w))
        assert f_real != pytest.approx(f_ideal, rel=1e-3)


class TestCurrentModeLoop:
    def test_closed_loop_sensible(self):
        pll = make_pll(
            pump=CurrentChargePump(i_up=100e-6),
            loop_filter=SeriesRCFilter(r=10e3, c=1e-6),
        )
        h_dc = abs(pll.closed_loop_transfer(1j * 1e-3))
        assert h_dc == pytest.approx(pll.n, rel=1e-3)
        # Type-2 current-mode loop still low-passes.
        assert abs(pll.closed_loop_transfer(1j * 1e6)) < 0.01 * h_dc
