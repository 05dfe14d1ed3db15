"""Charge pumps: drive mapping and non-idealities."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.pll.charge_pump import (
    CurrentChargePump,
    Drive,
    DriveKind,
    RailDriverChargePump,
)
from repro.pll.pfd import PFDState

UP = PFDState(True, False)
DN = PFDState(False, True)
BOTH = PFDState(True, True)
IDLE = PFDState(False, False)


class TestCurrentPump:
    def test_up_sources(self):
        cp = CurrentChargePump(i_up=1e-3)
        d = cp.drive_for_state(UP)
        assert d.kind is DriveKind.CURRENT
        assert d.value == pytest.approx(1e-3)

    def test_dn_sinks(self):
        cp = CurrentChargePump(i_up=1e-3)
        d = cp.drive_for_state(DN)
        assert d.value == pytest.approx(-1e-3)

    def test_matched_pump_idles_during_overlap(self):
        cp = CurrentChargePump(i_up=1e-3)
        assert not cp.drive_for_state(BOTH).is_active

    def test_mismatch_leaks_during_overlap(self):
        cp = CurrentChargePump(i_up=1.2e-3, i_dn=1.0e-3)
        d = cp.drive_for_state(BOTH)
        assert d.kind is DriveKind.CURRENT
        assert d.value == pytest.approx(0.2e-3)

    def test_idle_state(self):
        cp = CurrentChargePump(i_up=1e-3)
        assert cp.drive_for_state(IDLE).kind is DriveKind.HIGH_Z

    def test_leakage_appears_when_idle(self):
        cp = CurrentChargePump(i_up=1e-3, leakage_current=1e-9)
        d = cp.drive_for_state(IDLE)
        assert d.kind is DriveKind.CURRENT
        assert d.value == pytest.approx(1e-9)

    def test_gain(self):
        cp = CurrentChargePump(i_up=1e-3)
        assert cp.gain_v_per_rad == pytest.approx(1e-3 / (2 * math.pi))

    def test_gain_averages_mismatch(self):
        cp = CurrentChargePump(i_up=2e-3, i_dn=1e-3)
        assert cp.gain_v_per_rad == pytest.approx(1.5e-3 / (2 * math.pi))

    def test_rejects_nonpositive_currents(self):
        with pytest.raises(ConfigurationError):
            CurrentChargePump(i_up=0.0)
        with pytest.raises(ConfigurationError):
            CurrentChargePump(i_up=1e-3, i_dn=-1e-3)

    def test_rejects_negative_turn_on(self):
        with pytest.raises(ConfigurationError):
            CurrentChargePump(i_up=1e-3, turn_on_delay=-1e-9)

    def test_rejects_nan_turn_on(self):
        with pytest.raises(ConfigurationError, match="turn_on_delay"):
            CurrentChargePump(i_up=1e-3, turn_on_delay=math.nan)


class TestRailDriver:
    def test_up_drives_vdd(self):
        cp = RailDriverChargePump(vdd=5.0, r_up=100.0)
        d = cp.drive_for_state(UP)
        assert d.kind is DriveKind.VOLTAGE
        assert d.value == 5.0
        assert d.source_resistance == 100.0

    def test_dn_drives_ground(self):
        cp = RailDriverChargePump(vdd=5.0, r_dn=90.0)
        d = cp.drive_for_state(DN)
        assert d.value == 0.0
        assert d.source_resistance == 90.0

    def test_overlap_tristates_by_default(self):
        # PC2 behaviour: coincident edges produce no drive (hold works).
        cp = RailDriverChargePump(vdd=5.0, r_up=100.0, r_dn=100.0)
        assert cp.drive_for_state(BOTH).kind is DriveKind.HIGH_Z

    def test_overlap_contention_mode(self):
        cp = RailDriverChargePump(
            vdd=5.0, r_up=100.0, r_dn=100.0, contention=True
        )
        d = cp.drive_for_state(BOTH)
        assert d.kind is DriveKind.VOLTAGE
        assert d.value == pytest.approx(2.5)
        assert d.source_resistance == pytest.approx(50.0)

    def test_pc2_gain(self):
        cp = RailDriverChargePump(vdd=5.0)
        assert cp.gain_v_per_rad == pytest.approx(5.0 / (4 * math.pi))

    def test_rejects_bad_vdd(self):
        with pytest.raises(ConfigurationError):
            RailDriverChargePump(vdd=0.0)

    def test_rejects_negative_resistance(self):
        with pytest.raises(ConfigurationError):
            RailDriverChargePump(vdd=5.0, r_up=-1.0)

    def test_leakage_when_idle(self):
        cp = RailDriverChargePump(vdd=5.0, leakage_current=-2e-9)
        d = cp.drive_for_state(IDLE)
        assert d.kind is DriveKind.CURRENT
        assert d.value == -2e-9


class TestDrive:
    def test_high_z_inactive(self):
        assert not Drive(DriveKind.HIGH_Z).is_active

    def test_zero_current_inactive(self):
        assert not Drive(DriveKind.CURRENT, 0.0).is_active

    def test_voltage_always_active(self):
        assert Drive(DriveKind.VOLTAGE, 0.0).is_active

    def test_equality(self):
        assert Drive(DriveKind.VOLTAGE, 5.0, 10.0) == Drive(
            DriveKind.VOLTAGE, 5.0, 10.0
        )
        assert Drive(DriveKind.VOLTAGE, 5.0) != Drive(DriveKind.VOLTAGE, 4.0)
