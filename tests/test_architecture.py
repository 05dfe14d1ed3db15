"""Figure 6 architecture config and Table 2 mux bookkeeping."""

import pytest

from repro.core.architecture import (
    BISTConfig,
    MuxState,
    TEST_SEQUENCE_TABLE,
)
from repro.errors import ConfigurationError


class TestMuxTable:
    def test_six_stages(self):
        assert len(TEST_SEQUENCE_TABLE) == 6
        assert [row[0] for row in TEST_SEQUENCE_TABLE] == list(range(6))

    def test_hold_stages_use_hold_mux(self):
        """Table 2: stages 3 and 4 run with A=C, A=D (loop held)."""
        by_stage = {row[0]: row[1] for row in TEST_SEQUENCE_TABLE}
        assert by_stage[3] is MuxState.TEST_HOLD
        assert by_stage[4] is MuxState.TEST_HOLD

    def test_closed_loop_stages(self):
        by_stage = {row[0]: row[1] for row in TEST_SEQUENCE_TABLE}
        for stage in (0, 1, 2, 5):
            assert by_stage[stage] is MuxState.TEST_CLOSED


class TestBISTConfig:
    def test_defaults_valid(self):
        cfg = BISTConfig()
        assert cfg.test_clock_hz == 10e6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BISTConfig(test_clock_hz=0.0)
        with pytest.raises(ConfigurationError):
            BISTConfig(settle_cycles=0)
        with pytest.raises(ConfigurationError):
            BISTConfig(frequency_count_periods=0)

    def test_inverter_must_outdelay_and_gate(self):
        with pytest.raises(ConfigurationError):
            BISTConfig(
                detector_inverter_delay=5e-9, detector_and_delay=5e-9
            )

    def test_validate_against_pfd_passes_for_paper_setup(self):
        BISTConfig().validate_against_pfd(pfd_reset_delay=20e-9)

    def test_validate_against_pfd_catches_wide_glitches(self):
        """Glitches wider than the inverter delay corrupt sampling; the
        paper's fix is widening the glitches *and* the inverter."""
        cfg = BISTConfig(detector_inverter_delay=30e-9,
                         detector_and_delay=5e-9)
        with pytest.raises(ConfigurationError):
            cfg.validate_against_pfd(pfd_reset_delay=40e-9)

    def test_frozen(self):
        cfg = BISTConfig()
        with pytest.raises(AttributeError):
            cfg.test_clock_hz = 1.0
