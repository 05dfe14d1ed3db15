"""Closed-loop transient simulator: lock, tracking, hold, observers."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.pll.simulator import PLLTransientSimulator
from repro.presets import paper_pll
from repro.stimulus.waveforms import (
    ConstantFrequencySource,
    SinusoidalFMSource,
)


@pytest.fixture
def pll():
    return paper_pll()


class TestLockedSteadyState:
    def test_starts_and_stays_locked(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        sim.run_until(0.5)
        ref = sim.ref_edges.as_array()
        fb = sim.fb_edges.as_array()
        n = min(len(ref), len(fb))
        assert n > 400
        skew = np.abs(ref[:n] - fb[:n])
        assert skew.max() < 1e-9

    def test_output_frequency_nominal(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        sim.run_until(0.2)
        assert sim.output_frequency == pytest.approx(5000.0, rel=1e-6)

    def test_control_voltage_at_lock_point(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        sim.run_until(0.2)
        assert sim.control_voltage == pytest.approx(
            pll.locked_control_voltage(), abs=1e-6
        )

    def test_run_until_locked_immediate(self, pll):
        # The streak must span ~2 natural periods (~0.23 s here), so an
        # already-locked loop is declared locked right after that.
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        t_lock = sim.run_until_locked()
        assert t_lock < 0.3


class TestAcquisition:
    def test_locks_from_voltage_offset(self, pll):
        sim = PLLTransientSimulator(
            pll, ConstantFrequencySource(1000.0),
            initial_control_voltage=2.8,  # ~360 Hz high
        )
        t_lock = sim.run_until_locked(timeout=3.0)
        assert sim.output_frequency == pytest.approx(5000.0, rel=1e-4)
        assert t_lock > 0.0

    def test_locks_to_offset_reference(self, pll):
        f_ref = 1050.0
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(f_ref))
        sim.run_until_locked(timeout=3.0)
        sim.run_for(0.2)
        assert sim.output_frequency == pytest.approx(5 * f_ref, rel=1e-4)

    def test_settling_time_scale_matches_theory(self, pll):
        """The error envelope decays with σ = ζωn: after 5/σ the initial
        offset must be essentially gone, and after 0.2/σ it must not be."""
        sigma = pll.damping() * pll.natural_frequency()
        sim = PLLTransientSimulator(
            pll, ConstantFrequencySource(1000.0),
            initial_control_voltage=2.6,
        )
        sim.run_until(0.2 / sigma)
        early_error = abs(sim.output_frequency - 5000.0)
        sim.run_until(6.0 / sigma)
        late_error = abs(sim.output_frequency - 5000.0)
        assert early_error > 10.0
        assert late_error < 1.0


class TestModulationTracking:
    def test_tracks_slow_fm(self, pll):
        """Well inside the bandwidth the output follows N x input deviation.

        Measured on the capacitor node: the control node additionally
        carries the large intra-cycle feed-through steps of the filter
        zero, which cycle-averaged/held measurements never see.
        """
        src = SinusoidalFMSource(1000.0, deviation=1.0, f_mod=1.0)
        sim = PLLTransientSimulator(pll, src)
        sim.run_until(3.0)
        swing_v = sim.cap_trace.peak_to_peak(start=1.0)
        half_swing_hz = 0.5 * swing_v * pll.vco.gain_hz_per_v
        assert half_swing_hz == pytest.approx(5.0, rel=0.1)

    def test_control_node_shows_feedthrough_steps(self, pll):
        """The raw control node hops by k*(VDD - vc) during pulses —
        the physical reason the BIST reads the held capacitor node."""
        src = SinusoidalFMSource(1000.0, deviation=1.0, f_mod=1.0)
        sim = PLLTransientSimulator(pll, src)
        sim.run_until(2.0)
        ctrl_swing = sim.control_trace.peak_to_peak(start=1.0)
        cap_swing = sim.cap_trace.peak_to_peak(start=1.0)
        assert ctrl_swing > 10.0 * cap_swing

    def test_rejects_fast_fm(self, pll):
        """Far above the bandwidth the output barely moves."""
        src = SinusoidalFMSource(1000.0, deviation=1.0, f_mod=200.0)
        sim = PLLTransientSimulator(pll, src)
        sim.run_until(0.5)
        slow = SinusoidalFMSource(1000.0, deviation=1.0, f_mod=1.0)
        sim_slow = PLLTransientSimulator(pll, slow)
        sim_slow.run_until(2.0)
        fast_swing = sim.cap_trace.peak_to_peak(start=0.2)
        slow_swing = sim_slow.cap_trace.peak_to_peak(start=1.0)
        assert fast_swing < 0.1 * slow_swing


class TestHold:
    def test_open_loop_freezes_frequency(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        sim.run_until(0.1)
        f_before = sim.output_frequency
        sim.open_loop()
        sim.run_for(0.5)
        assert sim.loop_is_open
        assert sim.output_frequency == pytest.approx(f_before, abs=1e-6)

    def test_fb_edges_continue_during_hold(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        sim.run_until(0.1)
        n_before = len(sim.fb_edges)
        sim.open_loop()
        sim.run_for(0.1)
        assert len(sim.fb_edges) > n_before + 90

    def test_hold_mid_modulation_captures_instant(self, pll):
        src = SinusoidalFMSource(1000.0, deviation=1.0, f_mod=2.0)
        sim = PLLTransientSimulator(pll, src)
        sim.run_until(1.125)  # quarter period into cycle 2: near input peak
        f_at_hold = sim.output_frequency
        sim.open_loop()
        sim.run_for(0.5)
        assert sim.output_frequency == pytest.approx(f_at_hold, abs=1e-6)

    def test_close_loop_relocks(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        sim.run_until(0.1)
        sim.open_loop()
        sim.run_for(0.2)
        sim.close_loop()
        t_lock = sim.run_until_locked(timeout=5.0)
        assert not sim.loop_is_open
        assert t_lock <= sim.now


class TestObserversAndResult:
    def test_cycle_observer_sees_every_cycle(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        cycles = []
        sim.add_cycle_observer(cycles.append)
        sim.run_until(0.05)
        # One compare cycle per reference period.
        assert len(cycles) == pytest.approx(50, abs=2)
        assert all(c.reset_time >= max(c.up_rise, c.dn_rise) for c in cycles)

    def test_observer_may_open_loop(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))

        def trip(cycle):
            if cycle.reset_time > 0.02 and not sim.loop_is_open:
                sim.open_loop()

        sim.add_cycle_observer(trip)
        sim.run_until(0.1)
        assert sim.loop_is_open

    def test_result_snapshot(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        sim.run_until(0.05)
        res = sim.result()
        assert res.end_time == pytest.approx(0.05)
        assert res.events > 100
        assert "TransientResult" in res.summary()

    def test_run_backwards_rejected(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        sim.run_until(0.01)
        with pytest.raises(SimulationError):
            sim.run_until(0.005)

    def test_pfd_streams_recorded(self, pll):
        sim = PLLTransientSimulator(pll, ConstantFrequencySource(1000.0))
        sim.run_until(0.05)
        up_w, dn_w = sim.result().pfd.recorded_pulses()
        assert len(up_w) > 40
        # Locked loop: dead-zone glitches only, width = reset delay.
        assert max(up_w) < 10 * pll.pfd_reset_delay
