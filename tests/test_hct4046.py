"""74HCT4046A-flavoured device model."""

import math

import pytest

from repro.core.sequencer import ToneTestSequencer
from repro.errors import ConfigurationError
from repro.pll.hct4046 import HCT4046Config, make_hct4046_pll
from repro.pll.charge_pump import RailDriverChargePump
from repro.pll.vco import VCO
from repro.presets import paper_bist_config, paper_pll, paper_stimulus
from repro.sim.vectorized import SettleLane, VectorizedLotSimulator


class TestConfig:
    def test_defaults_valid(self):
        cfg = HCT4046Config()
        assert cfg.v_center == 2.5

    def test_curvature_bounds(self):
        with pytest.raises(ConfigurationError):
            HCT4046Config(curvature=1.0 / 3.0)
        with pytest.raises(ConfigurationError):
            HCT4046Config(curvature=-0.1)

    def test_vdd_positive(self):
        with pytest.raises(ConfigurationError):
            HCT4046Config(vdd=0.0)

    def test_pc2_gain(self):
        cfg = HCT4046Config(vdd=5.0)
        assert cfg.pc2_gain_v_per_rad == pytest.approx(5.0 / (4 * math.pi))


class TestTuningCurve:
    def test_center_exact(self):
        cfg = HCT4046Config()
        assert cfg.tuning_curve(2.5) == pytest.approx(cfg.f_center)

    def test_small_signal_gain_at_center(self):
        cfg = HCT4046Config()
        h = 1e-6
        slope = (cfg.tuning_curve(2.5 + h) - cfg.tuning_curve(2.5 - h)) / (2 * h)
        assert slope == pytest.approx(cfg.gain_hz_per_v, rel=1e-6)

    def test_compression_at_rails(self):
        cfg = HCT4046Config(curvature=0.2)
        linear_extent = cfg.gain_hz_per_v * 2.5
        actual_extent = cfg.tuning_curve(5.0) - cfg.f_center
        assert actual_extent < linear_extent
        assert actual_extent == pytest.approx(linear_extent * 0.8)

    def test_monotone_over_rails(self):
        cfg = HCT4046Config(curvature=0.3)
        vs = [i * 0.05 for i in range(101)]
        fs = [cfg.tuning_curve(v) for v in vs]
        assert all(b > a for a, b in zip(fs, fs[1:]))

    def test_zero_curvature_makes_linear_vco(self):
        cfg = HCT4046Config(curvature=0.0)
        vco = cfg.make_vco()
        assert vco.tuning_curve is None

    def test_nonzero_curvature_installs_curve(self):
        vco = HCT4046Config(curvature=0.15).make_vco()
        assert vco.tuning_curve is not None


class TestAssembly:
    def test_make_pump(self):
        pump = HCT4046Config().make_pump()
        assert isinstance(pump, RailDriverChargePump)
        assert pump.r_up == 120.0 and pump.r_dn == 90.0

    def test_make_pll(self):
        cfg = HCT4046Config()
        pll = make_hct4046_pll(cfg, r1=390e3, r2=33e3, c=470e-9, n=5,
                               f_ref=1000.0)
        assert pll.f_out_nominal == 5000.0
        assert pll.pfd_reset_delay == cfg.pfd_reset_delay

    def test_nonlinear_paper_pll_close_to_linear(self):
        lin = paper_pll()
        non = paper_pll(nonlinear=True)
        # Same design point, slightly different small-signal numbers
        # because of driver resistance in tau1.
        assert non.natural_frequency_hz() == pytest.approx(
            lin.natural_frequency_hz(), rel=0.01
        )

    def test_nonlinear_locked_voltage_at_midrail(self):
        non = paper_pll(nonlinear=True)
        assert non.locked_control_voltage() == pytest.approx(2.5, abs=1e-6)


class TestScalarPhaseSolve:
    def test_one_guard_integral_per_crossing_solve(self, fast_bist_config,
                                                   monkeypatch):
        """``time_to_phase``'s reachability guard integrates the window
        once and the solver's ``fn(hi)`` reuses it: over one scalar
        4046 tone no Simpson call inside a solve repeats the previous
        one's (segment, dt), and the measurement still equals the
        farm's, whose kernel never calls ``time_to_phase``."""
        pll = paper_pll(nonlinear=True)
        stimulus = paper_stimulus("multitone")
        f_mod = 10.0
        solves = []  # the Simpson calls of each time_to_phase call
        solving = [False]
        numeric_phase = VCO._numeric_phase
        time_to_phase = VCO.time_to_phase

        def counted_phase(vco, segment, dt):
            if solving[0]:
                solves[-1].append((segment, dt))
            return numeric_phase(vco, segment, dt)

        def counted_solve(vco, *args, **kwargs):
            solves.append([])
            solving[0] = True
            try:
                return time_to_phase(vco, *args, **kwargs)
            finally:
                solving[0] = False

        with monkeypatch.context() as patch:
            patch.setattr(VCO, "_numeric_phase", counted_phase)
            patch.setattr(VCO, "time_to_phase", counted_solve)
            measured = ToneTestSequencer(
                pll, stimulus, fast_bist_config).run(f_mod)
        assert any(len(calls) > 1 for calls in solves)  # solves ran
        for calls in solves:
            for (seg_a, dt_a), (seg_b, dt_b) in zip(calls, calls[1:]):
                assert not (seg_a is seg_b and dt_a == dt_b)
        (result,) = VectorizedLotSimulator([SettleLane(
            pll=pll, stimulus=stimulus, f_mod=f_mod,
            settle_end=fast_bist_config.settle_cycles / f_mod,
            config=fast_bist_config,
        )]).run()
        assert result.mode == "vector"
        assert result.measurement == measured

    def test_no_numeric_integral_repeats_back_to_back(self, monkeypatch):
        """The VCO keeps its last numeric integral, so when the next
        event falls on the window the event search just integrated (the
        solver horizon: a REF edge or a reset before the feedback edge)
        or on the solver's last iterate, the advance reuses it: over one
        full-config scalar 4046 tone no Simpson call repeats the
        previous call's (segment, dt), and the measurement still equals
        the farm's."""
        pll = paper_pll(nonlinear=True)
        stimulus = paper_stimulus("multitone")
        config = paper_bist_config()
        f_mod = 8.36
        calls = []
        numeric_phase = VCO._numeric_phase

        def counted_phase(vco, segment, dt):
            calls.append((segment, dt))
            return numeric_phase(vco, segment, dt)

        with monkeypatch.context() as patch:
            patch.setattr(VCO, "_numeric_phase", counted_phase)
            measured = ToneTestSequencer(pll, stimulus, config).run(f_mod)
        assert len(calls) > 1000  # the 4046 curve integrated numerically
        repeats = [
            dt_b for (seg_a, dt_a), (seg_b, dt_b) in zip(calls, calls[1:])
            if seg_a is seg_b and dt_a == dt_b
        ]
        assert repeats == []
        (result,) = VectorizedLotSimulator([SettleLane(
            pll=pll, stimulus=stimulus, f_mod=f_mod,
            settle_end=config.settle_cycles / f_mod, config=config,
        )]).run()
        assert result.mode == "vector"
        assert result.measurement == measured
