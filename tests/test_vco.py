"""VCO: tuning laws, clamping, exact phase accumulation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.pll.faults import _ScaledTuningCurve
from repro.pll.hct4046 import HCT4046Config
from repro.pll.vco import VCO
from repro.sim.segments import ConstantSegment, ExponentialSegment, RampSegment


@pytest.fixture
def vco():
    return VCO(
        f_center=5000.0, gain_hz_per_v=1200.0, v_center=2.5,
        f_min=2000.0, f_max=8000.0,
    )


class TestConfiguration:
    def test_rejects_nonpositive_center(self):
        with pytest.raises(ConfigurationError):
            VCO(f_center=0.0, gain_hz_per_v=1.0)

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ConfigurationError):
            VCO(f_center=1e3, gain_hz_per_v=0.0)

    def test_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            VCO(f_center=1e3, gain_hz_per_v=1.0, f_min=0.0, f_max=2e3)
        with pytest.raises(ConfigurationError):
            VCO(f_center=1e3, gain_hz_per_v=1.0, f_min=2e3, f_max=1e3)
        with pytest.raises(ConfigurationError):
            VCO(f_center=1e4, gain_hz_per_v=1.0, f_min=1e3, f_max=2e3)

    def test_gain_rad_conversion(self, vco):
        assert vco.gain_rad_per_sv == pytest.approx(2 * math.pi * 1200.0)


class TestTuning:
    def test_linear_law(self, vco):
        assert vco.frequency_of_voltage(2.5) == pytest.approx(5000.0)
        assert vco.frequency_of_voltage(3.5) == pytest.approx(6200.0)
        assert vco.frequency_of_voltage(1.5) == pytest.approx(3800.0)

    def test_clamping(self, vco):
        assert vco.frequency_of_voltage(100.0) == 8000.0
        assert vco.frequency_of_voltage(-100.0) == 2000.0

    def test_inverse_linear(self, vco):
        for f in (2500.0, 5000.0, 7000.0):
            v = vco.voltage_for_frequency(f)
            assert vco.frequency_of_voltage(v) == pytest.approx(f)

    def test_inverse_out_of_range_rejected(self, vco):
        with pytest.raises(ConfigurationError):
            vco.voltage_for_frequency(1.0)
        with pytest.raises(ConfigurationError):
            vco.voltage_for_frequency(9000.0)

    def test_inverse_nonlinear_curve(self):
        curve = lambda v: 5000.0 + 1000.0 * (v - 2.5) ** 3 + 500.0 * (v - 2.5)
        vco = VCO(
            f_center=5000.0, gain_hz_per_v=500.0, v_center=2.5,
            f_min=1000.0, f_max=9000.0, tuning_curve=curve,
        )
        v = vco.voltage_for_frequency(6000.0)
        assert vco.frequency_of_voltage(v) == pytest.approx(6000.0, rel=1e-6)


class TestPhaseAdvance:
    def test_constant_segment(self, vco):
        seg = ConstantSegment(initial=2.5)
        assert vco.phase_advance(seg, 1.0) == pytest.approx(5000.0)

    def test_zero_dt(self, vco):
        assert vco.phase_advance(ConstantSegment(initial=2.5), 0.0) == 0.0

    def test_negative_dt_rejected(self, vco):
        with pytest.raises(ValueError):
            vco.phase_advance(ConstantSegment(initial=2.5), -1.0)

    def test_ramp_segment_closed_form(self, vco):
        # v(t) = 2.5 + t: f = 5000 + 1200 t; phase over 1s = 5000 + 600.
        seg = RampSegment(initial=2.5, slope=1.0)
        assert vco.phase_advance(seg, 1.0) == pytest.approx(5600.0)

    def test_exponential_segment_matches_numeric(self, vco):
        seg = ExponentialSegment(initial=2.0, asymptote=3.0, tau=0.3)
        dt = 0.5
        n = 200000
        numeric = sum(
            vco.frequency_of_voltage(seg.value(i * dt / n)) for i in range(n)
        ) * dt / n
        assert vco.phase_advance(seg, dt) == pytest.approx(numeric, rel=1e-5)

    def test_clamped_ramp_matches_numeric(self, vco):
        # Ramp shoots well past the top clamp: closed form must split.
        seg = RampSegment(initial=2.5, slope=10.0)
        dt = 1.0
        n = 200000
        numeric = sum(
            vco.frequency_of_voltage(seg.value(i * dt / n)) for i in range(n)
        ) * dt / n
        assert vco.phase_advance(seg, dt) == pytest.approx(numeric, rel=1e-5)

    def test_fully_clamped_constant(self, vco):
        seg = ConstantSegment(initial=100.0)
        assert vco.phase_advance(seg, 2.0) == pytest.approx(16000.0)

    def test_nonlinear_curve_numeric_path(self):
        curve = lambda v: 5000.0 + 800.0 * math.tanh(v - 2.5)
        vco = VCO(
            f_center=5000.0, gain_hz_per_v=800.0, v_center=2.5,
            f_min=3000.0, f_max=7000.0, tuning_curve=curve,
        )
        seg = RampSegment(initial=2.0, slope=1.0)
        dt = 1.0
        n = 100000
        numeric = sum(
            vco.frequency_of_voltage(seg.value(i * dt / n)) for i in range(n)
        ) * dt / n
        assert vco.phase_advance(seg, dt) == pytest.approx(numeric, rel=1e-4)


class TestTimeToPhase:
    def test_constant_frequency(self, vco):
        seg = ConstantSegment(initial=2.5)
        t = vco.time_to_phase(seg, 5.0, dt_max=1.0)
        assert t == pytest.approx(1e-3, abs=1e-12)

    def test_target_beyond_window(self, vco):
        seg = ConstantSegment(initial=2.5)
        assert vco.time_to_phase(seg, 10000.0, dt_max=1.0) is None

    def test_zero_target(self, vco):
        assert vco.time_to_phase(ConstantSegment(initial=2.5), 0.0, 1.0) == 0.0

    def test_ramping_control(self, vco):
        seg = RampSegment(initial=2.5, slope=0.5)
        target = 100.0
        t = vco.time_to_phase(seg, target, dt_max=1.0)
        assert t is not None
        assert vco.phase_advance(seg, t) == pytest.approx(target, abs=1e-6)

    def test_phase_strictly_increasing_guarantee(self, vco):
        # Even a hard-clamped VCO keeps accumulating phase at f_min.
        seg = ConstantSegment(initial=-100.0)
        t = vco.time_to_phase(seg, 2000.0, dt_max=1.5)
        assert t == pytest.approx(1.0, abs=1e-9)

    def test_frequency_at(self, vco):
        seg = RampSegment(initial=2.5, slope=1.0)
        assert vco.frequency_at(seg, 0.0) == pytest.approx(5000.0)
        assert vco.frequency_at(seg, 0.5) == pytest.approx(5600.0)


def _per_node_phase(vco, segment, dt):
    """Composite Simpson with one :meth:`VCO.frequency_at` call per node,
    summed ends first and then the interior in node order."""
    n = 32
    h = dt / n
    total = vco.frequency_at(segment, 0.0) + vco.frequency_at(segment, dt)
    for i in range(1, n):
        weight = 4.0 if i % 2 else 2.0
        total += weight * vco.frequency_at(segment, i * h)
    return total * h / 3.0


_HCT = HCT4046Config()
# Beyond the 0-5 V rails the 4046 curve pins and the clamp to
# [f_min, f_max] engages; the lambda's steeper cubic clamps inside them.
_CURVES = {
    "hct4046": _HCT.tuning_curve,
    "Ko half": _ScaledTuningCurve(_HCT.tuning_curve, 0.5, _HCT.f_center),
    "Ko double": _ScaledTuningCurve(_HCT.tuning_curve, 2.0, _HCT.f_center),
    "lambda": lambda v: 5000.0 + 900.0 * (v - 2.5) + 40.0 * (v - 2.5) ** 3,
}
_rail_voltages = st.one_of(
    st.sampled_from([0.0, _HCT.vdd]),
    st.floats(min_value=-2.5, max_value=7.5),
)


def _segment(kind, v0, slope, asymptote, tau):
    if kind == "constant":
        return ConstantSegment(initial=v0)
    if kind == "ramp":
        return RampSegment(initial=v0, slope=slope)
    return ExponentialSegment(initial=v0, asymptote=asymptote, tau=tau)


class TestNumericPhase:
    @given(
        curve=st.sampled_from(sorted(_CURVES)),
        kind=st.sampled_from(["constant", "ramp", "exponential"]),
        v0=_rail_voltages,
        slope=st.floats(min_value=-2e3, max_value=2e3),
        asymptote=_rail_voltages,
        tau=st.floats(min_value=1e-6, max_value=1.0),
        dt=st.floats(min_value=0.0, max_value=10e-3, exclude_min=True),
    )
    def test_equals_per_node_frequency_at(self, curve, kind, v0, slope,
                                          asymptote, tau, dt):
        """The Simpson rule over locals is the per-node loop, bit for
        bit, for the 4046 curve, its Ko-scaled copies and a lambda."""
        base = _HCT.make_vco()
        vco = VCO(
            f_center=base.f_center, gain_hz_per_v=base.gain_hz_per_v,
            v_center=base.v_center, f_min=base.f_min, f_max=base.f_max,
            tuning_curve=_CURVES[curve],
        )
        seg = _segment(kind, v0, slope, asymptote, tau)
        got = vco._numeric_phase(seg, dt)
        assert got.hex() == _per_node_phase(vco, seg, dt).hex()
