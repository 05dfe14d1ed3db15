"""Loop filters: segment laws, transfer functions, leak faults."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.pll.charge_pump import Drive, DriveKind
from repro.pll.loop_filter import PassiveLagLeadFilter, SeriesRCFilter
from repro.sim.segments import ConstantSegment, ExponentialSegment, RampSegment

HIZ = Drive(DriveKind.HIGH_Z)


@pytest.fixture
def lag_lead():
    return PassiveLagLeadFilter(r1=390e3, r2=33e3, c=470e-9)


@pytest.fixture
def series_rc():
    return SeriesRCFilter(r=10e3, c=100e-9)


class TestLagLeadConfiguration:
    def test_time_constants(self, lag_lead):
        assert lag_lead.tau1() == pytest.approx(390e3 * 470e-9)
        assert lag_lead.tau2 == pytest.approx(33e3 * 470e-9)

    def test_tau1_includes_source_resistance(self, lag_lead):
        assert lag_lead.tau1(10e3) == pytest.approx(400e3 * 470e-9)

    def test_rejects_bad_components(self):
        with pytest.raises(ConfigurationError):
            PassiveLagLeadFilter(r1=0.0, r2=1.0, c=1e-9)
        with pytest.raises(ConfigurationError):
            PassiveLagLeadFilter(r1=1.0, r2=-1.0, c=1e-9)
        with pytest.raises(ConfigurationError):
            PassiveLagLeadFilter(r1=1.0, r2=1.0, c=0.0)
        with pytest.raises(ConfigurationError):
            PassiveLagLeadFilter(r1=1.0, r2=1.0, c=1e-9, leak_resistance=0.0)


class TestLagLeadSegments:
    def test_high_z_holds(self, lag_lead):
        seg = lag_lead.state_segment(2.0, HIZ)
        assert isinstance(seg, ConstantSegment)
        assert lag_lead.output_segment(2.0, HIZ).value(1.0) == 2.0

    def test_voltage_drive_relaxes_to_rail(self, lag_lead):
        drive = Drive(DriveKind.VOLTAGE, 5.0)
        seg = lag_lead.state_segment(2.0, drive)
        assert isinstance(seg, ExponentialSegment)
        assert seg.asymptote == pytest.approx(5.0)
        assert seg.tau == pytest.approx((390e3 + 33e3) * 470e-9)

    def test_voltage_drive_output_jump(self, lag_lead):
        # At drive turn-on the output jumps by the R2 divider share.
        vd = 5.0
        vc = 2.0
        drive = Drive(DriveKind.VOLTAGE, vd)
        out = lag_lead.output_segment(vc, drive)
        k = 33e3 / (390e3 + 33e3)
        assert out.value(0.0) == pytest.approx((1 - k) * vc + k * vd)
        assert out.value(1e9 if False else 100.0) == pytest.approx(vd, rel=1e-3)

    def test_source_resistance_slows_relaxation(self, lag_lead):
        fast = lag_lead.state_segment(0.0, Drive(DriveKind.VOLTAGE, 5.0, 0.0))
        slow = lag_lead.state_segment(0.0, Drive(DriveKind.VOLTAGE, 5.0, 100e3))
        assert slow.tau > fast.tau

    def test_current_drive_ramps(self, lag_lead):
        drive = Drive(DriveKind.CURRENT, 1e-6)
        seg = lag_lead.state_segment(1.0, drive)
        assert isinstance(seg, RampSegment)
        assert seg.slope == pytest.approx(1e-6 / 470e-9)

    def test_current_drive_output_offset(self, lag_lead):
        drive = Drive(DriveKind.CURRENT, 1e-6)
        out = lag_lead.output_segment(1.0, drive)
        assert out.value(0.0) == pytest.approx(1.0 + 1e-6 * 33e3)

    def test_state_for_output_identity(self, lag_lead):
        assert lag_lead.state_for_output(1.23) == 1.23

    def test_charge_balance_symmetry(self, lag_lead):
        """Equal up/down drive times return the capacitor to start.

        Exact only to first order in dt/tau: the residual is the
        O((dt/tau)^2) curvature term, so the tolerance reflects that.
        """
        vc = 2.5
        up = Drive(DriveKind.VOLTAGE, 5.0)
        dn = Drive(DriveKind.VOLTAGE, 0.0)
        dt = 1e-5  # much shorter than tau: linear regime
        vc1 = lag_lead.state_segment(vc, up).value(dt)
        vc2 = lag_lead.state_segment(vc1, dn).value(dt)
        tau = lag_lead.state_segment(vc, up).tau
        assert vc2 == pytest.approx(vc, abs=10.0 * vc * (dt / tau) ** 2)


class TestLagLeadLeak:
    def test_leak_discharges_when_held(self):
        lf = PassiveLagLeadFilter(r1=1e3, r2=1e2, c=1e-6, leak_resistance=1e6)
        seg = lf.state_segment(2.0, HIZ)
        assert isinstance(seg, ExponentialSegment)
        assert seg.asymptote == 0.0
        assert seg.tau == pytest.approx(1.0)

    def test_leak_reduces_dc_level(self):
        lf = PassiveLagLeadFilter(r1=1e3, r2=0.0, c=1e-6, leak_resistance=1e3)
        seg = lf.state_segment(0.0, Drive(DriveKind.VOLTAGE, 4.0))
        # Divider: 4 V * 1k/(1k+1k) = 2 V.
        assert seg.asymptote == pytest.approx(2.0)

    def test_has_leak_flag(self, lag_lead):
        assert not lag_lead.has_leak
        assert PassiveLagLeadFilter(1.0, 1.0, 1e-9, 1e6).has_leak


class TestLagLeadFrequencyResponse:
    def test_matches_eq3(self, lag_lead):
        """F(s) = (1 + s tau2) / (1 + s (tau1 + tau2)) for the ideal part."""
        w = np.logspace(-1, 4, 50)
        s = 1j * w
        expected = (1 + s * lag_lead.tau2) / (
            1 + s * (lag_lead.tau1() + lag_lead.tau2)
        )
        actual = lag_lead.voltage_transfer(s)
        assert np.allclose(actual, expected, rtol=1e-9)

    def test_dc_gain_unity(self, lag_lead):
        assert abs(lag_lead.voltage_transfer(1e-9j)) == pytest.approx(1.0, rel=1e-6)

    def test_hf_gain_is_divider_ratio(self, lag_lead):
        hf = lag_lead.voltage_transfer(1j * 1e9)
        assert abs(hf) == pytest.approx(33e3 / 423e3, rel=1e-3)

    def test_leak_lowers_dc_gain(self):
        # The leak sits across C only, so the DC divider is
        # (r2 + r_leak) / (r1 + r2 + r_leak).
        lf = PassiveLagLeadFilter(r1=1e3, r2=1e2, c=1e-6, leak_resistance=1e3)
        dc = abs(lf.voltage_transfer(1e-12j))
        assert dc == pytest.approx((1e2 + 1e3) / (1e3 + 1e2 + 1e3), rel=1e-3)

    def test_scalar_and_array_agree(self, lag_lead):
        s = 1j * 100.0
        scalar = lag_lead.voltage_transfer(s)
        array = lag_lead.voltage_transfer(np.array([s]))[0]
        assert scalar == pytest.approx(array)


class TestSeriesRC:
    def test_current_drive_ramps(self, series_rc):
        seg = series_rc.state_segment(0.0, Drive(DriveKind.CURRENT, 1e-6))
        assert isinstance(seg, RampSegment)
        assert seg.slope == pytest.approx(10.0)

    def test_current_output_offset(self, series_rc):
        out = series_rc.output_segment(1.0, Drive(DriveKind.CURRENT, 1e-6))
        assert out.value(0.0) == pytest.approx(1.0 + 1e-2)

    def test_high_z_holds(self, series_rc):
        assert isinstance(series_rc.state_segment(1.0, HIZ), ConstantSegment)

    def test_transimpedance(self, series_rc):
        w = 1e4
        z = series_rc.transimpedance(1j * w)
        expected = 10e3 + 1.0 / (1j * w * 100e-9)
        assert z == pytest.approx(expected)

    def test_voltage_drive_exponential(self, series_rc):
        seg = series_rc.state_segment(0.0, Drive(DriveKind.VOLTAGE, 5.0, 1e3))
        assert isinstance(seg, ExponentialSegment)
        assert seg.tau == pytest.approx((1e3 + 10e3) * 100e-9)

    def test_voltage_drive_needs_resistance(self):
        lf = SeriesRCFilter(r=0.0, c=1e-9)
        with pytest.raises(ConfigurationError):
            lf.state_segment(0.0, Drive(DriveKind.VOLTAGE, 5.0, 0.0))

    def test_leak_bleeds_held_cap(self):
        lf = SeriesRCFilter(r=1e3, c=1e-6, leak_resistance=1e6)
        seg = lf.state_segment(3.0, HIZ)
        assert isinstance(seg, ExponentialSegment)
        assert seg.value(10.0) < 3.0

    def test_rejects_bad_components(self):
        with pytest.raises(ConfigurationError):
            SeriesRCFilter(r=-1.0, c=1e-9)
        with pytest.raises(ConfigurationError):
            SeriesRCFilter(r=1.0, c=0.0)


class TestConsistencyBetweenStateAndOutput:
    """Output and state must agree in the long-time limit."""

    def test_lag_lead_voltage_settles_together(self, lag_lead):
        drive = Drive(DriveKind.VOLTAGE, 3.3)
        t = 50.0
        vc = lag_lead.state_segment(0.0, drive).value(t)
        vo = lag_lead.output_segment(0.0, drive).value(t)
        assert vc == pytest.approx(3.3, rel=1e-6)
        assert vo == pytest.approx(3.3, rel=1e-6)

    def test_output_continuity_within_segment(self, lag_lead):
        """vout segment evaluated from an advanced vc matches."""
        drive = Drive(DriveKind.VOLTAGE, 5.0)
        dt = 0.01
        vc1 = lag_lead.state_segment(1.0, drive).value(dt)
        vo_direct = lag_lead.output_segment(1.0, drive).value(dt)
        vo_restart = lag_lead.output_segment(vc1, drive).value(0.0)
        assert vo_direct == pytest.approx(vo_restart, rel=1e-12)


# -- the shared segment laws, pinned bit for bit -------------------------
#
# A test-only transcription of the per-class segment formulas the two
# filters each wrote out before their laws moved into the base class:
# the same expressions in the same operand order.  The base must build
# the same segments from its per-drive laws, ulp for ulp.


def _transcribed_pair(lf, vc, drive):
    """``(output, state)`` segments by the per-class formulas."""
    lag_lead = isinstance(lf, PassiveLagLeadFilter)
    r_out = lf.r2 if lag_lead else lf.r
    if drive.kind is DriveKind.VOLTAGE:
        if lag_lead:
            r_total = drive.source_resistance + lf.r1 + lf.r2
        else:
            r_total = drive.source_resistance + lf.r
            if r_total <= 0.0:
                raise ConfigurationError(
                    "voltage drive into a series-RC filter needs non-zero "
                    "total resistance"
                )
        if lf.has_leak:
            r_l = lf.leak_resistance
            tau = lf.c * r_total * r_l / (r_total + r_l)
            asymptote = drive.value * r_l / (r_total + r_l)
        else:
            tau = lf.c * r_total
            asymptote = drive.value
        state = ExponentialSegment(initial=vc, asymptote=asymptote, tau=tau)
        k = r_out / r_total
        return ExponentialSegment(
            initial=(1.0 - k) * state.initial + k * drive.value,
            asymptote=(1.0 - k) * state.asymptote + k * drive.value,
            tau=state.tau,
        ), state
    if drive.kind is DriveKind.CURRENT:
        if lf.has_leak:
            state = ExponentialSegment(
                initial=vc,
                asymptote=drive.value * lf.leak_resistance,
                tau=lf.leak_resistance * lf.c,
            )
        else:
            state = RampSegment(initial=vc, slope=drive.value / lf.c)
        offset = drive.value * r_out
        if isinstance(state, RampSegment):
            return RampSegment(initial=state.initial + offset,
                               slope=state.slope), state
        return ExponentialSegment(
            initial=state.initial + offset,
            asymptote=state.asymptote + offset,
            tau=state.tau,
        ), state
    if lf.has_leak:
        state = ExponentialSegment(
            initial=vc, asymptote=0.0, tau=lf.leak_resistance * lf.c
        )
    else:
        state = ConstantSegment(initial=vc)
    return state, state


def _bits(segment):
    """A segment's class and every field, each float as ``float.hex``."""
    return (type(segment).__name__,) + tuple(
        (field.name, float(getattr(segment, field.name)).hex())
        for field in dataclasses.fields(segment)
    )


def _outcome(build):
    """``build()``'s segments as bits, or its error as (type, text)."""
    try:
        result = build()
    except ConfigurationError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):
        return tuple(_bits(segment) for segment in result)
    return _bits(result)


_resistance = st.floats(min_value=1.0, max_value=1e7)
_leak = st.one_of(st.just(math.inf), st.floats(min_value=1e2, max_value=1e9))
_filters = st.one_of(
    st.builds(PassiveLagLeadFilter, r1=_resistance,
              r2=st.one_of(st.just(0.0), _resistance),
              c=st.floats(min_value=1e-12, max_value=1e-3),
              leak_resistance=_leak),
    st.builds(SeriesRCFilter, r=st.one_of(st.just(0.0), _resistance),
              c=st.floats(min_value=1e-12, max_value=1e-3),
              leak_resistance=_leak),
)
_drives = st.one_of(
    st.builds(Drive, st.just(DriveKind.VOLTAGE),
              st.floats(min_value=-10.0, max_value=10.0),
              st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e5))),
    st.builds(Drive, st.just(DriveKind.CURRENT),
              st.floats(min_value=-1e-3, max_value=1e-3)),
    st.just(HIZ),
)


class TestSharedSegmentLaws:
    @given(lf=_filters, drive=_drives,
           vc=st.floats(min_value=-10.0, max_value=10.0))
    @example(lf=SeriesRCFilter(r=0.0, c=1e-9),
             drive=Drive(DriveKind.VOLTAGE, 5.0, 0.0), vc=1.0)
    @settings(max_examples=400, deadline=None)
    def test_segments_equal_the_per_class_formulas(self, lf, drive, vc):
        expected = _outcome(lambda: _transcribed_pair(lf, vc, drive))
        # Twice each: the first call derives the law, the second reads
        # it back from the filter's per-drive memo.
        for _ in range(2):
            assert _outcome(lambda: lf.segment_pair(vc, drive)) == expected
            if isinstance(expected[0], str):
                assert _outcome(lambda: lf.state_segment(vc, drive)) \
                    == expected
                assert _outcome(lambda: lf.output_segment(vc, drive)) \
                    == expected
            else:
                assert _outcome(lambda: lf.output_segment(vc, drive)) \
                    == expected[0]
                assert _outcome(lambda: lf.state_segment(vc, drive)) \
                    == expected[1]

    def test_zero_ohm_series_rc_raises_the_per_class_text(self):
        lf = SeriesRCFilter(r=0.0, c=1e-9)
        drive = Drive(DriveKind.VOLTAGE, 5.0, 0.0)
        for method in (lf.state_segment, lf.output_segment, lf.segment_pair):
            with pytest.raises(ConfigurationError,
                               match="^voltage drive into a series-RC filter "
                                     "needs non-zero total resistance$"):
                method(0.0, drive)

    def test_tri_stated_output_is_the_state(self, lag_lead):
        out, state = lag_lead.segment_pair(1.5, HIZ)
        assert out is state

    def test_laws_stay_out_of_the_physics_signature(self, lag_lead):
        from repro.pll.config import _component_signature

        before = _component_signature(lag_lead)
        lag_lead.segment_pair(1.0, Drive(DriveKind.VOLTAGE, 5.0))
        assert _component_signature(lag_lead) == before
