"""Property-based tests: the segment laws' semigroup and validation.

The event loop restarts a segment law at every PFD handoff, so these
tests drive random segment parameters and random split points:

* splitting an interval and re-composing the law agrees with the
  one-shot closed form to machine precision (the semigroup property the
  event loop exploits at every handoff);
* negative offsets are rejected.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.segments import (
    ConstantSegment,
    ExponentialSegment,
    RampSegment,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
tau_values = st.floats(min_value=1e-9, max_value=1e3)
dt_values = st.floats(min_value=0.0, max_value=1e2)


def _segments(initial, slope, asymptote, tau):
    return [
        ConstantSegment(initial=initial),
        RampSegment(initial=initial, slope=slope),
        ExponentialSegment(initial=initial, asymptote=asymptote, tau=tau),
    ]


class TestSplitCompose:
    @given(initial=finite, slope=finite, dt1=dt_values, dt2=dt_values)
    def test_ramp_semigroup(self, initial, slope, dt1, dt2):
        """Split at dt1, restart the law from there, finish at dt2."""
        seg = RampSegment(initial=initial, slope=slope)
        mid = seg.value(dt1)
        stepped = RampSegment(initial=mid, slope=slope).value(dt2)
        direct = seg.value(dt1 + dt2)
        scale = max(1.0, abs(initial) + abs(slope) * (dt1 + dt2))
        assert abs(direct - stepped) <= 1e-9 * scale

    @given(initial=finite, asymptote=finite, tau=tau_values,
           dt1=dt_values, dt2=dt_values)
    def test_exponential_semigroup(self, initial, asymptote, tau, dt1, dt2):
        seg = ExponentialSegment(
            initial=initial, asymptote=asymptote, tau=tau
        )
        mid = seg.value(dt1)
        stepped = ExponentialSegment(
            initial=mid, asymptote=asymptote, tau=tau
        ).value(dt2)
        direct = seg.value(dt1 + dt2)
        scale = max(1.0, abs(initial), abs(asymptote))
        assert abs(direct - stepped) <= 1e-9 * scale


class TestValidation:
    @given(initial=finite, slope=finite, asymptote=finite, tau=tau_values)
    def test_negative_offsets_rejected(self, initial, slope, asymptote, tau):
        for seg in _segments(initial, slope, asymptote, tau):
            with pytest.raises(ValueError):
                seg.value(-1e-9)
