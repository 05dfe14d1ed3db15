"""Property-based tests: stimulus edge streams."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError
from repro.stimulus.waveforms import (
    ConstantFrequencySource,
    EdgeSourceBase,
    PiecewiseConstantFrequencySource,
    SinusoidalFMSource,
    SinusoidalPMSource,
)


class TestEdgeMonotonicity:
    @given(
        f0=st.floats(min_value=10.0, max_value=1e5),
        dev_frac=st.floats(min_value=0.0, max_value=0.9),
        fm_frac=st.floats(min_value=1e-3, max_value=0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_sine_fm_edges_strictly_increasing(self, f0, dev_frac, fm_frac):
        src = SinusoidalFMSource(f0, deviation=dev_frac * f0,
                                 f_mod=fm_frac * f0)
        edges = [src.next_edge() for _ in range(100)]
        assert all(b > a for a, b in zip(edges, edges[1:]))

    @given(
        f0=st.floats(min_value=10.0, max_value=1e5),
        idx_frac=st.floats(min_value=0.0, max_value=0.9),
        fm_frac=st.floats(min_value=1e-3, max_value=0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_pm_edges_strictly_increasing(self, f0, idx_frac, fm_frac):
        fm = fm_frac * f0
        peak_phase = idx_frac * f0 / fm
        src = SinusoidalPMSource(f0, peak_phase_rad=peak_phase, f_mod=fm)
        edges = [src.next_edge() for _ in range(100)]
        assert all(b > a for a, b in zip(edges, edges[1:]))


class TestPhaseEdgeConsistency:
    @given(
        f0=st.floats(min_value=100.0, max_value=1e4),
        dev_frac=st.floats(min_value=0.0, max_value=0.5),
        fm_frac=st.floats(min_value=1e-2, max_value=0.1),
    )
    @settings(max_examples=30, deadline=None)
    def test_phase_is_integer_at_edges(self, f0, dev_frac, fm_frac):
        """Each emitted edge lands exactly where the accumulated phase is
        a whole number of cycles."""
        src = SinusoidalFMSource(f0, dev_frac * f0, fm_frac * f0)
        for k in range(1, 30):
            t = src.next_edge()
            phase = src.phase_at(t)
            assert abs(phase - k) < 1e-6

    @given(
        schedule=st.lists(
            st.tuples(
                st.floats(min_value=100.0, max_value=2000.0),
                st.floats(min_value=1e-3, max_value=0.05),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_piecewise_phase_is_integer_at_edges(self, schedule):
        src = PiecewiseConstantFrequencySource(schedule)
        for k in range(1, 40):
            t = src.next_edge()
            assert abs(src.phase_at(t) - k) < 1e-6

    @given(f=st.floats(min_value=1.0, max_value=1e6),
           n=st.integers(min_value=1, max_value=50))
    def test_constant_source_exact_arithmetic(self, f, n):
        src = ConstantFrequencySource(f)
        t = None
        for _ in range(n):
            t = src.next_edge()
        assert t == n / f


class TestMeanFrequency:
    @given(
        f0=st.floats(min_value=500.0, max_value=2000.0),
        dev=st.floats(min_value=0.1, max_value=100.0),
        cycles=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_fm_preserves_mean_rate_over_whole_cycles(self, f0, dev, cycles):
        """Whole modulation cycles leave the average frequency at f0."""
        fm = 50.0
        src = SinusoidalFMSource(f0, dev, fm)
        n_edges = int(round(f0 / fm)) * cycles
        t_last = None
        for _ in range(n_edges):
            t_last = src.next_edge()
        expected = n_edges / f0
        # The edge nearest a whole-cycle boundary is within one period.
        assert abs(t_last - expected) < 1.5 / f0


def _linear_locate(src, rel_t):
    """Brute-force segment search: the first dwell whose end time is at
    or after the instant's position in its cycle, with the boundaries
    re-accumulated from the schedule on every call."""
    cycles = math.floor(rel_t / src._cycle)
    frac_t = rel_t - cycles * src._cycle
    base_phase = cycles * src._phase_per_cycle
    t0, p0 = 0.0, 0.0
    for f, dwell in src.schedule:
        t1 = t0 + dwell
        if frac_t <= t1:
            return base_phase + p0, frac_t - t0, f
        t0, p0 = t1, p0 + f * dwell
    # Floating-point spill-over into the next cycle.
    return base_phase + src._phase_per_cycle, 0.0, src.schedule[0][0]


@st.composite
def _schedule_and_instant(draw):
    """A random FSK schedule and an instant anchored where segment
    selection is delicate: exactly on a dwell boundary, on a whole
    number of schedule cycles, or anywhere inside a cycle — then nudged
    a few ulps either way, which reaches the spill-over past the
    cycle's last end time."""
    schedule = draw(st.lists(
        st.tuples(
            st.floats(min_value=100.0, max_value=2000.0),
            st.floats(min_value=1e-4, max_value=0.05),
        ),
        min_size=1,
        max_size=6,
    ))
    src = PiecewiseConstantFrequencySource(schedule)
    start = draw(st.integers(min_value=0, max_value=10_000)) * src._cycle
    anchor = draw(st.sampled_from(["dwell boundary", "whole cycle",
                                   "inside"]))
    if anchor == "dwell boundary":
        rel_t = start + draw(st.sampled_from(src._t1s))
    elif anchor == "whole cycle":
        rel_t = start
    else:
        rel_t = start + draw(st.floats(min_value=0.0, max_value=1.0)) \
            * src._cycle
    ulps = draw(st.integers(min_value=-3, max_value=3))
    for _ in range(abs(ulps)):
        rel_t = math.nextafter(rel_t, math.copysign(math.inf, ulps))
    return schedule, rel_t


# 0.294 s is 98 cycles of this 3 ms schedule, but the division rounds
# down to 97.999...: the instant lands just past the last end time.
_SPILL_SCHEDULE = [(1000.0, 0.001), (1100.0, 0.002)]
_SPILL_INSTANT = 0.294
# Edge 263 of this schedule (start -9.625 s) lands where the phase
# residual is rounding noise: Newton creeps up on it from one side by an
# ulp a step, and only the solver's bisection budget closes the bracket.
_CREEP_SCHEDULE = [
    (100000.0, 1e-05), (10.000000000000005, 0.09999999999999995),
    (28.77415852175015, 0.09001003214293106),
    (125.03998037097352, 0.0003372493359143823),
    (305649.23437824444, 3.2980341305465793e-06), (10.0, 0.1),
    (305649.23437824444, 4.362914354671918e-06),
    (10.0, 0.0014835245279546916),
]


class TestLocate:
    @given(case=_schedule_and_instant())
    @example(case=(_SPILL_SCHEDULE, _SPILL_INSTANT))
    @settings(max_examples=300, deadline=None)
    def test_bisection_matches_linear_scan(self, case):
        schedule, rel_t = case
        assume(rel_t > 0.0)
        src = PiecewiseConstantFrequencySource(schedule)
        assert src._locate(rel_t) == _linear_locate(src, rel_t)

    def test_spill_example_reaches_the_spill_over(self):
        src = PiecewiseConstantFrequencySource(_SPILL_SCHEDULE)
        cycles = math.floor(_SPILL_INSTANT / src._cycle)
        assert _SPILL_INSTANT - cycles * src._cycle > src._t1s[-1]
        assert src._locate(_SPILL_INSTANT)[1:] == (0.0, 1000.0)


@st.composite
def _fsk_schedule(draw):
    """1-10 dwells at 10 Hz to 1 MHz, each 0.01 to 10 reference cycles
    long: the dwells span decades too, from hops well inside one
    reference period to tens of periods, and 400 edges always cross
    several schedule cycles."""
    dwells = draw(st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=6.0),   # log10 frequency
            st.floats(min_value=-2.0, max_value=1.0),  # log10 cycles
        ),
        min_size=1,
        max_size=10,
    ))
    return [(10.0 ** f_exp, 10.0 ** c_exp / 10.0 ** f_exp)
            for f_exp, c_exp in dwells]


class TestSpecialisedSolve:
    """``PiecewiseConstantFrequencySource.next_edge`` is the base solve
    with the FSK laws written in; the base solve is its oracle."""

    @given(
        schedule=_fsk_schedule(),
        start_time=st.one_of(
            st.just(0.0),
            st.floats(min_value=-10.0, max_value=10.0),
        ),
    )
    @example(schedule=_SPILL_SCHEDULE, start_time=0.0)
    @example(schedule=_CREEP_SCHEDULE, start_time=-9.625)
    @settings(max_examples=150, deadline=None)
    def test_edges_match_the_base_solve(self, schedule, start_time):
        src = PiecewiseConstantFrequencySource(schedule, start_time)
        twin = PiecewiseConstantFrequencySource(schedule, start_time)
        for _ in range(400):
            assert src.next_edge() == EdgeSourceBase.next_edge(twin)
        assert (src._k, src._t_last) == (twin._k, twin._t_last)
        assert src._t_last - start_time > 3.0 * src._cycle

    def test_failure_is_the_base_solves(self):
        """Far from t = 0 a time ulp exceeds the solver tolerance, so
        the base solve fails to converge; the specialised one raises
        the same error."""
        src = PiecewiseConstantFrequencySource(_SPILL_SCHEDULE, 1e4)
        twin = PiecewiseConstantFrequencySource(_SPILL_SCHEDULE, 1e4)
        with pytest.raises(ConvergenceError) as fast:
            src.next_edge()
        with pytest.raises(ConvergenceError) as base:
            EdgeSourceBase.next_edge(twin)
        assert str(fast.value) == str(base.value)
        # A failed pull commits nothing: both sources still sit before
        # their first edge, and pulling again fails the same way.
        for source in (src, twin):
            assert (source._k, source._t_last) == (0, 1e4)
        with pytest.raises(ConvergenceError) as again:
            src.next_edge()
        assert str(again.value) == str(fast.value)
        with pytest.raises(ConvergenceError) as again:
            EdgeSourceBase.next_edge(twin)
        assert str(again.value) == str(base.value)
