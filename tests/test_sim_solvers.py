"""Root solvers for edge-crossing times."""

import math

import pytest

from repro.errors import ConvergenceError
from repro.sim.solvers import bisect_increasing, solve_increasing


class TestBisect:
    def test_linear(self):
        x = bisect_increasing(lambda t: 2.0 * t, 0.0, 10.0, 5.0)
        assert x == pytest.approx(2.5, abs=1e-10)

    def test_endpoint_hits(self):
        assert bisect_increasing(lambda t: t, 0.0, 1.0, 0.0) == 0.0
        assert bisect_increasing(lambda t: t, 0.0, 1.0, 1.0) == 1.0

    def test_not_bracketed(self):
        with pytest.raises(ConvergenceError):
            bisect_increasing(lambda t: t, 0.0, 1.0, 2.0)
        with pytest.raises(ConvergenceError):
            bisect_increasing(lambda t: t, 1.0, 2.0, 0.5)

    def test_nonlinear(self):
        x = bisect_increasing(lambda t: t ** 3, 0.0, 2.0, 1.0)
        assert x == pytest.approx(1.0, abs=1e-10)


class TestSolveIncreasing:
    def test_with_derivative_converges_fast(self):
        fn = lambda t: t + math.sin(t) * 0.1
        dfn = lambda t: 1.0 + math.cos(t) * 0.1
        x = solve_increasing(fn, 1.0, 0.0, 3.0, derivative=dfn)
        assert fn(x) == pytest.approx(1.0, abs=1e-10)

    def test_without_derivative(self):
        x = solve_increasing(lambda t: math.exp(t) - 1.0, 1.0, 0.0, 2.0)
        assert x == pytest.approx(math.log(2.0), abs=1e-10)

    def test_exponential_phase_like(self):
        # Shape of a VCO phase integral under exponential control drift.
        f0, k, tau = 5000.0, 100.0, 0.2
        fn = lambda t: f0 * t + k * tau * (1.0 - math.exp(-t / tau))
        dfn = lambda t: f0 + k * math.exp(-t / tau)
        target = 5.0
        x = solve_increasing(fn, target, 0.0, 2e-3, derivative=dfn)
        assert fn(x) == pytest.approx(target, abs=1e-8)

    def test_endpoint_exact(self):
        assert solve_increasing(lambda t: t, 0.0, 0.0, 1.0) == 0.0
        assert solve_increasing(lambda t: t, 1.0, 0.0, 1.0) == 1.0

    def test_not_bracketed_raises(self):
        with pytest.raises(ConvergenceError):
            solve_increasing(lambda t: t, 5.0, 0.0, 1.0)

    def test_flat_function_falls_back_to_bisection(self):
        # Zero derivative everywhere except the jump: Newton unusable.
        fn = lambda t: 0.0 if t < 0.5 else 1.0
        x = solve_increasing(fn, 0.5, 0.0, 1.0, derivative=lambda t: 0.0)
        assert x == pytest.approx(0.5, abs=1e-9)

    def test_tolerance_respected(self):
        fn = lambda t: t
        x = solve_increasing(fn, 0.333333, 0.0, 1.0, tol=1e-12)
        assert abs(x - 0.333333) < 1e-11

    def test_one_sided_newton_creep_finishes_by_bisection(self):
        """A residual of rounding noise makes each Newton step an ulp
        long, so the far end of the bracket never moves; the bisection
        budget closes it instead of raising."""
        from repro.stimulus.waveforms import PiecewiseConstantFrequencySource

        from tests.test_property_sources import _CREEP_SCHEDULE

        src = PiecewiseConstantFrequencySource(_CREEP_SCHEDULE, -9.625)
        lo, hi = -0.0228046751317506, 0.1271953248682494
        x = solve_increasing(src.phase_at, 263.0, lo, hi,
                             derivative=src.frequency_at)
        # The edge lies within the solver's 1e-13 s of x.
        assert src.phase_at(x - 1e-13) <= 263.0 <= src.phase_at(x + 1e-13)

    def test_misleading_derivative_still_converges(self):
        # A wrong derivative must not break bracketing safety.
        fn = lambda t: t ** 2
        bad_dfn = lambda t: 100.0
        x = solve_increasing(fn, 0.25, 0.0, 1.0, derivative=bad_dfn)
        assert x == pytest.approx(0.5, abs=1e-9)
