"""Root finding for edge-crossing times.

The behavioral PLL simulator must answer questions of the form "at what
time does the VCO's accumulated phase reach the next divider edge?".
The phase-advance function over a segment is analytic, strictly
increasing (the VCO frequency is clamped positive) and has an analytic
derivative, so a safeguarded Newton iteration with a bisection fallback
converges in a handful of steps to near machine precision.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConvergenceError

__all__ = ["solve_increasing", "bisect_increasing"]

_DEFAULT_TOL = 1e-13
_MAX_ITER = 200


def bisect_increasing(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float = _DEFAULT_TOL,
    max_iter: int = _MAX_ITER,
) -> float:
    """Find ``x`` in ``[lo, hi]`` with ``fn(x) == target`` for increasing ``fn``.

    Pure bisection; used directly for functions whose derivative is
    awkward, and as the safeguard inside :func:`solve_increasing`.

    Raises
    ------
    ConvergenceError
        If the target is not bracketed by ``[fn(lo), fn(hi)]``.
    """
    f_lo = fn(lo) - target
    f_hi = fn(hi) - target
    if f_lo > 0.0 or f_hi < 0.0:
        raise ConvergenceError(
            f"target {target!r} not bracketed: fn({lo!r})={f_lo + target!r}, "
            f"fn({hi!r})={f_hi + target!r}"
        )
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        f_mid = fn(mid) - target
        if f_mid == 0.0:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_increasing(
    fn: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    derivative: Optional[Callable[[float], float]] = None,
    tol: float = _DEFAULT_TOL,
    max_iter: int = _MAX_ITER,
) -> float:
    """Safeguarded Newton solve of ``fn(x) == target`` on ``[lo, hi]``.

    ``fn`` must be continuous and non-decreasing on the bracket.  When
    ``derivative`` is supplied, Newton steps are attempted and accepted
    only while they stay inside the shrinking bracket; otherwise each
    iteration falls back to bisection.  Convergence is declared when the
    bracket width falls below ``tol`` (an *absolute* tolerance on ``x``,
    appropriate because callers solve for times measured in seconds).

    A bracket the Newton budget leaves wider than ``tol`` gets a second
    budget of plain bisection.

    Raises
    ------
    ConvergenceError
        If the target is not bracketed, or both budgets are exhausted
        before the bracket shrinks below ``tol`` (a bracket whose ends
        are a float ulp apart, wider than ``tol``, never does).
    """
    f_lo = fn(lo) - target
    f_hi = fn(hi) - target
    if f_lo > 0.0 or f_hi < 0.0:
        raise ConvergenceError(
            f"target {target!r} not bracketed on [{lo!r}, {hi!r}]: "
            f"fn(lo)-target={f_lo!r}, fn(hi)-target={f_hi!r}"
        )
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi

    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        f_x = fn(x) - target
        if f_x == 0.0:
            return x
        if f_x < 0.0:
            lo = x
        else:
            hi = x

        x_next = None
        if derivative is not None:
            d = derivative(x)
            if d > 0.0:
                candidate = x - f_x / d
                if lo < candidate < hi:
                    x_next = candidate
        if x_next is None:
            x_next = 0.5 * (lo + hi)
        x = x_next
    # Newton can creep up on a root from one side by an ulp a step when
    # the residual there is rounding noise, so the far end never moves
    # and the bracket never shrinks: finish that bracket by bisection.
    for _ in range(max_iter):
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        x = 0.5 * (lo + hi)
        f_x = fn(x) - target
        if f_x == 0.0:
            return x
        if f_x < 0.0:
            lo = x
        else:
            hi = x
    raise ConvergenceError(
        f"solve_increasing did not converge within {max_iter} iterations "
        f"(bracket [{lo!r}, {hi!r}], tol={tol!r})"
    )
