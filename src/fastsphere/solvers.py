"""Bracketed scalar root finding: bisection with secant acceleration.

Every root solved in this package comes with a proven sign change and a
monotone or concave residual, so a safeguarded bracket is all that is
needed.  Secant steps give the fast local convergence; any step that
leaves the bracket, or fails to shrink it fast enough, falls back to a
bisection step.

The iteration is written once, as a coroutine that yields each point to
evaluate and is sent the residual there.  bracketed_root drives one of
them with a scalar residual.  lockstep_roots drives many side by side and
asks one batch residual per round for the values of every unfinished
solve, so a caller whose residual is cheaper in bulk (a batch of
quadratures) pays its fixed costs once per round instead of once per
evaluation; each solve takes exactly the steps bracketed_root would.

Every solve stops once its bracket is DEFAULT_WIDTH_TOL wide, or once a
residual is within DEFAULT_ROOT_TOL of zero.  The residual stop is the one
tolerance a caller may set, on bracketed_root alone, for a residual
measured on another scale (the atom fractions take it times max(1, kappa)).
"""

from __future__ import annotations

import math

from .errors import BracketFailureError, FastSphereError

DEFAULT_ROOT_TOL = 1e-12  # on the residual
DEFAULT_WIDTH_TOL = 1e-13  # on the bracket width

_MAX_ITER = 200


def _root_steps(lo, hi, residual_tol):
    """The bracketed_root iteration: yields each x, is sent f(x), returns the root."""
    if not lo < hi:
        raise BracketFailureError(f"empty bracket [{lo!r}, {hi!r}]")
    f_lo = yield lo
    if abs(f_lo) <= residual_tol:
        return lo
    f_hi = yield hi
    if abs(f_hi) <= residual_tol:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketFailureError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={f_lo!r}, f(hi)={f_hi!r}"
        )
    last_updated = 0
    force_bisect = False
    for _ in range(_MAX_ITER):
        width = hi - lo
        if width <= DEFAULT_WIDTH_TOL:
            break
        # secant through the bracket endpoints, safeguarded towards bisection;
        # two consecutive one-sided updates force a bisection step next, so
        # the bracket width halves at least every third iteration and the
        # one-sided creep of plain regula falsi cannot happen
        x = math.nan
        if not force_bisect:
            denom = f_hi - f_lo
            if denom != 0.0:
                x = hi - f_hi * width / denom
        margin = 0.01 * width
        if not lo + margin <= x <= hi - margin:
            x = lo + 0.5 * width
        fx = yield x
        if abs(fx) <= residual_tol:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, f_lo):
            side = -1
            lo, f_lo = x, fx
        else:
            side = 1
            hi, f_hi = x, fx
        force_bisect = side == last_updated
        last_updated = side
    # bracket exhausted; return the endpoint with the smaller residual
    return lo if abs(f_lo) <= abs(f_hi) else hi


def bracketed_root(f, lo: float, hi: float, *, residual_tol: float = DEFAULT_ROOT_TOL) -> float:
    """Root of f in [lo, hi], to |f| <= residual_tol or width <= DEFAULT_WIDTH_TOL.

    f(lo) and f(hi) must have opposite signs (an endpoint already within
    residual_tol counts as the root).  Raises BracketFailureError when no
    sign change exists.
    """
    steps = _root_steps(lo, hi, residual_tol)
    fx = None
    while True:
        try:
            x = steps.send(fx)
        except StopIteration as done:
            return done.value
        fx = f(x)


def lockstep_roots(residuals, brackets) -> list:
    """bracketed_root at its default tolerances on every (lo, hi) of brackets, side by side.

    Each round, residuals([(item, x), ...]) is called once with the next
    point of every unfinished solve (item indexes brackets) and returns the
    residual values in the same order; an entry that is a FastSphereError
    instead fails its own solve alone.  Returns one entry per bracket: the
    root, or the FastSphereError its solve ended with, without its
    traceback, so the list holds no frames.
    """
    results: list = [None] * len(brackets)
    running = [
        (item, _root_steps(lo, hi, DEFAULT_ROOT_TOL)) for item, (lo, hi) in enumerate(brackets)
    ]
    values = [None] * len(running)  # the residual at each running solve's last point
    while running:
        asks, asking = [], []  # the next point of each unfinished solve, and the solve
        for solve, fx in zip(running, values, strict=True):
            item, steps = solve
            if isinstance(fx, FastSphereError):
                results[item] = fx.with_traceback(None)
                continue
            try:
                asks.append((item, steps.send(fx)))
            except StopIteration as done:
                results[item] = done.value
            except FastSphereError as exc:
                results[item] = exc.with_traceback(None)
            else:
                asking.append(solve)
        if not asks:
            break
        values, running = residuals(asks), asking
    return results
