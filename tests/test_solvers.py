import math

import pytest

from fastsphere.errors import BracketFailureError, ToleranceNotMetError
from fastsphere.solvers import bracketed_root, lockstep_roots


def test_simple_root():
    root = bracketed_root(math.cos, 0.0, 3.0, residual_tol=1e-14)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_root_at_endpoint_returned():
    assert bracketed_root(lambda x: x, 0.0, 1.0, residual_tol=1e-14) == 0.0


def test_no_sign_change_raises():
    with pytest.raises(BracketFailureError):
        bracketed_root(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_empty_bracket_raises():
    with pytest.raises(BracketFailureError):
        bracketed_root(math.cos, 2.0, 1.0)


def test_hard_one_sided_function_converges():
    # secant alone would crawl on this; the forced bisection keeps it fast
    f = lambda x: x**9 - 1e-6
    root = bracketed_root(f, 0.0, 2.0, residual_tol=0.0)
    assert root == pytest.approx((1e-6) ** (1.0 / 9.0), rel=1e-9)


def test_width_stop_on_discontinuous_sign_change():
    f = lambda x: -1.0 if x < 1.0 else 1.0
    root = bracketed_root(f, 0.0, 2.0, residual_tol=1e-30)
    assert root == pytest.approx(1.0, abs=1e-11)


def test_no_one_sided_creep_on_wide_convex_bracket():
    # plain regula falsi pins one endpoint on this shape and creeps; the
    # forced bisection must keep both evaluations and residual bounded
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return math.exp(x / 100.0) - 1.001

    root = bracketed_root(f, -600.0, 20.0, residual_tol=1e-13)
    assert abs(f(root)) <= 1e-13
    assert root == pytest.approx(100.0 * math.log(1.001), abs=1e-8)
    assert evals < 150


# (f, lo, hi): the problems above, solved side by side
PROBLEMS = [
    (math.cos, 0.0, 3.0),
    (lambda x: x, 0.0, 1.0),
    (lambda x: x**9 - 1e-6, 0.0, 2.0),
    (lambda x: -1.0 if x < 1.0 else 1.0, 0.0, 2.0),
    (lambda x: math.exp(x / 100.0) - 1.001, -600.0, 20.0),
]


def lockstep(fs, brackets):
    """lockstep_roots over per-item residuals, recording each round's asks."""
    rounds = []

    def residuals(asks):
        rounds.append(asks)
        values = []
        for item, x in asks:
            try:
                values.append(fs[item](x))
            except ToleranceNotMetError as exc:
                values.append(exc)
        return values

    return lockstep_roots(residuals, brackets), rounds


@pytest.mark.parametrize("f, lo, hi", PROBLEMS, ids=["cos", "endpoint", "ninth", "step", "convex"])
def test_lockstep_matches_bracketed_root(f, lo, hi):
    roots, rounds = lockstep([f, f], [(lo, hi), (lo, hi)])
    assert roots == [bracketed_root(f, lo, hi)] * 2
    # one residual call per round serves both solves
    assert all(len(asks) == 2 for asks in rounds)


def test_lockstep_runs_different_problems_together():
    fs = [p[0] for p in PROBLEMS[2:]]
    brackets = [(p[1], p[2]) for p in PROBLEMS[2:]]
    roots, _ = lockstep(fs, brackets)
    assert roots == [bracketed_root(f, lo, hi) for f, (lo, hi) in zip(fs, brackets)]


def test_lockstep_failures_stay_with_their_item():
    def flaky(x):
        if x > 1.0:
            raise ToleranceNotMetError("injected residual failure")
        return x - 0.5

    fs = [math.cos, lambda x: 1.0 + x * x, flaky, math.cos]
    brackets = [(0.0, 3.0), (-1.0, 1.0), (0.0, 2.0), (2.0, 1.0)]
    roots, rounds = lockstep(fs, brackets)
    assert roots[0] == bracketed_root(math.cos, 0.0, 3.0)
    assert isinstance(roots[1], BracketFailureError)
    assert "no sign change" in str(roots[1])
    assert isinstance(roots[2], ToleranceNotMetError)
    assert isinstance(roots[3], BracketFailureError)
    assert all(exc.__traceback__ is None for exc in roots[1:])
    # the failed items leave the rounds, the cosine solve goes on alone
    assert {item for item, _ in rounds[-1]} == {0}

