"""A seeded census of the admissible domain: every public call of (d, m, kappa) answers or fails typed.

The sampler draws
- d half log-uniform on 1..437 (the sphere areas leave double range at 438)
  and half uniform on 1..12;
- m 70% uniform on (0, 1) and 30% as 1 - 10^U(-6, -1), redrawn within 2e-9
  of either regime threshold;
- kappa = kappa1 10^U(-1, 1.5), kappa1 = m (d + 1) |S^d|^(1-m) formed here.

At each draw it calls critical_set, equilibria_at, classify_minimizer,
fully_supported_state, alpha_roots and singular_state with warnings as
errors.  Each call returns a finite result that meets its identities, or
raises a FastSphereError; nothing else, anywhere.  OutOfWindowError and
NotIntegrableError are answers (no such state exists there), and in the
asserted region, d <= 33 and m <= 0.99, they are the only errors allowed.
Outside it the supported solve fails as m -> 1 and the atom fractions at
the cap 1 - 1e-12 for large d; widen the region as those are fixed.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fastsphere
from fastsphere.errors import FastSphereError, NotIntegrableError, OutOfWindowError

TESTS = Path(__file__).resolve().parent
SEED, DRAWS = 0, 200
ANSWERS = (OutOfWindowError, NotIntegrableError)
CALLS = (
    "critical_set",
    "equilibria_at",
    "classify_minimizer",
    "fully_supported_state",
    "alpha_roots",
    "singular_state",
)


def draws(seed: int, n: int) -> list:
    """n admissible (d, m, kappa) from the seeded sampler."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        if rng.random() < 0.5:
            d = int(round(math.exp(rng.uniform(0.0, math.log(437.0)))))
        else:
            d = int(rng.integers(1, 13))
        if rng.random() < 0.7:
            m = float(rng.uniform(0.0, 1.0))
        else:
            m = 1.0 - 10.0 ** float(rng.uniform(-6.0, -1.0))
        thresholds = [1.0 - 2.0 / d] + ([1.0 - 2.0 / (d - 1)] if d >= 2 else [])
        if not 0.0 < m < 1.0 or any(abs(m - thr) < 2e-9 for thr in thresholds):
            continue
        log_area = math.log(2.0) + 0.5 * (d + 1) * math.log(math.pi) - math.lgamma(0.5 * (d + 1))
        kappa1 = m * (d + 1) * math.exp((1.0 - m) * log_area)
        out.append((d, m, kappa1 * 10.0 ** float(rng.uniform(-1.0, 1.5))))
    return out


def _finite(*values) -> bool:
    return all(v is None or math.isfinite(v) for v in values)


def _alpha_equation_holds(alpha: float, kappa: float, d: int, m: float) -> bool:
    """alpha in (0, 1) solves kappa (s_bar + alpha (1 - s_bar)) = (1 - alpha)^(m-1) kappa2 s_bar.

    Either the residual is at the solver's stop, or it changes sign within
    1e-12 of alpha (at the cap the right side is too steep for a residual).
    """
    if not 0.0 < alpha < 1.0:
        return False
    sb, k2 = fastsphere.s_bar(d, m), fastsphere.critical_set(d, m).kappa2

    def mismatch(a: float) -> float:
        return kappa * (sb + a * (1.0 - sb)) - (1.0 - a) ** (m - 1.0) * k2 * sb

    if abs(mismatch(alpha)) <= 1e-11 * max(1.0, kappa):
        return True
    width = min(1e-12, 0.5 * (1.0 - alpha), alpha)
    return mismatch(alpha - width) * mismatch(alpha + width) <= 0.0


def _check(name: str, result, d: int, m: float, kappa: float) -> bool:
    """Whether the result of call name at (d, m, kappa) is finite and meets its identities."""
    if name == "critical_set":
        c = result
        return (
            _finite(c.kappa1, c.kappa2, c.kappa3, c.alpha_bar, c.kappa_c)
            and c.regime is fastsphere.classify_regime(d, m).tag
            and (c.alpha_bar is None or 0.0 < c.alpha_bar < 1.0)
            and (c.kappa_c is None or c.kappa3 < c.kappa_c < c.kappa1)
        )
    if name == "equilibria_at":
        (rows,) = result
        return all(
            _finite(alpha, eta, com, energy) and 0.0 <= com < 1.0
            and (alpha is None or _alpha_equation_holds(alpha, kappa, d, m))
            for _, alpha, eta, com, energy in rows
        )
    if name == "classify_minimizer":
        r = result
        energies = (r.e_uniform, r.e_fully_supported, r.e_singular_upper, r.e_singular_lower)
        return _finite(*energies) and min(e for e in energies if e is not None) == getattr(
            r, "e_" + r.minimizer
        )
    if name == "fully_supported_state":
        s = result
        return (
            _finite(s.eta, s.s, s.lambda_, s.eta_minus_1)
            and 0.0 < s.s < 1.0
            and s.eta_minus_1 > 0.0
            and s.lambda_ == -kappa * s.s * s.eta
        )
    if name == "alpha_roots":
        return all(_alpha_equation_holds(alpha, kappa, d, m) for alpha in result)
    s = result  # singular_state
    return s.s_bar == fastsphere.s_bar(d, m) and _alpha_equation_holds(s.alpha, kappa, d, m)


def census(seed: int, n: int) -> list:
    """(d, m, kappa, call, outcome) per draw and call; the outcome is "ok",
    "bad" (a result that fails its check) or the class name of the error raised."""
    records = []
    for d, m, kappa in draws(seed, n):
        for name in CALLS:
            func = getattr(fastsphere, name)
            args = {"critical_set": (d, m), "equilibria_at": ([kappa], d, m)}.get(
                name, (kappa, d, m)
            )
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    result = func(*args)
                    if name == "equilibria_at" and isinstance(result[0], FastSphereError):
                        raise result[0]
                    outcome = "ok" if _check(name, result, d, m, kappa) else "bad"
            except FastSphereError as exc:
                outcome = type(exc).__name__
            except Exception as exc:  # untyped: reported, never an answer
                outcome = f"untyped {type(exc).__name__}: {exc}"
            records.append((d, m, kappa, name, outcome))
    return records


@pytest.fixture(scope="module")
def records() -> list:
    """The census, taken here and, side by side, in a fresh process; the two must agree."""
    code = "import json, test_census as t; print(json.dumps(t.census(t.SEED, t.DRAWS)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (TESTS, TESTS.parent / "src"))))
    proc = subprocess.Popen(
        [sys.executable, "-B", "-c", code],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    here = json.loads(json.dumps(census(SEED, DRAWS)))
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert json.loads(out) == here
    return here


def test_every_call_answers_or_fails_typed(records):
    wrong = [r for r in records if r[4] == "bad" or r[4].startswith("untyped")]
    assert wrong == []


def test_no_failure_in_the_asserted_region(records):
    answers = {cls.__name__ for cls in ANSWERS}
    inside = [r for r in records if r[0] <= 33 and r[1] <= 0.99]
    assert len(inside) >= 0.4 * len(records)
    failed = [r for r in inside if r[4] != "ok" and r[4] not in answers]
    assert failed == []
