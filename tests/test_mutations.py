"""The mutation table: which verify checks fail when one reported number is wrong.

Each row skews one field of one public result by 1e-6 relative, at its one
accessor, runs verification.run_verification once, and asserts the exact
set of checks that fail.  The checks read the library through module
attributes on purpose, so the skew reaches every check that reads the
number.  A row whose set is empty is a gap in verify; its comment names
the ROADMAP item that closes it.  A change that makes a check catch more
updates its row, a tightening.
"""

import dataclasses

import pytest

from fastsphere import energy, equilibria, verification

SKEW = 1.0 + 1e-6


def skewed_critical_set(field):
    """energy.critical_set with one field times SKEW (a None field stays None)."""
    original = energy.critical_set

    def critical_set(d, m):
        crit = original(d, m)
        value = getattr(crit, field)
        return crit if value is None else dataclasses.replace(crit, **{field: value * SKEW})

    return critical_set


def skewed_s_bar():
    original = equilibria.s_bar
    return lambda d, m: original(d, m) * SKEW


# row: (module, name, the skewed function, the checks that fail)
ROWS = {
    # a gap: ROADMAP item 16 (the pitchfork at kappa1 in closed form) closes it
    "critical_set-kappa1": (energy, "critical_set", lambda: skewed_critical_set("kappa1"), set()),
    # the branch continuity grid leaves the window at the skewed kappa2
    "critical_set-kappa2": (
        energy,
        "critical_set",
        lambda: skewed_critical_set("kappa2"),
        {"branch_continuity", "kappa2_dual_oracle"},
    ),
    # a gap: item 10 (the fold check of the measure-valued roots) closes it
    "critical_set-kappa3": (energy, "critical_set", lambda: skewed_critical_set("kappa3"), set()),
    # a gap: item 19(b) (the exact ratio of the threshold distances) closes it
    "critical_set-alpha_bar": (
        energy, "critical_set", lambda: skewed_critical_set("alpha_bar"), set()
    ),
    # a gap: item 4(b) (the convex envelope of the kappa-free curve) closes it
    "critical_set-kappa_c": (energy, "critical_set", lambda: skewed_critical_set("kappa_c"), set()),
    "s_bar": (
        equilibria,
        "s_bar",
        skewed_s_bar,
        {"com_norm_closed_form", "energy_two_route_agreement"},
    ),
}


@pytest.mark.parametrize("row", ROWS)
def test_verify_fails_exactly_the_checks_that_catch_the_skew(monkeypatch, row):
    home, name, skewed, caught = ROWS[row]
    monkeypatch.setattr(home, name, skewed())
    assert {r.name for r in verification.run_verification() if not r.passed} == caught
