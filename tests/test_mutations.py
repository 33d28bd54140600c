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

from fastsphere import energy, equilibria, quadrature, verification
from fastsphere.errors import FastSphereError

SKEW = 1.0 + 1e-6


def skewed_critical_set(field):
    """energy.critical_set with one field times SKEW (a None field stays None)."""
    original = energy.critical_set

    def critical_set(d, m):
        crit = original(d, m)
        value = getattr(crit, field)
        return crit if value is None else dataclasses.replace(crit, **{field: value * SKEW})

    return critical_set


def skewed_value(home, name):
    """home.<name> with its value times SKEW."""
    original = getattr(home, name)
    return lambda *args: original(*args) * SKEW


def skewed_states(field):
    """equilibria._fully_supported_states with one field of every supported state times SKEW."""
    original = equilibria._fully_supported_states

    def skew(state):
        if isinstance(state, FastSphereError):
            return state
        return dataclasses.replace(state, **{field: getattr(state, field) * SKEW})

    return lambda requests: [list(map(skew, entries)) for entries in original(requests)]


def skewed_alpha_roots():
    """equilibria._alpha_roots with every root times SKEW."""
    original = equilibria._alpha_roots
    return lambda kappa, c: [alpha * SKEW for alpha in original(kappa, c)]


def skewed_moments(members):
    """quadrature._integrals with the given members of each (i0, i1, i_ent) times SKEW."""
    original = quadrature._integrals

    def skew(entry):
        if isinstance(entry, FastSphereError):
            return entry
        return tuple(x * SKEW if k in members else x for k, x in enumerate(entry))

    return lambda *args: list(map(skew, original(*args)))


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
        lambda: skewed_value(equilibria, "s_bar"),
        {"com_norm_closed_form", "energy_two_route_agreement"},
    ),
    "supported-s": (
        equilibria,
        "_fully_supported_states",
        lambda: skewed_states("s"),
        {
            "branch_continuity",
            "energy_comparison_steps",
            "energy_slope_identities",
            "energy_two_route_agreement",
            "minimizer_consistency",
        },
    ),
    "supported-eta": (
        equilibria,
        "_fully_supported_states",
        lambda: skewed_states("eta"),
        {"branch_continuity", "energy_two_route_agreement"},
    ),
    # a gap: item 19(b) (the multiplier's unit-mass route) closes it
    "supported-lambda_": (
        equilibria, "_fully_supported_states", lambda: skewed_states("lambda_"), set()
    ),
    "alpha_roots": (
        equilibria,
        "_alpha_roots",
        skewed_alpha_roots,
        {"energy_two_route_agreement", "singular_multiplier_relation"},
    ),
    "energy_uniform": (
        energy,
        "energy_uniform",
        lambda: skewed_value(energy, "energy_uniform"),
        {"reference_energies"},
    ),
    "energy_singular": (
        energy,
        "energy_singular",
        lambda: skewed_value(energy, "energy_singular"),
        {"energy_two_route_agreement"},
    ),
    "energy_fully_supported": (
        energy,
        "energy_fully_supported",
        lambda: skewed_value(energy, "energy_fully_supported"),
        {"energy_two_route_agreement"},
    ),
    # every integral of the package, the eta = 1 oracles and theta_integral's
    # included, goes through _integrals; the ratio i1 / i0 stays as it was
    "moments": (
        quadrature,
        "_integrals",
        lambda: skewed_moments({0, 1, 2}),
        {"branch_continuity", "eta1_quadrature_vs_closed_form", "kappa2_dual_oracle"},
    ),
    "moments-i_ent": (
        quadrature,
        "_integrals",
        lambda: skewed_moments({2}),
        {"eta1_quadrature_vs_closed_form"},
    ),
}


@pytest.mark.parametrize("row", ROWS)
def test_verify_fails_exactly_the_checks_that_catch_the_skew(monkeypatch, row):
    home, name, skewed, caught = ROWS[row]
    monkeypatch.setattr(home, name, skewed())
    assert {r.name for r in verification.run_verification() if not r.passed} == caught
