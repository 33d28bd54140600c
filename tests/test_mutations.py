"""The mutation table: which verify checks fail when one reported number is wrong.

Each row multiplies one field of one public result, at its one accessor,
by a factor: 1 + 1e-6 (a skew), and then NaN.  It runs
verification.run_verification once per factor and asserts the exact set
of checks that fail.  The checks read the library through module
attributes on purpose, so the factor reaches every check that reads the
number.  A row whose set is empty is a gap in verify; its comment names
the ROADMAP item that closes it.  A change that makes a check catch more
updates its row, a tightening.
"""

import dataclasses
import math

import pytest

from fastsphere import energy, equilibria, model, quadrature, verification
from fastsphere.errors import FastSphereError

SKEW = 1.0 + 1e-6


def skewed_critical_set(field, factor):
    """energy.critical_set with one field times factor (a None field stays None)."""
    original = energy.critical_set

    def critical_set(d, m):
        crit = original(d, m)
        value = getattr(crit, field)
        return crit if value is None else dataclasses.replace(crit, **{field: value * factor})

    return critical_set


def skewed_value(home, name, factor):
    """home.<name> with its value times factor."""
    original = getattr(home, name)
    return lambda *args: original(*args) * factor


def skewed_states(field, factor):
    """equilibria._fully_supported_states with one field of every supported state times factor."""
    original = equilibria._fully_supported_states

    def skew(state):
        if isinstance(state, FastSphereError):
            return state
        return dataclasses.replace(state, **{field: getattr(state, field) * factor})

    return lambda requests: [list(map(skew, entries)) for entries in original(requests)]


def skewed_alpha_roots(factor):
    """equilibria._alpha_roots with every root times factor."""
    original = equilibria._alpha_roots
    return lambda kappa, c: [alpha * factor for alpha in original(kappa, c)]


def skewed_moments(members, factor):
    """quadrature._integrals with the given members of each (i0, i1, i_ent) times factor."""
    original = quadrature._integrals

    def skew(entry):
        if isinstance(entry, FastSphereError):
            return entry
        return tuple(x * factor if k in members else x for k, x in enumerate(entry))

    return lambda *args: list(map(skew, original(*args)))


# the checks that read the kernel's mass i0 (a NaN i0 fails each)
MASS_READERS = {
    "branch_continuity",
    "branch_limit_matches_kappa1",
    "branch_monotone_direction",
    "case_iii_com_decreasing",
    "com_norm_closed_form",
    "energy_comparison_steps",
    "energy_slope_identities",
    "energy_two_route_agreement",
    "eta1_quadrature_vs_closed_form",
    "kappa2_dual_oracle",
    "minimizer_consistency",
    "moment_bounded_by_mass",
    "quadrature_self_consistency",
    "theta_integral_eta_monotone",
}
SUPPORTED_S = {
    "branch_continuity",
    "energy_comparison_steps",
    "energy_slope_identities",
    "energy_two_route_agreement",
    "minimizer_consistency",
}

# row: (module, name, the function with its number times a factor, the
# checks that fail under SKEW, the checks that fail under NaN)
ROWS = {
    "critical_set-kappa1": (
        energy,
        "critical_set",
        lambda f: skewed_critical_set("kappa1", f),
        {"branch_limit_matches_kappa1", "uniform_stability_threshold"},
        {
            "branch_continuity",
            "branch_limit_matches_kappa1",
            "minimizer_consistency",
            "uniform_stability_threshold",
        },
    ),
    # the branch continuity grid leaves the window at the skewed kappa2
    "critical_set-kappa2": (
        energy,
        "critical_set",
        lambda f: skewed_critical_set("kappa2", f),
        {"branch_continuity", "kappa2_dual_oracle"},
        {
            "branch_continuity",
            "energy_slope_identities",
            "energy_two_route_agreement",
            "kappa2_dual_oracle",
            "minimizer_consistency",
            "singular_alpha_saturates",
            "singular_multiplier_relation",
        },
    ),
    # a gap: item 10 (the fold check of the measure-valued roots) closes it
    "critical_set-kappa3": (
        energy, "critical_set", lambda f: skewed_critical_set("kappa3", f), set(), set()
    ),
    # a gap: item 19(b) (the exact ratio of the threshold distances) closes it
    "critical_set-alpha_bar": (
        energy, "critical_set", lambda f: skewed_critical_set("alpha_bar", f), set(), set()
    ),
    # a gap under the skew: item 4(b) (the convex envelope of the kappa-free
    # curve) closes it
    "critical_set-kappa_c": (
        energy,
        "critical_set",
        lambda f: skewed_critical_set("kappa_c", f),
        set(),
        {"minimizer_consistency"},
    ),
    "s_bar": (
        equilibria,
        "s_bar",
        lambda f: skewed_value(equilibria, "s_bar", f),
        {"com_norm_closed_form", "energy_two_route_agreement"},
        {
            "branch_continuity",
            "com_norm_closed_form",
            "energy_slope_identities",
            "energy_two_route_agreement",
        },
    ),
    "supported-s": (
        equilibria,
        "_fully_supported_states",
        lambda f: skewed_states("s", f),
        SUPPORTED_S,
        SUPPORTED_S,
    ),
    "supported-eta": (
        equilibria,
        "_fully_supported_states",
        lambda f: skewed_states("eta", f),
        {"branch_continuity", "energy_two_route_agreement"},
        {"branch_continuity", "energy_slope_identities", "energy_two_route_agreement"},
    ),
    # a gap: item 19(b) (the multiplier's unit-mass route) closes it
    "supported-lambda_": (
        equilibria,
        "_fully_supported_states",
        lambda f: skewed_states("lambda_", f),
        set(),
        set(),
    ),
    "alpha_roots": (
        equilibria,
        "_alpha_roots",
        skewed_alpha_roots,
        {"energy_two_route_agreement", "singular_multiplier_relation"},
        {
            "energy_comparison_steps",
            "energy_slope_identities",
            "energy_two_route_agreement",
            "minimizer_consistency",
            "singular_alpha_saturates",
            "singular_multiplier_relation",
        },
    ),
    "energy_uniform": (
        energy,
        "energy_uniform",
        lambda f: skewed_value(energy, "energy_uniform", f),
        {"reference_energies"},
        {"energy_comparison_steps", "energy_slope_identities", "reference_energies"},
    ),
    "energy_singular": (
        energy,
        "energy_singular",
        lambda f: skewed_value(energy, "energy_singular", f),
        {"energy_two_route_agreement"},
        {"energy_comparison_steps", "energy_slope_identities", "energy_two_route_agreement"},
    ),
    "energy_fully_supported": (
        energy,
        "energy_fully_supported",
        lambda f: skewed_value(energy, "energy_fully_supported", f),
        {"energy_two_route_agreement"},
        {"energy_comparison_steps", "energy_two_route_agreement", "minimizer_consistency"},
    ),
    "eta1_closed_form": (
        model,
        "eta1_closed_form",
        lambda f: skewed_value(model, "eta1_closed_form", f),
        {"eta1_quadrature_vs_closed_form"},
        {"eta1_quadrature_vs_closed_form"},
    ),
    # every integral of the package, the eta = 1 oracles and theta_integral's
    # included, goes through _integrals; under the skew of all three members
    # the ratio i1 / i0 stays as it was
    "moments": (
        quadrature,
        "_integrals",
        lambda f: skewed_moments({0, 1, 2}, f),
        {
            "branch_continuity",
            "branch_limit_matches_kappa1",
            "eta1_quadrature_vs_closed_form",
            "kappa2_dual_oracle",
        },
        MASS_READERS,
    ),
    "moments-i0": (
        quadrature,
        "_integrals",
        lambda f: skewed_moments({0}, f),
        {
            "branch_continuity",
            "branch_limit_matches_kappa1",
            "com_norm_closed_form",
            "eta1_quadrature_vs_closed_form",
            "kappa2_dual_oracle",
            "quadrature_self_consistency",
        },
        MASS_READERS,
    ),
    # theta_integral_eta_monotone reads the mass alone
    "moments-i1": (
        quadrature,
        "_integrals",
        lambda f: skewed_moments({1}, f),
        {
            "branch_continuity",
            "branch_limit_matches_kappa1",
            "com_norm_closed_form",
            "eta1_quadrature_vs_closed_form",
            "kappa2_dual_oracle",
            "quadrature_self_consistency",
        },
        MASS_READERS - {"theta_integral_eta_monotone"},
    ),
    # a NaN i_ent fails the moments check of every supported energy, and
    # branch_continuity's solves take their energies too
    "moments-i_ent": (
        quadrature,
        "_integrals",
        lambda f: skewed_moments({2}, f),
        {"eta1_quadrature_vs_closed_form"},
        {
            "branch_continuity",
            "energy_comparison_steps",
            "energy_slope_identities",
            "energy_two_route_agreement",
            "eta1_quadrature_vs_closed_form",
            "minimizer_consistency",
        },
    ),
}


def failing_checks(monkeypatch, row, factor):
    """The checks that fail in one verify run with the row's number times factor."""
    home, name, skewed, _, _ = ROWS[row]
    monkeypatch.setattr(home, name, skewed(factor))
    return {r.name for r in verification.run_verification() if not r.passed}


@pytest.mark.parametrize("row", ROWS)
def test_verify_fails_exactly_the_checks_that_catch_the_skew(monkeypatch, row):
    assert failing_checks(monkeypatch, row, SKEW) == ROWS[row][3]


@pytest.mark.parametrize("row", ROWS)
def test_verify_fails_exactly_the_checks_that_catch_a_nan(monkeypatch, row):
    assert failing_checks(monkeypatch, row, math.nan) == ROWS[row][4]
