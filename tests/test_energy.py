import importlib
import math
import re
import statistics
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    CASE_I,
    CASE_II,
    CASE_III,
    E_UNIFORM_ZERO_KAPPA_2_05,
    KAPPA_C_5_03,
    REFERENCE_PAIRS,
    mp_kappa_c,
    record_calls,
    sphere_average,
)
from fastsphere import energy as en
from fastsphere import equilibria as eq
from fastsphere import model, quadrature, solvers, verification
from fastsphere.errors import (
    BracketFailureError,
    FastSphereError,
    InvalidParamError,
    NotIntegrableError,
    ToleranceNotMetError,
    WrongRegimeError,
)
from fastsphere.model import RegimeCase, classify_regime, sphere_geometry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestEnergyUniform:
    def test_zero_interaction_value(self):
        assert en.energy_uniform(0.0, 2, 0.5) == pytest.approx(
            E_UNIFORM_ZERO_KAPPA_2_05, rel=1e-13
        )

    def test_interaction_additivity_is_exact(self):
        for kappa in (1.0, 7.0, 123.0):
            assert (
                en.energy_uniform(kappa, 3, 0.25) - en.energy_uniform(0.0, 3, 0.25)
                == 0.5 * kappa
            )


class TestSecondVariation:
    def test_signs_around_kappa1(self):
        # the uniform state is stable below kappa1, unstable above: the
        # perturbation rho0 (1 + eps cos theta) raises E below kappa1 and
        # lowers it above, by about 1e-6 at eps = 1e-2, far above rounding
        eps = 1e-2
        for d, m in (CASE_I, CASE_II, CASE_III, (3, 0.9)):
            rho0 = 1.0 / sphere_geometry(d).area_sd
            kappa1 = en.critical_set(d, m).kappa1

            def energy(rho, kappa):
                entropy = sphere_average(lambda t: rho(t) ** m, d)
                com = sphere_average(lambda t: math.cos(t) * rho(t), d)
                return entropy / (m - 1.0) - 0.5 * kappa * com**2 + 0.5 * kappa

            def gain(kappa):
                perturbed = energy(lambda t: rho0 * (1.0 + eps * math.cos(t)), kappa)
                return perturbed - energy(lambda t: rho0, kappa)

            assert gain(0.95 * kappa1) > 0.0 > gain(1.05 * kappa1), (d, m)

    def test_linear_trial_attains_the_infimum(self):
        for d in (1, 2, 3, 5, 8):
            expected = (d + 1) / sphere_geometry(d).area_sd
            assert verification._trial_rayleigh(d) == pytest.approx(expected, rel=1e-13)


class TestFullySupportedEnergy:
    def test_two_routes_agree(self):
        state = eq.fully_supported_state(11.0, 3, 0.25)
        direct = en.energy_fully_supported(state, 3, 0.25)
        identity = 0.5 * state.kappa - verification._branch_energy_gain(
            verification._branch_moments([(state.eta, 3, 0.25)])[0], 3, 0.25
        )
        assert direct == pytest.approx(identity, abs=1e-8)

    def test_gain_matches_definition_by_quadrature(self):
        d, m = 2, 0.5
        state = eq.fully_supported_state(8.0, d, m)
        entropy = sphere_average(
            lambda t: eq.fully_supported_density(state, t, d, m) ** m, d, nodes=500
        )
        direct_gain = 0.5 * state.kappa * state.s**2 - entropy / (m - 1.0)
        gain = verification._branch_energy_gain(
            verification._branch_moments([(state.eta, d, m)])[0], d, m
        )
        assert gain == pytest.approx(direct_gain, abs=1e-8)

    def test_routes_that_disagree_raise_tolerance_not_met(self):
        # at kappa = 1e8 the branch is far out (s near 1) and the two routes
        # part at the 3e-2 level, past the 1e-8 cross-check
        state = eq.fully_supported_state(1e8, 2, 0.5)
        with pytest.raises(ToleranceNotMetError) as exc:
            en.energy_fully_supported(state, 2, 0.5)
        assert type(exc.value) is ToleranceNotMetError
        assert re.fullmatch(
            r"energy cross-check failed at kappa=100000000\.0: "
            r"direct=-2\.58\d+e-06, identity route=-2\.65\d+e-06",
            str(exc.value),
        )

    def test_no_kernel_call_where_the_mass_diverges(self, monkeypatch):
        # a hand-built state at eta = 1 with no moments, where 2q + d = -2 at
        # (2, 0.5): the energy, like theta_integral, raises model's one
        # divergence error before any mesh reaches the kernel
        state = eq.FullySupportedState(kappa=8.0, eta=1.0, s=0.5, lambda_=-4.0, eta_minus_1=0.0)
        calls = record_calls(monkeypatch, quadrature, "_integrals")
        for call in (
            lambda: en.energy_fully_supported(state, 2, 0.5),
            lambda: model.theta_integral(1.0, -2.0, 0, 2),
        ):
            with pytest.raises(NotIntegrableError) as exc:
                call()
            assert str(exc.value) == (
                "(1 - cos t)^q sin^(d-1) t diverges at t = 0 for q=-2.0, d=2: need 2q + d - 1 > -1"
            )
        assert calls == []

    def test_branch_birth_energy(self):
        k1 = en.critical_set(2, 0.5).kappa1
        kappa = k1 * (1.0 + 1e-6)
        state = eq.fully_supported_state(kappa, 2, 0.5)
        assert en.energy_fully_supported(state, 2, 0.5) == pytest.approx(
            en.energy_uniform(kappa, 2, 0.5), abs=1e-4
        )

    def test_energy_gap_increases_with_kappa(self):
        gaps = [
            en.energy_uniform(s.kappa, 2, 0.5) - en.energy_fully_supported(s, 2, 0.5)
            for s in eq.fully_supported_states([6.0, 8.0, 10.0, 12.0], 2, 0.5)
        ]
        assert gaps == sorted(gaps)
        assert gaps[0] > 0.0

    def test_moment_factor_positive(self):
        # the first-moment integral entering g1 is strictly positive off eta = 1
        from fastsphere.model import theta_integral

        for eta in (1.001, 1.5, 20.0):
            assert theta_integral(eta, -2.0, 1, 2) > 0.0


class TestSingularEnergy:
    def test_slope_identity(self):
        d, m = 3, 0.25
        kappa = 2.0 * en.critical_set(d, m).kappa2
        sb = eq.s_bar(d, m)
        h = 1e-5 * kappa

        def gap(k):
            alpha = eq.alpha_roots(k, d, m)[-1]
            return en.energy_uniform(k, d, m) - en.energy_singular(alpha, k, d, m)

        fd_slope = (gap(kappa + h) - gap(kappa - h)) / (2.0 * h)
        alpha = eq.alpha_roots(kappa, d, m)[-1]
        assert fd_slope == pytest.approx(
            0.5 * (alpha + (1.0 - alpha) * sb) ** 2, rel=1e-5
        )

    def test_entropy_identity_along_branch(self):
        d, m = 3, 0.25
        kappa = 1.7 * en.critical_set(d, m).kappa2
        alpha = eq.alpha_roots(kappa, d, m)[-1]
        sb = eq.s_bar(d, m)
        ent = eq._constants(d, m).ent
        lhs = m / (m - 1.0) * (1.0 - alpha) ** (m - 1.0) * ent
        rhs = -kappa * (1.0 - sb) * (alpha + (1.0 - alpha) * sb)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_case_iii_branch_ordering(self):
        d, m = 5, 0.3
        for kappa in (16.0, 16.8, 17.5):
            lower, upper = eq.alpha_roots(kappa, d, m)
            assert en.energy_singular(lower, kappa, d, m) > en.energy_singular(
                upper, kappa, d, m
            )

    def test_lower_branch_slope_identity(self):
        d, m = 5, 0.3
        sb = eq.s_bar(d, m)
        kappa = 16.8  # inside the fold (kappa3, kappa2)
        h = 1e-5 * kappa

        def gap(k):
            alpha = eq.alpha_roots(k, d, m)[0]
            return en.energy_uniform(k, d, m) - en.energy_singular(alpha, k, d, m)

        fd_slope = (gap(kappa + h) - gap(kappa - h)) / (2.0 * h)
        alpha = eq.alpha_roots(kappa, d, m)[0]
        assert fd_slope == pytest.approx(
            0.5 * (alpha + (1.0 - alpha) * sb) ** 2, rel=1e-4
        )


# the small-m pairs of the kappa_c oracle, where the gap's entropies nearly cancel
SMALL_M_PAIRS = ((10, 0.00035051991165634474), (8, 0.0005204527127321834))


class TestKappaC:
    def test_located_between_fold_and_kappa1(self):
        crit = en.critical_set(5, 0.3)
        k3, k1 = crit.kappa3, crit.kappa1
        kc = en.kappa_c(5, 0.3)
        assert k3 < kc < k1
        assert kc == pytest.approx(KAPPA_C_5_03, rel=1e-12)

    def test_signs_at_the_bracket_ends(self):
        d, m = 5, 0.3
        crit = en.critical_set(d, m)
        k3, k1 = crit.kappa3, crit.kappa1
        near_fold = k3 * (1.0 + 1e-9)
        alpha = eq.alpha_roots(near_fold, d, m)[-1]
        assert en.energy_uniform(near_fold, d, m) < en.energy_singular(
            alpha, near_fold, d, m
        )
        alpha = eq.alpha_roots(k1, d, m)[-1]
        assert en.energy_uniform(k1, d, m) > en.energy_singular(alpha, k1, d, m)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            en.kappa_c(3, 0.25)

    @pytest.mark.parametrize("m", [Decimal("0.25"), Fraction(1, 4), np.float32(0.25)], ids=repr)
    def test_wrong_regime_names_the_checked_d_and_m(self, m):
        # as kappa_c(3, 0.25) names them, whatever numbers they were given as
        for d in (3, 3.0, np.int64(3)):
            with pytest.raises(WrongRegimeError) as raised:
                en.kappa_c(d, m)
            assert str(raised.value) == "kappa_c exists only in case_iii; d=3, m=0.25 is case_ii"

    @pytest.mark.parametrize("d, m", [(5, 0.3), (12, 0.05), (100, 0.95), (200, 0.9)])
    def test_matches_mpmath_oracle(self, d, m):
        kc = en.kappa_c(d, m)
        assert kc == pytest.approx(mp_kappa_c(d, m), rel=1e-9)

    @pytest.mark.parametrize("d, m", SMALL_M_PAIRS)
    def test_matches_mpmath_oracle_at_small_m(self, d, m):
        # the uniform and rho_bar entropies nearly cancel in the energy gap,
        # so kappa_c magnifies their rounding by about 1/m
        kc = en.kappa_c(d, m)
        assert kc == pytest.approx(mp_kappa_c(d, m), rel=3e-12, abs=0.0)

    @pytest.mark.parametrize(
        "d, m",
        [
            (50, 0.1), (50, 0.5), (50, 0.95),
            (100, 0.077), (100, 0.5), (100, 0.95),
            (200, 0.1), (200, 0.45), (200, 0.9),
            (300, 0.3), (300, 0.81), (300, 0.95),
        ],
    )
    def test_matches_mpmath_oracle_at_large_d(self, d, m):
        kc = en.kappa_c(d, m)
        assert kc == pytest.approx(mp_kappa_c(d, m), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "d, m", [(5, 0.3), (12, 0.05), (10, 0.00035051991165634474), (200, 0.9), (400, 0.5)]
    )
    def test_equals_critical_set_bit_for_bit(self, d, m):
        assert en.kappa_c(d, m) == en.critical_set(d, m).kappa_c

    @pytest.mark.parametrize("d, m", [(100, 0.95), (200, 0.9)])
    def test_large_d_inside_fold_window(self, d, m):
        # the upper atom fraction at kappa1 lies beyond 1 - 1e-12 here, so
        # a bracket through alpha_roots cannot reach kappa1
        crit = en.critical_set(d, m)
        k3, k1 = crit.kappa3, crit.kappa1
        kc = en.kappa_c(d, m)
        assert k3 < kc < k1
        assert crit.kappa_c == kc
        assert crit.kappa3 < crit.kappa_c < crit.kappa1

    @pytest.mark.parametrize(
        "d, m",
        [(d, f * (1.0 - 2.0 / (d - 1))) for d in range(4, 13) for f in (0.02, 0.99)],
    )
    def test_gap_changes_sign_through_alpha_roots(self, d, m):
        # the kappa-space route: solve the upper atom fraction at each kappa
        kc = en.kappa_c(d, m)
        delta = 1e-9 * kc
        for kappa, sign in ((kc - delta, -1.0), (kc + delta, 1.0)):
            alpha = eq.alpha_roots(kappa, d, m)[-1]
            gap = en.energy_uniform(kappa, d, m) - en.energy_singular(alpha, kappa, d, m)
            assert sign * gap > 0.0

    def test_needs_no_root_solve(self, monkeypatch):
        # nor any quadrature: every eta = 1 moment of rho_bar is a closed form
        def forbidden(*args, **kwargs):
            raise AssertionError("kappa_c must not solve for roots or integrate")

        monkeypatch.setattr(eq, "alpha_roots", forbidden)
        monkeypatch.setattr(eq, "bracketed_root", forbidden)
        monkeypatch.setattr(solvers, "bracketed_root", forbidden)
        for name in ("_integral", "_integrals"):  # every integral goes through these
            monkeypatch.setattr(quadrature, name, forbidden)
        assert en.kappa_c(5, 0.3) == pytest.approx(KAPPA_C_5_03, rel=1e-12)
        crit = en.critical_set(12, 0.05)
        assert crit.kappa3 < crit.kappa_c < crit.kappa1
        assert math.isfinite(en.energy_singular(0.5, 17.0, 5, 0.3))
        assert eq.rho_bar_density(1.0, 5, 0.3) > 0.0


class TestEquilibriaAt:
    def test_rows_per_kappa_and_failures_alone(self):
        bad, found = en.equilibria_at([-1.0, 8.0], 2, 0.5)
        assert type(bad) is InvalidParamError and bad.__traceback__ is None
        uniform, supported = found
        assert uniform == ("uniform", None, None, 0.0, en.energy_uniform(8.0, 2, 0.5))
        state = eq.fully_supported_state(8.0, 2, 0.5)
        assert supported == (
            "fully_supported", None, state.eta, state.s,
            en.energy_fully_supported(state, 2, 0.5),
        )

    def test_fold_gives_the_upper_row_only(self):
        crit = en.critical_set(*CASE_III)
        (found,) = en.equilibria_at([crit.kappa3], *CASE_III)
        assert [row[0] for row in found] == ["uniform", "singular_upper"]
        assert found[1][1] == pytest.approx(crit.alpha_bar, abs=1e-5)

    def test_branch_failure_fails_its_kappa(self, monkeypatch):
        alpha_roots = eq._alpha_roots

        def broken_at_17(kappa, *args):
            if kappa == 17.0:
                raise BracketFailureError("injected root failure")
            return alpha_roots(kappa, *args)

        monkeypatch.setattr(eq, "_alpha_roots", broken_at_17)
        found = en.equilibria_at([16.5, 17.0, 18.5], *CASE_III)
        assert type(found[1]) is BracketFailureError and found[1].__traceback__ is None
        assert [row[0] for row in found[2]] == ["uniform", "fully_supported", "singular_upper"]
        with pytest.raises(BracketFailureError):
            en.classify_minimizer(17.0, *CASE_III)


class TestClassifyMinimizer:
    def test_case_i_below_and_above(self):
        assert en.classify_minimizer(4.0, 2, 0.5).minimizer == "uniform"
        report = en.classify_minimizer(8.0, 2, 0.5)
        assert report.minimizer == "fully_supported"
        assert report.e_fully_supported < report.e_uniform

    def test_case_ii_sequence(self):
        crit = en.critical_set(3, 0.25)
        k1, k2 = crit.kappa1, crit.kappa2
        assert en.classify_minimizer(0.5 * (k1 + k2), 3, 0.25).minimizer == "fully_supported"
        assert en.classify_minimizer(k2 * 1.2, 3, 0.25).minimizer == "singular_upper"

    def test_case_iii_switch_at_kappa_c(self):
        kc = en.kappa_c(5, 0.3)
        assert en.classify_minimizer(kc - 0.05, 5, 0.3).minimizer == "uniform"
        assert en.classify_minimizer(kc + 0.05, 5, 0.3).minimizer == "singular_upper"
        # at kappa1 the measure-valued branch already won (kappa_c < kappa1)
        k1 = en.critical_set(5, 0.3).kappa1
        assert en.classify_minimizer(k1, 5, 0.3).minimizer == "singular_upper"

    def test_tag_is_argmin_of_populated_energies(self):
        for d, m, kappa in ((2, 0.5, 7.0), (3, 0.25, 15.0), (5, 0.3, 16.5), (5, 0.3, 19.0)):
            report = en.classify_minimizer(kappa, d, m)
            energies = {
                "uniform": report.e_uniform,
                "fully_supported": report.e_fully_supported,
                "singular_upper": report.e_singular_upper,
                "singular_lower": report.e_singular_lower,
            }
            populated = {k: v for k, v in energies.items() if v is not None}
            assert report.minimizer == min(populated, key=populated.get)

    def test_bracket_failure_message_prints_plain_floats(self):
        # at m -> 1 the clamped log-zeta bracket misses the case-I root
        with pytest.raises(BracketFailureError) as err:
            en.classify_minimizer(30.0, 3, 0.999)
        assert "f(lo)=" in str(err.value)
        assert "np.float64" not in str(err.value)

    @pytest.mark.parametrize("d, m", [(20, 0.99999), (60, 0.999)])
    def test_moments_beyond_double_range_fail_typed(self, d, m):
        # the supported-branch moments turn subnormal near the clamped
        # uniform-limit end of the bracket: a typed error, not OverflowError
        try:
            report = en.classify_minimizer(3.0 * en.critical_set(d, m).kappa1, d, m)
        except FastSphereError:
            return
        assert math.isfinite(report.e_fully_supported)

    def test_degenerate_flag_at_branch_birth(self):
        k1 = en.critical_set(2, 0.5).kappa1
        report = en.classify_minimizer(k1, 2, 0.5)
        assert report.minimizer == "uniform"
        assert report.degenerate


def _benchmark_pairs() -> list:
    """The (d, m) pairs of the benchmark's critical workload, seeds 0-3."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    return [pair for seed in range(4) for pair in workloads.critical_pairs(seed)]


def _benchmark_case_iii_pairs() -> list:
    """The case-iii (d, m) pairs of the benchmark's critical workload, seeds 0-3."""
    return [
        (d, m) for d, m in _benchmark_pairs() if classify_regime(d, m).tag is RegimeCase.CASE_III
    ]


class TestCriticalSetWork:
    def test_one_pass(self, monkeypatch):
        validations = record_calls(monkeypatch, model, "validate_params")
        geometries = record_calls(monkeypatch, model, "sphere_geometry")
        closed_forms = record_calls(monkeypatch, model, "eta1_closed_form")
        crit = en.critical_set(5, 0.3)
        assert crit.kappa_c == pytest.approx(KAPPA_C_5_03, rel=1e-12)
        assert len(validations) <= 2
        assert len(geometries) == 1
        # the entropy of rho_bar comes from the mass by the Beta recurrence
        assert len(closed_forms) == 1

    def test_every_reader_takes_one_pass(self, monkeypatch):
        # classify_minimizer and equilibria_at form the kappa-free constants
        # once and hand them to the branch window, the roots and the energies
        passes = record_calls(monkeypatch, eq, "_constants")
        regimes = record_calls(monkeypatch, model, "_regime_case")
        closed_forms = record_calls(monkeypatch, model, "eta1_closed_form")
        geometries = record_calls(monkeypatch, model, "sphere_geometry")
        for call in (
            lambda: en.classify_minimizer(17.0, 5, 0.3),
            lambda: en.equilibria_at([17.0], 5, 0.3),
        ):
            for record in (passes, regimes, closed_forms):
                record.clear()
            call()
            assert (len(passes), len(regimes), len(closed_forms)) == (1, 1, 1)
        # no reader does more work than when each formed its own constants:
        # at most these (closed forms, geometries)
        for call, (most_closed_forms, most_geometries) in (
            (lambda: en.critical_set(5, 0.3), (1, 1)),
            (lambda: eq.alpha_roots(17.0, 5, 0.3), (1, 1)),
            (lambda: eq.singular_state(17.0, 5, 0.3), (1, 1)),
            (lambda: en.energy_singular(0.5, 17.0, 5, 0.3), (1, 1)),
        ):
            closed_forms.clear()
            geometries.clear()
            call()
            assert len(closed_forms) <= most_closed_forms
            assert len(geometries) <= most_geometries

    def test_gap_evaluations_per_kappa_c(self, monkeypatch):
        # the count includes the two checks of the bracket ends
        calls = record_calls(monkeypatch, en, "_kappa_c_gap")
        counts = []
        for d, m in _benchmark_case_iii_pairs():
            calls.clear()
            en.kappa_c(d, m)
            counts.append(len(calls))
        assert len(counts) > 900
        assert statistics.median(counts) <= 10
        assert max(counts) <= 16


def test_critical_set_by_regime():
    case_i = en.critical_set(2, 0.5)
    assert case_i.regime is RegimeCase.CASE_I
    assert case_i.kappa2 is None and case_i.kappa3 is None and case_i.kappa_c is None
    case_ii = en.critical_set(3, 0.25)
    assert case_ii.regime is RegimeCase.CASE_II
    assert case_ii.kappa2 is not None and case_ii.kappa2 > case_ii.kappa1
    assert case_ii.kappa3 is None and case_ii.kappa_c is None
    case_iii = en.critical_set(5, 0.3)
    assert case_iii.regime is RegimeCase.CASE_III
    assert case_iii.kappa3 < case_iii.kappa2 < case_iii.kappa1
    assert 0.0 < case_iii.alpha_bar < 1.0
    # critical_set and every getter read the same pass of the constants, bit for bit
    for d, m in REFERENCE_PAIRS + tuple(_benchmark_pairs()):
        crit, constants = en.critical_set(d, m), eq._constants(d, m)
        assert crit.regime is constants.regime
        fields = (crit.kappa1, crit.kappa2, crit.kappa3, crit.alpha_bar)
        assert fields == (constants.kappa1, constants.kappa2, constants.kappa3, constants.alpha_bar)
        if crit.regime is RegimeCase.CASE_I:
            continue
        assert eq.s_bar(d, m) == constants.s_bar
        if crit.regime is RegimeCase.CASE_III:
            assert en._kappa_c_of(constants) == crit.kappa_c


# (d, m) past the benchmark's dimensions, up to the last d whose sphere areas
# stay in the normal double range
LARGE_D_PAIRS = ((50, 0.1), (100, 0.5), (200, 0.45), (300, 0.3), (400, 0.5), (437, 0.2))


class TestRhoBarEntropy:
    def test_beta_recurrence_matches_the_closed_form(self):
        # B(a + 1, b) = B(a, b) a / (a + b) turns I0 = I(1, q, 0) into
        # I(1, q + 1, 0) = I0 (2q + d) / (q + d), within 3 ulp; rho_bar
        # exists at every one of these pairs
        for d, m in tuple(_benchmark_pairs()) + LARGE_D_PAIRS:
            c = eq._constants(d, m)
            recurrence = c.i0 * (2.0 * c.q + d) / (c.q + d)
            closed_form = model.eta1_closed_form(c.q + 1.0, 0, d)
            assert recurrence == pytest.approx(closed_form, rel=6.7e-16, abs=0.0), (d, m)

    def test_matches_mpmath_beta(self):
        # int rho_bar^m dS = |S^(d-1)|^(1-m) I(1, q + 1, 0) I0^(-m), with
        # I(1, p, 0) = 2^(p+d-1) B(p + d/2, d/2), at 40 digits
        pairs = [(10, 0.00035), (8, 0.00052), (3, 0.25), (5, 0.3)] + _benchmark_pairs()[::70]
        with mp.workdps(40):
            for d, m in pairs:
                dd, mm = mp.mpf(d), mp.mpf(m)
                q = 1 / (mm - 1)

                def mass(p):
                    return 2 ** (p + dd - 1) * mp.beta(p + dd / 2, dd / 2)

                area_sdm1 = 2 * mp.pi ** (dd / 2) / mp.gamma(dd / 2)
                exact = area_sdm1 ** (1 - mm) * mass(q + 1) * mass(q) ** (-mm)
                ent = eq._constants(d, m).ent
                assert abs(ent - exact) <= 3e-14 * exact, (d, m)


@pytest.mark.parametrize("d, m", _benchmark_case_iii_pairs() + list(LARGE_D_PAIRS + SMALL_M_PAIRS))
def test_kappa_c_newton_descends_the_convex_gap(monkeypatch, d, m):
    gap = en._kappa_c_gap
    calls = record_calls(monkeypatch, en, "_kappa_c_gap")
    en.kappa_c(d, m)
    us, args = [call[0] for call in calls], calls[0][1:]
    lo, hi = us[:2]  # the checks of the bracket ends: the fold, the far end
    # Newton starts at the far end and u only decreases from there
    g, slope = gap(hi, *args)
    assert us[2] == hi - g / slope
    assert all(a > b for a, b in zip(us[1:], us[2:]))
    # every iterate but the last lies right of the crossing
    assert all(gap(u, *args)[0] > 0.0 for u in us[1:-1])
    # the minimum of the gap is the fold: its slope there is zero within
    # rounding of its terms
    _, k2sb, sb, ent, _ = args
    rise, rest = math.exp((1.0 - m) * lo), math.exp(-m * lo)
    size = 0.5 * k2sb * ((1.0 - m) * rise + m * (1.0 - sb) * rest) + m * rest * ent / (1.0 - m)
    assert abs(gap(lo, *args)[1]) <= 1e-14 * size
    # and the gap is convex over the bracket
    slopes = [gap(float(u), *args)[1] for u in np.linspace(lo, hi, 50)]
    assert all(a < b for a, b in zip(slopes, slopes[1:]))


def test_critical_set_complete_for_case_iii():
    crit = en.critical_set(5, 0.3)
    assert crit.kappa3 < crit.kappa_c < crit.kappa1
    assert crit.kappa3 < crit.kappa2 < crit.kappa1
    crit_ii = en.critical_set(3, 0.25)
    assert crit_ii.kappa_c is None and crit_ii.kappa2 > crit_ii.kappa1
