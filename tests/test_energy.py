import math

import numpy as np
import pytest

from conftest import (
    CASE_I,
    CASE_II,
    CASE_III,
    E_UNIFORM_ZERO_KAPPA_2_05,
    KAPPA_C_5_03,
    REFERENCE_PAIRS,
    sphere_average,
)
from fastsphere import energy as en
from fastsphere import equilibria as eq
from fastsphere.errors import (
    BracketFailureError,
    FastSphereError,
    InvalidParamError,
    WrongRegimeError,
)
from fastsphere.model import sphere_geometry


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


class TestDeltaMixture:
    def test_pure_atom_energy_is_zero(self):
        for kappa in (0.5, 5.0, 100.0):
            assert en.delta_mixture_energy(0.0, kappa, 2, 0.5) == 0.0

    @pytest.mark.parametrize("d, m", REFERENCE_PAIRS)
    def test_small_spread_lowers_the_energy(self, d, m):
        assert en.delta_mixture_energy(1e-6, 100.0, d, m) < 0.0

    def test_one_sided_slope_diverges(self):
        h = 1e-12
        slope = (en.delta_mixture_energy(h, 10.0, 2, 0.5) - 0.0) / h
        assert slope < -1e6

    def test_rejects_t_out_of_range(self):
        with pytest.raises(InvalidParamError):
            en.delta_mixture_energy(1.0, 1.0, 2, 0.5)


class TestSecondVariation:
    def test_signs_around_kappa1(self):
        assert en.second_variation_gap(5.0, 2, 0.5) > 0.0  # stable
        assert en.second_variation_gap(6.0, 2, 0.5) < 0.0  # unstable

    def test_linear_trial_attains_the_infimum(self):
        for d in (1, 2, 3, 5, 8):
            expected = (d + 1) / sphere_geometry(d).area_sd
            assert en.linear_trial_rayleigh(d) == pytest.approx(expected, rel=1e-13)


class TestFullySupportedEnergy:
    def test_two_routes_agree(self):
        state = eq.fully_supported_state(11.0, 3, 0.25)
        direct = en.energy_fully_supported(state, 3, 0.25)
        identity = 0.5 * state.kappa - en.branch_energy_gain(state.eta, 3, 0.25).value
        assert direct == pytest.approx(identity, abs=1e-8)

    def test_gain_matches_definition_by_quadrature(self):
        d, m = 2, 0.5
        state = eq.fully_supported_state(8.0, d, m)
        entropy = sphere_average(
            lambda t: eq.fully_supported_density(state, t, d, m) ** m, d, nodes=500
        )
        direct_gain = 0.5 * state.kappa * state.s**2 - entropy / (m - 1.0)
        assert en.branch_energy_gain(state.eta, d, m).value == pytest.approx(
            direct_gain, abs=1e-8
        )

    def test_branch_birth_energy(self):
        k1 = eq.kappa1(2, 0.5)
        kappa = k1 * (1.0 + 1e-6)
        state = eq.fully_supported_state(kappa, 2, 0.5)
        assert en.energy_fully_supported(state, 2, 0.5) == pytest.approx(
            en.energy_uniform(kappa, 2, 0.5), abs=1e-4
        )

    def test_energy_gap_increases_with_kappa(self):
        gaps = []
        for kappa in (6.0, 8.0, 10.0, 12.0):
            state = eq.fully_supported_state(kappa, 2, 0.5)
            gaps.append(
                en.energy_uniform(kappa, 2, 0.5) - en.energy_fully_supported(state, 2, 0.5)
            )
        assert gaps == sorted(gaps)
        assert gaps[0] > 0.0

    def test_moment_factor_positive(self):
        # the first-moment integral entering g1 is strictly positive off eta = 1
        from fastsphere.quadrature import ThetaIntegralSpec, theta_integral

        for eta in (1.001, 1.5, 20.0):
            assert theta_integral(ThetaIntegralSpec(eta, -2.0, 1, 2)) > 0.0


class TestSingularEnergy:
    def test_slope_identity(self):
        d, m = 3, 0.25
        kappa = 2.0 * eq.kappa2(d, m)
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
        kappa = 1.7 * eq.kappa2(d, m)
        alpha = eq.alpha_roots(kappa, d, m)[-1]
        sb = eq.s_bar(d, m)
        ent = en.rho_bar_entropy_integral(d, m)
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


class TestKappaC:
    def test_located_between_fold_and_kappa1(self):
        k3, _ = eq.kappa3_and_alpha_bar(5, 0.3)
        k1 = eq.kappa1(5, 0.3)
        kc = en.kappa_c(5, 0.3)
        assert k3 < kc < k1
        assert kc == pytest.approx(KAPPA_C_5_03, abs=2e-9)

    def test_signs_at_the_bracket_ends(self):
        d, m = 5, 0.3
        k3, _ = eq.kappa3_and_alpha_bar(d, m)
        k1 = eq.kappa1(d, m)
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


class TestClassifyMinimizer:
    def test_case_i_below_and_above(self):
        assert en.classify_minimizer(4.0, 2, 0.5).minimizer == "uniform"
        report = en.classify_minimizer(8.0, 2, 0.5)
        assert report.minimizer == "fully_supported"
        assert report.e_fully_supported < report.e_uniform

    def test_case_ii_sequence(self):
        k1 = eq.kappa1(3, 0.25)
        k2 = eq.kappa2(3, 0.25)
        assert en.classify_minimizer(0.5 * (k1 + k2), 3, 0.25).minimizer == "fully_supported"
        assert en.classify_minimizer(k2 * 1.2, 3, 0.25).minimizer == "singular_upper"

    def test_case_iii_switch_at_kappa_c(self):
        kc = en.kappa_c(5, 0.3)
        assert en.classify_minimizer(kc - 0.05, 5, 0.3).minimizer == "uniform"
        assert en.classify_minimizer(kc + 0.05, 5, 0.3).minimizer == "singular_upper"
        # at kappa1 the measure-valued branch already won (kappa_c < kappa1)
        assert en.classify_minimizer(eq.kappa1(5, 0.3), 5, 0.3).minimizer == "singular_upper"

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
            report = en.classify_minimizer(3.0 * eq.kappa1(d, m), d, m)
        except FastSphereError:
            return
        assert math.isfinite(report.e_fully_supported)

    def test_degenerate_flag_at_branch_birth(self):
        k1 = eq.kappa1(2, 0.5)
        report = en.classify_minimizer(k1, 2, 0.5)
        assert report.minimizer == "uniform"
        assert report.degenerate


def test_critical_set_complete_for_case_iii():
    crit = en.critical_set(5, 0.3)
    assert crit.kappa3 < crit.kappa_c < crit.kappa1
    assert crit.kappa3 < crit.kappa2 < crit.kappa1
    crit_ii = en.critical_set(3, 0.25)
    assert crit_ii.kappa_c is None and crit_ii.kappa2 > crit_ii.kappa1
