import dataclasses
import gc
import math

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    ALPHA_AT_100K2_3_025,
    ALPHA_BAR_5_03,
    CASE_I,
    CASE_II,
    CASE_III,
    H_AT_ONE_3_025,
    KAPPA1,
    KAPPA2,
    KAPPA3_5_03,
    REFERENCE_PAIRS,
    mp_theta_integral,
    record_calls,
    sphere_average,
)
from fastsphere import energy as en
from fastsphere import equilibria as eq
from fastsphere import quadrature, verification
from fastsphere.errors import (
    BracketFailureError,
    FastSphereError,
    InvalidParamError,
    NotIntegrableError,
    OutOfWindowError,
    ToleranceNotMetError,
)
from fastsphere.model import sphere_geometry, theta_integral


class TestKappa1:
    @pytest.mark.parametrize(
        "pair, published", [(CASE_I, 5.3174), (CASE_II, 9.3648), (CASE_III, 19.9199)]
    )
    def test_published_figures(self, pair, published):
        assert en.critical_set(*pair).kappa1 == pytest.approx(published, abs=5e-4)

    def test_frozen_oracle_values(self):
        for pair, value in KAPPA1.items():
            assert en.critical_set(*pair).kappa1 == pytest.approx(value, rel=1e-13)


def test_uniform_state():
    # the uniform row is the density 1/|S^d|: no centre of mass, and the
    # energy of that density by quadrature
    d, m, kappa = 2, 0.5, 8.0
    (rows,) = en.equilibria_at([kappa], d, m)
    area = sphere_geometry(d).area_sd
    entropy = sphere_average(lambda t: (1.0 / area) ** m, d)
    energy = entropy / (m - 1.0) + 0.5 * kappa
    assert rows[0] == pytest.approx(("uniform", None, None, 0.0, energy), rel=1e-14)


def moments(eta, d, m):
    """The integrals (i0, i1, i_ent) of the supported branch at eta, by verify's quadrature."""
    (found,) = verification._branch_moments([(eta, d, m)])
    return found


def inverse_kappa(eta, d, m):
    """1/kappa of the supported branch at eta, from moments integrated on their own mesh."""
    return verification._inverse_kappa(eta, d, m, moments(eta, d, m))


def com_norm(eta, d, m):
    """Centre-of-mass norm of the supported density at eta, by verify's quadrature."""
    i0, i1, _ = moments(eta, d, m)
    return i1 / i0


class TestInverseKappa:
    def test_limit_recovers_kappa1(self):
        for d, m in REFERENCE_PAIRS:
            prod = inverse_kappa(1e6, d, m) * en.critical_set(d, m).kappa1
            assert prod == pytest.approx(1.0, abs=1e-4)

    def test_value_at_one(self):
        assert inverse_kappa(1.0, 3, 0.25) == pytest.approx(H_AT_ONE_3_025, rel=1e-10)

    def test_sampled_monotonicity_case_ii(self):
        vals = [inverse_kappa(eta, 3, 0.25) for eta in (1.5, 3.0, 10.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_not_integrable_at_one_in_case_i(self):
        # the branch's mass at eta = 1 diverges in case i; model refuses it,
        # and the kernel, which takes convergent meshes only, never sees it
        with pytest.raises(NotIntegrableError):
            theta_integral(1.0, 1.0 / (0.5 - 1.0), 0, 2)

    def test_strictly_positive(self):
        for eta in (1.01, 2.0, 50.0):
            assert inverse_kappa(eta, 5, 0.3) > 0.0


class TestComNorm:
    def test_uniform_limit_vanishes(self):
        assert abs(com_norm(1e8, 3, 0.25)) <= 1e-6

    def test_matches_s_bar_at_one(self):
        assert com_norm(1.0, 3, 0.25) == pytest.approx(0.8, rel=1e-10)
        assert com_norm(1.0, 5, 0.3) == pytest.approx(0.4, rel=1e-10)


class TestSolveEta:
    def test_residual_contract(self):
        kappa = 2.0 * en.critical_set(2, 0.5).kappa1
        eta = eq.fully_supported_state(kappa, 2, 0.5).eta
        assert abs(inverse_kappa(eta, 2, 0.5) * kappa - 1.0) <= 1e-12
        assert eta == pytest.approx(1.0822297321986727, rel=1e-10)

    def test_eta_one_at_kappa2(self):
        for d, m in (CASE_II, CASE_III):
            state = eq.fully_supported_state(en.critical_set(d, m).kappa2, d, m)
            assert state.eta == pytest.approx(1.0, abs=1e-9)

    def test_branch_birth_is_uniform_like(self):
        k1 = en.critical_set(2, 0.5).kappa1
        assert eq.fully_supported_state(k1 * (1.0 + 1e-6), 2, 0.5).eta > 1e2

    @pytest.mark.parametrize(
        "d, m, kappa",
        [
            (2, 0.5, 5.317361552716548),  # kappa1 itself, window is open there
            (2, 0.5, 4.0),
            (3, 0.25, 9.0),
            (3, 0.25, 14.5),  # above kappa2
            (5, 0.3, 17.0),  # below kappa2
            (5, 0.3, 20.5),  # above kappa1
        ],
    )
    def test_out_of_window(self, d, m, kappa):
        with pytest.raises(OutOfWindowError):
            eq.fully_supported_state(kappa, d, m)


class TestFullySupportedState:
    @pytest.mark.parametrize("d, m, kappa", [(2, 0.5, 8.0), (3, 0.25, 11.0), (5, 0.3, 18.5)])
    def test_mass_and_moment(self, d, m, kappa):
        state = eq.fully_supported_state(kappa, d, m)
        mass = sphere_average(
            lambda t: eq.fully_supported_density(state, t, d, m), d, nodes=500
        )
        moment = sphere_average(
            lambda t: eq.fully_supported_density(state, t, d, m) * math.cos(t), d, nodes=500
        )
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert moment == pytest.approx(state.s, abs=1e-8)

    def test_interior_condition(self):
        state = eq.fully_supported_state(8.0, 2, 0.5)
        assert -state.lambda_ > state.kappa * state.s
        assert 0.0 < state.s < 1.0
        assert state.eta > 1.0

    def test_birth_from_uniform(self):
        k1 = en.critical_set(2, 0.5).kappa1
        state = eq.fully_supported_state(k1 * (1.0 + 1e-6), 2, 0.5)
        assert state.s <= 1e-2
        uniform = 1.0 / sphere_geometry(2).area_sd
        for theta in np.linspace(0.0, math.pi, 7):
            value = eq.fully_supported_density(state, float(theta), 2, 0.5)
            assert value == pytest.approx(uniform, rel=1e-2)

    def test_density_pointwise(self):
        d, m = 2, 0.5
        state = eq.fully_supported_state(8.0, d, m)
        mid = eq.fully_supported_density(state, math.pi / 2.0, d, m)
        expected = (m / (1.0 - m)) ** (1.0 / (1.0 - m)) * (-state.lambda_) ** (1.0 / (m - 1.0))
        assert mid == pytest.approx(expected, rel=1e-12)
        assert eq.fully_supported_density(state, 0.0, d, m) > eq.fully_supported_density(
            state, math.pi, d, m
        )

    def test_density_in_range_whose_prefactor_is_not(self):
        # at m = 0.995 the factor (m / (1 - m))^(1/(1-m)) = 199^200 leaves
        # double range, while the density of a solved state does not
        d, m = 3, 0.995
        state = eq.fully_supported_state(3.0 * en.critical_set(d, m).kappa1, d, m)
        for theta in (0.0, 1.0, math.pi):
            expected = mp.mpf(m) / (1 - mp.mpf(m)) / (-state.lambda_ - state.kappa * state.s * mp.cos(theta))
            density = eq.fully_supported_density(state, theta, d, m)
            assert density == pytest.approx(float(expected ** (1 / (1 - mp.mpf(m)))), rel=1e-10)

    @pytest.mark.parametrize(
        "kappa, d, m", [(1e9, 2, 0.5), (1e9, 3, 0.5), (1e11, 1, 0.3), (1e12, 4, 0.9)]
    )
    def test_a_root_past_double_precision_is_a_typed_error(self, kappa, d, m):
        # in case i at large kappa, eta - 1 falls below double resolution and
        # s = i1 / i0 rounds to 1 or above: the solve ends in a tolerance
        # error that names kappa, eta - 1 and s, not in a state whose energy
        # then blames a parameter
        with pytest.raises(ToleranceNotMetError, match=r"centre-of-mass norm s=1\.0") as exc:
            eq.fully_supported_state(kappa, d, m)
        assert f"at kappa={kappa!r}, eta - 1 = " in str(exc.value)
        with pytest.raises(ToleranceNotMetError) as report:
            en.classify_minimizer(kappa, d, m)
        assert str(report.value) == str(exc.value)
        # four decades below, the state is solved
        assert 0.0 < eq.fully_supported_state(kappa / 10.0**4, d, m).s < 1.0


class TestFullySupportedStates:
    @staticmethod
    def grid(d, m):
        """Kappas across the branch window, its ends, and some outside it."""
        crit = en.critical_set(d, m)
        ends = [crit.kappa1] if crit.kappa2 is None else [crit.kappa1, crit.kappa2]
        lo, hi = min(ends), max(ends) if crit.kappa2 else 3.0 * crit.kappa1
        return [-1.0, 0.5 * lo, *ends, *np.linspace(lo, hi, 15)[1:-1].tolist(), 1.2 * hi]

    @staticmethod
    def check_one_solve_per_kappa(kappas, states, d, m):
        """states hold what fully_supported_state gives at each kappa: the state, or its error."""
        assert len(states) == len(kappas)
        solved = 0
        for kappa, got in zip(kappas, states):
            try:
                expected = eq.fully_supported_state(kappa, d, m)
            except FastSphereError as exc:
                assert type(got) is type(exc) and got.__traceback__ is None
                continue
            solved += 1
            assert got == expected and got.moments == expected.moments
        assert solved >= 13

    @pytest.mark.parametrize("d, m", REFERENCE_PAIRS)
    def test_matches_one_solve_per_kappa(self, d, m):
        # each solve takes the same steps alone as among the others
        kappas = self.grid(d, m)
        self.check_one_solve_per_kappa(kappas, eq.fully_supported_states(kappas, d, m), d, m)

    @pytest.mark.parametrize("d, m", REFERENCE_PAIRS)
    def test_single_kappa_equals_fully_supported_state(self, d, m):
        # fully_supported_state is the one-kappa solve: the same state, or
        # its error raised
        kappas = self.grid(d, m)
        self.check_one_solve_per_kappa(kappas, self.one_at_a_time(kappas, d, m), d, m)

    @pytest.mark.parametrize("d, m", REFERENCE_PAIRS)
    def test_energy_takes_the_moments_of_the_solve(self, monkeypatch, d, m):
        # both energy routes use the moments the lockstep solve held, so the
        # energy at a root needs no second quadrature and is unchanged
        states = eq.fully_supported_states(self.grid(d, m), d, m)
        states = [s for s in states if not isinstance(s, FastSphereError)]
        expected = [
            en.energy_fully_supported(dataclasses.replace(s, moments=None), d, m) for s in states
        ]
        q = 1.0 / (m - 1.0)
        for state in states:
            assert state.moments == quadrature._integral(state.eta_minus_1, q, d)

        def no_integral(*args):
            raise AssertionError("the energy recomputed the moments")

        monkeypatch.setattr(quadrature, "_integral", no_integral)
        assert [en.energy_fully_supported(s, d, m) for s in states] == expected

    def test_one_lockstep_gives_each_request_its_own_entries(self, monkeypatch):
        # the passes of several (d, m) solved in one lockstep, one of them
        # twice: each request's entries are, bit for bit, those of its own
        # call, states and errors alike (bad kappas, kappas out of the window)
        def entries(found):
            return [
                (type(s), str(s), s.__traceback__)
                if isinstance(s, FastSphereError)
                else (s, s.moments)
                for s in found
            ]

        requests = [(eq._constants(d, m), self.grid(d, m)) for d, m in REFERENCE_PAIRS]
        requests.append((eq._constants(*REFERENCE_PAIRS[0]), [8.0, "x", 2.0, 6.0]))
        locksteps = record_calls(monkeypatch, eq, "lockstep_roots")
        together = eq._fully_supported_states(requests)
        assert len(locksteps) == 1
        alone = [eq._fully_supported_states([request])[0] for request in requests]
        assert [entries(found) for found in together] == [entries(found) for found in alone]
        kinds = {type(s) for found in together for s in found}
        assert kinds == {eq.FullySupportedState, InvalidParamError, OutOfWindowError}

    def test_the_lockstep_asks_each_group_in_zeta_order(self, monkeypatch):
        # neighbouring meshes of a group take similar numbers of free panels
        # from the eta = 1 tables, which every round of the lockstep shares
        calls = record_calls(monkeypatch, quadrature, "_integrals")
        states = eq.fully_supported_states(np.linspace(4.0, 16.0, 41).tolist(), *CASE_I)
        assert sum(isinstance(s, eq.FullySupportedState) for s in states) >= 30
        tables = calls[0][1]
        assert type(tables) is dict and all(shared is tables for _, shared in calls)
        groups = [list(zetas) for asked, _ in calls for zetas in asked.values()]
        assert max(map(len, groups)) > 30
        assert all(a < b for zetas in groups for a, b in zip(zetas, zetas[1:]))

    @staticmethod
    def one_at_a_time(kappas, d, m):
        return [eq.fully_supported_states([kappa], d, m)[0] for kappa in kappas]

    def test_invalid_kappa_fails_alone(self):
        states = eq.fully_supported_states([-1.0, math.nan, 8.0], 2, 0.5)
        assert [type(s) for s in states[:2]] == [InvalidParamError, InvalidParamError]
        assert states[2] == eq.fully_supported_state(8.0, 2, 0.5)

    def test_single_invalid_kappa_fails_without_traceback(self):
        states = self.one_at_a_time([-1.0, math.nan], 2, 0.5)
        assert [type(s) for s in states] == [InvalidParamError, InvalidParamError]
        assert all(s.__traceback__ is None for s in states)

    @staticmethod
    def check_failures_leave_no_cycles(monkeypatch, solve):
        # invalid and out-of-window kappas, and solves whose bracket misses
        # the root (a zeta ceiling far below the branch birth) all fail
        monkeypatch.setattr(eq, "_ZETA_CEIL", 1e-3)
        d, m = CASE_II
        kappas = [-1.0, 0.5 * KAPPA1[CASE_II], 9.4, 9.5, 12.0, 20.0]
        gc.collect()
        gc.disable()
        try:
            # the list goes as soon as its types are read; anything it kept
            # alive through a cycle would be left for the collector
            types = [type(s) for s in solve(kappas, d, m)]
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0
        assert types == [
            InvalidParamError, OutOfWindowError, BracketFailureError, BracketFailureError,
            eq.FullySupportedState, OutOfWindowError,
        ]

    def test_stored_errors_leave_no_reference_cycles(self, monkeypatch):
        self.check_failures_leave_no_cycles(monkeypatch, eq.fully_supported_states)

    def test_single_kappa_errors_leave_no_reference_cycles(self, monkeypatch):
        self.check_failures_leave_no_cycles(monkeypatch, self.one_at_a_time)


class TestSBar:
    def test_closed_form_values(self):
        assert eq.s_bar(3, 0.25) == pytest.approx(0.8, rel=1e-14)
        assert eq.s_bar(5, 0.3) == pytest.approx(0.4, rel=1e-14)

    def test_quadrature_cross_check(self):
        assert eq.s_bar(4, 0.2) == pytest.approx(com_norm(1.0, 4, 0.2), abs=1e-8)

    def test_rejects_case_i(self):
        with pytest.raises(NotIntegrableError):
            eq.s_bar(2, 0.5)


class TestKappa2:
    def test_dual_oracle_consistency(self):
        # the closed form against 1 / (1/kappa) at eta = 1 by quadrature
        for d, m in ((3, 0.25), (4, 0.2), (5, 0.3)):
            quad = 1.0 / inverse_kappa(1.0, d, m)
            assert en.critical_set(d, m).kappa2 == pytest.approx(quad, rel=1e-8)

    def test_frozen_values(self):
        for pair, value in KAPPA2.items():
            assert en.critical_set(*pair).kappa2 == pytest.approx(value, rel=1e-12)

    def test_published_value_case_iii(self):
        # the published 17.8623 for (5, 0.3) agrees with both oracles
        assert en.critical_set(5, 0.3).kappa2 == pytest.approx(17.8623, abs=5e-4)

    def test_published_value_case_ii_disagrees(self):
        # the published 12.4453 for (3, 0.25) does not; both oracles sit near 14.056
        assert abs(en.critical_set(3, 0.25).kappa2 - 12.4453) > 1.0

    def test_diverges_at_upper_threshold(self):
        values = [en.critical_set(3, 1.0 / 3.0 - 10.0**-k).kappa2 for k in (2, 3, 4, 5)]
        assert values == sorted(values)
        assert values[-1] > 10.0 * values[0]

    def test_rejects_case_i(self):
        # no handoff to the measure-valued family where rho_bar does not exist
        assert en.critical_set(2, 0.5).kappa2 is None

    @pytest.mark.parametrize("d, m", [(5, 0.3), (12, 0.05), (80, 0.3), (200, 0.5), (200, 0.9)])
    def test_matches_40_digit_value(self, d, m):
        # m/(1-m) (|S^(d-1)| I0)^(1-m) (q+d)/(-q) with I0 = 2^(q+d-1) B(q + d/2, d/2)
        with mp.workdps(40):
            dd, mm = mp.mpf(d), mp.mpf(m)
            q = 1 / (mm - 1)
            i0 = 2 ** (q + dd - 1) * mp.beta(q + dd / 2, dd / 2)
            area_sdm1 = 2 * mp.pi ** (dd / 2) / mp.gamma(dd / 2)
            want = mm / (1 - mm) * (area_sdm1 * i0) ** (1 - mm) * (q + dd) / -q
        assert en.critical_set(d, m).kappa2 == pytest.approx(float(want), rel=4e-15, abs=0.0)


class TestAlphaRoots:
    def test_case_iii_below_fold_empty(self):
        k3 = en.critical_set(5, 0.3).kappa3
        assert eq.alpha_roots(k3 * 0.99, 5, 0.3) == []

    def test_case_iii_tangent_double_root(self):
        crit = en.critical_set(5, 0.3)
        k3, alpha_bar = crit.kappa3, crit.alpha_bar
        roots = eq.alpha_roots(k3, 5, 0.3)
        assert len(roots) == 2
        for root in roots:
            assert root == pytest.approx(alpha_bar, abs=1e-5)
        assert alpha_bar == pytest.approx(0.32 / 1.02, rel=1e-12)

    def test_case_iii_fold_pair(self):
        alpha_bar = en.critical_set(5, 0.3).alpha_bar
        lower, upper = eq.alpha_roots(16.5, 5, 0.3)
        assert 0.0 < lower < alpha_bar < upper < 1.0

    def test_case_iii_single_past_kappa2(self):
        roots = eq.alpha_roots(18.5, 5, 0.3)
        assert len(roots) == 1
        alpha_bar = en.critical_set(5, 0.3).alpha_bar
        assert roots[0] > alpha_bar

    def test_case_ii_root_vanishes_at_kappa2(self):
        k2 = en.critical_set(3, 0.25).kappa2
        assert eq.alpha_roots(k2, 3, 0.25) == []
        assert eq.alpha_roots(k2 * 0.999, 3, 0.25) == []
        (root,) = eq.alpha_roots(k2 * (1.0 + 1e-10), 3, 0.25)
        assert 0.0 < root < 1e-6

    def test_case_ii_saturates(self):
        (root,) = eq.alpha_roots(100.0 * en.critical_set(3, 0.25).kappa2, 3, 0.25)
        assert root > 0.99
        assert root == pytest.approx(ALPHA_AT_100K2_3_025, rel=1e-9)

    def test_roots_solve_the_equation(self):
        sb = eq.s_bar(5, 0.3)
        k2 = en.critical_set(5, 0.3).kappa2
        for kappa in (16.5, 18.5):
            for alpha in eq.alpha_roots(kappa, 5, 0.3):
                lhs = kappa * (sb + alpha * (1.0 - sb))
                rhs = (1.0 - alpha) ** (0.3 - 1.0) * k2 * sb
                assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, kappa))

    def test_rejects_case_i(self):
        with pytest.raises(NotIntegrableError):
            eq.alpha_roots(10.0, 2, 0.5)


class TestKappa3:
    def test_frozen_values(self):
        crit = en.critical_set(5, 0.3)
        k3, alpha_bar = crit.kappa3, crit.alpha_bar
        assert k3 == pytest.approx(KAPPA3_5_03, rel=1e-12)
        assert alpha_bar == pytest.approx(ALPHA_BAR_5_03, rel=1e-12)

    def test_ratio_matches_published_figures(self):
        crit = en.critical_set(5, 0.3)
        ratio = crit.kappa3 / crit.kappa2
        assert ratio == pytest.approx(0.88502, abs=1e-3)
        assert ratio == pytest.approx(15.8088 / 17.8623, abs=1e-4)

    def test_tangency_identities(self):
        d, m = 5, 0.3
        crit = en.critical_set(d, m)
        k3, alpha_bar, k2 = crit.kappa3, crit.alpha_bar, crit.kappa2
        sb = eq.s_bar(d, m)
        f_val = k3 * (sb + alpha_bar * (1.0 - sb))
        g_val = (1.0 - alpha_bar) ** (m - 1.0) * k2 * sb
        assert f_val == pytest.approx(g_val, abs=1e-10)
        f_slope = k3 * (1.0 - sb)
        g_slope = (1.0 - m) * (1.0 - alpha_bar) ** (m - 2.0) * k2 * sb
        assert f_slope == pytest.approx(g_slope, abs=1e-10)

    def test_wrong_regime(self):
        # the fold exists in case iii only
        for d, m in (CASE_II, CASE_I, (3, 0.9)):
            crit = en.critical_set(d, m)
            assert (crit.kappa3, crit.alpha_bar) == (None, None)


class TestRhoBar:
    def test_mass_and_moment(self):
        d, m = 3, 0.25
        q = 1.0 / (m - 1.0)
        dwd = sphere_geometry(d).area_sdm1
        # recover the implemented normalization from one density sample, then
        # integrate the defining kernel with the independent oracle
        theta_ref = 1.3
        kernel = (2.0 * math.sin(0.5 * theta_ref) ** 2) ** q
        norm = kernel / (dwd * eq.rho_bar_density(theta_ref, d, m))
        mass = mp_theta_integral(1.0, q, 0, d) / norm
        moment = mp_theta_integral(1.0, q, 1, d) / norm
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert moment == pytest.approx(eq.s_bar(d, m), abs=1e-8)

    def test_divergence_and_minimum(self):
        assert eq.rho_bar_density(0.0, 3, 0.25) == math.inf
        grid = np.linspace(1e-3, math.pi, 200)
        values = [eq.rho_bar_density(float(t), 3, 0.25) for t in grid]
        assert min(values) == values[-1]  # global minimum at theta = pi

    def test_rejects_case_i(self):
        with pytest.raises(NotIntegrableError):
            eq.rho_bar_density(1.0, 2, 0.5)


# every reader of rho_bar, with arguments at which it would otherwise succeed
RHO_BAR_READERS = {
    "s_bar": lambda d, m: eq.s_bar(d, m),
    "alpha_roots": lambda d, m: eq.alpha_roots(10.0, d, m),
    "singular_state": lambda d, m: eq.singular_state(10.0, d, m),
    "rho_bar_density": lambda d, m: eq.rho_bar_density(1.0, d, m),
    "energy_singular": lambda d, m: en.energy_singular(0.5, 10.0, d, m),
}


@pytest.mark.parametrize("d, m", [(2, 0.5), (3, 0.9)])
@pytest.mark.parametrize("reader", RHO_BAR_READERS)
def test_rho_bar_readers_reject_case_i(reader, d, m):
    # rho_bar exists only for m < 1 - 2/d
    with pytest.raises(NotIntegrableError, match="not integrable"):
        RHO_BAR_READERS[reader](d, m)


class TestSingularState:
    def test_multiplier_relation(self):
        for d, m, kappa, branch in (
            (3, 0.25, 20.0, "upper"),
            (5, 0.3, 16.5, "upper"),
            (5, 0.3, 16.5, "lower"),
        ):
            state = eq.singular_state(kappa, d, m, branch=branch)
            # the multiplier from the unit mass of (1 - alpha) rho_bar
            c = eq._constants(d, m)
            lam = -(m / (1.0 - m)) * (1.0 - state.alpha) ** m * (c.area_sdm1 * c.i0) ** (1.0 - m)
            lhs = -lam / (1.0 - state.alpha)
            rhs = kappa * (state.alpha + (1.0 - state.alpha) * state.s_bar)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_no_branch_raises(self):
        with pytest.raises(OutOfWindowError):
            eq.singular_state(10.0, 3, 0.25)
        with pytest.raises(OutOfWindowError):
            eq.singular_state(18.5, 5, 0.3, branch="lower")

    def test_bad_branch_fails_before_the_solve(self):
        # below kappa3 no measure-valued state exists, and the branch name
        # is still the error reported
        with pytest.raises(InvalidParamError, match="branch must be"):
            eq.singular_state(10.0, *CASE_III, "middle")

    def test_fold_has_the_upper_state_only(self):
        # the tangent double root at kappa3 is one state, as equilibria_at reports it
        crit = en.critical_set(*CASE_III)
        k3, alpha_bar = crit.kappa3, crit.alpha_bar
        assert eq.singular_state(k3, *CASE_III).alpha == alpha_bar
        with pytest.raises(OutOfWindowError, match="no lower measure-valued branch"):
            eq.singular_state(k3, *CASE_III, branch="lower")

    @pytest.mark.parametrize("kappa", [15.0, KAPPA3_5_03, 16.5, 18.5])
    def test_branches_are_those_equilibria_at_reports(self, kappa):
        (rows,) = en.equilibria_at([kappa], *CASE_III)
        reported = {row[0]: row[1] for row in rows if row[0].startswith("singular_")}
        found = {}
        for branch in ("upper", "lower"):
            try:
                found["singular_" + branch] = eq.singular_state(kappa, *CASE_III, branch).alpha
            except OutOfWindowError:
                pass
        assert found == reported

