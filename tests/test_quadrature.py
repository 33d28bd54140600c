import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import I0_ETA1_Q43_D3, I1_ETA1_Q43_D3, LGAMMA_ONE_SIXTH, mp_theta_integral
from fastsphere import quadrature
from fastsphere.errors import InvalidParamError, NotIntegrableError, ToleranceNotMetError
from fastsphere.quadrature import (
    ThetaIntegralSpec,
    eta1_closed_form,
    log_gamma,
    theta_integral,
)


def integral(eta, q, p, d, rel_tol=1e-10):
    return theta_integral(ThetaIntegralSpec(eta, q, p, d), rel_tol)


def test_trivial_values():
    assert integral(2.0, 0.0, 0, 2) == pytest.approx(2.0, abs=1e-14)
    assert integral(2.0, 0.0, 1, 2) == pytest.approx(0.0, abs=1e-14)


def test_exact_antiderivative_case():
    # q = -2, d = 2 integrates in closed form to 2 / (eta^2 - 1)
    for eta in (1.5, 2.0, 7.0):
        assert integral(eta, -2.0, 0, 2) == pytest.approx(2.0 / (eta**2 - 1.0), rel=1e-12)


# frozen from the 30-digit oracle in conftest
FROZEN = [
    (2.0, -4.0 / 3.0, 0, 3, 0.6950837968846586),
    (2.0, -4.0 / 3.0, 1, 3, 0.12450876005706994),
    (10.0, -1.43, 1, 5, 0.0010486632676221593),
    (1.0 + 1e-8, -2.0, 0, 2, 100000000.10774710),
    (1.0 + 1e-12, -2.0, 0, 2, 999911107319.76998),
    (1.0 + 1e-8, -4.0 / 3.0, 0, 3, 8.233082807655379),
    (1.0 + 1e-12, -4.0 / 3.0, 0, 3, 8.579237951665578),
    (1.0 + 1e-7, -10.0 / 7.0, 1, 5, 0.8461887539169005),
]


@pytest.mark.parametrize("eta, q, p, d, expected", FROZEN)
def test_frozen_oracle_values(eta, q, p, d, expected):
    assert integral(eta, q, p, d) == pytest.approx(expected, rel=1e-9)


def test_fresh_points_against_live_oracle():
    for eta, q, p, d in ((3.7, -1.6, 1, 4), (1.2, -0.8, 0, 6), (1.0 + 3e-7, -1.25, 0, 4)):
        assert integral(eta, q, p, d) == pytest.approx(
            mp_theta_integral(eta, q, p, d), rel=1e-9
        )


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("eta_minus_1", [1e-9, 5e-7, 2e-6, 1e-3, 1.0, 1e3, 1e6])
def test_fused_moments_against_live_oracle(eta_minus_1, d):
    # one kernel call returns I(eta, q, 0), I(eta, q, 1) and I(eta, q + 1, 0)
    q = 1.0 / (0.05 + 0.14 * d - 1.0)  # m from 0.19 to 0.89
    eta = 1.0 + eta_minus_1
    i0, i1, i_ent = quadrature._integral(eta - 1.0, q, d, 1e-10)
    assert i0 == pytest.approx(mp_theta_integral(eta, q, 0, d), rel=1e-9)
    assert i1 == pytest.approx(mp_theta_integral(eta, q, 1, d), rel=1e-9)
    assert i_ent == pytest.approx(mp_theta_integral(eta, q + 1.0, 0, d), rel=1e-9)


@pytest.mark.parametrize("d, m", [(3, 0.25), (5, 0.3), (4, 0.4999), (8, 0.74999)])
def test_fused_moments_at_eta_one_match_closed_form(d, m):
    q = 1.0 / (m - 1.0)
    i0, i1, i_ent = quadrature._integral(0.0, q, d, 1e-10)
    assert i0 == pytest.approx(eta1_closed_form(q, 0, d), rel=1e-10)
    assert i1 == pytest.approx(eta1_closed_form(q, 1, d), rel=1e-10)
    assert i_ent == pytest.approx(eta1_closed_form(q + 1.0, 0, d), rel=1e-10)


def test_one_cache_miss_serves_all_three_moments():
    quadrature._integral.cache_clear()
    eta, q, d = 1.0 + 3.3e-4, -1.7, 4
    i0 = integral(eta, q, 0, d)
    i1 = integral(eta, q, 1, d)
    i_ent = quadrature._integral(eta - 1.0, q, d, 1e-10)[2]
    info = quadrature._integral.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert (i0, i1, i_ent) == quadrature._integral(eta - 1.0, q, d, 1e-10)
    assert i_ent == pytest.approx(integral(eta, q + 1.0, 0, d), rel=1e-10)


def test_results_are_plain_floats():
    assert type(integral(2.5, -1.3, 1, 3)) is float
    assert all(type(x) is float for x in quadrature._integral(0.0, -1.3, 3, 1e-10))


def test_singular_endpoint_beta_value():
    # eta = 1, q = -4/3, d = 3 equals 2^(2/3) B(1/6, 3/2)
    beta = math.exp(log_gamma(1.0 / 6.0) + log_gamma(1.5) - log_gamma(1.0 / 6.0 + 1.5))
    expected = 2.0 ** (2.0 / 3.0) * beta
    assert expected == pytest.approx(I0_ETA1_Q43_D3, rel=1e-13)
    assert integral(1.0, -4.0 / 3.0, 0, 3) == pytest.approx(expected, rel=1e-10)
    assert eta1_closed_form(-4.0 / 3.0, 0, 3) == pytest.approx(expected, rel=1e-13)


def test_singular_endpoint_moment_value():
    assert eta1_closed_form(-4.0 / 3.0, 1, 3) == pytest.approx(I1_ETA1_Q43_D3, rel=1e-12)
    assert integral(1.0, -4.0 / 3.0, 1, 3) == pytest.approx(I1_ETA1_Q43_D3, rel=1e-10)
    # moment / mass ratio must equal 1 / ((1-m) d - 1)
    ratio = eta1_closed_form(-4.0 / 3.0, 1, 3) / eta1_closed_form(-4.0 / 3.0, 0, 3)
    assert ratio == pytest.approx(0.8, rel=1e-12)
    q = 1.0 / (0.3 - 1.0)
    ratio = eta1_closed_form(q, 1, 5) / eta1_closed_form(q, 0, 5)
    assert ratio == pytest.approx(0.4, rel=1e-12)


@pytest.mark.parametrize("d, m", [(3, 0.25), (4, 0.2), (4, 0.45), (5, 0.3), (6, 0.35)])
@pytest.mark.parametrize("p", [0, 1])
def test_closed_form_matches_quadrature_at_eta_one(d, m, p):
    q = 1.0 / (m - 1.0)
    assert integral(1.0, q, p, d) == pytest.approx(eta1_closed_form(q, p, d), rel=1e-10)


@pytest.mark.parametrize("d, m", [(4, 0.4999), (3, 0.3332), (6, 0.66666), (8, 0.74999)])
@pytest.mark.parametrize("p", [0, 1])
def test_closed_form_matches_near_integrability_threshold(d, m, p):
    # 2q + d down to ~1e-3: most of the mass sits below any representable
    # panel, carried by the analytic endpoint tail
    q = 1.0 / (m - 1.0)
    assert 0.0 < 2.0 * q + d < 0.05
    assert integral(1.0, q, p, d) == pytest.approx(eta1_closed_form(q, p, d), rel=1e-10)


def test_log_gamma_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
    assert log_gamma(1.0 / 6.0) == pytest.approx(LGAMMA_ONE_SIXTH, rel=1e-13)


def test_log_gamma_rejects_nonpositive():
    for x in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParamError):
            log_gamma(x)


def test_not_integrable_at_eta_one():
    # m = 0.5, d = 2: 2q + d - 1 = -3
    with pytest.raises(NotIntegrableError):
        integral(1.0, -2.0, 0, 2)
    with pytest.raises(NotIntegrableError):
        eta1_closed_form(-2.0, 0, 2)


def test_invalid_spec_rejected():
    with pytest.raises(InvalidParamError):
        integral(0.5, -1.0, 0, 2)
    with pytest.raises(InvalidParamError):
        integral(2.0, -1.0, 2, 2)
    with pytest.raises(InvalidParamError):
        integral(2.0, -1.0, 0, 0)
    with pytest.raises(InvalidParamError):
        theta_integral(ThetaIntegralSpec(2.0, -1.0, 0, 2), rel_tol=1e-3)
    with pytest.raises(InvalidParamError):
        theta_integral(ThetaIntegralSpec(2.0, -1.0, 0, 2), rel_tol=0.0)


def test_tolerance_not_met_when_budget_exhausted(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
    quadrature._integral.cache_clear()
    with pytest.raises(ToleranceNotMetError):
        integral(1.0 + 2e-6, -2.0, 0, 2)
    quadrature._integral.cache_clear()


@settings(max_examples=40, deadline=None)
@given(
    eta=st.floats(min_value=1.001, max_value=50.0),
    m=st.floats(min_value=0.05, max_value=0.95),
    shift=st.sampled_from([0.0, -1.0, 1.0]),
    p=st.integers(min_value=0, max_value=1),
    d=st.integers(min_value=1, max_value=6),
)
def test_self_consistency_across_tolerances(eta, m, shift, p, d):
    q = 1.0 / (m - 1.0) + shift
    tight = integral(eta, q, p, d, rel_tol=1e-10)
    loose = integral(eta, q, p, d, rel_tol=1e-6)
    assert tight == pytest.approx(loose, rel=1e-6, abs=1e-300)


@settings(max_examples=30, deadline=None)
@given(
    eta=st.floats(min_value=1.0 + 1e-9, max_value=30.0),
    m=st.floats(min_value=0.05, max_value=0.95),
    d=st.integers(min_value=1, max_value=6),
)
def test_moment_bounded_by_mass(eta, m, d):
    q = 1.0 / (m - 1.0)
    i0 = integral(eta, q, 0, d)
    i1 = integral(eta, q, 1, d)
    assert abs(i1) <= i0 * (1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    eta_lo=st.floats(min_value=1.0 + 1e-6, max_value=20.0),
    factor=st.floats(min_value=1.01, max_value=10.0),
    q=st.floats(min_value=-3.0, max_value=-0.1),
    d=st.integers(min_value=1, max_value=6),
)
def test_strictly_decreasing_in_eta(eta_lo, factor, q, d):
    assert integral(eta_lo, q, 0, d) > integral(eta_lo * factor, q, 0, d)
