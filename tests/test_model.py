import math

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from fastsphere.errors import InvalidParamError, ThresholdDegenerateError
from fastsphere.model import (
    RegimeCase,
    check_kappa,
    classify_regime,
    sphere_geometry,
    validate_params,
)


def test_sphere_geometry_standard_values():
    g1 = sphere_geometry(1)
    assert g1.area_sd == pytest.approx(2.0 * math.pi, rel=1e-15)
    g2 = sphere_geometry(2)
    assert g2.area_sd == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert g2.area_sdm1 == pytest.approx(2.0 * math.pi, rel=1e-15)
    g3 = sphere_geometry(3)
    assert g3.area_sd == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert g3.area_sdm1 == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_sphere_area_consistency_across_dimensions():
    # |S^{d-1}| from d * w_d must match the surface-area formula one dimension down
    for d in range(1, 11):
        geo = sphere_geometry(d)
        direct = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
        assert geo.area_sdm1 == pytest.approx(direct, rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 100, 340, 341])
def test_sphere_geometry_unchanged_within_gamma_range(d):
    geo = sphere_geometry(d)
    assert geo.area_sd == 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    wd = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    assert geo.area_sdm1 == d * wd


@pytest.mark.parametrize("d", [342, 343, 400, 437])
def test_sphere_geometry_beyond_gamma_range(d):
    # math.gamma overflows here; the areas come from lgamma
    with pytest.raises(OverflowError):
        math.gamma(d / 2.0 + 1.0)
    geo = sphere_geometry(d)
    with mp.workdps(30):
        area_sd = 2 * mp.pi ** (mp.mpf(d + 1) / 2) / mp.gamma(mp.mpf(d + 1) / 2)
        area_sdm1 = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
    assert geo.area_sd == pytest.approx(float(area_sd), rel=1e-12, abs=0.0)
    assert geo.area_sdm1 == pytest.approx(float(area_sdm1), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [438, 439, 1000, 10**6])
def test_sphere_geometry_below_double_range_fails_typed(d):
    with pytest.raises(InvalidParamError, match="double range"):
        sphere_geometry(d)


@pytest.mark.parametrize(
    "d, m, tag",
    [
        (2, 0.5, RegimeCase.CASE_I),
        (3, 0.25, RegimeCase.CASE_II),
        (5, 0.3, RegimeCase.CASE_III),
        (3, 0.9, RegimeCase.CASE_I),
        (1, 0.05, RegimeCase.CASE_I),
        (2, 0.01, RegimeCase.CASE_I),
        (4, 0.45, RegimeCase.CASE_II),
        (4, 0.2, RegimeCase.CASE_III),
    ],
)
def test_classify_regime(d, m, tag):
    assert classify_regime(d, m).tag is tag


def test_d3_never_case_iii():
    for m in (0.01, 0.1, 0.2, 0.3):
        assert classify_regime(3, m).tag is not RegimeCase.CASE_III


def test_regime_thresholds_recorded():
    regime = classify_regime(5, 0.3)
    assert regime.threshold_high == pytest.approx(1.0 - 2.0 / 5)
    assert regime.threshold_low == pytest.approx(1.0 - 2.0 / 4)
    assert classify_regime(1, 0.5).threshold_low is None


@pytest.mark.parametrize("d, m", [(3, 1.0 / 3.0), (4, 0.5), (5, 0.5), (3, 1.0 / 3.0 + 5e-10)])
def test_threshold_exclusion_zone(d, m):
    with pytest.raises(ThresholdDegenerateError):
        classify_regime(d, m)


@pytest.mark.parametrize(
    "d, m, kappa",
    [(0, 0.5, 1.0), (2, 0.0, 1.0), (2, 1.0, 1.0), (2, -0.1, 1.0), (2, 0.5, 0.0),
     (2, 0.5, -3.0), (2.5, 0.5, 1.0), (2, math.nan, 1.0)],
)
def test_invalid_params_rejected(d, m, kappa):
    # each case has one fault: validate_params rejects one in (d, m) and
    # admits the rest, check_kappa one in kappa
    if kappa > 0.0:
        with pytest.raises(InvalidParamError):
            validate_params(d, m)
        assert check_kappa(kappa) == kappa
    else:
        validate_params(d, m)
        with pytest.raises(InvalidParamError):
            check_kappa(kappa)


def test_validate_params_returns_the_thresholds():
    # the one definition of 1 - 2/d and 1 - 2/(d-1), which classify_regime reads
    assert validate_params(5, 0.3) == (1.0 - 2.0 / 5, 1.0 - 2.0 / 4)
    assert validate_params(1, 0.3) == (-1.0, None)
    for d, m in ((1, 0.5), (2, 0.3), (5, 0.3), (7, 0.7)):
        regime = classify_regime(d, m)
        assert (regime.threshold_high, regime.threshold_low) == validate_params(d, m)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, -1e-300])
def test_invalid_kappa_rejected(kappa):
    with pytest.raises(InvalidParamError):
        check_kappa(kappa)


@given(
    d=st.integers(min_value=1, max_value=8),
    m=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
)
def test_regime_predicates_partition(d, m):
    thr_high = 1.0 - 2.0 / d
    thr_low = 1.0 - 2.0 / (d - 1) if d >= 2 else None
    if abs(m - thr_high) < 2e-9 or (thr_low is not None and abs(m - thr_low) < 2e-9):
        return  # excluded zone
    tag = classify_regime(d, m).tag
    memberships = [
        thr_high < m < 1.0,
        thr_low is not None and thr_low < m < thr_high,
        thr_low is not None and 0.0 < m < thr_low,
    ]
    assert memberships.count(True) == 1
    assert tag is (RegimeCase.CASE_I, RegimeCase.CASE_II, RegimeCase.CASE_III)[
        memberships.index(True)
    ]
