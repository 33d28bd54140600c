"""Parameters, sphere geometry and diffusion-regime classification.

States live on the unit sphere S^d embedded in R^{d+1}.  The free energy
combines a fast-diffusion entropy with exponent 0 < m < 1 and a quadratic
(dipolar) attraction of strength kappa > 0.  Two thresholds of m,

    1 - 2/d        and        1 - 2/(d-1),

split (0, 1) into three ranges with qualitatively different equilibrium
branches.  For d in {1, 2} only the top range exists, and for d = 3 the
bottom range is empty.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParamError, ThresholdDegenerateError

# Exclusion zone around the regime thresholds.  Exactly on a threshold the
# branch function is constant in eta and every bracketing argument fails,
# so nearby values are refused rather than guessed at.
THRESHOLD_TOL = 1e-9


class RegimeCase(str, Enum):
    CASE_I = "case_i"
    CASE_II = "case_ii"
    CASE_III = "case_iii"


@dataclass(frozen=True)
class Regime:
    """Which m-range applies for a given dimension."""

    tag: RegimeCase
    threshold_low: float | None  # 1 - 2/(d-1); None for d = 1
    threshold_high: float  # 1 - 2/d


@dataclass(frozen=True)
class SphereGeometry:
    """Surface and volume constants of the unit d-sphere."""

    area_sd: float  # |S^d|
    area_sdm1: float  # |S^{d-1}| = d * w_d, w_d the volume of the unit d-ball


@dataclass(frozen=True)
class ModelParams:
    """Validated (d, m, kappa) triple."""

    d: int
    m: float
    kappa: float

    def __post_init__(self) -> None:
        validate_params(self.d, self.m, self.kappa)


def check_dimension(d) -> int:
    if isinstance(d, bool) or not math.isfinite(float(d)) or int(d) != d or d < 1:
        raise InvalidParamError(f"dimension d must be an integer >= 1, got {d!r}")
    return int(d)


def validate_params(d, m: float, kappa: float | None = None) -> None:
    """Check the full parameter invariants, including threshold exclusion."""
    d = check_dimension(d)
    m = float(m)
    if not math.isfinite(m) or not 0.0 < m < 1.0:
        raise InvalidParamError(f"diffusion exponent m must lie in (0, 1), got {m!r}")
    thr_high = 1.0 - 2.0 / d
    if abs(m - thr_high) < THRESHOLD_TOL:
        raise ThresholdDegenerateError(
            f"m={m!r} is within {THRESHOLD_TOL} of the threshold 1 - 2/d = {thr_high!r}"
        )
    if d >= 2:
        thr_low = 1.0 - 2.0 / (d - 1)
        if abs(m - thr_low) < THRESHOLD_TOL:
            raise ThresholdDegenerateError(
                f"m={m!r} is within {THRESHOLD_TOL} of the threshold "
                f"1 - 2/(d-1) = {thr_low!r}"
            )
    if kappa is not None:
        kappa = float(kappa)
        if not math.isfinite(kappa) or kappa <= 0.0:
            raise InvalidParamError(f"interaction strength kappa must be > 0, got {kappa!r}")


def classify_regime(d, m: float) -> Regime:
    """Classify (d, m) into one of the three m-ranges.

    CaseI:   1 - 2/d < m < 1         (uniform state plus one supported branch)
    CaseII:  1 - 2/(d-1) < m < 1 - 2/d
    CaseIII: 0 < m < 1 - 2/(d-1)

    Raises ThresholdDegenerateError within ``THRESHOLD_TOL`` of a threshold
    and InvalidParamError off the admissible ranges.
    """
    validate_params(d, m)
    d = int(d)
    m = float(m)
    thr_high = 1.0 - 2.0 / d
    thr_low = None if d == 1 else 1.0 - 2.0 / (d - 1)
    if m > thr_high:
        tag = RegimeCase.CASE_I
    elif thr_low is not None and m > thr_low:
        tag = RegimeCase.CASE_II
    else:
        tag = RegimeCase.CASE_III
    return Regime(tag=tag, threshold_low=thr_low, threshold_high=thr_high)


def sphere_geometry(d) -> SphereGeometry:
    """Surface areas |S^d| and |S^{d-1}| = d w_d, w_d the volume of the unit d-ball.

    From d = 342 on math.gamma overflows, and the areas are taken from
    lgamma instead.  They underflow from d = 438 on; there an
    InvalidParamError is raised, since no quantity of the model keeps its
    precision once they leave the normal double range.
    """
    d = check_dimension(d)
    try:
        area_sd = 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
        area_sdm1 = d * (math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0))
    except OverflowError:
        area_sd = _area_from_lgamma(d + 1)
        area_sdm1 = _area_from_lgamma(d)
        if not area_sd >= sys.float_info.min:  # |S^d| < |S^(d-1)| here
            raise InvalidParamError(
                f"the sphere areas leave the normal double range at d={d} "
                f"(|S^d|={area_sd!r}, |S^(d-1)|={area_sdm1!r})"
            ) from None
    return SphereGeometry(area_sd=area_sd, area_sdm1=area_sdm1)


def _area_from_lgamma(n: int) -> float:
    """|S^(n-1)| = 2 pi^(n/2) / Gamma(n/2), formed in log space."""
    return 2.0 * math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))
