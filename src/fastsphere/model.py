"""Parameters, sphere geometry and diffusion-regime classification.

States live on the unit sphere S^d embedded in R^{d+1}.  The free energy
combines a fast-diffusion entropy with exponent 0 < m < 1 and a quadratic
(dipolar) attraction of strength kappa > 0.  Two thresholds of m,

    1 - 2/d        and        1 - 2/(d-1),

split (0, 1) into three ranges with qualitatively different equilibrium
branches.  For d in {1, 2} only the top range exists, and for d = 3 the
bottom range is empty.  A public call checks (d, m), by validate_params,
before kappa (check_kappa), so of two faults it reports the one in (d, m),
and computes with the int d and float m that validate_params returns.
Every public number, d and m, kappa, alpha, theta, eta and q and the
fields of a state, goes through one reader, _real(value, rule, test): it
reads the value with float() and checks test on what it read, and either
failure raises InvalidParamError(f"{rule}, got ...").

Every equilibrium condition reduces to the polar integral family

    I(eta, q, p, d) = int_0^pi (eta - cos t)^q  sin^{d-1} t  cos^p t  dt,

whose public front lives here too: theta_integral(eta, q, p, d) and its
one accuracy DEFAULT_REL_TOL, and eta1_closed_form, the Beta function
value at eta = 1.  Like sphere_geometry it is a Gamma-function closed
form on the standard library, so the closed forms and the critical
strengths built from them load no numpy.  theta_integral imports the numpy
kernel (quadrature) when it is called; the closed form shares no module
with that quadrature, which at eta = 1 is its independent oracle.  Where
the family diverges (eta = 1 with 2q + d <= 0) is decided here alone, by
_check_integrable: the kernel integrates every mesh it is handed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import (
    InvalidParamError,
    NotIntegrableError,
    ThresholdDegenerateError,
    ToleranceNotMetError,
)

# Exclusion zone around the regime thresholds.  Exactly on a threshold the
# branch function is constant in eta and every bracketing argument fails,
# so nearby values are refused rather than guessed at.
THRESHOLD_TOL = 1e-9
# eta1_closed_form's exact products hold up to this many factors, and its
# power of two this many bits, before it first checks the value's size with
# log-Gamma; every call of the package (q < 0, d <= 437) holds fewer.  Longer
# products are formed as balanced trees.
_SHORT_PRODUCTS = 500
# The relative accuracy of every integral of the package, theta_integral's included.
DEFAULT_REL_TOL = 1e-10


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


def _real(value, rule: str, test) -> float:
    """The one reader of a public number: value read by float(), after checking test(real).

    A value float() cannot read raises InvalidParamError(f"{rule}, got {value!r}"),
    and a real that fails the test InvalidParamError(f"{rule}, got {real!r}").
    """
    try:
        real = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParamError(f"{rule}, got {value!r}") from None
    if not test(real):
        raise InvalidParamError(f"{rule}, got {real!r}")
    return real


def check_dimension(d) -> int:
    rule = "dimension d must be an integer >= 1"
    # the integer test reads d as given, and names it so
    real = _real(d, rule, lambda real: True)
    if isinstance(d, bool) or not math.isfinite(real) or int(real) != d or d < 1:
        raise InvalidParamError(f"{rule}, got {d!r}")
    return int(d)


def validate_params(d, m: float) -> tuple[int, float, float, float | None]:
    """Check (d, m), and the exclusion zone around both regime thresholds.

    Returns d as an int and m as a float, and the thresholds (1 - 2/d,
    1 - 2/(d-1)), the second None for d = 1.
    """
    d = check_dimension(d)
    m = _real(m, "diffusion exponent m must lie in (0, 1)", lambda m: 0.0 < m < 1.0)
    thresholds = (1.0 - 2.0 / d, None if d == 1 else 1.0 - 2.0 / (d - 1))
    for name, thr in zip(("1 - 2/d", "1 - 2/(d-1)"), thresholds):
        if thr is not None and abs(m - thr) < THRESHOLD_TOL:
            raise ThresholdDegenerateError(
                f"m={m!r} is within {THRESHOLD_TOL} of the threshold {name} = {thr!r}"
            )
    return (d, m, *thresholds)


def check_kappa(kappa) -> float:
    """kappa read by _real, after checking it is finite and > 0."""
    rule = "interaction strength kappa must be finite and > 0"
    return _real(kappa, rule, lambda kappa: 0.0 < kappa < math.inf)


def classify_regime(d, m: float) -> Regime:
    """Classify (d, m) into one of the three m-ranges.

    CaseI:   1 - 2/d < m < 1         (uniform state plus one supported branch)
    CaseII:  1 - 2/(d-1) < m < 1 - 2/d
    CaseIII: 0 < m < 1 - 2/(d-1)

    Raises ThresholdDegenerateError within ``THRESHOLD_TOL`` of a threshold
    and InvalidParamError off the admissible ranges.
    """
    _, m, thr_high, thr_low = validate_params(d, m)
    tag = _regime_case(m, thr_high, thr_low)
    return Regime(tag=tag, threshold_low=thr_low, threshold_high=thr_high)


def _regime_case(m: float, thr_high: float, thr_low: float | None) -> RegimeCase:
    """classify_regime's tag, from the checked m and thresholds validate_params returns."""
    if m > thr_high:
        return RegimeCase.CASE_I
    if thr_low is not None and m > thr_low:
        return RegimeCase.CASE_II
    return RegimeCase.CASE_III


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


def _check_spec(eta: float, q: float, p: int, d) -> tuple[float, float, int, int]:
    d = check_dimension(d)
    eta = _real(eta, "eta must be finite and >= 1", lambda eta: 1.0 <= eta < math.inf)
    q = _real(q, "exponent q must be finite", math.isfinite)
    if p not in (0, 1):
        raise InvalidParamError(f"cosine power p must be 0 or 1, got {p!r}")
    _check_integrable(eta - 1.0, q, d)
    return eta, q, int(p), d


def _check_integrable(zeta: float, q: float, d: int) -> None:
    """Raise NotIntegrableError where I(1 + zeta, q, p, d) diverges: at zeta = 0 with 2q + d <= 0.

    Takes zeta = eta - 1, as the quadrature kernel does, which takes only
    meshes that pass this test.
    """
    if zeta == 0.0 and 2.0 * q + d <= 0.0:
        raise NotIntegrableError(
            f"(1 - cos t)^q sin^(d-1) t diverges at t = 0 for q={q!r}, d={d}: "
            f"need 2q + d - 1 > -1"
        )


def theta_integral(eta: float, q: float, p: int, d) -> float:
    """Evaluate int_0^pi (eta - cos t)^q sin^{d-1} t cos^p t dt to DEFAULT_REL_TOL.

    Takes eta >= 1, the exponent q, the cosine power p in {0, 1} and the
    dimension d >= 1.  Raises NotIntegrableError when eta = 1 and
    2q + d - 1 <= -1, and ToleranceNotMetError when the error estimate
    cannot reach DEFAULT_REL_TOL or the integrand leaves double range.
    """
    eta, q, p, d = _check_spec(eta, q, p, d)
    from .quadrature import _integral  # the numpy kernel, loaded on first use

    return _integral(eta - 1.0, q, d)[p]


def eta1_closed_form(q: float, p: int, d) -> float:
    """Exact Gamma-function value of the eta = 1 integral.

    Substituting 1 - cos t = 2 sin^2(t/2) turns the p = 0 integral into a
    Beta function,

        I0 = 2^(q+d-1) B(a, d/2) = 2^(q+d-1) Gamma(a) Gamma(d/2) / Gamma(a + d/2),

    with a = q + d/2, and writing cos t = 2 cos^2(t/2) - 1 expresses the
    p = 1 integral as a difference of two such terms, which telescopes to
    I0 * (-q) / (q + d).

    The shift d/2 is an integer n or a half-integer n + 1/2.  For even d,
    B(a, n) = (n-1)! / prod_{k<n} (a + k).  For odd d, a is first written
    as a0 + j with a0 in (0, 1], and

        B(a, n + 1/2) = Gamma(a0)/Gamma(a0 + 1/2) Gamma(n + 1/2)
                        prod_{k<j} (a0 + k) / prod_{k<j+n} (a0 + 1/2 + k).

    q is a dyadic rational, so every factor of the products is an exact
    ratio of integers; the products and the power 2^(floor(q)+d-1) are
    formed in integers and divided once, correctly rounded, and only
    2^(q - floor(q)) and, for odd d, sqrt(pi) Gamma(a0)/Gamma(a0 + 1/2) at
    a0 <= 1 are taken in floating point.  That keeps I0 within a few
    rounding errors at any d, where a sum of log-Gamma terms loses eps
    times their size.  That loss still decides a value's size: when the
    products would hold more than _SHORT_PRODUCTS factors (about q of them
    at odd d), or the power of two more than _SHORT_PRODUCTS bits (about q
    at even d), a value that log-Gamma puts past double range by more than
    a factor e is refused at once, where the products would take minutes
    and the power could fill the memory.  Long products are formed as
    balanced trees (_product), the same integers sooner.
    """
    _, q, p, d = _check_spec(1.0, q, p, d)
    num, den = q.as_integer_ratio()  # den is a power of two
    n, odd = divmod(d, 2)
    j = max(math.ceil(q + 0.5 * d) - 1, 0) if odd else 0
    power = math.floor(q) + d - 1 - (j + n if odd else 0)
    # long products take minutes, and a long shift a huge integer; a value
    # past double range by more than the log-Gamma sum's rounding (eps times
    # its size, far below 1) is refused first, so every representable value
    # keeps its exact path
    if max(j + n, power) > _SHORT_PRODUCTS:
        log_i0 = (q + d - 1) * math.log(2.0) + math.lgamma(0.5 * d)
        log_i0 += math.lgamma(q + 0.5 * d) - math.lgamma(q + d)
        if log_i0 > math.log(sys.float_info.max) + 1.0:
            raise _leaves_double_range(q, d)
    # a0 + k = (2 num + (2 (n - j + k) + 1) den) / (2 den), and
    # a0 + odd/2 + k = (num + (n + odd - j + k) den) / den
    top = _product(2 * num + (2 * (n - j + k) + 1) * den for k in range(j))
    bottom = _product(num + (n + odd - j + k) * den for k in range(j + n))
    top *= den**n
    scale = 2.0 ** (q - math.floor(q))
    if odd:
        # Gamma(n + 1/2) = sqrt(pi) (2n - 1)!! / 2^n
        top *= _product(range(1, 2 * n, 2))
        a0 = q + (n + 0.5 - j)
        scale *= math.sqrt(math.pi) * math.gamma(a0) / math.gamma(a0 + 0.5)
    else:
        top *= math.factorial(n - 1)
    if power >= 0:
        top <<= power
    else:
        bottom <<= -power
    try:
        # no underflow: for q <= 0, I0 >= int_0^pi sin^(d-1) t dt (Jensen)
        i0 = top / bottom * scale
    except OverflowError:
        i0 = math.inf
    if i0 == math.inf:
        raise _leaves_double_range(q, d)
    if p == 0:
        return i0
    return i0 * (-q) / (q + d)


def _product(factors) -> int:
    """math.prod of the integers factors, as a balanced tree when they are more than _SHORT_PRODUCTS.

    The same integer: math.prod multiplies left to right, so a long product
    grows by one small factor at a time, in time quadratic in its length;
    the tree multiplies numbers of like size.
    """
    factors = list(factors)
    if len(factors) > _SHORT_PRODUCTS:
        while len(factors) > 1:
            pairs = [a * b for a, b in zip(factors[0::2], factors[1::2])]
            factors = pairs + factors[2 * len(pairs) :]
    return math.prod(factors)


def _leaves_double_range(q: float, d: int) -> ToleranceNotMetError:
    return ToleranceNotMetError(f"eta = 1 integral leaves double range for q={q!r}, d={d}")
