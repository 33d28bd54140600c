"""Equilibrium branches and critical interaction strengths.

Every equilibrium is radially symmetric about a pole x0, so a state is a
function of the polar angle theta alone.  Three families exist:

* the uniform density 1/|S^d|, a critical point for every kappa;
* a fully supported branch rho(theta) proportional to
  (eta - cos theta)^(1/(m-1)), parametrized by a shape variable eta > 1
  (eta -> infinity is the uniform limit, eta -> 1 maximal concentration);
* measure-valued states alpha * delta_x0 + (1 - alpha) * rho_bar, where
  the regular density rho_bar is fixed by (d, m) alone and only the atom
  fraction alpha responds to kappa.  These exist only for m < 1 - 2/d.

The fully supported branch is the level set inverse_kappa(eta) = 1/kappa
of a scalar function that is strictly monotone in eta away from the
degenerate threshold m = 1 - 2/(d-1), so every solve here is a bracketed
scalar root find.  Internally the branch is tracked through
zeta = eta - 1 (solved in log space): everything observable varies like a
fractional power of zeta near the concentration end, so eta itself, a
double glued to 1, would wash out the branch exactly where the handoff to
the measure-valued family happens.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (
    InvalidParamError,
    NotIntegrableError,
    OutOfWindowError,
    ToleranceNotMetError,
    WrongRegimeError,
)
from .model import Regime, RegimeCase, classify_regime, sphere_geometry, validate_params
from .quadrature import DEFAULT_REL_TOL, _integral
from .solvers import DEFAULT_ROOT_TOL, DEFAULT_WIDTH_TOL, bracketed_root

# zeta = eta - 1 ceiling standing in for the uniform limit eta -> infinity.
_ZETA_CEIL = 1e9


@dataclass(frozen=True)
class UniformState:
    """The isotropic state 1/|S^d| with its multiplier."""

    density_value: float
    lambda_uni: float


@dataclass(frozen=True)
class FullySupportedState:
    """One point of the fully supported branch at interaction strength kappa.

    eta_minus_1 carries the shape parameter at full relative precision;
    eta = 1 + eta_minus_1 is kept for reporting.
    """

    kappa: float
    eta: float  # shape parameter, > 1 strictly inside the branch window
    s: float  # centre-of-mass norm, in (0, 1)
    lambda_: float  # multiplier, equal to -kappa * s * eta
    eta_minus_1: float


@dataclass(frozen=True)
class SingularState:
    """Atom fraction alpha on top of the fixed regular density rho_bar."""

    kappa: float
    alpha: float
    s_bar: float  # centre-of-mass norm of rho_bar, fixed by (d, m)


@dataclass(frozen=True)
class CriticalSet:
    """The critical interaction strengths that exist for a given (d, m)."""

    kappa1: float
    kappa2: float | None = None  # CaseII / CaseIII
    kappa3: float | None = None  # CaseIII
    alpha_bar: float | None = None  # CaseIII, atom fraction at the fold
    kappa_c: float | None = None  # CaseIII, global-minimizer switch


def _q_exponent(m: float) -> float:
    return 1.0 / (m - 1.0)


def _zeta_floor(q: float, d: int) -> float:
    """Smallest zeta whose integrand peak stays inside double range.

    Near theta = sqrt(2 zeta) the integrand reaches about
    zeta^((2q + d - 1)/2), which caps how far the branch can be followed
    towards full concentration before doubles overflow.
    """
    peak_power = 2.0 * q + d - 1.0
    if peak_power < 0.0:
        return max(1e-280, math.exp(-1380.0 / -peak_power))
    return 1e-280


def uniform_state(d, m: float) -> UniformState:
    validate_params(d, m)
    area = sphere_geometry(d).area_sd
    return UniformState(
        density_value=1.0 / area,
        lambda_uni=(m / (m - 1.0)) * area ** (1.0 - m),
    )


def kappa1(d, m: float) -> float:
    """Stability threshold of the uniform state: m (d+1) |S^d|^(1-m)."""
    validate_params(d, m)
    return m * (d + 1) * sphere_geometry(d).area_sd ** (1.0 - m)


def _inverse_kappa_zeta(zeta: float, d: int, m: float, rel_tol: float) -> float:
    q = _q_exponent(m)
    i0, i1, _ = _integral(zeta, q, d, rel_tol)
    # a subnormal i0 has already lost the relative precision asked for
    if not sys.float_info.min <= i0 < math.inf:
        raise ToleranceNotMetError(
            f"mass integral left double range at eta = 1 + {zeta!r} for d={d}, "
            f"m={m!r} (i0={i0!r})"
        )
    dwd = sphere_geometry(d).area_sdm1
    return (1.0 - m) / m * dwd ** (m - 1.0) * i1 * i0 ** (m - 2.0)


def inverse_kappa(eta: float, d, m: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Inverse interaction strength of the fully supported branch at eta.

    The branch passes through shape parameter eta exactly when 1/kappa
    equals this value.  Strictly increasing in eta for m > 1 - 2/(d-1),
    strictly decreasing below, with limit 1/kappa1 as eta -> infinity.
    At eta = 1 it is finite only for m < 1 - 2/d.
    """
    validate_params(d, m)
    eta = float(eta)
    if not math.isfinite(eta) or eta < 1.0:
        raise InvalidParamError(f"eta must be finite and >= 1, got {eta!r}")
    return _inverse_kappa_zeta(eta - 1.0, int(d), m, rel_tol)


def _com_norm_zeta(zeta: float, d: int, m: float, rel_tol: float) -> float:
    q = _q_exponent(m)
    i0, i1, _ = _integral(zeta, q, d, rel_tol)
    return i1 / i0


def com_norm_of_eta(eta: float, d, m: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Centre-of-mass norm of the fully supported density at shape eta."""
    validate_params(d, m)
    eta = float(eta)
    if not math.isfinite(eta) or eta < 1.0:
        raise InvalidParamError(f"eta must be finite and >= 1, got {eta!r}")
    return _com_norm_zeta(eta - 1.0, int(d), m, rel_tol)


def _window(kappa: float, d: int, m: float, regime: Regime) -> tuple[float, float]:
    """Existence window of the fully supported branch; raises outside it."""
    k1 = kappa1(d, m)
    if regime.tag is RegimeCase.CASE_I:
        lo, hi = k1, math.inf
        inside = kappa > k1
    elif regime.tag is RegimeCase.CASE_II:
        lo, hi = k1, kappa2(d, m)
        inside = k1 < kappa <= hi  # closed at kappa2 where eta = 1
    else:
        lo, hi = kappa2(d, m), k1
        inside = lo <= kappa < k1
    if not inside:
        raise OutOfWindowError(
            f"kappa={kappa!r} outside the fully supported branch window "
            f"({lo!r}, {hi!r}) for d={d}, m={m!r} ({regime.tag.value})"
        )
    return lo, hi


def _solve_zeta(
    kappa: float, d: int, m: float, rel_tol: float, root_tol: float
) -> float:
    regime = classify_regime(d, m)
    _window(kappa, d, m, regime)
    q = _q_exponent(m)
    # eta^q underflows for m very close to 1; keep the uniform-limit end of
    # the bracket inside double range
    ceil = min(_ZETA_CEIL, math.exp(620.0 / abs(q)))

    def scaled_residual(y: float) -> float:
        return _inverse_kappa_zeta(math.exp(y), d, m, rel_tol) * kappa - 1.0

    y = bracketed_root(
        scaled_residual,
        math.log(_zeta_floor(q, d)),
        math.log(ceil),
        residual_tol=root_tol,
        width_tol=DEFAULT_WIDTH_TOL,
    )
    return math.exp(y)


def solve_eta(
    kappa: float,
    d,
    m: float,
    rel_tol: float = DEFAULT_REL_TOL,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> float:
    """Shape parameter eta of the fully supported branch at kappa.

    Solved as a bracketed root of inverse_kappa * kappa - 1 over
    log(eta - 1), which keeps full relative precision in eta - 1 at the
    concentration end of the branch; eta - 1 = 1e9 stands in for the
    uniform limit.  The result satisfies
    |inverse_kappa(eta) * kappa - 1| <= root_tol.
    """
    validate_params(d, m, kappa)
    return 1.0 + _solve_zeta(float(kappa), int(d), m, rel_tol, root_tol)


def fully_supported_state(
    kappa: float,
    d,
    m: float,
    rel_tol: float = DEFAULT_REL_TOL,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> FullySupportedState:
    """Construct the fully supported equilibrium at kappa."""
    validate_params(d, m, kappa)
    kappa = float(kappa)
    zeta = _solve_zeta(kappa, int(d), m, rel_tol, root_tol)
    s = _com_norm_zeta(zeta, int(d), m, rel_tol)
    eta = 1.0 + zeta
    return FullySupportedState(
        kappa=kappa, eta=eta, s=s, lambda_=-kappa * s * eta, eta_minus_1=zeta
    )


def fully_supported_density(
    state: FullySupportedState, theta: float, d, m: float
) -> float:
    """Pointwise density of the fully supported state at polar angle theta."""
    validate_params(d, m)
    theta = float(theta)
    if not 0.0 <= theta <= math.pi:
        raise InvalidParamError(f"theta must lie in [0, pi], got {theta!r}")
    # -lambda - kappa s cos(theta) = kappa s (zeta + (1 - cos theta))
    base = state.kappa * state.s * (state.eta_minus_1 + 2.0 * math.sin(0.5 * theta) ** 2)
    return (m / (1.0 - m)) ** (1.0 / (1.0 - m)) * base ** (1.0 / (m - 1.0))


def s_bar(d, m: float) -> float:
    """Centre-of-mass norm of the fixed regular density: 1 / ((1-m) d - 1)."""
    validate_params(d, m)
    if m >= 1.0 - 2.0 / int(d):
        raise NotIntegrableError(
            f"the regular density is not integrable for m={m!r} >= 1 - 2/d (d={d})"
        )
    return 1.0 / ((1.0 - m) * int(d) - 1.0)


def kappa2(d, m: float) -> float:
    """Transition strength between supported and measure-valued equilibria.

    Gamma closed form, assembled in log space.  Defined for m < 1 - 2/d; it
    equals 1 / inverse_kappa(1), which kappa2_quadrature evaluates through
    the independent quadrature route.
    """
    validate_params(d, m)
    d = int(d)
    if m >= 1.0 - 2.0 / d:
        raise NotIntegrableError(f"kappa2 is undefined for m={m!r} >= 1 - 2/d (d={d})")
    a = _q_exponent(m)
    area = sphere_geometry(d).area_sd
    log_k2 = (
        math.log(m)
        + math.log(a + d)
        - (1.0 + (d - 1) * (m - 1.0)) * math.log(2.0)
        - (m - 1.0) * math.log(area)
        + (m - 1.0)
        * (
            math.lgamma(0.5)
            + math.lgamma(a + d)
            - math.lgamma(a + 0.5 * d)
            - math.lgamma(0.5 * (d + 1))
        )
    )
    return math.exp(log_k2)


def kappa2_quadrature(d, m: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """kappa2 through the quadrature route, as an oracle for the closed form."""
    return 1.0 / inverse_kappa(1.0, d, m, rel_tol)


def kappa3_and_alpha_bar(d, m: float) -> tuple[float, float]:
    """Fold point of the measure-valued pair and its atom fraction.

    At kappa3 the line kappa (s_bar + alpha (1 - s_bar)) is tangent to
    (1 - alpha)^(m-1) kappa2 s_bar; solving the tangency system gives both
    values in closed form.  CaseIII only.
    """
    regime = classify_regime(d, m)
    if regime.tag is not RegimeCase.CASE_III:
        raise WrongRegimeError(
            f"kappa3 exists only in case_iii (0 < m < 1 - 2/(d-1)); "
            f"d={d}, m={m!r} is {regime.tag.value}"
        )
    sb = s_bar(d, m)
    alpha_bar = (1.0 - 2.0 * sb + m * sb) / ((1.0 - sb) * (2.0 - m))
    k3 = kappa2(d, m) * (1.0 - m) * sb / (1.0 - sb) * (1.0 - alpha_bar) ** (m - 2.0)
    return k3, alpha_bar


def alpha_roots(
    kappa: float,
    d,
    m: float,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> list[float]:
    """Atom fractions of measure-valued equilibria at kappa, ascending.

    Roots in (0, 1) of

        kappa (s_bar + alpha (1 - s_bar)) = (1 - alpha)^(m-1) kappa2 s_bar.

    CaseII: one root for kappa > kappa2, none otherwise.  CaseIII: none
    below kappa3, a tangent double root at kappa3 (returned twice), two
    roots straddling alpha_bar on (kappa3, kappa2), one root past kappa2.
    """
    validate_params(d, m, kappa)
    kappa = float(kappa)
    regime = classify_regime(d, m)
    if m >= 1.0 - 2.0 / int(d):
        raise NotIntegrableError(
            f"measure-valued equilibria require m < 1 - 2/d; got d={d}, m={m!r}"
        )
    sb = s_bar(d, m)
    k2 = kappa2(d, m)

    def mismatch(alpha: float) -> float:
        return kappa * (sb + alpha * (1.0 - sb)) - (1.0 - alpha) ** (m - 1.0) * k2 * sb

    scale = max(1.0, kappa)
    cap = 1.0 - 1e-12  # the right side diverges at alpha = 1, root is interior

    if regime.tag is RegimeCase.CASE_II:
        if kappa <= k2:
            return []
        root = bracketed_root(
            mismatch, 0.0, cap, residual_tol=root_tol * scale, width_tol=DEFAULT_WIDTH_TOL
        )
        # kappa within rounding of kappa2 can land on the alpha = 0 boundary
        return [root] if root > 0.0 else []

    k3, alpha_bar = kappa3_and_alpha_bar(d, m)
    gap_at_bar = mismatch(alpha_bar)  # increasing in kappa, zero at kappa3
    if gap_at_bar < -1e-11 * scale:
        return []
    if gap_at_bar <= 1e-11 * scale:
        return [alpha_bar, alpha_bar]  # tangent double root at kappa3
    upper = bracketed_root(
        mismatch, alpha_bar, cap, residual_tol=root_tol * scale, width_tol=DEFAULT_WIDTH_TOL
    )
    if kappa >= k2:
        return [upper]
    lower = bracketed_root(
        mismatch, 0.0, alpha_bar, residual_tol=root_tol * scale, width_tol=DEFAULT_WIDTH_TOL
    )
    return [lower, upper] if lower > 0.0 else [upper]


def singular_state(
    kappa: float, d, m: float, root_tol: float = DEFAULT_ROOT_TOL, branch: str = "upper"
) -> SingularState:
    """Measure-valued equilibrium at kappa on the requested branch."""
    roots = alpha_roots(kappa, d, m, root_tol)
    if not roots:
        raise OutOfWindowError(
            f"no measure-valued equilibrium at kappa={kappa!r} for d={d}, m={m!r}"
        )
    if branch == "upper":
        alpha = roots[-1]
    elif branch == "lower":
        if len(roots) < 2:
            raise OutOfWindowError(
                f"no lower measure-valued branch at kappa={kappa!r} for d={d}, m={m!r}"
            )
        alpha = roots[0]
    else:
        raise InvalidParamError(f"branch must be 'upper' or 'lower', got {branch!r}")
    return SingularState(kappa=float(kappa), alpha=alpha, s_bar=s_bar(d, m))


def singular_lambda(alpha: float, d, m: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Multiplier of the measure-valued state, from its unit-mass condition."""
    validate_params(d, m)
    if not 0.0 <= alpha < 1.0:
        raise InvalidParamError(f"alpha must lie in [0, 1), got {alpha!r}")
    d = int(d)
    q = _q_exponent(m)
    i0 = _integral(0.0, q, d, rel_tol)[0]
    dwd = sphere_geometry(d).area_sdm1
    return -(m / (1.0 - m)) * (1.0 - alpha) ** m * (dwd * i0) ** (1.0 - m)


def rho_bar_density(theta: float, d, m: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Pointwise value of the fixed regular density; +inf at theta = 0."""
    validate_params(d, m)
    d = int(d)
    theta = float(theta)
    if not 0.0 <= theta <= math.pi:
        raise InvalidParamError(f"theta must lie in [0, pi], got {theta!r}")
    q = _q_exponent(m)
    if 2.0 * q + d <= 0.0:
        raise NotIntegrableError(
            f"the regular density is not integrable for m={m!r} >= 1 - 2/d (d={d})"
        )
    v = 2.0 * math.sin(0.5 * theta) ** 2  # 1 - cos(theta)
    if v == 0.0:
        return math.inf
    i0 = _integral(0.0, q, d, rel_tol)[0]
    return v**q / (sphere_geometry(d).area_sdm1 * i0)


def critical_constants(d, m: float, rel_tol: float = DEFAULT_REL_TOL) -> CriticalSet:
    """All closed-form critical strengths for (d, m); kappa_c is left unset.

    The energy module completes the set with kappa_c where it exists.
    """
    regime = classify_regime(d, m)
    k1 = kappa1(d, m)
    if regime.tag is RegimeCase.CASE_I:
        return CriticalSet(kappa1=k1)
    if regime.tag is RegimeCase.CASE_II:
        return CriticalSet(kappa1=k1, kappa2=kappa2(d, m))
    k3, alpha_bar = kappa3_and_alpha_bar(d, m)
    return CriticalSet(kappa1=k1, kappa2=kappa2(d, m), kappa3=k3, alpha_bar=alpha_bar)
