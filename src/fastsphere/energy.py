"""Free energies of the equilibrium families and the global-minimizer map.

With the quadratic interaction written through the centre of mass, the
free energy of a state mu with regular density rho is

    E[mu] = (1/(m-1)) int rho^m dS  -  (kappa/2) |c_mu|^2  +  kappa/2,

which makes the energy of a pure atom exactly zero, the natural reference.
Each branch energy is evaluated by direct quadrature and, where a second
route exists (a product identity for the supported branch, a multiplier
identity for the singular one), cross-checked against it.

The minimizer map follows the energy comparisons: the uniform state below
kappa1, the supported branch up to the handoff at kappa2 where one exists,
and the measure-valued branch beyond; in the fold regime (CaseIII) the
switch happens at the strength kappa_c where the uniform and the upper
measure-valued energies cross, located here by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import equilibria
from .equilibria import CriticalSet, FullySupportedState
from .errors import (
    BracketFailureError,
    FastSphereError,
    InvalidParamError,
    NotIntegrableError,
    WrongRegimeError,
)
from .model import RegimeCase, classify_regime, sphere_geometry, validate_params
from .quadrature import DEFAULT_REL_TOL, _integral
from .solvers import DEFAULT_ROOT_TOL

UNIFORM = "uniform"
FULLY_SUPPORTED = "fully_supported"
SINGULAR_UPPER = "singular_upper"
SINGULAR_LOWER = "singular_lower"

# Energies (or kappa distances to a critical value) closer than this are
# reported as a degenerate transition point rather than a strict minimizer.
_TIE_TOL = 1e-12

_CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class BranchEnergyGain:
    """Energy advantage of the supported branch over the uniform state.

    value equals E[uniform] - E[branch] - (1/(m-1)) |S^d|^(1-m), i.e. the
    eta-dependent part of the energy difference; it is the product of the
    two factors g1 (entropy-weighted moments) and g2 (normalization).
    """

    eta: float
    value: float


@dataclass(frozen=True)
class EnergyReport:
    """Branch energies at one kappa and the tag of the smallest."""

    kappa: float
    e_uniform: float
    e_fully_supported: float | None
    e_singular_upper: float | None
    e_singular_lower: float | None
    minimizer: str
    degenerate: bool = False
    runner_up: str | None = None


def energy_uniform(kappa: float, d, m: float) -> float:
    """Energy of the uniform state: (1/(m-1)) |S^d|^(1-m) + kappa/2."""
    validate_params(d, m)
    if not math.isfinite(kappa) or kappa < 0.0:
        raise InvalidParamError(f"kappa must be >= 0, got {kappa!r}")
    return sphere_geometry(d).area_sd ** (1.0 - m) / (m - 1.0) + 0.5 * kappa


def _branch_energy_gain_zeta(zeta: float, d: int, m: float, rel_tol: float) -> float:
    q = 1.0 / (m - 1.0)
    i0, i1, i_ent = _integral(zeta, q, d, rel_tol)  # i_ent: exponent m/(m-1)
    dwd = sphere_geometry(d).area_sdm1
    g1 = m * i1 + 2.0 * i_ent
    g2 = 1.0 / (2.0 * (1.0 - m) * dwd ** (m - 1.0) * i0**m)
    return g1 * g2


def branch_energy_gain(
    eta: float, d, m: float, rel_tol: float = DEFAULT_REL_TOL
) -> BranchEnergyGain:
    """The product g1 * g2 measuring the supported branch's energy gain.

    g1 collects the first moment and the entropy-exponent integral,
    g2 the normalization; their product equals
    (kappa/2) s^2 - (1/(m-1)) int rho^m dS at eta, with kappa = kappa(eta)
    and s = s(eta) along the branch.
    """
    validate_params(d, m)
    eta = float(eta)
    if not math.isfinite(eta) or eta < 1.0:
        raise InvalidParamError(f"eta must be finite and >= 1, got {eta!r}")
    return BranchEnergyGain(eta=eta, value=_branch_energy_gain_zeta(eta - 1.0, int(d), m, rel_tol))


def energy_fully_supported(
    state: FullySupportedState, d, m: float, rel_tol: float = DEFAULT_REL_TOL
) -> float:
    """Energy of a fully supported state, by direct quadrature.

    Also evaluated through kappa/2 - g1 g2; the two routes must agree to
    1e-8 relative or the internal state is inconsistent.
    """
    validate_params(d, m)
    d = int(d)
    q = 1.0 / (m - 1.0)
    pref = (m / ((1.0 - m) * state.kappa * state.s)) ** (1.0 / (1.0 - m))
    dwd = sphere_geometry(d).area_sdm1
    entropy = dwd * pref**m * _integral(state.eta_minus_1, q, d, rel_tol)[2]
    direct = entropy / (m - 1.0) - 0.5 * state.kappa * state.s**2 + 0.5 * state.kappa
    identity = 0.5 * state.kappa - _branch_energy_gain_zeta(state.eta_minus_1, d, m, rel_tol)
    if abs(direct - identity) > _CROSS_CHECK_TOL * max(1.0, abs(direct)):
        raise FastSphereError(
            f"energy cross-check failed at kappa={state.kappa!r}: "
            f"direct={direct!r}, identity route={identity!r}"
        )
    return direct


def rho_bar_entropy_integral(d, m: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """int rho_bar^m dS for the fixed regular density (m < 1 - 2/d)."""
    validate_params(d, m)
    d = int(d)
    q = 1.0 / (m - 1.0)
    if 2.0 * q + d <= 0.0:
        raise NotIntegrableError(
            f"rho_bar is not integrable for m={m!r} >= 1 - 2/d (d={d})"
        )
    i0, _, i_ent = _integral(0.0, q, d, rel_tol)
    dwd = sphere_geometry(d).area_sdm1
    return dwd ** (1.0 - m) * i_ent * i0 ** (-m)


def energy_singular(
    alpha: float, kappa: float, d, m: float, rel_tol: float = DEFAULT_REL_TOL
) -> float:
    """Energy of alpha * delta + (1 - alpha) * rho_bar at strength kappa."""
    validate_params(d, m, kappa)
    if not 0.0 < alpha < 1.0:
        raise InvalidParamError(f"alpha must lie in (0, 1), got {alpha!r}")
    ent = rho_bar_entropy_integral(d, m, rel_tol)
    com = alpha + (1.0 - alpha) * equilibria.s_bar(d, m)
    return (1.0 - alpha) ** m * ent / (m - 1.0) - 0.5 * kappa * com**2 + 0.5 * kappa


def delta_mixture_energy(t: float, kappa: float, d, m: float) -> float:
    """Energy of (1-t) delta + (t/|S^d|) dS; equal to 0 at t = 0.

    The one-sided derivative at t = 0+ is -infinity, which is what rules
    out the pure atom as a minimizer.
    """
    validate_params(d, m)
    if not math.isfinite(kappa) or kappa < 0.0:
        raise InvalidParamError(f"kappa must be >= 0, got {kappa!r}")
    if not 0.0 <= t < 1.0:
        raise InvalidParamError(f"t must lie in [0, 1), got {t!r}")
    area = sphere_geometry(d).area_sd
    return t**m * area ** (1.0 - m) / (m - 1.0) - 0.5 * kappa * (1.0 - t) ** 2 + 0.5 * kappa


def linear_trial_rayleigh(d) -> float:
    """Rayleigh quotient of the linear trial perturbation <x, e>.

    The numerator and denominator both reduce to the second cosine moment
    M = |S^{d-1}| int cos^2 sin^{d-1}, evaluated here through sine-power
    integrals, so the quotient is 1/M = (d+1)/|S^d|.
    """
    geo = sphere_geometry(d)

    def sine_power(k: int) -> float:
        return math.sqrt(math.pi) * math.exp(
            math.lgamma(0.5 * (k + 1)) - math.lgamma(0.5 * k + 1.0)
        )

    moment = geo.area_sdm1 * (sine_power(int(d) - 1) - sine_power(int(d) + 1))
    return 1.0 / moment


def second_variation_gap(kappa: float, d, m: float) -> float:
    """kappa1 - kappa; positive exactly when the uniform state is stable.

    The threshold comes from minimizing the Rayleigh quotient of zero-mean
    perturbations; the linear trial function attains the minimum
    (d+1)/|S^d|, which is confirmed against the geometry constants here.
    """
    validate_params(d, m, kappa)
    trial = linear_trial_rayleigh(d)
    expected = (int(d) + 1) / sphere_geometry(d).area_sd
    if abs(trial - expected) > 1e-12 * expected:
        raise FastSphereError(
            f"trial Rayleigh quotient {trial!r} disagrees with (d+1)/|S^d| {expected!r}"
        )
    return equilibria.kappa1(d, m) - kappa


def kappa_c(
    d,
    m: float,
    rel_tol: float = DEFAULT_REL_TOL,
    root_tol: float = DEFAULT_ROOT_TOL,
    kappa_tol: float = 1e-10,
) -> float:
    """Strength where the uniform and upper measure-valued energies cross.

    CaseIII only; the crossing is unique in (kappa3, kappa1) because the
    energy gap grows at the strictly positive rate (alpha + (1-alpha)
    s_bar)^2 / 2.  Located by bisection to kappa_tol.
    """
    regime = classify_regime(d, m)
    if regime.tag is not RegimeCase.CASE_III:
        raise WrongRegimeError(
            f"kappa_c exists only in case_iii; d={d}, m={m!r} is {regime.tag.value}"
        )
    k3, _ = equilibria.kappa3_and_alpha_bar(d, m)
    k1 = equilibria.kappa1(d, m)

    def gap(kappa: float) -> float:
        roots = equilibria.alpha_roots(kappa, d, m, root_tol)
        if not roots:
            raise BracketFailureError(
                f"no measure-valued branch at kappa={kappa!r} inside (kappa3, kappa1)"
            )
        return energy_uniform(kappa, d, m) - energy_singular(roots[-1], kappa, d, m, rel_tol)

    lo = k3 * (1.0 + 1e-9)  # just inside the fold; at kappa3 the pair is tangent
    hi = k1
    g_lo = gap(lo)
    g_hi = gap(hi)
    if not (g_lo < 0.0 < g_hi):
        raise BracketFailureError(
            f"energy gap does not change sign on (kappa3, kappa1): "
            f"gap(kappa3+)={g_lo!r}, gap(kappa1)={g_hi!r}"
        )
    while hi - lo > kappa_tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _populate_energies(
    kappa: float, d: int, m: float, regime, rel_tol: float, root_tol: float
) -> dict[str, float]:
    energies: dict[str, float] = {UNIFORM: energy_uniform(kappa, d, m)}
    k1 = equilibria.kappa1(d, m)
    in_window = (
        kappa > k1
        if regime.tag is RegimeCase.CASE_I
        else k1 < kappa <= equilibria.kappa2(d, m)
        if regime.tag is RegimeCase.CASE_II
        else equilibria.kappa2(d, m) <= kappa < k1
    )
    if in_window:
        state = equilibria.fully_supported_state(kappa, d, m, rel_tol, root_tol)
        energies[FULLY_SUPPORTED] = energy_fully_supported(state, d, m, rel_tol)
    if regime.tag is not RegimeCase.CASE_I and m < 1.0 - 2.0 / d:
        roots = equilibria.alpha_roots(kappa, d, m, root_tol)
        if roots:
            energies[SINGULAR_UPPER] = energy_singular(roots[-1], kappa, d, m, rel_tol)
        if len(roots) == 2 and roots[0] < roots[1]:
            energies[SINGULAR_LOWER] = energy_singular(roots[0], kappa, d, m, rel_tol)
    return energies


def classify_minimizer(
    kappa: float,
    d,
    m: float,
    rel_tol: float = DEFAULT_REL_TOL,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> EnergyReport:
    """Branch energies at kappa with the global minimizer tagged.

    The tag always names the branch with the literally smallest computed
    energy; ties within 1e-12, and kappa within 1e-12 of the branch birth
    at kappa1, are flagged degenerate with the runner-up recorded.
    """
    validate_params(d, m, kappa)
    kappa = float(kappa)
    d = int(d)
    regime = classify_regime(d, m)
    energies = _populate_energies(kappa, d, m, regime, rel_tol, root_tol)

    candidates = sorted(energies.items(), key=lambda kv: (kv[1], kv[0]))
    minimizer, best = candidates[0]
    if minimizer == SINGULAR_LOWER:
        raise FastSphereError(
            "the lower measure-valued branch can never be the energy minimizer; "
            f"inconsistent energies at kappa={kappa!r}: {energies!r}"
        )
    degenerate = False
    runner_up = None
    if len(candidates) > 1 and candidates[1][1] - best <= _TIE_TOL:
        degenerate = True
        runner_up = candidates[1][0]
    k1 = equilibria.kappa1(d, m)
    if abs(kappa - k1) <= _TIE_TOL * max(1.0, k1):
        degenerate = True  # branch birth point; the minimizer is ambiguous
    return EnergyReport(
        kappa=kappa,
        e_uniform=energies[UNIFORM],
        e_fully_supported=energies.get(FULLY_SUPPORTED),
        e_singular_upper=energies.get(SINGULAR_UPPER),
        e_singular_lower=energies.get(SINGULAR_LOWER),
        minimizer=minimizer,
        degenerate=degenerate,
        runner_up=runner_up,
    )


def critical_set(
    d,
    m: float,
    rel_tol: float = DEFAULT_REL_TOL,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> CriticalSet:
    """All critical strengths for (d, m), including kappa_c where defined."""
    base = equilibria.critical_constants(d, m, rel_tol)
    if base.kappa3 is None:
        return base
    return CriticalSet(
        kappa1=base.kappa1,
        kappa2=base.kappa2,
        kappa3=base.kappa3,
        alpha_bar=base.alpha_bar,
        kappa_c=kappa_c(d, m, rel_tol, root_tol),
    )
