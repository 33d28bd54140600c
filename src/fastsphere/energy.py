"""Free energies of the equilibrium families and the global-minimizer map.

With the quadratic interaction written through the centre of mass, the
free energy of a state mu with regular density rho is

    E[mu] = (1/(m-1)) int rho^m dS  -  (kappa/2) |c_mu|^2  +  kappa/2,

which makes the energy of a pure atom exactly zero, the natural reference.
The supported branch's energy is E[mu] at its density's entropy integral,
cross-checked against a product identity; both routes read the moments
the state carries from its solve.  The measure-valued energies take the
entropy of rho_bar from the pass of the (d, m) constants
(equilibria._constants), where it is the Beta-function mass of rho_bar
times a rational factor, with a multiplier identity as their second route.

equilibria_at enumerates, for a list of strengths, every equilibrium that
exists at each with its energy: the uniform state always, the supported
branch wherever equilibria's window admits it (closed at kappa2), and the
measure-valued pair wherever alpha_roots finds it.  An entry is built
from the supported state solved at its kappa (_rows_at), so the sweep
command (a grid), classify_minimizer (one kappa) and verify's minimizer
check (the states of its own solve) read the same rows.

The minimizer map follows the energy comparisons: the uniform state below
kappa1, the supported branch up to the handoff at kappa2 where one exists,
and the measure-valued branch beyond; in the fold regime (CaseIII) the
switch happens at the strength kappa_c where the uniform and the upper
measure-valued energies cross.  critical_set finds it in one pass with the
other critical strengths: along that branch kappa and the energy gap are
closed forms of the atom fraction, and the gap is convex with its minimum
at the fold, so plain Newton from the far end locates the crossing without
quadrature or a general root solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import equilibria, model
from .equilibria import CriticalSet, FullySupportedState
from .errors import (
    BracketFailureError,
    FastSphereError,
    OutOfWindowError,
    ToleranceNotMetError,
    WrongRegimeError,
)
from .model import RegimeCase, _real, check_kappa, sphere_geometry, validate_params

UNIFORM = "uniform"
FULLY_SUPPORTED = "fully_supported"
SINGULAR_UPPER = "singular_upper"
SINGULAR_LOWER = "singular_lower"
_SINGULAR = {"upper": SINGULAR_UPPER, "lower": SINGULAR_LOWER}  # by equilibria's branch name

# Energies (or kappa distances to a critical value) closer than this are
# reported as a degenerate transition point rather than a strict minimizer.
_TIE_TOL = 1e-12

_CROSS_CHECK_TOL = 1e-8


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
    d, m, _, _ = validate_params(d, m)
    kappa = _real(kappa, "kappa must be finite and >= 0", lambda kappa: 0.0 <= kappa < math.inf)
    return _uniform_energy(kappa, sphere_geometry(d).area_sd, m)


def _uniform_energy(kappa: float, area_sd: float, m: float) -> float:
    """energy_uniform from |S^d|, with kappa and (d, m) already checked."""
    return area_sd ** (1.0 - m) / (m - 1.0) + 0.5 * kappa


def _branch_energy_gain_of(i0: float, i1: float, i_ent: float, dwd: float, m: float) -> float:
    """The supported branch's energy gain g1 * g2 from the moments at eta; dwd = |S^(d-1)|.

    g1 collects the first moment and the entropy-exponent integral i_ent
    (exponent m/(m-1)), g2 the normalization; along the branch their
    product is (kappa/2) s^2 - (1/(m-1)) int rho^m dS, the eta-dependent
    part of E[uniform] - E[branch].
    """
    g1 = m * i1 + 2.0 * i_ent
    g2 = 1.0 / (2.0 * (1.0 - m) * dwd ** (m - 1.0) * i0**m)
    return g1 * g2


def energy_fully_supported(state: FullySupportedState, d, m: float) -> float:
    """Energy of a fully supported state: E[mu] at its density's entropy integral.

    Also evaluated through kappa/2 - g1 g2; the two routes must agree to
    1e-8 relative or the internal state is inconsistent.  Both take the
    moments the state carries from its solve, or compute them at
    DEFAULT_REL_TOL (1e-10) when it carries none.  The state's kappa, s,
    eta_minus_1 and moments are checked first (equilibria._check_state), so
    a hand-built state with a field out of range raises InvalidParamError,
    and one with no moments at eta = 1 where the mass diverges (2q + d <= 0,
    q = 1/(m - 1)) raises NotIntegrableError (model._check_integrable);
    one whose mass i0 (computed or carried) is not a normal double, or
    whose density scale (m / ((1 - m) kappa s))^(1/(1-m)) leaves double
    range, raises ToleranceNotMetError, as does a state whose two routes
    disagree.
    """
    d, m, _, _ = validate_params(d, m)
    kappa, s, zeta, moments = equilibria._check_state(state)
    if moments is None:
        from .quadrature import _integral

        q = 1.0 / (m - 1.0)
        model._check_integrable(zeta, q, d)
        moments = _integral(zeta, q, d)
    i0, i1, i_ent = moments
    if not equilibria._SMALLEST_NORMAL <= i0 < math.inf:
        raise equilibria._mass_out_of_range(zeta, i0, d, m)
    try:
        pref = (m / ((1.0 - m) * kappa * s)) ** (1.0 / (1.0 - m))
    except OverflowError:
        raise ToleranceNotMetError(
            f"density scale leaves double range at kappa={kappa!r}, s={s!r} for d={d}, m={m!r}"
        ) from None
    dwd = sphere_geometry(d).area_sdm1
    entropy = dwd * pref**m * i_ent
    direct = entropy / (m - 1.0) - 0.5 * kappa * s**2 + 0.5 * kappa
    identity = 0.5 * kappa - _branch_energy_gain_of(i0, i1, i_ent, dwd, m)
    if not abs(direct - identity) <= _CROSS_CHECK_TOL * max(1.0, abs(direct)):
        raise ToleranceNotMetError(
            f"energy cross-check failed at kappa={kappa!r}: "
            f"direct={direct!r}, identity route={identity!r}"
        )
    return direct


def energy_singular(alpha: float, kappa: float, d, m: float) -> float:
    """Energy of alpha * delta + (1 - alpha) * rho_bar at strength kappa."""
    c = equilibria._rho_bar_constants(d, m)
    kappa = check_kappa(kappa)
    alpha = _real(alpha, "alpha must lie in (0, 1)", lambda alpha: 0.0 < alpha < 1.0)
    return _singular_energy(alpha, kappa, c)


def _singular_energy(alpha: float, kappa: float, c: equilibria._Constants) -> float:
    """Energy of alpha * delta + (1 - alpha) * rho_bar from the pass c of (d, m)."""
    m = c.m
    com = alpha + (1.0 - alpha) * c.s_bar
    return (1.0 - alpha) ** m * c.ent / (m - 1.0) - 0.5 * kappa * com**2 + 0.5 * kappa


def kappa_c(d, m: float) -> float:
    """Strength where the uniform and upper measure-valued energies cross.

    CaseIII only; the value is critical_set(d, m).kappa_c, which see.
    """
    crit = critical_set(d, m)
    if crit.kappa_c is None:
        d, m, _, _ = validate_params(d, m)  # to name them as checked
        raise WrongRegimeError(
            f"kappa_c exists only in case_iii; d={d}, m={m!r} is {crit.regime.value}"
        )
    return crit.kappa_c


def _kappa_c_gap(
    u: float, e_uniform_0: float, k2sb: float, sb: float, ent: float, m: float
) -> tuple[float, float]:
    """E_uniform - E_singular on the upper measure-valued branch at u = -log(1 - alpha).

    With kappa(u) com^2 = kappa2 s_bar (e^((1-m) u) - (1 - s_bar) e^(-m u)),
    the gap is e_uniform_0 + kappa com^2 / 2 + e^(-m u) ent / (1 - m).
    Returns the gap and its slope in u.
    """
    rise = math.exp((1.0 - m) * u)
    rest = math.exp(-m * u)  # (1 - alpha)^m
    atom = 0.5 * k2sb * (rise - (1.0 - sb) * rest)
    entropy = rest * ent / (1.0 - m)
    slope = 0.5 * k2sb * ((1.0 - m) * rise + m * (1.0 - sb) * rest) - m * entropy
    return e_uniform_0 + atom + entropy, slope


def _kappa_c_of(c: equilibria._Constants) -> float:
    """kappa_c from the pass c of the constants of a CaseIII pair.

    Along the upper measure-valued branch, parametrized by
    u = -log(1 - alpha), the strength is explicit,

        kappa(u) = e^((1-m) u) kappa2 s_bar / (1 - e^(-u) (1 - s_bar)),

    rising from kappa3 at the fold u_bar = -log(1 - alpha_bar), and the
    energy gap (_kappa_c_gap) is closed form down to the entropy of rho_bar.
    With P = (|S^(d-1)| I0)^(1-m) / (1-m), the pass has kappa2 s_bar = m P
    and ent = (1-m) (1-s_bar) P, so the gap is

        g(u) = e0 + a e^((1-m) u) + b e^(-m u),
        a = kappa2 s_bar / 2 > 0,   b = ent (2-m) / (2 (1-m)) > 0,

    e0 the uniform energy at kappa 0: strictly convex, with g' = 0 exactly
    at e^u = (2-m) (1-s_bar) / (1-m) = 1 / (1 - alpha_bar), the fold.  (The
    terms as _kappa_c_gap sums them round better at small m.)  So Newton's
    method from the far end of the bracket, the first doubling of u past
    kappa1, where g > 0, decreases u monotonically onto the one crossing, in
    about nine gap evaluations.  It stops at the first step that does not
    decrease u, or whose gap is <= 0, and keeps the better of the last two
    iterates: a step back to the right would only dither in the rounding.
    """
    m, k1, k2, sb, ent = c.m, c.kappa1, c.kappa2, c.s_bar, c.ent
    e_uniform_0 = _uniform_energy(0.0, c.area_sd, m)
    k2sb = k2 * sb

    def kappa_of(u: float) -> float:
        return math.exp((1.0 - m) * u) * k2 * sb / (1.0 - math.exp(-u) * (1.0 - sb))

    lo = -math.log1p(-c.alpha_bar)
    hi = lo + 1.0  # a positive width, so the doubling ends even for u_bar ~ 0
    while kappa_of(hi) < k1:
        hi *= 2.0
    g_lo = _kappa_c_gap(lo, e_uniform_0, k2sb, sb, ent, m)[0]
    g, slope = _kappa_c_gap(hi, e_uniform_0, k2sb, sb, ent, m)
    if not (g_lo < 0.0 < g):
        raise BracketFailureError(
            f"energy gap does not change sign on (kappa3, kappa1): "
            f"gap(kappa3)={g_lo!r}, gap(kappa={kappa_of(hi)!r})={g!r}"
        )
    u = hi
    while (newton := u - g / slope) < u:
        g_new, slope = _kappa_c_gap(newton, e_uniform_0, k2sb, sb, ent, m)
        if g_new <= 0.0:
            return kappa_of(newton if -g_new < g else u)
        u, g = newton, g_new
    return kappa_of(u)


def equilibria_at(kappas, d, m: float) -> list:
    """The equilibria that exist at each of kappas, with their energies.

    Each entry is a list of rows (branch, alpha, eta, com_norm, energy),
    the uniform row first; alpha is set on the measure-valued rows only and
    eta on the supported row only.  Where a kappa fails, its entry is the
    FastSphereError raised there, without its traceback.  The supported
    branch is taken from one lockstep solve over kappas
    (equilibria._fully_supported_states), whose window check alone decides
    where it exists; the measure-valued rows from
    equilibria._measure_valued_alphas, where the tangent double root at
    kappa3 gives the upper row only.  One pass of the kappa-free constants
    (equilibria._constants) is formed per call and serves the branch window,
    the roots and the energies: s_bar, kappa2, alpha_bar and the entropy of
    rho_bar are the same at every kappa.
    """
    c = equilibria._constants(d, m)
    (states,) = equilibria._fully_supported_states([(c, kappas)])
    return [_rows_at(kappa, state, c) for kappa, state in zip(kappas, states)]


def _rows_at(kappa, state, c: equilibria._Constants):
    """The equilibria_at entry at kappa, given the supported state or error solved there."""
    if isinstance(state, FastSphereError) and not isinstance(state, OutOfWindowError):
        return state
    kappa = check_kappa(kappa)  # passes: a kappa the solve rejected returned above
    try:
        rows = [(UNIFORM, None, None, 0.0, _uniform_energy(kappa, c.area_sd, c.m))]
        if not isinstance(state, OutOfWindowError):
            e = energy_fully_supported(state, c.d, c.m)
            rows.append((FULLY_SUPPORTED, None, state.eta, state.s, e))
        if c.regime is not RegimeCase.CASE_I:
            for branch, alpha in equilibria._measure_valued_alphas(kappa, c).items():
                com = alpha + (1.0 - alpha) * c.s_bar
                e = _singular_energy(alpha, kappa, c)
                rows.append((_SINGULAR[branch], alpha, None, com, e))
    except FastSphereError as exc:
        return exc.with_traceback(None)
    return rows


def classify_minimizer(kappa: float, d, m: float) -> EnergyReport:
    """Branch energies at kappa with the global minimizer tagged.

    The tag always names the branch with the literally smallest computed
    energy; ties within 1e-12, and kappa within 1e-12 of the branch birth
    at kappa1, are flagged degenerate with the runner-up recorded.
    """
    c = equilibria._constants(d, m)
    kappa = check_kappa(kappa)
    ((state,),) = equilibria._fully_supported_states([(c, [kappa])])
    return _energy_report(kappa, _rows_at(kappa, state, c), c.kappa1)


def _energy_report(kappa: float, found, k1: float) -> EnergyReport:
    """classify_minimizer's report from the equilibria_at entry at kappa (an error is raised)."""
    if isinstance(found, FastSphereError):
        raise found
    energies = {branch: e for branch, _, _, _, e in found}

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


def critical_set(d, m: float) -> CriticalSet:
    """All critical strengths for (d, m), including kappa_c where defined.

    kappa1, kappa2, kappa3 and alpha_bar are read off equilibria._constants,
    the one pass of the kappa-free constants, which equilibria_at, the branch
    window and the measure-valued roots share.  kappa_c (CaseIII) is formed
    from the same pass, whose entropy of rho_bar closes its energy gap, so
    the call builds one closed form.
    """
    c = equilibria._constants(d, m)
    if c.regime is not RegimeCase.CASE_III:
        return CriticalSet(kappa1=c.kappa1, kappa2=c.kappa2)  # kappa2 is None in CaseI
    return CriticalSet(
        kappa1=c.kappa1,
        kappa2=c.kappa2,
        kappa3=c.kappa3,
        alpha_bar=c.alpha_bar,
        kappa_c=_kappa_c_of(c),
    )
