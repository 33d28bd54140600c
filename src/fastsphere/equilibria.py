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

The fully supported branch passes through shape eta exactly when 1/kappa
equals _inverse_kappa_of there, a ratio of the mass and moment integrals
at eta that is strictly monotone in eta away from the degenerate
threshold m = 1 - 2/(d-1), so every solve here is a bracketed scalar
root find.  (Its quadrature route at a given eta, like every second
route, lives with its check in verification.)  Internally the branch is
tracked through zeta = eta - 1 (solved in log space): everything
observable varies like a fractional power of zeta near the concentration
end, so eta itself, a double glued to 1, would wash out the branch
exactly where the handoff to the measure-valued family happens.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    FastSphereError,
    InvalidParamError,
    NotIntegrableError,
    OutOfWindowError,
    ToleranceNotMetError,
)
from .model import (
    RegimeCase,
    _real,
    _regime_case,
    check_kappa,
    eta1_closed_form,
    sphere_geometry,
    validate_params,
)
from .solvers import DEFAULT_ROOT_TOL, bracketed_root, lockstep_roots

# zeta = eta - 1 ceiling standing in for the uniform limit eta -> infinity.
_ZETA_CEIL = 1e9


@dataclass(frozen=True)
class FullySupportedState:
    """One point of the fully supported branch at interaction strength kappa.

    eta_minus_1 carries the shape parameter at full relative precision;
    eta = 1 + eta_minus_1 is kept for reporting.  moments holds the mass,
    moment and entropy integrals (i0, i1, i_ent) at eta that the state was
    solved with, so that its energy needs no second quadrature.
    """

    kappa: float
    eta: float  # shape parameter, > 1 strictly inside the branch window
    s: float  # centre-of-mass norm, in (0, 1)
    lambda_: float  # multiplier, equal to -kappa * s * eta
    eta_minus_1: float
    moments: tuple[float, float, float] | None = field(default=None, repr=False, compare=False)


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

    @property
    def regime(self) -> RegimeCase:
        """The m-range, read off which strengths exist."""
        if self.kappa3 is not None:
            return RegimeCase.CASE_III
        return RegimeCase.CASE_I if self.kappa2 is None else RegimeCase.CASE_II


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


class _Constants(NamedTuple):
    """The kappa-free constants of (d, m), as _constants forms them.

    The rho_bar fields, i0 to ent, are None in CaseI, where rho_bar does
    not exist; kappa3 and alpha_bar are None in CaseII too.
    """

    d: int
    m: float
    q: float  # 1 / (m - 1), the exponent of the branch densities
    regime: RegimeCase
    area_sd: float  # |S^d|
    area_sdm1: float  # |S^(d-1)|
    kappa1: float
    i0: float | None = None  # eta = 1 mass I(1, q, 0) of rho_bar
    kappa2: float | None = None
    s_bar: float | None = None
    ent: float | None = None  # int rho_bar^m dS
    kappa3: float | None = None
    alpha_bar: float | None = None


def _constants(d, m: float) -> _Constants:
    """Every kappa-free constant of (d, m), in one pass.

    The parameters are validated and classified once, and every constant is
    formed at the int d and float m they were checked as; the sphere
    geometry is taken once and the eta = 1 mass I0 of rho_bar built once,
    in closed form; every other constant is a closed form of these.  The private readers of
    (d, m) take this pass alone, so each public call forms it once.
    """
    d, m, thr_high, thr_low = validate_params(d, m)
    regime = _regime_case(m, thr_high, thr_low)
    q = 1.0 / (m - 1.0)
    geo = sphere_geometry(d)  # raises for d >= 438 before the closed form
    k1 = m * (d + 1) * geo.area_sd ** (1.0 - m)
    head = (d, m, q, regime, geo.area_sd, geo.area_sdm1, k1)
    if regime is RegimeCase.CASE_I:
        return _Constants(*head)
    i0 = eta1_closed_form(q, 0, d)
    # 1 / _inverse_kappa_of at eta = 1, where the moment is I1 = I0 (-q) / (q + d)
    k2 = m / (1.0 - m) * (geo.area_sdm1 * i0) ** (1.0 - m) * (q + d) / -q
    sb = 1.0 / ((1.0 - m) * d - 1.0)
    # int rho_bar^m dS = |S^(d-1)|^(1-m) I(1, q + 1, 0) I0^(-m), and the Beta recurrence
    # B(a + 1, b) = B(a, b) a / (a + b) gives I(1, q + 1, 0) = I0 (2q + d) / (q + d)
    ent = geo.area_sdm1 ** (1.0 - m) * (i0 * (2.0 * q + d) / (q + d)) * i0 ** (-m)
    if regime is RegimeCase.CASE_II:
        return _Constants(*head, i0, k2, sb, ent)
    # the tangency of kappa (s_bar + alpha (1 - s_bar)) and (1 - alpha)^(m-1) kappa2 s_bar
    alpha_bar = (1.0 - 2.0 * sb + m * sb) / ((1.0 - sb) * (2.0 - m))
    k3 = k2 * (1.0 - m) * sb / (1.0 - sb) * (1.0 - alpha_bar) ** (m - 2.0)
    return _Constants(*head, i0, k2, sb, ent, k3, alpha_bar)


def _rho_bar_constants(d, m: float) -> _Constants:
    """_constants(d, m), where rho_bar exists (m < 1 - 2/d); NotIntegrableError otherwise."""
    c = _constants(d, m)
    if c.regime is RegimeCase.CASE_I:
        raise NotIntegrableError(
            f"the regular density is not integrable for m={c.m!r} >= 1 - 2/d (d={c.d})"
        )
    return c


_SMALLEST_NORMAL = sys.float_info.min


def _inverse_kappa_scale(area_sdm1: float, m: float) -> float:
    return (1.0 - m) / m * area_sdm1 ** (m - 1.0)


def _inverse_kappa_of(
    zeta: float, i0: float, i1: float, scale: float, d: int, m: float
) -> float:
    """1/kappa of the supported branch at eta = 1 + zeta, from the mass i0 and moment i1 there.

    Strictly increasing in eta for m > 1 - 2/(d-1), strictly decreasing
    below, with limit 1/kappa1 as eta -> infinity.
    """
    # a subnormal i0 has already lost the relative precision asked for
    if not _SMALLEST_NORMAL <= i0 < math.inf:
        raise _mass_out_of_range(zeta, i0, d, m)
    return scale * i1 * i0 ** (m - 2.0)


def _mass_out_of_range(zeta: float, i0: float, d: int, m: float) -> ToleranceNotMetError:
    """The error of a mass i0 that is not a normal double, at eta = 1 + zeta."""
    return ToleranceNotMetError(
        f"mass integral left double range at eta = 1 + {zeta!r} for d={d}, m={m!r} (i0={i0!r})"
    )


def _window(c: _Constants):
    """Existence window of the fully supported branch, as a check of kappa.

    Its ends, kappa1 and kappa2, are read off the pass c of (d, m).  The
    returned check(kappa) raises OutOfWindowError outside the window.
    """
    k1, k2 = c.kappa1, c.kappa2
    lo, hi = (k1, math.inf) if k2 is None else sorted((k1, k2))

    def check(kappa: float) -> None:
        # open at kappa1, where the branch leaves the uniform state; closed
        # at kappa2, where eta = 1
        if not (lo < kappa < hi or kappa == k2):
            raise OutOfWindowError(
                f"kappa={kappa!r} outside the fully supported branch window "
                f"({lo!r}, {hi!r}) for d={c.d}, m={c.m!r} ({c.regime.value})"
            )

    return check


def _log_zeta_bracket(c: _Constants) -> tuple[float, float]:
    """Bracket of every branch solve of the pass c, in log(zeta)."""
    # eta^q underflows for m very close to 1; keep the uniform-limit end of
    # the bracket inside double range
    ceil = min(_ZETA_CEIL, math.exp(620.0 / abs(c.q)))
    return math.log(_zeta_floor(c.q, c.d)), math.log(ceil)


def fully_supported_state(kappa: float, d, m: float) -> FullySupportedState:
    """The fully supported equilibrium at kappa: fully_supported_states at [kappa].

    Raises the FastSphereError its solve ends with.
    """
    (state,) = fully_supported_states([kappa], d, m)
    if isinstance(state, FastSphereError):
        raise state
    return state


def fully_supported_states(kappas, d, m: float) -> list:
    """The fully supported equilibrium at each of kappas, with the branch solves run in lockstep.

    Each entry is the state or the FastSphereError that kappa raises there
    (without its traceback); a solve does not depend on the other kappas,
    so its state is the one fully_supported_state gives.
    """
    return _fully_supported_states([(_constants(d, m), kappas)])[0]


def _fully_supported_states(requests) -> list:
    """fully_supported_states for each (c, kappas) of requests, c a pass of (d, m), in one lockstep.

    Returns one list of entries per request.  Every solve carries its own
    pass: q, d, m, the scale of 1/kappa, the window and the bracket.  Each
    solver round evaluates the integrals of every unfinished solve, of any
    request, in one quadrature._integrals call (a lone zeta as well), which
    takes the round's new zetas grouped by the (q, d) of their pass, the
    groups in the order the round meets them, and answers in the order
    asked.  A memo per pass, one dict of the moments at every zeta met at
    its (q, d), kept for this call only (the package's only memo of
    integrals), serves the zetas that several solves visit and the
    centre-of-mass norm at each root.  Next to it, for this call only too,
    every round shares one table per (q, d) of the seed panels that deep
    zetas take from eta = 1 (quadrature._eta1_table).  Two neighbouring
    meshes take the smaller of their numbers of those panels, so each
    group is asked in zeta order, where neighbours take similar numbers.
    The first round asks each solve's bracket floor, the deepest zeta of
    the solve, so it builds each table to the most free panels any later
    round takes.  A solve does not depend on
    the other solves of its round, so each request's entries are those it
    gets alone.  A root whose centre-of-mass norm s does not come out below
    1 (in case i at large kappa, eta - 1 passes below double resolution)
    ends in ToleranceNotMetError.
    """
    results = [[None] * len(kappas) for _, kappas in requests]
    solves, places, brackets = [], [], []  # each solve's kappa and pass, its entry, its bracket
    memos = {}  # each (q, d)'s moments, by zeta
    for (c, kappas), entries in zip(requests, results):
        in_window, bracket = _window(c), _log_zeta_bracket(c)
        spec = (c.q, c.d)
        solve = (c.d, c.m, _inverse_kappa_scale(c.area_sdm1, c.m), spec, memos.setdefault(spec, {}))
        for i, kappa in enumerate(kappas):
            try:
                kappa = check_kappa(kappa)  # (d, m) were checked by the pass
                in_window(kappa)
            except FastSphereError as exc:
                entries[i] = exc.with_traceback(None)
            else:
                solves.append((kappa, *solve))
                places.append((entries, i))
                brackets.append(bracket)
    if not solves:
        return results
    from .quadrature import _integrals

    tables, exp = {}, math.exp

    def residuals(asks):
        zetas = [exp(y) for _, y in asks]
        new = defaultdict(set)  # the new zetas of each (q, d), the groups in the order first met
        for (item, _), zeta in zip(asks, zetas):
            _, _, _, _, spec, memo = solves[item]
            if zeta not in memo:
                new[spec].add(zeta)
        if new:
            # each group in zeta order, so that neighbouring meshes take
            # similar numbers of free panels from the shared tables
            new = {spec: sorted(fresh) for spec, fresh in new.items()}
            found = iter(_integrals(new, tables))
            for spec, fresh in new.items():
                memos[spec].update(zip(fresh, found))
        values = []
        for (item, _), zeta in zip(asks, zetas):
            kappa, d, m, scale, _, memo = solves[item]
            at_zeta = memo[zeta]
            if isinstance(at_zeta, FastSphereError):
                values.append(at_zeta)
                continue
            try:
                inverse = _inverse_kappa_of(zeta, at_zeta[0], at_zeta[1], scale, d, m)
            except FastSphereError as exc:
                values.append(exc.with_traceback(None))
            else:
                values.append(inverse * kappa - 1.0)
        return values

    roots = lockstep_roots(residuals, brackets)
    for (kappa, *_, memo), (entries, i), y in zip(solves, places, roots):
        if isinstance(y, FastSphereError):
            entries[i] = y
            continue
        zeta = math.exp(y)
        at_root = memo[zeta]
        eta, s = 1.0 + zeta, at_root[1] / at_root[0]
        if not s < 1.0:
            # at large kappa in case i, eta - 1 falls below double resolution
            entries[i] = ToleranceNotMetError(
                f"centre-of-mass norm s={s!r} is not below 1 at kappa={kappa!r}, "
                f"eta - 1 = {zeta!r}: the state is past double precision"
            )
            continue
        entries[i] = FullySupportedState(
            kappa=kappa, eta=eta, s=s, lambda_=-kappa * s * eta, eta_minus_1=zeta, moments=at_root
        )
    return results


def fully_supported_density(
    state: FullySupportedState, theta: float, d, m: float
) -> float:
    """Pointwise density of the fully supported state at polar angle theta.

    The state's fields are checked first (_check_state), so a hand-built
    state with a field out of range raises InvalidParamError.
    """
    _, m, _, _ = validate_params(d, m)
    kappa, s, zeta, _ = _check_state(state)
    return _fully_supported_density(kappa, s, zeta, _check_theta(theta), m)


def _check_state(state: FullySupportedState) -> tuple[float, float, float, tuple | None]:
    """The kappa, s, eta_minus_1 and moments of a state, each field read by model._real.

    The moments, when set, must be three finite numbers (i0, i1, i_ent) with
    i0 > 0.  A bad field raises InvalidParamError naming it; every solved
    state passes, and the functions that take a state compute with these
    values.
    """
    kappa = check_kappa(state.kappa)
    s = _real(state.s, "centre-of-mass norm s must lie in (0, 1)", lambda s: 0.0 < s < 1.0)
    rule = "eta_minus_1 must be finite and >= 0"
    zeta = _real(state.eta_minus_1, rule, lambda zeta: 0.0 <= zeta < math.inf)
    moments = state.moments
    if moments is not None:
        rule = "moments must be three finite numbers (i0, i1, i_ent) with i0 > 0"
        if not (isinstance(moments, tuple) and len(moments) == 3):
            raise InvalidParamError(f"{rule}, got {moments!r}")
        i0, i1, i_ent = moments
        moments = (
            _real(i0, rule, lambda i0: 0.0 < i0 < math.inf),
            _real(i1, rule, math.isfinite),
            _real(i_ent, rule, math.isfinite),
        )
    return kappa, s, zeta, moments


def _check_theta(theta) -> float:
    """theta read by model._real, after checking it lies in [0, pi]."""
    return _real(theta, "theta must lie in [0, pi]", lambda theta: 0.0 <= theta <= math.pi)


def _fully_supported_density(kappa: float, s: float, zeta: float, theta: float, m: float) -> float:
    """fully_supported_density at a checked theta, from the checked kappa, s and zeta of a state.

    +inf where the density leaves double range, as rho_bar's does at its
    pole: near kappa2 the solved zeta is as low as 1e-280.
    """
    # -lambda - kappa s cos(theta) = kappa s (zeta + (1 - cos theta))
    base = kappa * s * (zeta + 2.0 * math.sin(0.5 * theta) ** 2)
    try:
        return (m / (1.0 - m)) ** (1.0 / (1.0 - m)) * base ** (1.0 / (m - 1.0))
    except (OverflowError, ZeroDivisionError):  # a factor leaves double range, or base is 0
        pass
    try:  # the density as one power, m / ((1 - m) base) overflowing to inf
        return (m / (1.0 - m) / base if base else math.inf) ** (1.0 / (1.0 - m))
    except OverflowError:
        return math.inf


def s_bar(d, m: float) -> float:
    """Centre-of-mass norm of the fixed regular density: 1 / ((1-m) d - 1)."""
    return _rho_bar_constants(d, m).s_bar


def alpha_roots(kappa: float, d, m: float) -> list[float]:
    """Atom fractions of measure-valued equilibria at kappa, ascending.

    Roots in (0, 1) of

        kappa (s_bar + alpha (1 - s_bar)) = (1 - alpha)^(m-1) kappa2 s_bar.

    CaseII: one root for kappa > kappa2, none otherwise.  CaseIII: none
    below kappa3, a tangent double root at kappa3 (returned twice), two
    roots straddling alpha_bar on (kappa3, kappa2), one root past kappa2.
    """
    c = _rho_bar_constants(d, m)
    return _alpha_roots(check_kappa(kappa), c)


def _alpha_roots(kappa: float, c: _Constants) -> list[float]:
    """alpha_roots from the pass c of (d, m), in CaseII or CaseIII."""
    m, sb, k2, alpha_bar = c.m, c.s_bar, c.kappa2, c.alpha_bar

    def mismatch(alpha: float) -> float:
        return kappa * (sb + alpha * (1.0 - sb)) - (1.0 - alpha) ** (m - 1.0) * k2 * sb

    scale = max(1.0, kappa)
    residual_tol = DEFAULT_ROOT_TOL * scale
    cap = 1.0 - 1e-12  # the right side diverges at alpha = 1, root is interior

    if alpha_bar is None:  # CaseII
        if kappa <= k2:
            return []
        root = bracketed_root(mismatch, 0.0, cap, residual_tol=residual_tol)
        # kappa within rounding of kappa2 can land on the alpha = 0 boundary
        return [root] if root > 0.0 else []

    gap_at_bar = mismatch(alpha_bar)  # increasing in kappa, zero at kappa3
    if gap_at_bar < -1e-11 * scale:
        return []
    if gap_at_bar <= 1e-11 * scale:
        return [alpha_bar, alpha_bar]  # tangent double root at kappa3
    upper = bracketed_root(mismatch, alpha_bar, cap, residual_tol=residual_tol)
    if kappa >= k2:
        return [upper]
    lower = bracketed_root(mismatch, 0.0, alpha_bar, residual_tol=residual_tol)
    return [lower, upper] if lower > 0.0 else [upper]


def _measure_valued_alphas(kappa: float, c: _Constants) -> dict[str, float]:
    """_alpha_roots by branch, "upper" first, for the branches that exist at kappa.

    The tangent double root at kappa3 is the upper branch alone.
    """
    roots = _alpha_roots(kappa, c)
    alphas = {"upper": roots[-1]} if roots else {}
    if len(roots) == 2 and roots[0] < roots[1]:
        alphas["lower"] = roots[0]
    return alphas


def singular_state(kappa: float, d, m: float, branch: str = "upper") -> SingularState:
    """Measure-valued equilibrium at kappa on the requested branch."""
    c = _rho_bar_constants(d, m)
    kappa = check_kappa(kappa)
    if branch not in ("upper", "lower"):
        raise InvalidParamError(f"branch must be 'upper' or 'lower', got {branch!r}")
    alphas = _measure_valued_alphas(kappa, c)
    if not alphas:
        raise OutOfWindowError(
            f"no measure-valued equilibrium at kappa={kappa!r} for d={c.d}, m={c.m!r}"
        )
    if branch not in alphas:
        raise OutOfWindowError(
            f"no lower measure-valued branch at kappa={kappa!r} for d={c.d}, m={c.m!r}"
        )
    return SingularState(kappa=kappa, alpha=alphas[branch], s_bar=c.s_bar)


def rho_bar_density(theta: float, d, m: float) -> float:
    """Pointwise value of the fixed regular density; +inf at theta = 0."""
    c = _rho_bar_constants(d, m)
    return _rho_bar_density(_check_theta(theta), c)


def _rho_bar_density(theta: float, c: _Constants) -> float:
    """rho_bar_density at a checked theta, from the pass c of (d, m)."""
    v = 2.0 * math.sin(0.5 * theta) ** 2  # 1 - cos(theta)
    if v == 0.0:
        return math.inf
    return v**c.q / (c.area_sdm1 * c.i0)
