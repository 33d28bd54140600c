"""Quadrature for the polar integrals behind every equilibrium condition.

Everything downstream reduces to the one-parameter family

    I(eta, q, p, d) = int_0^pi (eta - cos t)^q  sin^{d-1} t  cos^p t  dt,

with eta >= 1, p in {0, 1}, and q a (typically negative) exponent derived
from the diffusion exponent.  At eta = 1 the integrand has an algebraic
singularity at t = 0 which is integrable exactly when 2q + d - 1 > -1.

Folding the upper half of the domain through t -> pi - t gives

    I = int_0^{pi/2} [ (eta - cos t)^q + (-1)^p (eta + cos t)^q ]
                     sin^{d-1} t cos^p t  dt,

which confines the possible singularity to a single endpoint, guarantees
no panel straddles the sign change of cos t, and lets the p = 1 moment be
computed without cancellation: the bracketed difference is taken through
expm1, so the moment integrand stays strictly positive even for eta of
order 1e6 where the two halves agree to ten digits.  The combination
eta - cos t is always formed as (eta - 1) + 2 sin^2(t/2), never by direct
subtraction, and each term is assembled in log space so that steep panels
near the endpoint cannot overflow halfway through a product.

Every caller needs the same three members at one eta: the mass
I(eta, q, 0, d), the moment I(eta, q, 1, d) and the entropy integral
I(eta, q + 1, 0, d).  One cached kernel, _integral, returns all three from
a single adaptive mesh.  The integrand evaluates the three folded profiles
from shared sin, log and exp values (the entropy profile is the mass
profile's two halves times eta -+ cos t), and each Gauss-Kronrod batch
integrates them together.

Every integral is seeded the same way.  The only fine structure is the
spike of (eta - cos t)^q at t = 0, of width sqrt(eta - 1), and around and
above it the integrand is self-similar under halving.  So the seed panels
are dyadic, with edges pi/2 * 2^-k from pi/2 down to the first edge below
half the spike scale.  Below that edge the integrand is analytic for
eta > 1, and one more panel reaches down to 0; for eta - 1 >= pi^2 that
leaves the single panel [0, pi/2].  At eta = 1 the edges stop at a cutoff
theta_c instead, and the piece below it is added in closed form (exact to
a relative O(theta_c^2) correction that joins the error budget).

All panels are integrated by a Gauss-Kronrod 7/15 rule with |K15 - G7|
error estimates, and each component must meet the requested relative
tolerance of its own total.  While one misses it, every panel whose
estimate exceeds its equal share of that component's budget is marked,
and the whole contiguous span from the first to the last marked panel is
bisected in one batch.  The seed mesh usually meets the tolerance at once,
so one integral costs about one batch.

At eta = 1 the full integrals also have exact Gamma-function values
(eta1_closed_form), kept strictly separate from the quadrature path so
the two can serve as independent oracles for each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParamError, NotIntegrableError, ToleranceNotMetError
from .model import check_dimension

DEFAULT_REL_TOL = 1e-10
# The seed mesh reaches down to this fraction of the spike scale sqrt(eta - 1).
_SPIKE_FRACTION = 0.5

_MAX_PANELS = 4000
_HALF_PI = 0.5 * math.pi
# Smallest admissible dyadic cutoff; keeps every log-space exponent on the
# graded mesh comfortably inside double range.
_MIN_CUT = 1e-140

# Gauss-Kronrod 7/15 nodes and weights (positive abscissae, centre last).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
# The same rule over all 15 nodes, laid out as (-x, +x, centre); the error
# weights give K15 - G7 as one dot product.
_NODES = np.concatenate((-_XGK[:7], _XGK[:7], _XGK[7:]))
_W_KRONROD = np.concatenate((_WGK[:7], _WGK[:7], _WGK[7:]))
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:7:2] = _W_GAUSS[8:14:2] = _WG[:3]
_W_GAUSS[14] = _WG[3]
_W_ERROR = _W_KRONROD - _W_GAUSS


@dataclass(frozen=True)
class ThetaIntegralSpec:
    """One member of the polar integral family."""

    eta: float
    q: float
    p: int
    d: int


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise InvalidParamError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _check_spec(eta: float, q: float, p: int, d) -> tuple[float, float, int, int]:
    d = check_dimension(d)
    eta = float(eta)
    q = float(q)
    if p not in (0, 1):
        raise InvalidParamError(f"cosine power p must be 0 or 1, got {p!r}")
    if not math.isfinite(eta) or eta < 1.0:
        raise InvalidParamError(f"eta must be finite and >= 1, got {eta!r}")
    if not math.isfinite(q):
        raise InvalidParamError(f"exponent q must be finite, got {q!r}")
    if eta == 1.0 and 2.0 * q + d <= 0.0:
        raise NotIntegrableError(
            f"(1 - cos t)^q sin^(d-1) t diverges at t = 0 for q={q!r}, d={d}: "
            f"need 2q + d - 1 > -1"
        )
    return eta, q, int(p), d


def _folded_integrand(theta: np.ndarray, zeta: float, q: float, d: int) -> np.ndarray:
    """Folded mass, moment and entropy integrands on (0, pi/2] at eta = 1 + zeta.

    Returns the integrands of I(eta, q, 0), I(eta, q, 1) and I(eta, q + 1, 0)
    stacked along a new leading axis, all three from one set of sin, log
    and exp values.  Parametrized by zeta = eta - 1 so callers tracking the
    branch close to eta = 1 keep full relative precision; theta must not
    contain 0 when zeta = 0.
    """
    half = np.sin(0.5 * theta)
    v = 2.0 * half * half  # 1 - cos(theta), no cancellation
    cos_t = 1.0 - v
    a1 = zeta + v
    a2 = (2.0 + zeta) - v
    log_a1 = np.log(a1)
    log_a2 = np.log(a2)
    log_weight = (d - 1) * np.log(np.sin(theta)) if d > 1 else 0.0
    e1 = np.exp(q * log_a1 + log_weight)
    e2 = np.exp(q * log_a2 + log_weight)
    # log(a1/a2) two ways: 1 + z with z = -2 cos(t)/a2 is exact algebra but
    # loses v once cos(t) rounds to 1, so it is only used where the ratio is
    # close to 1 (and the plain log difference would cancel).
    z = -2.0 * cos_t / a2
    y = q * np.where(z > -0.5, np.log1p(np.maximum(z, -0.75)), log_a1 - log_a2)
    # a1^q dwarfs a2^q where y > 700; expm1 would overflow there
    moment = np.where(y > 700.0, e1 - e2, e2 * np.expm1(np.minimum(y, 700.0)))
    return np.stack((e1 + e2, moment * cos_t, e1 * a1 + e2 * a2))


def _kronrod_batch(f, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and |K15 - G7| estimates for consecutive panels.

    bounds is an increasing array of n + 1 panel edges; one call to f
    covers all 15 n nodes.  f returns its components stacked along a
    leading axis, and so do the two (components, n) results.
    """
    c = 0.5 * (bounds[1:] + bounds[:-1])
    h = 0.5 * (bounds[1:] - bounds[:-1])
    fv = f(c[:, None] + h[:, None] * _NODES)
    return h * (fv @ _W_KRONROD), h * np.abs(fv @ _W_ERROR)


def _eta1_tail(q: float, d: int, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Values and error budgets of the three moments on (0, cut) at eta = 1.

    To leading order the folded integrand below the cutoff is
    2^(-q) t^(2q+d-1) + (-1)^p 2^q t^(d-1), whose integral is exact up to a
    relative O(cut^2) correction absorbed by the budget.  That keeps the
    quadrature usable arbitrarily close to the integrability threshold
    2q + d = 0, where the true mass concentrates at angles far below
    anything floating point panels can reach.
    """
    log_cut = math.log(cut)
    values, errors = [], []
    for qq, sign in ((q, 1.0), (q, -1.0), (q + 1.0, 1.0)):
        power = 2.0 * qq + d
        try:
            t1 = math.exp(-qq * math.log(2.0) + power * log_cut) / power
            t2 = 2.0**qq * cut**d / d
        except OverflowError:
            values.append(0.0)
            errors.append(math.inf)
            continue
        values.append(t1 + sign * t2)
        errors.append((t1 + t2) * cut * cut * (abs(qq) + d + 1.0))
    return np.array(values), np.array(errors)


def _worst(err: np.ndarray, total: np.ndarray) -> float:
    return max(e / max(abs(t), 1e-300) for e, t in zip(err.tolist(), total.tolist()))


def _refine(
    f, edges: np.ndarray, rel_tol: float, offset: np.ndarray, err_floor: np.ndarray
) -> np.ndarray:
    """Adaptive Gauss-Kronrod refinement of all components over the seed mesh.

    Each component must meet rel_tol relative to its own total.  While one
    misses, every panel whose estimate exceeds its equal share of a missing
    component's budget is marked, and the contiguous span from the first to
    the last marked panel is bisected in one batch.  offset is the
    closed-form endpoint tail that joins each total, and err_floor its
    irreducible share of each error budget.
    """
    values, errors = _kronrod_batch(f, edges)
    while True:
        total = offset + values.sum(axis=1)
        err = err_floor + errors.sum(axis=1)
        missing = ~(err <= rel_tol * np.abs(total))
        if values.shape[1] > _MAX_PANELS:
            raise ToleranceNotMetError(
                f"adaptive quadrature stalled at estimated relative error "
                f"{_worst(err, total):.3e} after {values.shape[1]} panels "
                f"(target {rel_tol:.1e})"
            )
        if not missing.any():
            return total
        budget = rel_tol * np.abs(total) - err_floor
        share = np.where(missing, budget / values.shape[1], np.inf)
        marked = np.flatnonzero((errors > share[:, None]).any(axis=0))
        span = edges[marked[0] : marked[-1] + 2] if marked.size else edges[:0]
        mid = 0.5 * (span[:-1] + span[1:])
        splits = (span[:-1] < mid) & (mid < span[1:])
        if not ((share > 0.0).all() and mid.size and splits.all()):
            # No panel can reduce the budget: either the budget is used up
            # (by the analytic tail, or rel_tol * total underflowed) or the
            # marked panels sit at floating point resolution.
            raise ToleranceNotMetError(
                f"adaptive quadrature hit its resolution floor at estimated "
                f"relative error {_worst(err, total):.3e} (target {rel_tol:.1e})"
            )
        sub = np.empty(span.size + mid.size)
        sub[0::2] = span
        sub[1::2] = mid
        vals, errs = _kronrod_batch(f, sub)
        lo, hi = marked[0], marked[0] + mid.size
        edges = np.concatenate((edges[:lo], sub, edges[hi + 1 :]))
        values = np.concatenate((values[:, :lo], vals, values[:, hi:]), axis=1)
        errors = np.concatenate((errors[:, :lo], errs, errors[:, hi:]), axis=1)


@lru_cache(maxsize=65536)
def _integral(zeta: float, q: float, d: int, rel_tol: float) -> tuple[float, float, float]:
    """(I(eta, q, 0), I(eta, q, 1), I(eta, q + 1, 0)) at eta = 1 + zeta, keyed by zeta exactly."""
    if zeta == 0.0 and 2.0 * q + d <= 0.0:
        raise NotIntegrableError(
            f"(1 - cos t)^q sin^(d-1) t diverges at t = 0 for q={q!r}, d={d}: "
            f"need 2q + d - 1 > -1"
        )
    if zeta > 0.0:
        low = _SPIKE_FRACTION * math.sqrt(zeta)
    else:
        low = _HALF_PI * math.exp(-18.0 * math.log(10.0) / (2.0 * q + d))
        # the floor keeps 2 sin^2(t/2) fully precise where it IS the integrand
        low = min(max(low, _MIN_CUT), _HALF_PI / 16.0)
    n = max(math.ceil(math.log2(_HALF_PI / low)), 0)
    edges = _HALF_PI * 2.0 ** -np.arange(n, -1, -1, dtype=float)
    if zeta > 0.0:
        # below the spike the integrand is analytic: one panel down to 0
        edges = np.concatenate(([0.0], edges))
        tail = tail_err = np.zeros(3)
    else:
        # the tail joins at the actual lowest panel edge, not the nominal cut
        tail, tail_err = _eta1_tail(q, d, float(edges[0]))
    f = lambda t: _folded_integrand(t, zeta, q, d)
    return tuple(_refine(f, edges, rel_tol, tail, tail_err).tolist())


def theta_integral(spec: ThetaIntegralSpec, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Evaluate int_0^pi (eta - cos t)^q sin^{d-1} t cos^p t dt.

    Parameters
    ----------
    spec : ThetaIntegralSpec
        eta >= 1, exponent q, cosine power p in {0, 1}, dimension d >= 1.
    rel_tol : float
        Requested relative error, 0 < rel_tol <= 1e-6.

    Raises NotIntegrableError when eta = 1 and 2q + d - 1 <= -1, and
    ToleranceNotMetError when the error estimate cannot reach rel_tol.
    """
    rel_tol = float(rel_tol)
    if not 0.0 < rel_tol <= 1e-6:
        raise InvalidParamError(f"rel_tol must lie in (0, 1e-6], got {rel_tol!r}")
    eta, q, p, d = _check_spec(spec.eta, spec.q, spec.p, spec.d)
    return _integral(eta - 1.0, q, d, rel_tol)[p]


def eta1_closed_form(q: float, p: int, d) -> float:
    """Exact Gamma-function value of the eta = 1 integral.

    Substituting 1 - cos t = 2 sin^2(t/2) turns the p = 0 integral into a
    Beta function,

        I0 = 2^(q+d-1) Gamma(q + d/2) Gamma(d/2) / Gamma(q + d),

    and writing cos t = 2 cos^2(t/2) - 1 expresses the p = 1 integral as a
    difference of two such terms, which telescopes to I0 * (-q) / (q + d).
    The Gamma arithmetic is done in log space and exponentiated once.
    """
    _, q, p, d = _check_spec(1.0, q, p, d)
    log_i0 = (
        (q + d - 1.0) * math.log(2.0)
        + math.lgamma(q + 0.5 * d)
        + math.lgamma(0.5 * d)
        - math.lgamma(q + d)
    )
    i0 = math.exp(log_i0)
    if p == 0:
        return i0
    return i0 * (-q) / (q + d)
