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
I(eta, q + 1, 0, d).  One kernel, _integral, returns all three from a
single adaptive mesh.  The integrand evaluates the three folded profiles
from shared sin, log and exp values (the entropy profile is the mass
profile's two halves times eta -+ cos t), and each Gauss-Kronrod batch
integrates them together.

Every integral is seeded the same way.  The only fine structure is the
spike of (eta - cos t)^q at t = 0, of width sqrt(eta - 1), and around and
above it the integrand is self-similar under halving.  So the seed panels
are dyadic, with edges pi/2 * 2^-k from pi/2 down to the first edge below
half the spike scale.  Below that edge the integrand is analytic for
eta > 1, and one more panel reaches down to 0; for eta - 1 >= pi^2 that
leaves the single panel [0, pi/2].  Where the eta = 1 integral converges
(2q + d > 0) the edges never go below the cutoff theta_c under which the
singular part of the eta = 1 integrand holds less than 1e-18 of its
total, and for eta > 1 even less, however narrow the spike.  At eta = 1
with q < 0, where the integrand is singular at 0, the piece below theta_c
takes the bottom panel's place in closed form (exact to a relative
O(theta_c^2) correction that joins the error budget); with q >= 0 the
integrand is bounded, and the bottom panel stays.

All panels are integrated by a Gauss-Kronrod 7/15 rule with |K15 - G7|
error estimates, and each component must meet the package's one
accuracy, DEFAULT_REL_TOL, relative to its own total.  While one misses
it, every panel whose estimate exceeds its equal share of that
component's budget is marked, and the whole contiguous span from the
first to the last marked panel is bisected.  One routine, _refine, does
this for one mesh or many: each round lays the halves of every span of
the meshes that still miss as one increasing run of edges, the runs end
to end, and bisects them all in one batch; the panel that joins two runs
is a bridge, whose values are dropped.  Every seed goes to _refine
whole, so its first round is the module's one test of the tolerance.
The seed mesh usually meets it at once, so one integral costs about one
batch.

Every seed panel is a rung of one dyadic ladder: [pi/2 * 2^-(k+1), pi/2 *
2^-k], or a bottom panel [0, pi/2 * 2^-n].  Its edges, and everything
the integrand needs of the angle alone at its nodes (1 - cos t and
log sin t, its input), are the same at every zeta, so a table of them
(_ladder) is built on first use, down to the deepest level a seed can
reach; a seed is a slice of it, read by index, and only the halves that
refinement bisects build their nodes and compute their basis.

The branch solves run towards eta = 1 and bracket zeta from a floor as
low as 1e-280, so many seeds are deep, and their upper panels are
exactly those of eta = 1.  At a node the integrand reads zeta only
through a1 = zeta + v and a2 = (2 + zeta) - v, with v = 1 - cos t.  If,
at every node of a ladder panel, zeta is below half the gap from v to
the next double, and zeta < 2^-52, then fl(zeta + v) = v and
fl(2 + zeta) = 2, so every later operation is the one at zeta = 0, and
the panel's Kronrod value and |K15 - G7| estimate are bit for bit its
eta = 1 ones.  The ladder holds that threshold per panel (free_below);
it grows with the panel, so the free panels of a seed are a top suffix
of it, found by one searchsorted.

The branch solves, run in lockstep, take their integrals from
_integrals, which integrates the seed meshes of many zetas together and
computes only the panels below each free suffix.  Where some seed has a
free panel it sorts the zetas, so that neighbours have similar suffixes
(with none, the order asked serves as well), and _seed_pass lays the computed
panels end to end, alternately upwards and downwards so that neighbours
share an edge (the two meshes of a pair are cut at the same panel), with
each panel's ladder index and zeta found by index arithmetic (no Python
loop per mesh).  It integrates up to _BATCH_NODES computed nodes in one
batch and takes the free panels from a table of the eta = 1 panels of
one (q, d) (_Eta1Rungs), filled in one batch down to the lowest free
panel the call uses.  That table is also where _integrals reads q and d,
so every panel of a call is of one (q, d); a caller with many calls at
one (q, d), such as a branch solve, shares one table between them.  A
full batch costs mostly its nodes, not its fixed numpy overhead, so the
free panels are the saving.  The pass and the eta = 1 table hold their
panels in _refine's rows, and one gather puts every full seed back in
increasing order; the pass then goes whole to _refine, which returns the
seeds that meet the tolerance and refines the others together, so a
round of their refinement costs one batch however many seeds it
bisects.  A lone zeta
(a single solve) goes to _integral, because on one mesh that layout
costs more than it saves.  Every panel and every per-mesh sum is
computed in the same order in either route, and every free panel equals
its computed value, so _integrals returns exactly what _integral would.
The solves work in log(eta - 1), so _integrals takes zeta > 0 only;
_integral also serves eta = 1, as the oracle of the closed form.

This module holds the numpy kernel alone, and it is the package's only
module that imports numpy at load time.  The public front of the family
(theta_integral(eta, q, p, d), DEFAULT_REL_TOL) lives in model,
which imports this kernel when an integral is asked for.  At eta = 1 the
full integrals are Beta functions (model.eta1_closed_form), and that
closed form is the primary route for every eta = 1 moment the package
reports: the mass and entropy of rho_bar behind kappa_c, the
measure-valued energies and multiplier.  It shares no module with this
quadrature, which at eta = 1 serves as its independent oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import FastSphereError, ToleranceNotMetError
from .model import DEFAULT_REL_TOL, _not_integrable

# The seed mesh reaches down to this fraction of the spike scale sqrt(eta - 1).
_SPIKE_FRACTION = 0.5

_MAX_PANELS = 4000
# Nodes per batch of seed meshes integrated together; a single seed mesh
# holds at most about 7000.
_BATCH_NODES = 8192
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


def _angle_basis(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 - cos(theta) and log(sin(theta)): what the integrand needs of theta."""
    half = np.sin(0.5 * theta)
    v = 2.0 * half * half  # 1 - cos(theta), no cancellation
    return v, np.log(np.sin(theta))


def _folded_integrand(v, log_sin, zeta, q: float, d: int) -> np.ndarray:
    """Folded mass, moment and entropy integrands on (0, pi/2] at eta = 1 + zeta.

    v and log_sin are _angle_basis at the nodes, one entry per node.
    Returns the integrands of I(eta, q, 0), I(eta, q, 1) and I(eta, q + 1, 0)
    stacked along a new leading axis, all three from one set of sin, log
    and exp values.  Parametrized by zeta = eta - 1 so callers tracking the
    branch close to eta = 1 keep full relative precision; zeta is a float or
    an array that broadcasts against v (one zeta per node).  No node may be
    0 where zeta = 0.
    """
    cos_t = 1.0 - v
    a1 = zeta + v
    a2 = (2.0 + zeta) - v
    log_a1 = np.log(a1)
    log_a2 = np.log(a2)
    # log(a1/a2) two ways: 1 + z with z = -2 cos(t)/a2 is exact algebra but
    # loses v once cos(t) rounds to 1, so it is only used where the ratio is
    # close to 1 (and the plain log difference would cancel).
    z = -2.0 * cos_t / a2
    y = q * np.where(z > -0.5, np.log1p(np.maximum(z, -0.75)), log_a1 - log_a2)
    log_weight = (d - 1) * log_sin if d > 1 else 0.0
    e1 = np.exp(q * log_a1 + log_weight)
    e2 = np.exp(q * log_a2 + log_weight)
    del z, log_a1, log_a2, log_weight  # lowers the peak memory of a full batch
    # a1^q dwarfs a2^q where y > 700; expm1 would overflow there
    moment = np.where(y > 700.0, e1 - e2, e2 * np.expm1(np.minimum(y, 700.0)))
    # written into one array: stacking fresh temporaries costs several times more
    out = np.empty((3,) + e1.shape)
    np.add(e1, e2, out=out[0])
    np.multiply(moment, cos_t, out=out[1])
    np.add(e1 * a1, e2 * a2, out=out[2])
    return out


def _panel_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 15 nodes of each panel [a, b] (either way round), one row each."""
    return (0.5 * (b + a))[:, None] + (0.5 * np.abs(b - a))[:, None] * _NODES


def _kronrod_batch(f, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and |K15 - G7| estimates for consecutive panels.

    bounds is an array of n + 1 panel edges, of which only the half widths
    are read.  perfbench/tracing.py counts a batch as len(bounds) - 1 panels
    and checks 15 integrand nodes per panel, so the panels of a batch must
    join: that is why _seed_pass lays its meshes alternately upwards and
    downwards and a refinement round adds bridge panels between its runs.
    f() returns the integrand at the 15 n nodes, from the angle basis its
    caller holds for them, components stacked along a leading axis, as are
    the two (components, n) results.  Each panel's sums run over its own 15
    nodes in a fixed order (a BLAS matrix-vector product would not keep to
    one), so its values do not depend on the other panels of the batch.
    """
    h = 0.5 * np.abs(bounds[1:] - bounds[:-1])
    fv = f()
    kronrod = np.einsum("...j,j->...", fv, _W_KRONROD)
    return h * kronrod, h * np.abs(np.einsum("...j,j->...", fv, _W_ERROR))


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


def _refine(zeta, q, d, table, begin: list, tail, tail_err) -> list:
    """Adaptive Gauss-Kronrod refinement of meshes at eta = 1 + zeta, one batch per round.

    Every mesh has the same q and d.  table holds one column per panel,
    mesh k's from begin[k] to the next start, in increasing order: rows
    0-2 are its Kronrod values, 3-5 their estimates, 6 and 7 its lower and
    upper edge.  tail[:, k] is mesh k's closed-form endpoint tail, which
    joins each total, and tail_err[:, k] the tail's irreducible share of
    each error budget.  Each component must meet DEFAULT_REL_TOL relative
    to its own total.  While one misses, every panel whose estimate
    exceeds its equal share of a missing component's budget is marked, and
    the contiguous span from the first to the last marked panel is
    bisected.  Each round bisects the spans of all the meshes that still
    miss in one batch: each span's halves are one increasing run of
    edges, and the runs are laid end to end, so the panel that joins two
    runs is a bridge, whose values are dropped.  A mesh's panels and sums
    do not depend on the other meshes, so each ends as it would on its
    own.

    Returns each mesh's (i0, i1, i_ent), or the ToleranceNotMetError it
    ends in, without a traceback.
    """
    results = [None] * zeta.size
    live = list(range(zeta.size))  # the place in zeta of each mesh still refined
    sizes = [b - a for a, b in zip(begin, begin[1:] + [table.shape[1]])]
    while True:
        # each mesh's run of panels is summed on its own and in the same order
        # wherever it sits, so its totals do not depend on the other meshes
        sums = np.add.reduceat(table[:6], begin, axis=1)
        total, err = tail + sums[:3], tail_err + sums[3:]
        bound = DEFAULT_REL_TOL * np.abs(total)
        missing = ~(err <= bound)
        grow = []
        for k, miss in enumerate(missing.any(axis=0).tolist()):
            if sizes[k] > _MAX_PANELS:
                results[live[k]] = ToleranceNotMetError(
                    f"adaptive quadrature stalled at estimated relative error "
                    f"{_worst(err[:, k], total[:, k]):.3e} after {sizes[k]} panels "
                    f"(target {DEFAULT_REL_TOL:.1e})"
                )
            elif miss:
                grow.append(k)
            else:
                results[live[k]] = tuple(total[:, k].tolist())
        if not grow:
            return results
        panels = np.array(sizes)
        share = np.where(missing, (bound - tail_err) / panels, np.inf)
        positive = (share > 0.0).all(axis=0).tolist()
        marked = (table[3:6] > share.repeat(panels, axis=1)).any(axis=0).nonzero()[0].tolist()
        lo, hi = table[6], table[7]
        mid = 0.5 * (lo + hi)
        # the panels at floating point resolution, which no bisection splits
        splits = (lo < mid) & (mid < hi)
        whole = [] if splits.all() else (~splits).nonzero()[0].tolist()
        keep, spans = [], []  # the meshes bisected now, and their first and last marked panel
        for k in grow:
            # the marked panels of mesh k are marked[a:b]
            a, b = bisect_left(marked, begin[k]), bisect_left(marked, begin[k] + sizes[k])
            if positive[k] and a < b:
                first, last = marked[a], marked[b - 1]
                if bisect_left(whole, first) == bisect_right(whole, last):
                    keep.append(k)
                    spans.append((first, last))
                    continue
            # No panel can reduce the budget: either the budget is used up
            # (by the analytic tail, or the budget underflowed) or the
            # marked panels sit at floating point resolution.
            results[live[k]] = ToleranceNotMetError(
                f"adaptive quadrature hit its resolution floor at estimated "
                f"relative error {_worst(err[:, k], total[:, k]):.3e} "
                f"(target {DEFAULT_REL_TOL:.1e})"
            )
        if not keep:
            return results
        if len(keep) < len(live):
            zeta, live = zeta[keep], [live[k] for k in keep]
            tail, tail_err = tail[:, keep], tail_err[:, keep]
        cuts = np.empty(2 * lo.size)  # each panel's lower edge and midpoint
        cuts[0::2], cuts[1::2] = lo, mid
        # each span's halves as one increasing run of edges, the runs end to
        # end; the panel that joins two runs is a bridge, which takes the zeta
        # of the run before it and whose columns are dropped
        laid, counts = [], []
        for first, last in spans:
            laid += [cuts[2 * first : 2 * last + 2], hi[last : last + 1]]
            counts.append(2 * (last - first) + 3)  # the span's halves and the bridge after them
        laid = np.concatenate(laid)
        v, log_sin = _angle_basis(_panel_nodes(laid[:-1], laid[1:]))
        zeta_col = zeta.repeat(counts)[:-1, None]
        vals, errs = _kronrod_batch(lambda: _folded_integrand(v, log_sin, zeta_col, q, d), laid)
        new = np.concatenate((vals, errs, laid[None, :-1], laid[None, 1:]))
        # each mesh again: its panels below the span, the span's halves, its panels above it
        parts, sizes_kept = [], []
        for k, (first, last), foot in zip(keep, spans, accumulate(counts, initial=0)):
            span = last + 1 - first
            parts += [
                table[:, begin[k] : first],
                new[:, foot : foot + 2 * span],
                table[:, last + 1 : begin[k] + sizes[k]],
            ]
            sizes_kept.append(sizes[k] + span)
        table = np.concatenate(parts, axis=1)
        sizes = sizes_kept
        begin = list(accumulate(sizes[:-1], initial=0))


def _seed_cut(q: float, d: int) -> float:
    """Lowest angle a seed mesh needs at any zeta: the eta = 1 cutoff where 2q + d > 0, else 0."""
    if 2.0 * q + d <= 0.0:
        return 0.0
    # below the cutoff the singular part of the eta = 1 integrand holds under
    # 1e-18 of its total, and for eta > 1 less still, so no finer dyadic
    # panel is needed: one bottom panel reaches 0, or at eta = 1 with q < 0
    # the closed-form tail takes its place
    cut = _HALF_PI * math.exp(-18.0 * math.log(10.0) / (2.0 * q + d))
    # the floor keeps 2 sin^2(t/2) fully precise where it IS the integrand
    return min(max(cut, _MIN_CUT), _HALF_PI / 16.0)


def _seed_levels(zeta, cut: float):
    """Dyadic levels n of the seed at zeta (a float or an array, cut > 0 where zeta = 0).

    n = ceil(log2(pi/2 / low)), at least 0, where low = max(sqrt(zeta)/2, cut):
    pi/2 * 2^-n is the highest dyadic edge at or below low.  Read off the
    binary exponent, so it is exact.
    """
    mantissa, exponent = np.frexp(_HALF_PI / np.maximum(_SPIKE_FRACTION * np.sqrt(zeta), cut))
    return np.maximum(exponent - (mantissa == 0.5), 0)


class _Ladder(NamedTuple):
    """Every panel a seed mesh can hold, with the integrand's angle basis at its nodes.

    Panel i < depth is the dyadic panel [pi/2 * 2^(i - depth), pi/2 *
    2^(i + 1 - depth)], so the n dyadic panels of a seed are the slice
    [depth - n, depth) in increasing order; panel depth + n is the bottom
    panel [0, pi/2 * 2^-n] of a seed with n levels (none at eta = 1 with
    q < 0, where the closed-form tail takes its place).  free_below[i]
    is the smallest of 2^-52 and half the spacing of 1 - cos t at the nodes
    of dyadic panel i: at any zeta below it the panel integrates as at
    zeta = 0.  It grows with i, so those panels are a top suffix of a seed.
    The nodes themselves are not kept: the basis is all a seed batch reads.
    """

    depth: int
    lo: np.ndarray  # lower edge of every panel
    hi: np.ndarray  # upper edge of every panel
    basis: tuple  # _angle_basis at every node, each part of shape (panels, 15)
    free_below: np.ndarray  # per dyadic panel


@lru_cache(maxsize=1)
def _ladder() -> _Ladder:
    """The seed panel table, built on first use.

    It reaches the deepest level any seed can have, that of the smallest
    positive zeta with no cutoff (539 levels, about 0.28 MB in all).
    """
    depth = int(_seed_levels(math.ulp(0.0), 0.0))
    tops = np.ldexp(_HALF_PI, np.arange(-depth, 1))
    lo = np.concatenate((tops[:-1], np.zeros(depth + 1)))
    hi = np.concatenate((tops[1:], tops[::-1]))
    basis = np.empty((2, lo.size, _NODES.size))
    for k in range(0, lo.size, 64):  # a few panels at a time, to keep the build small
        basis[:, k : k + 64] = _angle_basis(_panel_nodes(lo[k : k + 64], hi[k : k + 64]))
    free_below = np.minimum(0.5 * np.spacing(basis[0, :depth]).min(axis=1), 2.0**-52)
    for table in (lo, hi, basis, free_below):  # shared by every caller
        table.setflags(write=False)
    return _Ladder(depth, lo, hi, tuple(basis), free_below)


def _free_panels(zeta, levels):
    """Number of free panels, the top suffix a seed takes from eta = 1, of each seed."""
    ladder = _ladder()
    return np.minimum(ladder.depth - np.searchsorted(ladder.free_below, zeta, "right"), levels)


class _Eta1Rungs:
    """The top dyadic panels at zeta = 0, for one (q, d), as rows of _refine's table.

    Column i is ladder panel i: rows 0-5 its Kronrod values and estimates,
    rows 6 and 7 its edges.  The panels [top, depth) are filled, and fill
    extends them downwards in one batch.  Its callers fill only the free
    panels of the seeds they integrate, so the table computes nothing those
    seeds would not.
    """

    def __init__(self, q: float, d: int):
        ladder = _ladder()
        self.q, self.d, self.top = q, d, ladder.depth
        self.table = np.empty((8, ladder.depth))
        self.table[6], self.table[7] = ladder.lo[: ladder.depth], ladder.hi[: ladder.depth]

    def fill(self, low: int) -> None:
        """Fill the panels [low, depth)."""
        if low >= self.top:
            return
        ladder = _ladder()
        span = slice(low, self.top)
        v, log_sin = (part[span] for part in ladder.basis)
        edges = np.append(ladder.lo[span], ladder.hi[self.top - 1])
        self.table[:3, span], self.table[3:6, span] = _kronrod_batch(
            lambda: _folded_integrand(v, log_sin, 0.0, self.q, self.d), edges
        )
        self.top = low


def _seed_pass(zeta: np.ndarray, levels: np.ndarray, free, rungs: _Eta1Rungs):
    """One Gauss-Kronrod batch over the seed meshes of zeta > 0, which have the given levels.

    free is the number of free panels of each mesh, which come from rungs,
    filled down to them.  Only the other panels are
    computed: the bottom panel and the dyadic panels [depth - levels,
    depth - free).  They are laid end to end as one edge array, alternately
    upwards and downwards from the first, so that neighbours share their
    end edge, 0 or the top edge of a pair, whose two meshes must have the
    same number of free panels.  Each node takes its zeta and its angle
    basis by index from the ladder table, so the pass builds no nodes.

    Returns every mesh's full seed as _refine takes it: the table of its
    panels, mesh after mesh and each in increasing order, and the first
    column of each mesh.
    """
    ladder = _ladder()
    depth = ladder.depth
    panels = levels + 1 - free  # the bottom panel, then the computed dyadic ones
    starts = np.cumsum(panels) - panels
    mesh = np.repeat(np.arange(zeta.size), panels)  # mesh of each laid panel
    at = np.arange(mesh.size) - starts[mesh]  # its place in its mesh, as laid
    upward = mesh % 2 == 0
    # the place in increasing order; the map is its own inverse
    rank = np.where(upward, at, panels[mesh] - 1 - at)
    n = levels[mesh]
    panel = np.where(rank == 0, depth + n, depth - n + rank - 1)
    lo, hi = ladder.lo[panel], ladder.hi[panel]
    edges = np.concatenate((lo[:1], np.where(upward, hi, lo)))
    zeta_col = zeta[mesh][:, None]
    v, log_sin = (part.take(panel, 0) for part in ladder.basis)
    values, errors = _kronrod_batch(
        lambda: _folded_integrand(v, log_sin, zeta_col, rungs.q, rungs.d), edges
    )
    table = np.concatenate((values, errors, lo[None], hi[None]))[:, starts[mesh] + rank]
    if not free.any():  # these are the full seeds
        return table, starts.tolist()
    # each full seed is two runs of columns: its computed panels, then its
    # free ones from rungs
    run_from = np.empty(2 * zeta.size, dtype=np.intp)
    run_from[0::2], run_from[1::2] = starts, panel.size + depth - free
    run_size = np.empty_like(run_from)
    run_size[0::2], run_size[1::2] = panels, free
    run_to = np.cumsum(run_size) - run_size
    gather = np.repeat(run_from - run_to, run_size) + np.arange(run_to[-1] + run_size[-1])
    return np.concatenate((table, rungs.table), axis=1)[:, gather], run_to[0::2].tolist()


def _integrals(zetas, rungs: _Eta1Rungs) -> list:
    """_integral at each of zetas, all > 0, with all the seed meshes integrated together.

    q and d are those of rungs, the eta = 1 table the free panels come
    from, which a caller may share between calls with the same q and d.
    Each entry is the (i0, i1, i_ent) tuple or the FastSphereError that zeta
    raises, without a traceback.  A lone zeta goes to _integral.  Where
    some seed has a free panel, the zetas are sorted, so that neighbouring
    meshes have similar numbers of free panels, and each pair of neighbours
    takes the smaller of the two; otherwise they stay in the order asked.
    The meshes are cut into batches of at most _BATCH_NODES computed nodes
    (a pair at least), and each batch is one _seed_pass, whose full seeds
    go whole to one _refine: it returns those that meet DEFAULT_REL_TOL
    and refines the others together.
    """
    q, d = rungs.q, rungs.d
    if len(zetas) == 1:
        try:
            return [_integral(zetas[0], q, d)]
        except FastSphereError as exc:
            return [exc.with_traceback(None)]
    zeta = np.array(zetas, dtype=float)
    ladder = _ladder()
    levels = _seed_levels(zeta, _seed_cut(q, d))
    if min(zetas) < ladder.free_below[-1]:  # else not even the top panel is free
        order = np.argsort(zeta, kind="stable")
        zeta, levels = zeta[order], levels[order]
        free = _free_panels(zeta, levels)
        # the two meshes of a pair share their top edge
        free[0:-1:2] = free[1::2] = np.minimum(free[0:-1:2], free[1::2])
        rungs.fill(ladder.depth - int(free.max()))
    else:
        order, free = range(zeta.size), np.zeros_like(levels)
    ends = np.cumsum(levels + 1 - free)  # in computed panels
    results = [None] * zeta.size
    first = 0
    while first < zeta.size:
        room = (ends[first - 1] if first else 0) + _BATCH_NODES // _NODES.size
        last = int(np.searchsorted(ends, room, "right"))
        if last < zeta.size:  # cut between two pairs, after one at least
            last = min(max(last - (last - first) % 2, first + 2), zeta.size)
        table, begin = _seed_pass(zeta[first:last], levels[first:last], free[first:last], rungs)
        tail = np.zeros((3, last - first))
        for k, result in enumerate(_refine(zeta[first:last], q, d, table, begin, tail, tail)):
            results[order[first + k]] = result
        first = last
    return results


def _integral(zeta: float, q: float, d: int) -> tuple[float, float, float]:
    """(I(eta, q, 0), I(eta, q, 1), I(eta, q + 1, 0)) at eta = 1 + zeta, computed on every call."""
    cut = _seed_cut(q, d)
    if zeta == 0.0 and cut == 0.0:
        raise _not_integrable(q, d)
    # one mesh needs none of _seed_pass's layout, whose index arithmetic
    # would cost more than the integrand here: its panels in the ladder are
    # the bottom one, then the n dyadic ones, in increasing order
    ladder = _ladder()
    n = int(_seed_levels(zeta, cut))
    panel = np.arange(ladder.depth - n - 1, ladder.depth)
    tail = tail_err = np.zeros((3, 1))
    if zeta > 0.0 or q >= 0.0:
        panel[0] = ladder.depth + n
    else:
        # at eta = 1 with q < 0 the integrand is singular at 0, and the
        # closed-form tail takes the place of the bottom panel
        panel = panel[1:]
        tail, tail_err = (part[:, None] for part in _eta1_tail(q, d, float(ladder.lo[panel[0]])))
    lo, hi = ladder.lo[panel], ladder.hi[panel]
    v, log_sin = (part.take(panel, 0) for part in ladder.basis)
    seed = lambda: _folded_integrand(v, log_sin, zeta, q, d)
    try:
        # an overflow leaves a non-finite panel that no refinement removes; the
        # branch solves never get there, as their zeta floor keeps the peak in range
        with np.errstate(over="raise"):
            values, errors = _kronrod_batch(seed, np.append(lo, hi[-1]))
            table = np.concatenate((values, errors, lo[None], hi[None]))
            (result,) = _refine(np.array([zeta]), q, d, table, [0], tail, tail_err)
    except FloatingPointError:
        raise ToleranceNotMetError(
            f"the integrand leaves double range at eta - 1 = {zeta!r}, q = {q!r}, d = {d}"
        ) from None
    if isinstance(result, FastSphereError):
        raise result
    return result
