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
I(eta, q + 1, 0, d).  One kernel, _integrals, returns all three from a
single adaptive mesh.  The integrand evaluates the three folded profiles
from shared sin, log and exp values (the entropy profile is the mass
profile's two halves times eta -+ cos t), and each Gauss-Kronrod batch
integrates them together.

Every integral is seeded the same way.  The only fine structure is the
spike of (eta - cos t)^q at t = 0, of width sqrt(eta - 1), and around and
above it the integrand is self-similar under halving.  So the seed panels
are dyadic, with edges pi/2 * 2^-k from pi/2 down to the first edge below
half the spike scale, but at least to pi/4.  Below that edge the
integrand is analytic for eta > 1, and one more panel reaches down to 0.
The floor is for eta - 1 >= pi^2: there the single panel [0, pi/2]
mostly misses the tolerance, and a refinement batch only to split it
would cost more than its nodes.  Where the eta = 1 integral converges
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

_integrals integrates the seed meshes of many zetas together, eta = 1
included, and integrates every mesh it is handed: each must converge,
which at eta = 1 takes 2q + d > 0.  model alone decides that
(_check_integrable), before a mesh reaches the kernel.  Its callers hand
the meshes over grouped, as a dict from each (q, d) to its zetas, and
the kernel answers in the order asked: the meshes are laid, and the
entries come back, group after group.  Each group pays its share of
the set-up once per call: its seed cut, its eta = 1 table, and the q and
d of a batch whose meshes all share them, which reach the integrand as
numbers (_at_nodes); zeta, and the (q, d) of a batch that spans groups,
reach it as one value per node.  The branch solves, run in lockstep,
send it the new zetas of every unfinished solve grouped by the (q, d) of
their pass of (d, m), so a sweep's batches each hold one (q, d);
verify's checks send it all the meshes of a check, grouped from their
(eta, q, d), at up to 100 (q, d); _integral is its one-mesh call that
raises.  _seed_pass lays the computed panels end to end, alternately
upwards and downwards so that neighbours share an edge (the two meshes
of a pair are cut at the same panel), with each panel's ladder index
linear in its column within its mesh (index arithmetic, no Python loop
per mesh), and integrates up to _BATCH_NODES computed nodes in one
batch; at eta = 1 with q < 0 the bottom panel is laid to join its
neighbours at 0, and dropped.  Every batch, of a seed pass, of an eta = 1
table or of a refinement round, builds its columns in one place
(_columns).  A call may also pass a dict of eta = 1 tables keyed by
(q, d) (_eta1_table): where it does not find the table of one of its
(q, d), or finds one narrower than the most free panels of that group's
meshes, it builds it in one batch down to that lowest free panel and
puts it in.  A caller with many calls, such as a lockstep of branch
solves, shares the tables between them; the lockstep asks each pass's
deepest zeta in its first round, so each table is built once and serves
every later round.  Then only the panels below each free suffix are
computed.  The two meshes of a pair take the smaller of their free
counts, so a caller that shares tables asks each group in zeta order,
where neighbours have similar suffixes.  A full batch costs mostly its
nodes, not its fixed numpy overhead, so the free panels are the saving.
The pass and the eta = 1 tables hold their panels in _refine's rows, and
one gather from the computed panels and the top suffixes of the tables,
read in place, puts every full seed in increasing order; the pass then
goes whole to _refine.  When every seed meets the tolerance, as in most
rounds of a sweep, _refine returns their totals at once; otherwise it
settles those that do in one step and refines the others together, so a
round of their refinement costs one batch however many seeds it bisects.
Every panel and every per-mesh sum is computed in the same order
wherever its mesh sits, every free panel equals its computed value, and
the integrand does the same operations on a number as on an array of it,
so each mesh ends as it would alone, with or without the tables.  A
panel whose integrand leaves double range is not finite, and _refine
ends the meshes that hold it: a table column ends exactly those that
read it, each of which would overflow on its own.  It also ends a mesh
whose component misses the tolerance with a total below the normal
double range, where no relative error estimate can meet it.

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
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .errors import FastSphereError, ToleranceNotMetError
from .model import DEFAULT_REL_TOL

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
_W_RULES = np.stack((_W_KRONROD, _W_ERROR))


def _angle_basis(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 - cos(theta) and log(sin(theta)): what the integrand needs of theta."""
    half = np.sin(0.5 * theta)
    v = 2.0 * half * half  # 1 - cos(theta), no cancellation
    return v, np.log(np.sin(theta))


def _folded_integrand(v, log_sin, zeta, q, d) -> np.ndarray:
    """Folded mass, moment and entropy integrands on (0, pi/2] at eta = 1 + zeta.

    v and log_sin are _angle_basis at the nodes, one entry per node.
    Returns the integrands of I(eta, q, 0), I(eta, q, 1) and I(eta, q + 1, 0)
    stacked along a new leading axis, all three from one set of sin, log
    and exp values.  Parametrized by zeta = eta - 1 so callers tracking the
    branch close to eta = 1 keep full relative precision.  zeta, q and d
    are each a number or an array that broadcasts against v (one value per
    node); an array gives every node the same operations as a number, so
    the values do not change.  No node may be 0 where zeta = 0.
    """
    # until they take the integrands, the rows of out hold log a1 (and e1,
    # formed in its buffer as e2 is in log a2's), cos t and the weight of a
    # number d; the moment is formed in z's buffer
    out = np.empty((3,) + v.shape)
    cos_t = np.subtract(1.0, v, out=out[1])
    a1 = zeta + v
    a2 = (2.0 + zeta) - v
    e1, e2 = np.log(a1, out=out[0]), np.log(a2)
    # log(a1/a2) two ways: 1 + z with z = -2 cos(t)/a2 is exact algebra but
    # loses v once cos(t) rounds to 1, so it is only used where the ratio is
    # close to 1 (and the plain log difference would cancel).
    z = np.multiply(-2.0, cos_t)
    z /= a2
    y = e1 - e2
    np.log1p(z, out=y, where=z > -0.5)
    y *= q
    # d = 1 has no weight, even where log_sin is -inf
    if isinstance(d, np.ndarray):
        log_weight = np.where(d > 1, log_sin, 0.0)
        log_weight *= d - 1
    else:  # the same product, without the select
        log_weight = np.multiply(log_sin, d - 1, out=out[2]) if d > 1 else 0.0
    for e in (e1, e2):
        np.multiply(q, e, out=e)
        e += log_weight
        np.exp(e, out=e)
    # a1^q dwarfs a2^q where y > 700, and expm1 would overflow there; where
    # the capped product overflows, so does e1, which the mass shows
    moment = np.minimum(y, 700.0, out=z)
    np.expm1(moment, out=moment)
    moment *= e2
    np.subtract(e1, e2, out=moment, where=y > 700.0)
    np.multiply(moment, cos_t, out=out[1])
    a1 *= e1
    a2 *= e2
    np.add(a1, a2, out=out[2])
    e1 += e2
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
    kronrod, error = np.einsum("...j,kj->k...", f(), _W_RULES)
    return h * kronrod, h * np.abs(error)


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
    """The largest err / |total| of the components, the error the tolerance test reads.

    A component whose total is 0 meets the tolerance with no error, and
    misses it by an infinite factor with any.
    """
    pairs = zip(err.tolist(), total.tolist())
    return max(e / abs(t) if t else (math.inf if e else 0.0) for e, t in pairs)


def _at_nodes(values, panels) -> list:
    """Each of values at every node of panels[k] panels of mesh k, as the integrand takes it.

    A value is one number that every mesh shares, which reaches the
    integrand as it is, or an array of one per mesh, which is expanded as
    floats to one row per panel: full rows, not a column to broadcast, keep
    every operation of the integrand contiguous, and floats spare it a
    cast.  The integrand does the same operations on either, so a mesh's
    values do not depend on which it is given.
    """
    at_nodes, nodes = [], np.multiply(panels, _NODES.size)
    for value in values:
        if isinstance(value, np.ndarray):
            value = value.astype(float, copy=False).repeat(nodes).reshape(-1, _NODES.size)
        at_nodes.append(value)
    return at_nodes


def _of_mesh(value, k):
    """Mesh k's value, as a number: value is one number for every mesh, or an array of one per mesh."""
    return value.item(k) if isinstance(value, np.ndarray) else value


def _columns(edges, lo, hi, basis, mesh, panels) -> np.ndarray:
    """_refine's table columns of one batch of joined panels, from one _kronrod_batch.

    edges are the batch's laid edges, as _kronrod_batch takes them, and lo
    and hi each panel's lower and upper edge.  basis is _angle_basis at the
    nodes, and mesh the zeta, q and d of the panels[k] panels of mesh k, as
    _at_nodes takes them.  Rows 0-2 of a column are its panel's Kronrod
    values, 3-5 their estimates, 6 and 7 its lo and hi.
    """
    v, log_sin = basis
    at_nodes = _at_nodes(mesh, panels)
    values, errors = _kronrod_batch(lambda: _folded_integrand(v, log_sin, *at_nodes), edges)
    return np.concatenate((values, errors, lo[None], hi[None]))


def _refine(zeta, q, d, table, sizes, tail, tail_err) -> list:
    """Adaptive Gauss-Kronrod refinement of meshes at eta = 1 + zeta, one batch per round.

    zeta is an array of one value per mesh; q and d are each one number
    that every mesh shares, or such an array.  table holds one column per
    panel, mesh after mesh, mesh k's sizes[k] panels in increasing order:
    rows 0-2 are its Kronrod values, 3-5 their estimates, 6 and 7 its
    lower and upper edge.  tail[:, k] is mesh k's closed-form endpoint
    tail, which joins each total, and tail_err[:, k] the tail's irreducible
    share of each error budget.  Each component must meet DEFAULT_REL_TOL
    relative to its own total.  When every mesh meets it at once, as most
    seeds do, the call returns their totals straight away; otherwise a
    round settles the meshes that meet it in one step and tests one by one
    only those that miss, stall or overflow.  While one misses, every panel
    whose estimate exceeds its equal share of a missing component's budget
    is marked, and the contiguous span from the first to the last marked
    panel is bisected.  Each round bisects the spans of all the meshes that
    still miss in one batch: each span's halves are one increasing run of
    edges, and the runs are laid end to end, so the panel that joins two
    runs is a bridge, whose values are dropped.  A mesh whose panel sums
    are not finite (its integrand left double range) ends at once; so does
    one that misses in a component whose total is below the normal double
    range, and one that misses with more than _MAX_PANELS panels.  A mesh
    that meets the tolerance settles at any panel count.  A mesh's panels
    and sums do not depend on the other meshes, so each ends as it would
    on its own.

    Returns each mesh's (i0, i1, i_ent), or the ToleranceNotMetError it
    ends in, without a traceback.
    """
    results = [None] * zeta.size
    live = range(zeta.size)  # the place in results of each mesh still refined
    # the parts of mesh k's error message, formed only for a mesh that ends in one
    at = lambda k: f"eta - 1 = {zeta.item(k)!r}, q = {_of_mesh(q, k)!r}, d = {_of_mesh(d, k)}"
    worst = lambda k: f"{_worst(err[:, k], total[:, k]):.3e}"
    while True:
        # each mesh's run of panels is summed on its own and in the same order
        # wherever it sits, so its totals do not depend on the other meshes
        begin = sizes.cumsum() - sizes
        sums = np.add.reduceat(table[:6], begin, axis=1)
        in_range = np.isfinite(sums).all(axis=0)
        total, err = tail + sums[:3], tail_err + sums[3:]
        bound = DEFAULT_REL_TOL * np.abs(total)
        meets = err <= bound
        # the meshes that meet the tolerance, settled in one step: at once
        # when they are all the meshes of the call
        settled = in_range & meets.all(axis=0)
        totals = list(zip(*total.tolist()))  # each mesh's (i0, i1, i_ent)
        if len(live) == len(results) and settled.all():
            return totals
        for k in settled.nonzero()[0].tolist():
            results[live[k]] = totals[k]
        # a mesh out of range ends before its budget (inf - inf if its tail overflowed)
        missing = ~meets & in_range
        share = np.subtract(bound, tail_err, np.full_like(bound, np.inf), where=missing) / sizes
        # a missing component whose total is below the normal range cannot meet a relative tolerance
        tiny = (missing & (np.abs(total) < np.finfo(float).tiny)).T.tolist()
        positive = (share > 0.0).all(axis=0).tolist()
        marked = (table[3:6] > share.repeat(sizes, axis=1)).any(axis=0).nonzero()[0].tolist()
        lo, hi = table[6], table[7]
        mid = 0.5 * (lo + hi)
        # the panels at floating point resolution, which no bisection splits
        splits = (lo < mid) & (mid < hi)
        whole = [] if splits.all() else (~splits).nonzero()[0].tolist()
        fits, panels, begin = in_range.tolist(), sizes.tolist(), begin.tolist()
        keep, spans = [], []  # the meshes bisected now, and their first and last marked panel
        for k in (~settled).nonzero()[0].tolist():
            # the marked panels of mesh k are marked[a:b]
            a, b = bisect_left(marked, begin[k]), bisect_left(marked, begin[k] + panels[k])
            if not fits[k]:
                error = f"the integrand leaves double range at {at(k)}"
            elif True in tiny[k]:
                c = tiny[k].index(True)
                error = f"the {('i0', 'i1', 'i_ent')[c]} total {total.item(c, k)!r} is below the "
                error += f"normal double range (no relative tolerance can be met) at {at(k)}"
            elif panels[k] > _MAX_PANELS:
                error = f"adaptive quadrature stalled at estimated relative error {worst(k)} "
                error += f"after {panels[k]} panels (target {DEFAULT_REL_TOL:.1e})"
            elif positive[k] and a < b and (
                bisect_left(whole, marked[a]) == bisect_right(whole, marked[b - 1])
            ):
                keep.append(k)
                spans.append((marked[a], marked[b - 1]))
                continue
            else:
                # No panel can reduce the budget: either the budget is used
                # up (by the analytic tail, or the budget underflowed) or the
                # marked panels sit at floating point resolution.
                error = "adaptive quadrature hit its resolution floor at estimated relative error "
                error += f"{worst(k)} (target {DEFAULT_REL_TOL:.1e})"
            results[live[k]] = ToleranceNotMetError(error)
        if not keep:
            return results
        if len(keep) < len(live):
            zeta, live = zeta[keep], [live[k] for k in keep]
            q, d = (x[keep] if isinstance(x, np.ndarray) else x for x in (q, d))
            tail, tail_err = tail[:, keep], tail_err[:, keep]
        cuts = np.empty(2 * lo.size)  # each panel's lower edge and midpoint
        cuts[0::2], cuts[1::2] = lo, mid
        # each span's halves as one increasing run of edges, the runs end to
        # end; the panel that joins two runs is a bridge, which takes the
        # zeta, q and d of the run before it and whose columns are dropped
        laid, counts = [], []
        for first, last in spans:
            laid += [cuts[2 * first : 2 * last + 2], hi[last : last + 1]]
            counts.append(2 * (last - first) + 3)  # the span's halves and the bridge after them
        counts[-1] -= 1  # the last run has no bridge
        laid = np.concatenate(laid)
        basis = _angle_basis(_panel_nodes(laid[:-1], laid[1:]))
        new = _columns(laid, laid[:-1], laid[1:], basis, (zeta, q, d), counts)
        # each mesh again: its panels below the span, the span's halves, its panels above it
        parts, grown = [], []
        for k, (first, last), foot in zip(keep, spans, accumulate(counts, initial=0)):
            span = last + 1 - first
            parts += [
                table[:, begin[k] : first],
                new[:, foot : foot + 2 * span],
                table[:, last + 1 : begin[k] + panels[k]],
            ]
            grown.append(panels[k] + span)
        table, sizes = np.concatenate(parts, axis=1), np.array(grown)


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

    n = ceil(log2(pi/2 / low)), at least 1, where low = max(sqrt(zeta)/2, cut):
    pi/2 * 2^-n is the highest dyadic edge at or below low.  Read off the
    binary exponent, so it is exact.  The floor of 1 seeds [0, pi/4] and
    [pi/4, pi/2] where eta - 1 >= pi^2.
    """
    mantissa, exponent = np.frexp(_HALF_PI / np.maximum(_SPIKE_FRACTION * np.sqrt(zeta), cut))
    return np.maximum(exponent - (mantissa == 0.5), 1)


class _Ladder(NamedTuple):
    """Every panel a seed mesh can hold, with the integrand's angle basis at its nodes.

    Panel i < depth is the dyadic panel [pi/2 * 2^(i - depth), pi/2 *
    2^(i + 1 - depth)], so the n dyadic panels of a seed are the slice
    [depth - n, depth) in increasing order; panel depth + n is the bottom
    panel [0, pi/2 * 2^-n] of a seed with n levels (dropped at eta = 1
    with q < 0, where the closed-form tail takes its place).  free_below[i]
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
    return np.minimum(ladder.depth - ladder.free_below.searchsorted(zeta, "right"), levels)


def _eta1_table(q: float, d: int, count: int) -> np.ndarray:
    """The top count dyadic ladder panels at zeta = 0, for one (q, d), as columns of _refine's table.

    Column i is ladder panel depth - count + i: rows 0-5 its Kronrod values
    and estimates, rows 6 and 7 its edges, all from one batch.  A panel
    whose integrand overflows is left non-finite.
    """
    ladder = _ladder()
    span = slice(ladder.depth - count, ladder.depth)
    lo, hi = ladder.lo[span], ladder.hi[span]
    basis = [part[span] for part in ladder.basis]
    return _columns(np.append(lo, hi[-1]), lo, hi, basis, (0.0, q, d), count)


def _seed_pass(zeta, q, d, levels: np.ndarray, free, eta1, base):
    """One Gauss-Kronrod batch over the seed meshes of zeta >= 0, which have the given levels.

    zeta is an array of one value per mesh; q and d are each one number
    that every mesh shares, or such an array.  free is the number of free
    panels of each mesh, which come from eta1, the top suffixes of the
    call's eta = 1 tables (_eta1_table) taken side by side: mesh k's
    from column base[k] on.  Where no mesh has a free panel eta1 may be
    empty.  Only the other panels are computed: the bottom panel and the
    dyadic panels [depth - levels, depth - free).  They are laid end to end
    as one edge array, alternately upwards and downwards from the first, so
    that neighbours share their end edge, 0 or the top edge of a pair,
    whose two meshes must have the same number of free panels.  Each laid
    panel's ladder index is one linear run per mesh, found by index
    arithmetic (no Python loop per mesh); each node takes its angle basis
    by that index, and its zeta, q and d as _at_nodes gives them, so the
    pass builds no nodes.  At eta = 1 with q < 0 the closed-form tail below
    the lowest dyadic edge takes the bottom panel's place: that panel is
    laid, so that the meshes join at 0, with the basis of the panel above
    it (nearer 0 the integrand can overflow), and dropped.

    Returns every mesh's full seed as _refine takes it: the table of its
    panels, mesh after mesh and each in increasing order, gathered in one
    step from the computed panels and the free ones; the number of panels
    of each mesh; and each mesh's tail and the tail's error budget.
    """
    ladder = _ladder()
    depth, size = ladder.depth, zeta.size
    laid = levels + 1 - free  # the bottom panel, then the computed dyadic ones
    last = laid.cumsum() - 1  # the laid column of each mesh's last panel
    first = last + 1 - laid
    step = np.ones(size, np.intp)  # 1 for a mesh laid upwards, -1 downwards
    step[1::2] = -1
    up = step > 0
    # each laid panel's ladder index is linear in its column, the bottom
    # panel taking the index below the lowest dyadic one ...
    panel = (np.where(up, -first, last) + (depth - 1 - levels)).repeat(laid)
    sign = step.repeat(laid)
    panel += sign * np.arange(panel.size)
    # ... until its own index replaces it
    bottom = np.where(up, first, last)
    panel[bottom] = depth + levels
    lo, hi = ladder.lo.take(panel), ladder.hi.take(panel)
    edges = np.concatenate((lo[:1], np.where(sign > 0, hi, lo)))
    kept = laid  # the computed panels of each seed
    tail, tail_err = np.zeros((2, 3, size))
    if not zeta.all():
        tailed = (zeta == 0.0) & (q < 0.0)
        panel[bottom[tailed]] = depth - levels[tailed]
        kept = laid - tailed
        bottom += tailed * step  # the lowest panel kept
        for k in tailed.nonzero()[0].tolist():
            low = float(ladder.lo[depth - levels[k]])  # the lowest dyadic edge
            tail[:, k], tail_err[:, k] = _eta1_tail(_of_mesh(q, k), _of_mesh(d, k), low)
    basis = [part.take(panel, 0) for part in ladder.basis]
    table = _columns(edges, lo, hi, basis, (zeta, q, d), laid)
    # each full seed is its computed panels in increasing order, a run up or
    # down their laid columns, then its free ones, a run up eta1 past them
    start, stride, length = bottom, step, kept  # each run's first column, step and length
    if eta1:
        runs = np.ones((3, size, 2), np.intp)
        runs[:, :, 0] = start, stride, length
        runs[0, :, 1], runs[2, :, 1] = panel.size + base, free
        start, stride, length = runs.reshape(3, -1)
        table = np.concatenate((table, *eta1), axis=1)
    to = length.cumsum() - length  # each run's first column in the full seeds
    gather = (start - stride * to).repeat(length) + stride.repeat(length) * np.arange(length.sum())
    table = table.take(gather, 1)
    return table, kept + free, tail, tail_err


def _integrals(groups: dict, tables: dict | None = None) -> list:
    """I(eta, q, 0), I(eta, q, 1) and I(eta, q + 1, 0) at eta = 1 + zeta, for each zeta of groups.

    groups maps each (q, d) to its zetas (>= 0), one group; the call's
    work is the number of zetas over all groups.  Every mesh must converge
    (2q + d > 0 where zeta = 0): model refuses the others first.  Each group takes its seed
    cut and its eta = 1 table once per call, and a batch of meshes of one
    group hands its (q, d) to the integrand as numbers; a batch that spans
    groups gives each mesh the (q, d) of its group.  The meshes are laid
    as asked, group after group and each in its order, and all
    integrated together.  tables maps a (q, d) to its eta = 1 table of
    free panels (_eta1_table): the call builds and puts in the table of a
    group it does not find there, or finds narrower than that group's
    largest number of free panels, in one batch to that number, so a
    caller may share them between calls.  Each pair of neighbouring
    meshes takes the smaller of their two free counts, so a caller that
    shares tables asks each group in zeta order, where neighbours have
    similar counts.  Without tables every panel is computed, and since a
    free panel equals its computed value, no result changes.  Returns one
    entry per zeta, in the order asked: the (i0, i1, i_ent) tuple or the
    ToleranceNotMetError the mesh ends in, without a traceback.  The
    meshes are cut into batches of at most _BATCH_NODES computed nodes (a
    pair at least), and each batch is one _seed_pass, whose full seeds go
    whole to one _refine: it returns those that meet DEFAULT_REL_TOL and
    refines the others together.  The table builds and the batches run
    with overflow ignored: a mesh whose integrand leaves double range, in
    its own panels or in the table columns it reads, ends in _refine's
    ToleranceNotMetError.
    """
    specs = list(groups)
    group = np.arange(len(specs)).repeat([len(zetas) for zetas in groups.values()])
    zeta = np.fromiter(chain.from_iterable(groups.values()), float, group.size)
    levels = _seed_levels(zeta, np.array([_seed_cut(*spec) for spec in specs])[group])
    free = base = np.zeros(zeta.size, np.intp)
    eta1 = []  # the top suffixes of the eta = 1 tables, side by side
    # an overflow leaves a non-finite panel, which ends its mesh in _refine;
    # the branch solves never get there, as their zeta floor keeps the peak in range
    with np.errstate(over="ignore"):
        # where zeta is above the largest free_below, no panel is free
        if tables is not None and zeta.min(initial=math.inf) < _ladder().free_below[-1]:
            free = _free_panels(zeta, levels)
            # the two meshes of a pair share their top edge
            free[0:-1:2] = free[1::2] = np.minimum(free[0:-1:2], free[1::2])
        if free.any():
            # each group's table, built to its largest free count where the
            # call does not find one that wide; the free panels of each of
            # its meshes end where its suffix ends in eta1
            # each group's first mesh, as the groups stay whole and in order
            opens = [0] + [k + 1 for k in (group[1:] != group[:-1]).nonzero()[0].tolist()]
            width, shift = 0, np.zeros(len(specs), np.intp)
            for k, most in zip(opens, np.maximum.reduceat(free, opens).tolist()):
                spec = specs[group[k]]
                if most:
                    if spec not in tables or tables[spec].shape[1] < most:
                        tables[spec] = _eta1_table(*spec, most)
                    eta1.append(tables[spec][:, -most:])
                    width += most
                shift[group[k]] = width
            base = shift[group] - free
        ends = (levels + 1 - free).cumsum().tolist()  # in computed panels
        done, first = [], 0
        while first < zeta.size:
            room = (ends[first - 1] if first else 0) + _BATCH_NODES // _NODES.size
            last = bisect_right(ends, room)
            if last < zeta.size:  # cut between two pairs, after one at least
                last = min(max(last - (last - first) % 2, first + 2), zeta.size)
            span = slice(first, last)
            # the groups stay whole and in order, so a batch whose ends are of
            # one group is of one (q, d)
            if group[first] == group[last - 1]:
                spec = specs[group[first]]
            else:  # each mesh takes the (q, d) of its group
                qs, ds = zip(*specs)
                spec = np.array(qs, float)[group[span]], np.array(ds)[group[span]]
            batch = (zeta[span], *spec)
            done += _refine(*batch, *_seed_pass(*batch, levels[span], free[span], eta1, base[span]))
            first = last
    return done


def _integral(zeta: float, q: float, d: int) -> tuple[float, float, float]:
    """(I(eta, q, 0), I(eta, q, 1), I(eta, q + 1, 0)) at eta = 1 + zeta: _integrals of one zeta.

    Computed on every call; raises the error the mesh ends in.  The mesh
    must converge, as every mesh of _integrals must: its callers
    (model.theta_integral, energy_fully_supported) ask model first.
    """
    (result,) = _integrals({(q, d): [zeta]})
    if isinstance(result, FastSphereError):
        raise result
    return result
