import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import I0_ETA1_Q43_D3, I1_ETA1_Q43_D3
from conftest import mp_theta_integral, record_calls
from fastsphere import quadrature
from fastsphere.equilibria import _zeta_floor
from fastsphere.errors import (
    FastSphereError,
    InvalidParamError,
    NotIntegrableError,
    ToleranceNotMetError,
)
from fastsphere.model import eta1_closed_form, theta_integral as integral


def test_trivial_values():
    assert integral(2.0, 0.0, 0, 2) == pytest.approx(2.0, abs=1e-14)
    assert integral(2.0, 0.0, 1, 2) == pytest.approx(0.0, abs=1e-14)


def test_exact_antiderivative_case():
    # q = -2, d = 2 integrates in closed form to 2 / (eta^2 - 1)
    for eta in (1.5, 2.0, 7.0):
        assert integral(eta, -2.0, 0, 2) == pytest.approx(2.0 / (eta**2 - 1.0), rel=1e-12)


# frozen from the 30-digit oracle in conftest
FROZEN = [
    (2.0, -4.0 / 3.0, 0, 3, 0.6950837968846586),
    (2.0, -4.0 / 3.0, 1, 3, 0.12450876005706994),
    (10.0, -1.43, 1, 5, 0.0010486632676221593),
    (1.0 + 1e-8, -2.0, 0, 2, 100000000.10774710),
    (1.0 + 1e-12, -2.0, 0, 2, 999911107319.76998),
    (1.0 + 1e-8, -4.0 / 3.0, 0, 3, 8.233082807655379),
    (1.0 + 1e-12, -4.0 / 3.0, 0, 3, 8.579237951665578),
    (1.0 + 1e-7, -10.0 / 7.0, 1, 5, 0.8461887539169005),
]


@pytest.mark.parametrize("eta, q, p, d, expected", FROZEN)
def test_frozen_oracle_values(eta, q, p, d, expected):
    assert integral(eta, q, p, d) == pytest.approx(expected, rel=1e-9)


def test_fresh_points_against_live_oracle():
    for eta, q, p, d in ((3.7, -1.6, 1, 4), (1.2, -0.8, 0, 6), (1.0 + 3e-7, -1.25, 0, 4)):
        assert integral(eta, q, p, d) == pytest.approx(
            mp_theta_integral(eta, q, p, d), rel=1e-9
        )


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("eta_minus_1", [1e-9, 5e-7, 2e-6, 1e-3, 1.0, 1e3, 1e6])
def test_fused_moments_against_live_oracle(eta_minus_1, d):
    # one kernel call returns I(eta, q, 0), I(eta, q, 1) and I(eta, q + 1, 0)
    q = 1.0 / (0.05 + 0.14 * d - 1.0)  # m from 0.19 to 0.89
    eta = 1.0 + eta_minus_1
    i0, i1, i_ent = quadrature._integral(eta - 1.0, q, d)
    assert i0 == pytest.approx(mp_theta_integral(eta, q, 0, d), rel=1e-9)
    assert i1 == pytest.approx(mp_theta_integral(eta, q, 1, d), rel=1e-9)
    assert i_ent == pytest.approx(mp_theta_integral(eta, q + 1.0, 0, d), rel=1e-9)


@pytest.mark.parametrize("d, m", [(3, 0.25), (5, 0.3), (4, 0.4999), (8, 0.74999)])
def test_fused_moments_at_eta_one_match_closed_form(d, m):
    q = 1.0 / (m - 1.0)
    i0, i1, i_ent = quadrature._integral(0.0, q, d)
    assert i0 == pytest.approx(eta1_closed_form(q, 0, d), rel=1e-10)
    assert i1 == pytest.approx(eta1_closed_form(q, 1, d), rel=1e-10)
    assert i_ent == pytest.approx(eta1_closed_form(q + 1.0, 0, d), rel=1e-10)


@pytest.mark.parametrize(
    "d, m, zeta, levels",
    [
        (5, 0.3, 1e-40, 28),
        (5, 0.3, 1e-120, 28),
        (5, 0.3, 1e-250, 28),
        (3, 0.25, 1e-120, 180),
        (3, 0.25, 1e-250, 180),
    ],
)
def test_seed_stops_at_the_eta_one_cutoff(d, m, zeta, levels):
    # below the eta = 1 cutoff the integrand holds under 1e-18 of its total,
    # so the dyadic seed stops there however far below it sqrt(zeta) lies
    q = 1.0 / (m - 1.0)
    assert int(quadrature._seed_levels(zeta, quadrature._seed_cut(q, d))) == levels
    moments = quadrature._integral(zeta, q, d)
    for value, (qq, p) in zip(moments, ((q, 0), (q, 1), (q + 1.0, 0))):
        assert value == pytest.approx(eta1_closed_form(qq, p, d), rel=1e-12)


def batched_and_scalar(q, d, zetas):
    """The outcomes of quadrature._integrals over zetas and of _integral at each (see outcome)."""
    batched = quadrature._integrals(zetas, quadrature._Eta1Rungs(q, d))
    assert all(r.__traceback__ is None for r in batched if isinstance(r, FastSphereError))
    scalar = [outcome(lambda: quadrature._integral(zeta, q, d)) for zeta in zetas]
    return [r if type(r) is tuple else type(r) for r in batched], scalar


def eta1_integral_is_its_seed_mesh(q, d):
    """_integral at eta = 1, which the batched route never takes, equals its seed mesh alone."""
    reference = outcome(lambda: seed_reference(0.0, q, d)[3])
    assert outcome(lambda: quadrature._integral(0.0, q, d)) == reference


@pytest.mark.parametrize("d, m", [(2, 0.5), (3, 0.25), (5, 0.3), (8, 0.74999)])
def test_batched_integrals_equal_the_scalar_kernel(d, m):
    # many seed meshes per batch, several batches, a repeated zeta
    q = 1.0 / (m - 1.0)
    zetas = [float(z) for z in np.geomspace(_zeta_floor(q, d), 1e9, 60)]
    zetas[31:31] = [3.3e-4, 3.3e-4]
    batched, scalar = batched_and_scalar(q, d, zetas)
    assert batched == scalar
    eta1_integral_is_its_seed_mesh(q, d)


def test_batched_integrals_fail_item_by_item(monkeypatch):
    # with a tiny panel budget the deep seeds fail, the shallow ones pass
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 12)
    q, d = 1.0 / (0.3 - 1.0), 5
    batched, scalar = batched_and_scalar(q, d, [1e-30, 2.0, 1e-3, 1e9, 1e-200])
    assert batched == scalar
    assert {r if type(r) is type else tuple for r in batched} == {tuple, ToleranceNotMetError}
    eta1_integral_is_its_seed_mesh(q, d)


def test_one_zeta_takes_the_single_mesh_kernel(monkeypatch):
    # one mesh needs none of _seed_pass's layout; several zetas never call _integral
    q, d = 1.0 / (0.25 - 1.0), 3
    integral = quadrature._integral
    calls = record_calls(monkeypatch, quadrature, "_integral")
    passes = record_calls(monkeypatch, quadrature, "_seed_pass")
    rungs = quadrature._Eta1Rungs(q, d)
    assert quadrature._integrals([3.3e-4], rungs) == [integral(3.3e-4, q, d)]
    assert calls == [(3.3e-4, q, d)] and passes == []
    quadrature._integrals([1e-3, 3.3e-4, 2.0], rungs)
    assert len(calls) == 1 and len(passes) == 1
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
    (failed,) = quadrature._integrals([1e-30], rungs)
    assert type(failed) is ToleranceNotMetError and failed.__traceback__ is None
    assert len(calls) == 2 and len(passes) == 1


def seed_reference(zeta, q, d):
    """The seed of zeta built apart from the ladder, integrated with the basis computed at its nodes.

    Its n levels have the dyadic edges pi/2 * 2^-k, k = n, ..., 0, and one
    bottom panel reaches down to 0, except at eta = 1 with q < 0, where the
    closed-form tail below pi/2 * 2^-n takes its place.  Returns the edges,
    the panel values and estimates of the one batch, and the (i0, i1,
    i_ent) that _refine makes of them, or the type of its error.
    """
    cut = quadrature._seed_cut(q, d)
    if zeta == 0.0 and cut == 0.0:
        raise NotIntegrableError(f"no eta = 1 seed at q={q!r}, d={d}")
    n = int(quadrature._seed_levels(zeta, cut))
    edges = np.ldexp(quadrature._HALF_PI, np.arange(-n, 1))
    tail = tail_err = np.zeros((3, 1))
    if zeta > 0.0 or q >= 0.0:
        edges = np.concatenate(([0.0], edges))
    else:
        tail, tail_err = (part[:, None] for part in quadrature._eta1_tail(q, d, float(edges[0])))
    v, log_sin = quadrature._angle_basis(quadrature._panel_nodes(edges[:-1], edges[1:]))
    f = lambda: quadrature._folded_integrand(v, log_sin, zeta, q, d)
    values, errors = quadrature._kronrod_batch(f, edges)

    def refined():
        table = np.concatenate((values, errors, edges[None, :-1], edges[None, 1:]))
        (result,) = quadrature._refine(np.array([zeta]), q, d, table, [0], tail, tail_err)
        if isinstance(result, FastSphereError):
            raise result
        return result

    return edges, values, errors, outcome(refined)


def outcome(call):
    """What call returns, or the type of the FastSphereError it raises."""
    try:
        return call()
    except FastSphereError as exc:
        return type(exc)


POWERS = [(math.pi * 2.0**-k) ** 2 for k in (0, 1, 7, 40, 300)]
LADDER_CASES = [
    # sqrt(zeta)/2 = pi/2 * 2^-k exactly, and the zetas either side of it
    (2, 0.5, POWERS + [math.nextafter(z, math.inf) for z in POWERS]),
    (2, 0.5, [math.nextafter(z, 0.0) for z in POWERS]),
    # the deepest seed the table must hold (2q + d = -0.03: no cutoff, and
    # the spike stays inside double range), next to the shallowest
    (3, 0.34, [5e-324, 1e9, 1e-300]),
    (1, 0.3, [1e-200, 3.3e-4, 0.7, 1e6]),  # d = 1: no sin weight
    # eta = 1 (on the ladder in _integral only) next to the deep seeds its
    # cutoff stops; 2q + d from 2.1 down to 3e-4
    (5, 0.3, [1e-40, 11.9, 0.0, 0.0]),
    (3, 0.25, [1e-120, 0.0]),
    (4, 0.4999, [2e-6, 0.0, 0.0, 0.0]),
    (8, 0.74999, [0.0]),
    # deep and shallow zetas around the free panels, at d = 1, and at
    # q = -10 with a steep integrand above a cutoff of 4 levels
    (1, 0.3, [1e-150, 1e-40, 2e-17, 1e-12]),
    (40, 0.9, [1e-200, 1e-35, 1e-18, 1e-8, 0.5]),
]


def seed_passes_match_the_seed_meshes(monkeypatch, q, d, zetas):
    """Check the seed passes of _integrals over zetas against each seed mesh on its own.

    The computed panels of each mesh are laid as its lowest seed panels,
    with no panel between the meshes; every row of every panel of the
    pass's table (value, estimate and edges), computed or taken from the
    eta = 1 table, equals that of the seed mesh integrated on its own, bit
    for bit; and so do the results.  Returns the number of free panels of
    every mesh, in the order the passes laid them.
    """
    passes = record_calls(monkeypatch, quadrature, "_seed_pass")
    batched = quadrature._integrals(zetas, quadrature._Eta1Rungs(q, d))
    monkeypatch.undo()
    assert [r if type(r) is tuple else type(r) for r in batched] == [
        seed_reference(z, q, d)[3] for z in zetas
    ]
    assert passes
    all_free = []
    for args in passes:
        laid = record_calls(monkeypatch, quadrature, "_kronrod_batch")
        table, begin = quadrature._seed_pass(*args)
        monkeypatch.undo()
        ((_, edges),) = laid
        zeta, levels, free, _ = args
        computed = levels + 1 - free
        assert edges.size == computed.sum() + 1  # no panel between the meshes
        first = np.cumsum(computed) - computed
        assert begin == (np.cumsum(levels + 1) - levels - 1).tolist()
        assert table.shape == (8, (levels + 1).sum())
        for k, z in enumerate(zeta.tolist()):
            ref_edges, ref_values, ref_errors, _ = seed_reference(z, q, d)
            mesh = edges[first[k] : first[k] + computed[k] + 1]
            assert np.array_equal(np.sort(mesh), ref_edges[: computed[k] + 1])
            ref_table = np.concatenate((ref_values, ref_errors, [ref_edges[:-1]], [ref_edges[1:]]))
            assert np.array_equal(table[:, begin[k] : begin[k] + levels[k] + 1], ref_table)
        all_free += free.tolist()
    return all_free


@pytest.mark.parametrize("d, m, zetas", LADDER_CASES)
def test_ladder_seed_pass_matches_the_seed_mesh(monkeypatch, d, m, zetas):
    # _integral is its seed mesh at every zeta; the batched route takes
    # zeta > 0 only, and a lone zeta is laid twice so that a pass runs
    q = 1.0 / (m - 1.0)
    for z in zetas:
        assert outcome(lambda: quadrature._integral(z, q, d)) == seed_reference(z, q, d)[3]
    zetas = [z for z in zetas if z > 0.0]
    if not zetas:
        return
    laid = zetas if len(zetas) > 1 else zetas * 2
    free = seed_passes_match_the_seed_meshes(monkeypatch, q, d, laid)
    # the top panel is free below 2^-55 (its nodes have 1 - cos t > 1/4),
    # for a pair of meshes when both zetas are
    assert (max(free) > 0) == (sorted(laid)[1] < 2.0**-55)


@pytest.mark.parametrize("below_top", [1, 30, 200])
def test_seed_panels_at_their_free_threshold(monkeypatch, below_top):
    # a panel is taken from the eta = 1 table strictly below its threshold;
    # at it, and one ulp above, it is computed, and either way its values
    # are those of the seed mesh bit for bit
    q, d = 1.0 / (0.5 - 1.0), 2
    ladder = quadrature._ladder()
    rung = ladder.depth - below_top
    at = float(ladder.free_below[rung])
    below = math.nextafter(at, 0.0)
    zetas = [math.nextafter(below, 0.0), below, at, math.nextafter(at, math.inf)]
    levels = quadrature._seed_levels(np.array(zetas), 0.0)
    assert (levels >= below_top).all()  # the panel is in every seed
    expected = [below_top, below_top, below_top - 1, below_top - 1]
    assert quadrature._free_panels(np.array(zetas), levels).tolist() == expected
    # sorted and paired as listed: the first pair takes the panel from the table
    assert seed_passes_match_the_seed_meshes(monkeypatch, q, d, zetas[::-1]) == expected


@pytest.mark.parametrize("k", [0, 1, 7, 40, 300])
def test_seed_levels_at_a_power_of_two(k):
    # log2(pi/2 / low) is the integer k, and math.log2 agrees; one ulp
    # above 2^k the count is k + 1, where a rounded log2 can give k
    zeta = (math.pi * 2.0**-k) ** 2
    ratio = quadrature._HALF_PI / (0.5 * math.sqrt(zeta))
    assert ratio == 2.0**k and math.log2(ratio) == k
    assert int(quadrature._seed_levels(zeta, 0.0)) == k
    assert int(quadrature._seed_levels(math.nextafter(zeta, 0.0), 0.0)) == k + 1
    assert int(quadrature._seed_levels(np.array([zeta, 0.0]), 1e-3)[1]) == 11  # the cutoff


def refine_rounds(call, laid=None):
    """What call returns, with a [meshes, batches] pair for each _refine it makes.

    meshes is the number of meshes the _refine was given, and batches the
    Gauss-Kronrod batches it integrated.  If laid is a list, the edges of
    each of those batches are appended to it.
    """
    refine, batch, record, inside = quadrature._refine, quadrature._kronrod_batch, [], []

    def counted_refine(zeta, *args):
        record.append([zeta.size, 0])
        inside.append(True)
        try:
            return refine(zeta, *args)
        finally:
            inside.pop()

    def counted_batch(f, bounds):
        if inside:
            record[-1][1] += 1
            if laid is not None:
                laid.append(bounds)
        return batch(f, bounds)

    quadrature._refine, quadrature._kronrod_batch = counted_refine, counted_batch
    try:
        return call(), record
    finally:
        quadrature._refine, quadrature._kronrod_batch = refine, batch


def runs_alone(zeta, q, d):
    """The edges of each refinement round of the mesh at zeta refined on its own, by _integral."""
    laid = []
    refine_rounds(lambda: outcome(lambda: quadrature._integral(zeta, q, d)), laid)
    return laid


def test_batched_seeds_that_miss_the_tolerance_are_refined_exactly():
    # the whole seed pass goes to one _refine, which refines every seed that
    # misses the tolerance in one Gauss-Kronrod batch per round, bit for bit
    # as on its own.  A round lays each span's halves as the increasing run
    # of edges the mesh lays on its own, the runs end to end in mesh order,
    # so two neighbours are joined by one bridge panel
    q, d = 1.0 / (0.5 - 1.0), 2
    zetas = [float(z) for z in np.geomspace(1e-12, 1e3, 40)]
    rungs = quadrature._Eta1Rungs(q, d)
    laid = []
    batched, rounds = refine_rounds(lambda: quadrature._integrals(zetas, rungs), laid)
    alone = [runs_alone(z, q, d) for z in zetas]
    assert rounds == [[len(zetas), max(map(len, alone))]]
    assert sum(len(runs) > 0 for runs in alone) >= 5
    for j, edges in enumerate(laid):
        runs = [mesh[j] for mesh in alone if len(mesh) > j]
        assert all((np.diff(run) > 0).all() for run in runs)
        assert edges.size - 1 == sum(run.size - 1 for run in runs) + len(runs) - 1
        assert np.array_equal(edges, np.concatenate(runs))
    assert batched == [seed_reference(z, q, d)[3] for z in zetas]


def test_batched_refinement_goes_on_past_a_seed_that_fails(monkeypatch):
    # at d = 40, m = 0.9 the seeds need 2 or 3 rounds: one at zeta <= 0.1
    # has 5 panels, then 7 and 9; one at zeta = 1 has 3, then 4 and 6; one
    # at zeta >= 10 has 1, then 2, 4 and 6.  With at most 6 panels the
    # first fail after one round, while the others go on to their second
    # and third, still one batch per round for all the meshes left
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 6)
    q, d = 1.0 / (0.9 - 1.0), 40
    zetas = [1e-3, 1.0, 100.0, 0.1, 1e4]
    rungs = quadrature._Eta1Rungs(q, d)
    batched, rounds = refine_rounds(lambda: quadrature._integrals(zetas, rungs))
    assert rounds == [[5, 3]]
    for zeta, result in zip(zetas, batched):
        if zeta < 1.0:
            assert type(result) is ToleranceNotMetError and result.__traceback__ is None
            assert "after 7 panels" in str(result)
            with pytest.raises(ToleranceNotMetError) as exc:
                quadrature._integral(zeta, q, d)
            assert str(exc.value) == str(result)
        else:
            assert result == quadrature._integral(zeta, q, d)


def test_ladder_table_is_built_on_first_use_and_small():
    # and no eta = 1 table exists before an integral is asked for
    code = (
        "import gc, fastsphere.cli, fastsphere.quadrature as q; "
        "print(q._ladder.cache_info().currsize, "
        "sum(isinstance(o, q._Eta1Rungs) for o in gc.get_objects()))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.strip() == "0 0"
    ladder = quadrature._ladder()
    size = sum(part.nbytes for part in (ladder.lo, ladder.hi, *ladder.basis, ladder.free_below))
    assert size < 0.5e6
    assert ladder.depth == int(quadrature._seed_levels(5e-324, 0.0))


def test_one_integral_serves_all_three_moments(monkeypatch):
    # one Gauss-Kronrod batch integrates the mass, moment and entropy profiles
    eta, q, d = 1.0 + 3.3e-4, -1.7, 4
    batches = record_calls(monkeypatch, quadrature, "_kronrod_batch")
    i0, i1, i_ent = quadrature._integral(eta - 1.0, q, d)
    assert len(batches) == 1
    monkeypatch.undo()
    assert (i0, i1) == (integral(eta, q, 0, d), integral(eta, q, 1, d))
    assert i_ent == pytest.approx(integral(eta, q + 1.0, 0, d), rel=1e-10)


def test_results_are_plain_floats():
    assert type(integral(2.5, -1.3, 1, 3)) is float
    assert all(type(x) is float for x in quadrature._integral(0.0, -1.3, 3))


def test_singular_endpoint_beta_value():
    # eta = 1, q = -4/3, d = 3 equals 2^(2/3) B(1/6, 3/2)
    beta = math.exp(math.lgamma(1.0 / 6.0) + math.lgamma(1.5) - math.lgamma(1.0 / 6.0 + 1.5))
    expected = 2.0 ** (2.0 / 3.0) * beta
    assert expected == pytest.approx(I0_ETA1_Q43_D3, rel=1e-13)
    assert integral(1.0, -4.0 / 3.0, 0, 3) == pytest.approx(expected, rel=1e-10)
    assert eta1_closed_form(-4.0 / 3.0, 0, 3) == pytest.approx(expected, rel=1e-13)


def test_singular_endpoint_moment_value():
    assert eta1_closed_form(-4.0 / 3.0, 1, 3) == pytest.approx(I1_ETA1_Q43_D3, rel=1e-12)
    assert integral(1.0, -4.0 / 3.0, 1, 3) == pytest.approx(I1_ETA1_Q43_D3, rel=1e-10)
    # moment / mass ratio must equal 1 / ((1-m) d - 1)
    ratio = eta1_closed_form(-4.0 / 3.0, 1, 3) / eta1_closed_form(-4.0 / 3.0, 0, 3)
    assert ratio == pytest.approx(0.8, rel=1e-12)
    q = 1.0 / (0.3 - 1.0)
    ratio = eta1_closed_form(q, 1, 5) / eta1_closed_form(q, 0, 5)
    assert ratio == pytest.approx(0.4, rel=1e-12)


@pytest.mark.parametrize("d, m", [(3, 0.25), (4, 0.2), (4, 0.45), (5, 0.3), (6, 0.35)])
@pytest.mark.parametrize("p", [0, 1])
def test_closed_form_matches_quadrature_at_eta_one(d, m, p):
    q = 1.0 / (m - 1.0)
    assert integral(1.0, q, p, d) == pytest.approx(eta1_closed_form(q, p, d), rel=1e-10)


@pytest.mark.parametrize("d, m", [(4, 0.4999), (3, 0.3332), (6, 0.66666), (8, 0.74999)])
@pytest.mark.parametrize("p", [0, 1])
def test_closed_form_matches_near_integrability_threshold(d, m, p):
    # 2q + d down to ~1e-3: most of the mass sits below any representable
    # panel, carried by the analytic endpoint tail
    q = 1.0 / (m - 1.0)
    assert 0.0 < 2.0 * q + d < 0.05
    assert integral(1.0, q, p, d) == pytest.approx(eta1_closed_form(q, p, d), rel=1e-10)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0])
def test_bounded_integrand_at_eta_one_matches_closed_form(q, d):
    # with q >= 0 nothing is singular at t = 0: the seed keeps its bottom
    # panel, and no closed-form tail (whose budget alone would exceed the
    # tolerance) joins it; at q = 0 the moment is exactly 0
    for p in (0, 1):
        expected = eta1_closed_form(q, p, d)
        assert integral(1.0, q, p, d) == pytest.approx(expected, rel=1e-12, abs=0.0)


def mp_eta1(q: float, p: int, d: int) -> float:
    """2^(q+d-1) B(q + d/2, d/2), times -q/(q + d) for p = 1, to 40 digits at the float q."""
    with mp.workdps(40):
        q = mp.mpf(q)
        i0 = 2 ** (q + d - 1) * mp.beta(q + mp.mpf(d) / 2, mp.mpf(d) / 2)
        return float(i0 if p == 0 else i0 * -q / (q + d))


def _regime_grid(d: int) -> list:
    """m at fixed fractions of every regime interval of d (cases iii, ii, i)."""
    edges = [0.0, 1.0 - 2.0 / (d - 1) if d > 2 else 0.0, 1.0 - 2.0 / d if d > 1 else 0.0, 1.0]
    return [
        lo + f * (hi - lo)
        for lo, hi in zip(edges, edges[1:])
        if lo < hi
        for f in (0.001, 0.02, 0.3, 0.7, 0.98, 0.999)
    ]


@pytest.mark.parametrize("d", range(1, 13))
def test_closed_form_matches_mpmath_to_rounding(d):
    # q and q + 1 are the mass and entropy exponents of rho_bar; near either
    # regime threshold a = q + d/2 comes close to 0 or grows with d
    checked = 0
    for m in _regime_grid(d):
        q = 1.0 / (m - 1.0)
        for qq in (q, q + 1.0):
            if 2.0 * qq + d <= 0.0:
                continue
            for p in (0, 1):
                expected = pytest.approx(mp_eta1(qq, p, d), rel=4e-15, abs=0.0)
                assert eta1_closed_form(qq, p, d) == expected
                checked += 1
    assert checked >= 6  # d = 1, 2: only q + 1 converges, and only for m < 1/3, 1/2


@pytest.mark.parametrize("d, m", [(100, 0.95), (200, 0.9)])
def test_closed_form_matches_mpmath_at_large_d(d, m):
    # a sum of log-Gamma terms of size ~ d log d loses 1e-13 here
    q = 1.0 / (m - 1.0)
    for qq in (q, q + 1.0):
        for p in (0, 1):
            expected = pytest.approx(mp_eta1(qq, p, d), rel=4e-15, abs=0.0)
            assert eta1_closed_form(qq, p, d) == expected


@pytest.mark.parametrize("d", [400, 401])
@pytest.mark.parametrize("m", [0.05, 0.9, 0.99])
def test_closed_form_beyond_float_factorials(d, m):
    # (d/2)! and the Gamma products leave double range at this d; the
    # integer assembly does not, and raises nothing
    q = 1.0 / (m - 1.0)
    for qq in (q, q + 1.0):
        for p in (0, 1):
            expected = pytest.approx(mp_eta1(qq, p, d), rel=1e-12, abs=0.0)
            assert eta1_closed_form(qq, p, d) == expected


def test_closed_form_out_of_double_range_is_typed():
    # the value itself overflows (q large) or nearly does (q -> -d/2 at large d)
    for q, d in ((2000.0, 3), (-2000.0, 4001)):
        with pytest.raises(ToleranceNotMetError):
            eta1_closed_form(q, 0, d)


def test_not_integrable_at_eta_one():
    # m = 0.5, d = 2: 2q + d - 1 = -3
    with pytest.raises(NotIntegrableError):
        integral(1.0, -2.0, 0, 2)
    with pytest.raises(NotIntegrableError):
        eta1_closed_form(-2.0, 0, 2)


def test_invalid_spec_rejected():
    with pytest.raises(InvalidParamError):
        integral(0.5, -1.0, 0, 2)
    with pytest.raises(InvalidParamError):
        integral(2.0, -1.0, 2, 2)
    for d in (0, -3, 2.5, True, math.nan, math.inf):
        with pytest.raises(InvalidParamError):
            integral(2.0, -1.0, 0, d)


def test_tolerance_not_met_when_budget_exhausted(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
    with pytest.raises(ToleranceNotMetError):
        integral(1.0 + 2e-6, -2.0, 0, 2)


@pytest.mark.parametrize(
    "eta, q, p, d", [(1.0 + 1e-12, -40.0, 1, 2), (1.0000000019026751, -48.76063009269839, 0, 8)]
)
def test_integrand_out_of_double_range_is_typed(eta, q, p, d):
    # (eta - cos t)^q overflows at the nodes next to t = 0: a typed error
    # that names the spec, with no numpy warning (an error in this suite)
    with pytest.raises(ToleranceNotMetError) as exc:
        integral(eta, q, p, d)
    message = str(exc.value)
    assert "leaves double range" in message and "nan" not in message
    assert f"eta - 1 = {eta - 1.0!r}, q = {q!r}, d = {d}" in message


@settings(max_examples=40, deadline=None)
@given(
    eta=st.floats(min_value=1.001, max_value=50.0),
    m=st.floats(min_value=0.05, max_value=0.95),
    shift=st.sampled_from([0.0, -1.0, 1.0]),
    d=st.integers(min_value=1, max_value=6),
)
def test_moment_integrates_by_parts_to_the_mass(eta, m, shift, d):
    # sin^(d-1) t cos t = (sin^d t / d)': I(eta, q, 1, d) = -(q/d) I(eta, q - 1, 0, d + 2)
    q = 1.0 / (m - 1.0) + shift
    moment = integral(eta, q, 1, d)
    assert moment == pytest.approx(-q / d * integral(eta, q - 1.0, 0, d + 2), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    eta=st.floats(min_value=1.0 + 1e-9, max_value=30.0),
    m=st.floats(min_value=0.05, max_value=0.95),
    d=st.integers(min_value=1, max_value=6),
)
def test_moment_bounded_by_mass(eta, m, d):
    q = 1.0 / (m - 1.0)
    i0 = integral(eta, q, 0, d)
    i1 = integral(eta, q, 1, d)
    assert abs(i1) <= i0 * (1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    eta_lo=st.floats(min_value=1.0 + 1e-6, max_value=20.0),
    factor=st.floats(min_value=1.01, max_value=10.0),
    q=st.floats(min_value=-3.0, max_value=-0.1),
    d=st.integers(min_value=1, max_value=6),
)
def test_strictly_decreasing_in_eta(eta_lo, factor, q, d):
    assert integral(eta_lo, q, 0, d) > integral(eta_lo * factor, q, 0, d)
