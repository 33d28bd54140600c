import math
import os
import re
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import I0_ETA1_Q43_D3, I1_ETA1_Q43_D3
from conftest import mp_theta_integral, record_calls
from fastsphere import quadrature, verification
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


def flat(groups):
    """The (zeta, q, d) of every mesh of groups, in the order _integrals returns them."""
    return [(zeta, q, d) for (q, d), zetas in groups.items() for zeta in zetas]


def batched_outcomes(groups, tables):
    """The outcomes of quadrature._integrals over groups, given tables.

    An outcome is the (i0, i1, i_ent) tuple, or the type and message of
    the error.
    """
    batched = quadrature._integrals(groups, tables)
    assert all(r.__traceback__ is None for r in batched if isinstance(r, FastSphereError))
    return [r if type(r) is tuple else (type(r), str(r)) for r in batched]


def scalar_outcomes(groups):
    """The outcomes of quadrature._integral at each mesh of groups, as batched_outcomes has them."""
    scalar = []
    for mesh in flat(groups):
        try:
            scalar.append(quadrature._integral(*mesh))
        except FastSphereError as exc:
            scalar.append((type(exc), str(exc)))
    return scalar


def batched_and_scalar(groups, tables):
    """batched_outcomes and scalar_outcomes of the same groups."""
    return batched_outcomes(groups, tables), scalar_outcomes(groups)


def eta1_integral_is_its_seed_mesh(q, d):
    """_integral at eta = 1 equals its seed mesh alone."""
    reference = outcome(lambda: seed_reference(0.0, q, d)[3])
    assert outcome(lambda: quadrature._integral(0.0, q, d)) == reference


def seed_outcome(zeta, q, d):
    """seed_reference's outcome, a ToleranceNotMetError where the integrand leaves double range."""
    try:
        with np.errstate(over="raise"):
            return outcome(lambda: seed_reference(zeta, q, d)[3])
    except FloatingPointError:
        return ToleranceNotMetError


def self_consistency_meshes(monkeypatch):
    """The groups of verify's quadrature_self_consistency: (q, d) and (q - 1, d + 2)."""
    calls = record_calls(monkeypatch, quadrature, "_integrals")
    verification.check_quadrature_self_consistency()
    monkeypatch.undo()
    ((groups,),) = calls
    return groups


def spread_meshes(monkeypatch):
    """zeta from 1e-9 to 1e4 at six (q, d), d = 1 and q >= 0 among them."""
    specs = [(0.5, 1), (1.0 / (0.3 - 1.0), 1), (0.0, 3), (2.0, 2), (-1.5, 3), (-10.0 / 7.0, 5)]
    return {spec: [float(z) for z in np.geomspace(1e-9, 1e4, 25)] for spec in specs}


def spread_and_steep_meshes(monkeypatch):
    """spread_meshes, and zeta from 1e-9 to 1e4 at q = -10, d = 21, where every seed misses the tolerance."""
    steep = [float(z) for z in np.geomspace(1e-9, 1e4, 25)]
    return {**spread_meshes(monkeypatch), (1.0 / (0.9 - 1.0), 21): steep}


def deep_meshes(monkeypatch):
    """zeta from each (q, d)'s branch floor to 1e-3 at five (q, d).

    The deep seeds of every (q, d) take free panels.
    """
    specs = [(-2.0, 2), (-4.0 / 3.0, 3), (1.0 / (0.3 - 1.0), 5), (0.5, 1), (1.0 / (0.45 - 1.0), 4)]
    return {(q, d): [float(z) for z in np.geomspace(_zeta_floor(q, d), 1e-3, 15)] for q, d in specs}


def spiked_meshes(monkeypatch):
    """Two meshes whose integrand leaves double range (q = -200 at zeta = 1e-300)."""
    return {(-200.0, 3): [1e-300, 1e-300]}


def spiked_among_others(monkeypatch):
    """The spiked meshes of spiked_meshes, and two that integrate."""
    return {(-200.0, 3): [1e-300, 1e-300], (-1.0, 3): [0.5], (0.5, 1): [2.0]}


def eta1_among_others(monkeypatch):
    """eta = 1 meshes with deep and shallow ones.

    At q < 0 a closed-form tail takes the bottom panel's place, at q >= 0
    (d = 1 among them) the bottom panel stays.
    """
    specs = [(-4.0 / 3.0, 3), (0.5, 1), (1.0 / (0.3 - 1.0), 5), (0.0, 3), (-0.4, 1), (2.0, 2)]
    return {spec: [0.0, 1e-150, 0.0, 3.3e-4, 0.0, 2.0] for spec in specs}


def eta1_among_others_in_order(monkeypatch):
    """eta1_among_others with each group in zeta order, as a caller that shares tables asks."""
    return {spec: sorted(zetas) for spec, zetas in eta1_among_others(monkeypatch).items()}


def eta1_overflowing(monkeypatch):
    """Two meshes whose eta = 1 table fill leaves double range (q = -2, d = 2 at zeta = 1e-250)."""
    return {(-2.0, 2): [1e-250, 1e-250]}


def overflow_then_lone_mesh(monkeypatch):
    """eta1_overflowing's meshes, then eleven at q = -1.5, d = 2, the last batched alone."""
    deeper = [float(z) for z in np.geomspace(1e-220, 1e-20, 11)]
    return {(-2.0, 2): [1e-250, 1e-250], (-1.5, 2): deeper}


def eta1_tail_overflowing(monkeypatch):
    """Two eta = 1 meshes whose integrand and closed-form tail overflow, and one that refines."""
    return {(-1500.0, 3100): [0.0, 0.5, 0.0]}


def read_tables(free, eta1, base):
    """The place in eta1 of the table each mesh of a seed pass takes its free panels from."""
    ends = np.cumsum([suffix.shape[1] for suffix in eta1])
    return np.searchsorted(ends, base[free > 0], "right").tolist()


# the meshes of a batch of many (q, d), the panel budget it runs with (None:
# the module's), the seed passes the call makes, the errors some end in,
# and the fewest (q, d) whose eta = 1 tables the call fills (None: it is
# given none)
MIXED = {
    "verify": (self_consistency_meshes, None, 1, set(), None),
    "spread": (spread_meshes, None, 3, set(), None),
    # the steep seeds of more than 12 panels, which miss the tolerance, fail,
    # each on its own; the others pass
    "spread-failing": (spread_and_steep_meshes, 12, 3, {ToleranceNotMetError}, None),
    # an overflow ends its mesh, as on its own, and no other: one pass per batch
    "spiked": (spiked_meshes, None, 1, {ToleranceNotMetError}, None),
    "spiked-among-others": (spiked_among_others, None, 2, {ToleranceNotMetError}, None),
    # every (q, d) takes free panels from its own table, in one call
    "eta1-tables": (deep_meshes, None, 3, set(), 5),
    # eta = 1 in the batch: each mesh ends as on its own, with and without
    # the tables, from which an eta = 1 mesh takes all its dyadic panels
    "eta1": (eta1_among_others, None, 6, set(), None),
    "eta1-with-tables": (eta1_among_others_in_order, None, 1, set(), 5),
    # the fill of the eta = 1 table overflows: it leaves non-finite columns,
    # and each mesh, which reads them, ends in the double range error
    "eta1-table-overflow": (eta1_overflowing, None, 1, {ToleranceNotMetError}, 1),
    # the overflowing fill ends its own meshes and no mesh of a later batch,
    # even one batched alone
    "lone-after-table-overflow": (overflow_then_lone_mesh, None, 2, {ToleranceNotMetError}, 2),
    # the tail's error budget is infinite: the meshes end before any share of
    # it is formed, while their neighbour goes on to refine
    "eta1-tail-overflow": (eta1_tail_overflowing, None, 1, {ToleranceNotMetError}, None),
}


@pytest.mark.parametrize(
    "d, m",
    [(2, 0.5), (3, 0.25), (5, 0.3), (8, 0.74999)]
    + [pytest.param("mixed", case, id=f"mixed-{case}") for case in MIXED],
)
def test_batched_integrals_equal_the_scalar_kernel(monkeypatch, d, m):
    if d == "mixed":
        # every mesh with its own (q, d); each outcome, value or error
        # message, is that of its one-mesh call, and of its seed mesh alone
        meshes, max_panels, seed_passes, fails, filled = MIXED[m]
        groups = meshes(monkeypatch)
        if max_panels:
            monkeypatch.setattr(quadrature, "_MAX_PANELS", max_panels)
        passes = record_calls(monkeypatch, quadrature, "_seed_pass")
        tables = None if filled is None else {}
        batched = batched_outcomes(groups, tables)
        assert len(passes) == seed_passes
        assert batched == scalar_outcomes(groups)
        failed = {r[0] for r in batched if isinstance(r[0], type)}
        assert failed == fails
        assert [r[0] if isinstance(r[0], type) else r for r in batched] == [
            seed_outcome(*mesh) for mesh in flat(groups)
        ]
        if filled:
            ladder = quadrature._ladder()
            depth = ladder.depth
            assert set(tables) <= set(groups)
            assert sum(table.shape[1] > 0 for table in tables.values()) >= filled
            # each table holds the top ladder panels, as many as it was built to
            for table in tables.values():
                top = slice(depth - table.shape[1], depth)
                assert np.array_equal(table[6:], np.stack((ladder.lo[top], ladder.hi[top])))
            # the free panels of a pass come from the tables of several (q, d)
            assert filled == 1 or any(len(set(read_tables(*args[4:]))) > 1 for args in passes)
        if m == "eta1-table-overflow":
            # the built table holds the non-finite columns; a mesh at about
            # the (2, 0.5) branch floor takes free panels from its finite
            # ones alone, and ends as it does with no tables
            table = tables[-2.0, 2]
            assert (~np.isfinite(table[:6])).any(axis=0).sum() == 47
            passes.clear()
            (shallow,) = quadrature._integrals({(-2.0, 2): [1e-200]}, tables)
            ((_, _, _, _, free, _, _),) = passes
            assert free[0] > 0 and np.isfinite(table[:6, table.shape[1] - free[0] :]).all()
            assert shallow == quadrature._integral(1e-200, -2.0, 2)
        return
    # many seed meshes per batch, several batches, a repeated zeta
    q = 1.0 / (m - 1.0)
    zetas = [float(z) for z in np.geomspace(_zeta_floor(q, d), 1e9, 60)]
    zetas[31:31] = [3.3e-4, 3.3e-4]
    batched, scalar = batched_and_scalar({(q, d): zetas}, {})
    assert batched == scalar
    if 2.0 * q + d > 0.0:  # the kernel takes no eta = 1 mesh where it diverges
        eta1_integral_is_its_seed_mesh(q, d)


def test_verify_groups_its_meshes_and_answers_in_mesh_order(monkeypatch):
    # verification._integrals takes flat (eta, q, d) meshes, neighbours at
    # different (q, d); it hands the kernel one group per (q, d), in the
    # order met, and returns each mesh's entry in mesh order
    specs = list(spread_meshes(monkeypatch))
    meshes = [(1.0 + float(z), q, d) for z in np.geomspace(1e-6, 1e2, 4) for q, d in specs]
    calls = record_calls(monkeypatch, quadrature, "_integrals")
    found = verification._integrals(meshes)
    ((groups,),) = calls
    assert list(groups) == specs and [len(zetas) for zetas in groups.values()] == [4] * 6
    assert found == [quadrature._integral(eta - 1.0, q, d) for eta, q, d in meshes]


def test_batched_integrals_fail_item_by_item(monkeypatch):
    # with a tiny panel budget the deep seeds, which miss the tolerance with
    # more than 12 panels, fail; the shallow ones refine within it and pass
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 12)
    q, d = 1.0 / (0.9 - 1.0), 21
    batched, scalar = batched_and_scalar({(q, d): [1e-30, 2.0, 1e-3, 1e4, 1e-200]}, {})
    assert batched == scalar
    assert {r[0] if isinstance(r[0], type) else float for r in batched} == {
        float,
        ToleranceNotMetError,
    }
    eta1_integral_is_its_seed_mesh(q, d)


def test_one_zeta_takes_a_seed_pass_and_the_shared_tables(monkeypatch):
    # a lone zeta is laid by _seed_pass like many, and a deep one takes its
    # free panels from the eta = 1 table of a dict its caller shares
    q, d = 1.0 / (0.25 - 1.0), 3
    passes = record_calls(monkeypatch, quadrature, "_seed_pass")
    tables = {}
    (deep,) = quadrature._integrals({(q, d): [1e-120]}, tables)
    ((_, _, _, levels, free, eta1, base),) = passes
    table = tables[q, d]
    assert table.shape == (8, free[0]) and 0 < free[0] <= levels[0] and base[0] == 0
    # the pass reads the table, in place
    assert len(eta1) == 1 and np.shares_memory(eta1[0], table) and np.array_equal(eta1[0], table)
    assert deep == quadrature._integral(1e-120, q, d) == seed_reference(1e-120, q, d)[3]
    # the next call finds the table and builds none
    built = table.copy()
    assert quadrature._integrals({(q, d): [1e-120]}, tables) == [deep]
    assert len(passes) == 3 and passes[2][4][0] == free[0]
    assert tables[q, d] is table and np.array_equal(table, built)
    # a deeper mesh, which takes more free panels than the table holds,
    # rebuilds it to its own count: the narrower table's columns are the
    # top of the new one, and every entry ends as alone, bit for bit
    (deeper,) = quadrature._integrals({(q, d): [1e-200]}, tables)
    (zeta, _, _, levels, free_deeper, _, _) = passes[3]
    assert free[0] < free_deeper[0] == quadrature._free_panels(zeta, levels)[0]
    wider = tables[q, d]
    assert wider.shape == (8, free_deeper[0]) and np.array_equal(wider[:, -free[0] :], built)
    assert as_bits(deeper) == as_bits(quadrature._integral(1e-200, q, d))
    again = quadrature._integrals({(q, d): [1e-200, 1e-120]}, tables)
    assert tables[q, d] is wider and [as_bits(r) for r in again] == [as_bits(deeper), as_bits(deep)]
    # a lone steep mesh misses the tolerance with more panels than the
    # budget: it ends in the error, without a traceback
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 12)
    (failed,) = quadrature._integrals({(1.0 / (0.9 - 1.0), 21): [1e-30]}, tables)
    assert type(failed) is ToleranceNotMetError and failed.__traceback__ is None
    assert "stalled" in str(failed) and len(passes) == 7


def seed_entry(zeta, q, d, levels=None):
    """The seed of zeta built apart from the ladder, integrated with the basis computed at its nodes.

    Its n levels (given, or those of the seed of zeta) have the dyadic
    edges pi/2 * 2^-k, k = n, ..., 0, and one bottom panel reaches down to
    0, except at eta = 1 with q < 0, where the closed-form tail below
    pi/2 * 2^-n takes its place.  Returns the edges, the panel values and
    estimates of the one batch, and the entry that _refine makes of them:
    the (i0, i1, i_ent) or the error the mesh ends in.
    """
    cut = quadrature._seed_cut(q, d)
    if zeta == 0.0 and cut == 0.0:
        raise NotIntegrableError(f"no eta = 1 seed at q={q!r}, d={d}")
    n = int(quadrature._seed_levels(zeta, cut)) if levels is None else int(levels)
    edges = np.ldexp(quadrature._HALF_PI, np.arange(-n, 1))
    tail = tail_err = np.zeros((3, 1))
    if zeta > 0.0 or q >= 0.0:
        edges = np.concatenate(([0.0], edges))
    else:
        tail, tail_err = (part[:, None] for part in quadrature._eta1_tail(q, d, float(edges[0])))
    v, log_sin = quadrature._angle_basis(quadrature._panel_nodes(edges[:-1], edges[1:]))
    f = lambda: quadrature._folded_integrand(v, log_sin, zeta, q, d)
    values, errors = quadrature._kronrod_batch(f, edges)
    table = np.concatenate((values, errors, edges[None, :-1], edges[None, 1:]))
    mesh = (np.array([x]) for x in (zeta, q, d))
    (entry,) = quadrature._refine(*mesh, table, np.array([table.shape[1]]), tail, tail_err)
    return edges, values, errors, entry


def seed_reference(zeta, q, d, levels=None):
    """seed_entry, with the type of the error in place of an error entry."""
    *seed, entry = seed_entry(zeta, q, d, levels)
    return (*seed, type(entry) if isinstance(entry, FastSphereError) else entry)


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
    # eta = 1 next to the deep seeds its cutoff stops; 2q + d from 2.1
    # down to 3e-4
    (5, 0.3, [1e-40, 11.9, 0.0, 0.0]),
    (3, 0.25, [1e-120, 0.0]),
    (4, 0.4999, [2e-6, 0.0, 0.0, 0.0]),
    (8, 0.74999, [0.0]),
    # deep and shallow zetas around the free panels, at d = 1, and at
    # q = -10 with a steep integrand above a cutoff of 4 levels
    (1, 0.3, [1e-150, 1e-40, 2e-17, 1e-12]),
    (40, 0.9, [1e-200, 1e-35, 1e-18, 1e-8, 0.5]),
    # 2q + d = 1e-3 at d = 1105: the integrand leaves double range at the
    # nodes of the bottom panel, which an eta = 1 seed lays and drops, but
    # not at those of its lowest dyadic panel, whose basis they read
    (1105, 1.0 - 2.0 / 1104.999, [0.0]),
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
    batched = quadrature._integrals({(q, d): zetas}, {})
    monkeypatch.undo()
    assert [r if type(r) is tuple else type(r) for r in batched] == [
        seed_reference(z, q, d)[3] for z in zetas
    ]
    assert passes
    all_free = []
    for args in passes:
        laid = record_calls(monkeypatch, quadrature, "_kronrod_batch")
        table, panels, tail, tail_err = quadrature._seed_pass(*args)
        monkeypatch.undo()
        ((_, edges),) = laid
        zeta, _, _, levels, free, _, _ = args
        computed = levels + 1 - free
        assert edges.size == computed.sum() + 1  # no panel between the meshes
        first = np.cumsum(computed) - computed
        # at eta = 1 with q < 0 the bottom panel is laid, and then dropped
        sizes = levels + 1 - ((zeta == 0.0) & (q < 0.0))
        assert panels.tolist() == sizes.tolist()
        assert table.shape == (8, sizes.sum())
        begin = np.cumsum(sizes) - sizes
        for k, z in enumerate(zeta.tolist()):
            ref_edges, ref_values, ref_errors, _ = seed_reference(z, q, d)
            mesh = edges[first[k] : first[k] + computed[k] + 1]
            full = np.concatenate(([0.0], ref_edges[ref_edges > 0.0]))
            assert np.array_equal(np.sort(mesh), full[: computed[k] + 1])
            ref_table = np.concatenate((ref_values, ref_errors, [ref_edges[:-1]], [ref_edges[1:]]))
            assert np.array_equal(table[:, begin[k] : begin[k] + sizes[k]], ref_table)
            if sizes[k] == levels[k]:
                ref_tail = quadrature._eta1_tail(q, d, float(ref_edges[0]))
                assert np.array_equal(np.stack((tail[:, k], tail_err[:, k])), ref_tail)
            else:
                assert not tail[:, k].any() and not tail_err[:, k].any()
        all_free += free.tolist()
    return all_free


@pytest.mark.parametrize("d, m, zetas", LADDER_CASES)
def test_ladder_seed_pass_matches_the_seed_mesh(monkeypatch, d, m, zetas):
    # _integral is its seed mesh at every zeta, eta = 1 included, and so is
    # each mesh of a seed pass; a lone zeta is laid twice so that a pair is
    q = 1.0 / (m - 1.0)
    for z in zetas:
        assert outcome(lambda: quadrature._integral(z, q, d)) == seed_reference(z, q, d)[3]
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
    # asked in zeta order and paired as listed: the first pair takes the
    # panel from the table
    assert seed_passes_match_the_seed_meshes(monkeypatch, q, d, zetas) == expected


@pytest.mark.parametrize("k", [0, 1, 7, 40, 300])
def test_seed_levels_at_a_power_of_two(k):
    # log2(pi/2 / low) is the integer k, and math.log2 agrees; one ulp
    # above 2^k the count is k + 1, where a rounded log2 can give k
    zeta = (math.pi * 2.0**-k) ** 2
    ratio = quadrature._HALF_PI / (0.5 * math.sqrt(zeta))
    assert ratio == 2.0**k and math.log2(ratio) == k
    # the floor is 1 level: at zeta >= pi^2 the seed is [0, pi/4], [pi/4, pi/2]
    assert int(quadrature._seed_levels(zeta, 0.0)) == max(k, 1)
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
    laid = []
    batched, rounds = refine_rounds(lambda: quadrature._integrals({(q, d): zetas}, {}), laid)
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
    # at zeta >= 10 has 2, then 4 and 6.  With at most 6 panels the first
    # fail after one round, while the others go on to their second, still
    # one batch per round for all the meshes left
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 6)
    q, d = 1.0 / (0.9 - 1.0), 40
    zetas = [1e-3, 1.0, 100.0, 0.1, 1e4]
    batched, rounds = refine_rounds(lambda: quadrature._integrals({(q, d): zetas}, {}))
    assert rounds == [[5, 2]]
    for zeta, result in zip(zetas, batched):
        if zeta < 1.0:
            assert type(result) is ToleranceNotMetError and result.__traceback__ is None
            assert "after 7 panels" in str(result)
            with pytest.raises(ToleranceNotMetError) as exc:
                quadrature._integral(zeta, q, d)
            assert str(exc.value) == str(result)
        else:
            assert result == quadrature._integral(zeta, q, d)


# meshes at zeta >= pi^2 (where no cutoff stops the ladder) whose single
# panel [0, pi/2] meets the tolerance at once, settles on its halves, needs
# more rounds or overflows, and, in the same call, deep seeds with free
# panels and eta = 1
LARGE_ETA = {
    (-2.0, 2): [30.0, 1e3, 1e-200, 10.0],
    (1.0 / (0.3 - 1.0), 1): [50.0, 1e4],
    (0.5, 1): [0.0, 1e6],
    (1.0 / (0.9 - 1.0), 40): [100.0, 1e-3, 1e4],
    (3.0, 2): [1e100, 12.0],
    (-4.0 / 3.0, 3): [0.0, 1e-120, 20.0],
}


def test_large_eta_seeds_are_the_halves_of_one_panel(monkeypatch):
    # at zeta >= pi^2 the seed is [0, pi/4] and [pi/4, pi/2] (1 level), the
    # halves a bisection of [0, pi/2] lays; every entry of the call is the
    # one its seed makes alone, bit for bit, value or error message
    passes = record_calls(monkeypatch, quadrature, "_seed_pass")
    with np.errstate(over="ignore"):
        entries = quadrature._integrals(LARGE_ETA, {})
        alone = [seed_entry(*mesh)[3] for mesh in flat(LARGE_ETA)]
    assert [as_bits(entry) for entry in entries] == [as_bits(entry) for entry in alone]
    assert passes
    for zeta, _, _, levels, *_ in passes:
        assert (levels[zeta >= math.pi**2] == 1).all() and (levels[zeta < math.pi**2] > 1).all()
    # where the single panel misses the tolerance, its bisection ends bit for
    # bit as the two-panel seed: after one round, after more, or out of range
    large = [(mesh, entry) for mesh, entry in zip(flat(LARGE_ETA), alone) if mesh[0] >= math.pi**2]
    single = {}
    with np.errstate(over="ignore"):
        for mesh, entry in large:
            one_panel, record = refine_rounds(lambda: seed_entry(*mesh, levels=0)[3])
            ((_, batches),) = record
            single.setdefault(batches, []).append(type(entry))
            if batches:
                assert as_bits(one_panel) == as_bits(entry)
    assert sorted(single)[:2] == [0, 1] and max(single) > 1
    assert ToleranceNotMetError in sum(single.values(), [])


def test_a_pass_of_deep_and_large_eta_seeds_stays_within_the_node_budget(monkeypatch):
    # nine seeds of 53 panels, then 400 of 2: a pass is cut between two
    # pairs, after an odd number of deep seeds too, and never runs past the
    # node budget
    q, d = -2.0, 2
    zetas = [1e-30] * 9 + [100.0] * 400
    passes = record_calls(monkeypatch, quadrature, "_seed_pass")
    entries = quadrature._integrals({(q, d): zetas})
    laid = [args[3] for args in passes]
    assert np.concatenate(laid).tolist() == [52] * 9 + [1] * 400
    assert [levels.size for levels in laid] == [42, 272, 95]
    budget = quadrature._BATCH_NODES // quadrature._NODES.size  # in panels
    assert all((levels + 1).sum() <= budget for levels in laid)
    alone = {z: as_bits(seed_entry(z, q, d)[3]) for z in set(zetas)}
    assert [as_bits(entry) for entry in entries] == [alone[z] for z in zetas]


def test_a_pass_of_seeds_and_deep_meshes_gives_each_mesh_its_group(monkeypatch):
    # a pass that spans two groups gives each node the q and d of its own
    # mesh's group
    q1 = 1.0 / (0.3 - 1.0)
    groups = {(-2.0, 2): [1e-3], (q1, 1): [100.0, 1e-3]}
    passes = record_calls(monkeypatch, quadrature, "_seed_pass")
    entries = quadrature._integrals(groups)
    ((zeta, q, d, levels, *_),) = passes
    assert zeta.tolist() == [1e-3, 100.0, 1e-3] and levels[1] == 1
    assert q.tolist() == [-2.0, q1, q1] and d.tolist() == [2, 1, 1]
    assert [as_bits(entry) for entry in entries] == [
        as_bits(seed_entry(*mesh)[3]) for mesh in flat(groups)
    ]


def test_a_lone_large_eta_integral_makes_no_refinement_batch(monkeypatch):
    # the single panel [0, pi/2] at eta - 1 = 10 misses the tolerance and is
    # bisected once; the seed is those halves, which meet it in one batch
    one_panel, rounds = refine_rounds(lambda: seed_entry(10.0, -2.0, 2, levels=0)[3])
    assert rounds == [[1, 1]]
    batches = record_calls(monkeypatch, quadrature, "_kronrod_batch")
    result, rounds = refine_rounds(lambda: quadrature._integral(10.0, -2.0, 2))
    assert rounds == [[1, 0]] and len(batches) == 1
    assert as_bits(result) == as_bits(one_panel)


@pytest.mark.parametrize("d, m", [(2, 0.5), (3, 0.25), (5, 0.3), (40, 0.9), (1, 0.3)])
def test_two_panel_seeds_against_live_oracle(d, m):
    # the two-panel seeds of zeta >= pi^2 give all three moments to within a
    # few ulps of the 30-digit oracle (9.2e-15 at worst, measured at d = 40
    # and zeta = 1e9), at 12 and 30 too, where a single panel [0, pi/2]
    # would have met the tolerance
    q = 1.0 / (m - 1.0)
    for zeta in (math.pi**2, 12.0, 30.0, 1e3, 1e6, 1e9):
        eta = 1.0 + zeta
        moments = quadrature._integral(eta - 1.0, q, d)
        for value, (qq, p) in zip(moments, ((q, 0), (q, 1), (q + 1.0, 0))):
            assert value == pytest.approx(mp_theta_integral(eta, qq, p, d), rel=1e-13)


def test_ladder_table_is_built_on_first_use_and_small():
    # and no eta = 1 table (an array of _refine's 8 rows) exists before an
    # integral is asked for
    code = (
        "import fastsphere.cli, fastsphere.quadrature as q; "
        "print(q._ladder.cache_info().currsize, "
        "sum(isinstance(o, q.np.ndarray) and o.ndim == 2 and len(o) == 8 for o in vars(q).values()))"
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


def as_bits(outcome):
    """An _integrals entry as its bits: the doubles of (i0, i1, i_ent), or the error's type and message."""
    if isinstance(outcome, FastSphereError):
        return type(outcome), str(outcome)
    return tuple(np.array(outcome).view(np.uint64).tolist())


# (q, d) of a sweep pass, a deep spike with no eta = 1 cutoff (2q + d < 0:
# eta = 1 diverges), q >= 0 at d = 1 and d = 2, meshes that refine for
# several rounds (d = 40), and q = -200, whose integrand leaves double
# range near eta = 1 (as does the eta = 1 table of (-2, 2) below 1e-240).
# The kernel takes convergent meshes only, so MESHES draws no eta = 1 mesh
# where 2q + d <= 0.
BATCH_SPECS = [
    (-2.0, 2),
    (1.0 / (0.25 - 1.0), 3),
    (1.0 / (0.34 - 1.0), 3),
    (0.5, 1),
    (2.0, 2),
    (1.0 / (0.9 - 1.0), 40),
    (-200.0, 3),
]
ZETAS = st.one_of(st.just(0.0), st.floats(-280.0, 4.0).map(lambda e: 10.0**e))
MESHES = st.tuples(st.sampled_from(BATCH_SPECS), ZETAS).filter(
    lambda mesh: mesh[1] > 0.0 or 2.0 * mesh[0][0] + mesh[0][1] > 0.0
)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(MESHES, min_size=1, max_size=14),
    st.booleans(),
    st.booleans(),
)
def test_every_batch_is_each_mesh_alone(meshes, ordered, shared):
    # a batch of groups of meshes at any (q, d), the groups in BATCH_SPECS
    # order or in the order met, gives each mesh the bits of its one-mesh
    # call, with or without eta = 1 tables, fresh or filled by an earlier call
    if ordered:
        meshes.sort(key=lambda mesh: BATCH_SPECS.index(mesh[0]))
    groups = {}
    for spec, zeta in meshes:
        groups.setdefault(spec, []).append(zeta)
    alone = [as_bits(*quadrature._integrals({(q, d): [zeta]})) for zeta, q, d in flat(groups)]
    tables = {} if shared else None
    for _ in range(2 if shared else 1):
        assert [as_bits(r) for r in quadrature._integrals(groups, tables)] == alone


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-60.0, 0.0), min_size=1, max_size=40, unique=True),
    st.sampled_from(BATCH_SPECS),
    ZETAS,
)
def test_a_kronrod_batch_is_each_panel_alone(exponents, spec, zeta):
    # each panel's values and estimates in a batch of joined panels, laid up
    # and down, are those of the panel integrated on its own, bit for bit
    edges = quadrature._HALF_PI * 2.0 ** np.sort(exponents)  # in (0, pi/2]
    edges = np.concatenate(([0.0], edges, edges[-2::-1], [0.0]))  # up, then down again
    v, log_sin = quadrature._angle_basis(quadrature._panel_nodes(edges[:-1], edges[1:]))
    with np.errstate(over="ignore"):
        batch = quadrature._kronrod_batch(lambda: quadrature._folded_integrand(v, log_sin, zeta, *spec), edges)
        for k in range(edges.size - 1):
            f = lambda: quadrature._folded_integrand(v[k : k + 1], log_sin[k : k + 1], zeta, *spec)
            one = quadrature._kronrod_batch(f, edges[k : k + 2])
            for part, alone in zip(batch, one):
                assert np.array_equal(part[:, k].view(np.uint64), alone[:, 0].view(np.uint64))


@pytest.mark.parametrize("tables", [None, {}], ids=["no-tables", "tables"])
def test_an_empty_call_has_no_entry(tables):
    # a round of grouped meshes can hold a pass with no new zeta; with or
    # without tables, an empty call returns no entry and adds no table
    assert quadrature._integrals({}, tables) == []
    assert quadrature._integrals({(-2.0, 2): []}, tables) == []
    assert not tables


def test_integrand_takes_numbers_and_per_node_arrays_alike():
    # zeta, q and d as numbers or as one value per node give the integrand
    # the same operations, so the same bits, signed zeros included: at
    # zeta = 0, at d = 1, at nodes where y > 700 caps expm1 and on both
    # sides of the z > -0.5 mask of log1p
    theta = np.geomspace(1e-30, math.pi / 2.0, 8 * 15).reshape(8, 15)
    v, log_sin = quadrature._angle_basis(theta)
    reached = set()
    for zeta in (0.0, 1e-12, 0.3, 5.0):
        for q, d in ((-10.0, 40), (-4.0 / 3.0, 3), (-2.0, 1), (0.5, 1), (2.0, 2)):
            per_node = (np.full(v.shape, x, dtype=float) for x in (zeta, q, d))
            with np.errstate(over="ignore"):
                numbers = quadrature._folded_integrand(v, log_sin, zeta, q, d)
                arrays = quadrature._folded_integrand(v, log_sin, *per_node)
            assert np.array_equal(numbers.view(np.uint64), arrays.view(np.uint64)), (zeta, q, d)
            z = -2.0 * (1.0 - v) / ((2.0 + zeta) - v)
            y = q * (np.log(zeta + v) - np.log((2.0 + zeta) - v))
            reached |= {
                name
                for name, hit in (
                    ("zeta = 0", zeta == 0.0),
                    ("d = 1", d == 1),
                    ("y > 700", (y > 700.0).any()),
                    ("z <= -0.5", (z <= -0.5).any()),
                    ("z > -0.5", (z > -0.5).any()),
                )
                if hit
            }
    assert reached == {"zeta = 0", "d = 1", "y > 700", "z <= -0.5", "z > -0.5"}


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


def test_closed_form_refuses_a_value_far_out_of_range_at_once():
    # at odd d the exact products hold about q factors, minutes of work at
    # q = 1e6: log-Gamma refuses a value that far out first, while q = 1000
    # and 1037, the largest integer q in range at d = 3, keep the exact path
    # and its bits
    start = time.perf_counter()
    with pytest.raises(ToleranceNotMetError, match="leaves double range for q=1000000.0, d=3"):
        eta1_closed_form(1e6, 0, 3)
    assert time.perf_counter() - start < 1.0
    assert eta1_closed_form(1000.0, 0, 3) == float.fromhex("0x1.d4f301ead03c2p+986")
    assert eta1_closed_form(1037.0, 0, 3) == float.fromhex("0x1.bc1e310f058d6p+1023")
    with pytest.raises(ToleranceNotMetError, match="leaves double range for q=1038.0, d=3"):
        eta1_closed_form(1038.0, 0, 3)


def test_closed_form_refuses_a_long_shift_and_multiplies_long_products_as_trees():
    # at even d the power of two holds about q bits: q = 5e15 would shift by
    # 5e15 bits (a MemoryError) and q = 1e8 build 12.5 MB, so log-Gamma
    # refuses both first; q = 1000 keeps its exact path and its bits.  At
    # d = 100001 the products hold about d factors, which a balanced tree
    # multiplies to the same integers (left to right took seconds)
    start = time.perf_counter()
    for q in (5e15, 1e8):
        with pytest.raises(ToleranceNotMetError, match=f"leaves double range for q={q!r}, d=2"):
            eta1_closed_form(q, 0, 2)
    assert time.perf_counter() - start < 1.0
    assert eta1_closed_form(1000.0, 0, 2) == 2.1408763380345e298
    assert eta1_closed_form(-1.0, 0, 100001) == 0.007926714045740762


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
    for d in (0, -3, 2.5, True, math.nan, math.inf, None, "x"):
        with pytest.raises(InvalidParamError):
            integral(2.0, -1.0, 0, d)
    for bad in (None, "x"):  # eta and q as float() cannot read them
        for args in ((bad, -1.0, 0, 2), (2.0, bad, 0, 2)):
            with pytest.raises(InvalidParamError):
                integral(*args)
        with pytest.raises(InvalidParamError):
            eta1_closed_form(bad, 0, 2)


def test_tolerance_not_met_when_budget_exhausted(monkeypatch):
    # the seed misses the tolerance with more panels than the budget
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
    with pytest.raises(ToleranceNotMetError, match="stalled"):
        integral(1.0 + 2e-6, 1.0 / (0.9 - 1.0), 0, 21)


def test_a_stall_reports_the_error_the_tolerance_test_read(monkeypatch):
    # the seed misses the tolerance with more panels than the budget: the
    # stall reports the largest err / |total| of the seed's components
    q, d, zeta = 1.0 / (0.9 - 1.0), 21, 1e-30
    _, values, errors, _ = seed_entry(zeta, q, d)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", values.shape[1] - 1)
    (result,) = quadrature._integrals({(q, d): [zeta]})
    assert type(result) is ToleranceNotMetError
    found = re.fullmatch(
        r"adaptive quadrature stalled at estimated relative error (\S+) after (\d+) panels "
        r"\(target 1\.0e-10\)",
        str(result),
    )
    worst = quadrature._worst(errors.sum(axis=1), values.sum(axis=1))
    assert worst > quadrature.DEFAULT_REL_TOL
    assert found and float(found[1]) == pytest.approx(worst, rel=1e-3)
    assert int(found[2]) == values.shape[1]


def test_a_subnormal_total_ends_its_mesh_at_once(monkeypatch):
    # a zeta the solve of fully_supported_state(3.95 kappa1, 3, 0.997814)
    # asks: the seed's moment total is subnormal, which no relative
    # tolerance can be met at, so the mesh ends after its seed batch
    q, d, zeta = -457.45654162854083, 3, 3.8780017186506877
    batches = record_calls(monkeypatch, quadrature, "_kronrod_batch")
    (result,) = quadrature._integrals({(q, d): [zeta]})
    assert len(batches) == 1 and type(result) is ToleranceNotMetError
    found = re.fullmatch(
        r"the i1 total (\S+) is below the normal double range \(no relative tolerance can be "
        r"met\) at eta - 1 = (\S+), q = (\S+), d = 3",
        str(result),
    )
    assert found and 0.0 < float(found[1]) < sys.float_info.min
    assert (float(found[2]), float(found[3])) == (zeta, q)


@pytest.mark.parametrize(
    "zeta, q, d, rounds",
    [(1e-30, 1.0 / (0.3 - 1.0), 5, 0), (1e-30, 1.0 / (0.9 - 1.0), 40, 2)],
)
def test_a_mesh_that_meets_the_tolerance_past_its_budget_returns_its_value(
    monkeypatch, zeta, q, d, rounds
):
    # with the budget one panel below the count a mesh converges at, in its
    # seed or after rounds of refinement, it returns its unbudgeted value
    alone = quadrature._integral(zeta, q, d)
    laid = runs_alone(zeta, q, d)
    assert len(laid) == rounds
    # a round of one mesh bisects a span of panels, laid as 2 * span + 1 edges
    converged = int(quadrature._seed_levels(zeta, quadrature._seed_cut(q, d))) + 1
    converged += sum((edges.size - 1) // 2 for edges in laid)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", converged - 1)
    assert as_bits(quadrature._integral(zeta, q, d)) == as_bits(alone)


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
