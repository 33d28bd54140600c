import functools
import gc
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import KAPPA_C_5_03, mp_kappa1, mp_kappa_c, read_sweep, record_calls
from fastsphere import cli
from fastsphere import energy as en
from fastsphere import equilibria as eq
from fastsphere import model, quadrature, verification
from fastsphere.cli import main
from fastsphere.errors import BracketFailureError, FastSphereError, InvalidParamError
from fastsphere.model import sphere_geometry


DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCritical:
    def test_case_i_payload(self, capsys):
        code, out, _ = run(capsys, "critical", "--d", "2", "--m", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "case_i"
        assert payload["kappa1"] == pytest.approx(5.3174, abs=5e-4)
        assert payload["kappa2"] is None
        assert payload["kappa3"] is None
        assert payload["alpha_bar"] is None
        assert payload["kappa_c"] is None

    def test_case_iii_payload(self, capsys):
        code, out, _ = run(capsys, "critical", "--d", "5", "--m", "0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "case_iii"
        assert payload["kappa3"] / payload["kappa2"] == pytest.approx(0.88502, abs=1e-3)
        assert payload["kappa3"] < payload["kappa_c"] < payload["kappa1"]

    def test_case_iii_payload_at_large_d(self, capsys):
        code, out, _ = run(capsys, "critical", "--d", "200", "--m", "0.9")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "case_iii"
        assert math.isfinite(payload["kappa_c"])
        assert payload["kappa3"] < payload["kappa_c"] < payload["kappa1"]

    def test_case_iii_payload_beyond_gamma_range(self, capsys):
        # math.gamma overflows from d = 342 on; the areas come from lgamma there
        code, out, _ = run(capsys, "critical", "--d", "400", "--m", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa1"] == pytest.approx(mp_kappa1(400, 0.5), rel=1e-12, abs=0.0)
        assert payload["kappa_c"] == pytest.approx(mp_kappa_c(400, 0.5), rel=1e-12, abs=0.0)

    def test_areas_below_double_range_exit_2(self, capsys):
        code, out, err = run(capsys, "critical", "--d", "1000", "--m", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "d=1000" in err

    def test_threshold_degenerate_exits_2(self, capsys):
        code, _, err = run(capsys, "critical", "--d", "3", "--m", "0.3333333333")
        assert code == 2
        assert "threshold" in err

    def test_invalid_m_exits_2(self, capsys):
        code, _, err = run(capsys, "critical", "--d", "3", "--m", "1.5")
        assert code == 2
        assert "error:" in err

    def test_takes_no_tolerance_flags(self, capsys):
        # critical integrates nothing and solves no root
        with pytest.raises(SystemExit) as exc:
            main(["critical", "--d", "5", "--m", "0.3", "--rel-tol", "1e-8"])
        assert exc.value.code == 2
        assert "--rel-tol" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rel-tol", "--root-tol"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--d", "2", "--m", "0.5", "--kappa-min", "6", "--kappa-max", "8"],
            ["profile", "--d", "2", "--m", "0.5", "--kappa", "8"],
            ["verify"],
        ],
        ids=["sweep", "profile", "verify"],
    )
    def test_no_command_takes_tolerance_flags(self, capsys, argv, flag):
        # every command runs at the one accuracy of the library
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "1e-8"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_no_public_callable_takes_a_tolerance():
    import fastsphere

    taking = [
        name
        for name in fastsphere.__all__
        if inspect.isfunction(obj := getattr(fastsphere, name))
        and {"rel_tol", "root_tol"} & set(inspect.signature(obj).parameters)
    ]
    assert taking == []


def test_kernel_and_solvers_take_no_accuracy():
    # the integrals run at DEFAULT_REL_TOL and the brackets close to
    # DEFAULT_WIDTH_TOL; only bracketed_root's residual stop is set by a caller
    from fastsphere import solvers

    taking = [
        f"{module.__name__}.{name}"
        for module in (quadrature, solvers)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and {"rel_tol", "width_tol"} & set(inspect.signature(obj).parameters)
    ]
    assert taking == []
    assert list(inspect.signature(solvers.lockstep_roots).parameters) == ["residuals", "brackets"]


def test_past_double_range_nothing_builds_a_closed_form(capsys, monkeypatch):
    # the geometry raises for d >= 438 before the exact products of the eta = 1
    # closed form are built, which at this d would take seconds
    calls = record_calls(monkeypatch, model, "eta1_closed_form")
    d, m = 100000, 0.1
    for call in (
        lambda: en.critical_set(d, m),
        lambda: eq.s_bar(d, m),
        lambda: eq.alpha_roots(10.0, d, m),
        lambda: eq.singular_state(10.0, d, m),
        lambda: eq.rho_bar_density(1.0, d, m),
        lambda: en.energy_singular(0.5, 10.0, d, m),
    ):
        with pytest.raises(InvalidParamError, match="double range"):
            call()
    code, out, err = run(
        capsys,
        "sweep", "--d", str(d), "--m", str(m),
        "--kappa-min", "1", "--kappa-max", "2", "--steps", "2",
    )
    assert (code, out) == (2, "")
    assert "double range" in err
    assert calls == []


class TestSweep:
    def test_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main(
                [
                    "sweep", "--d", "3", "--m", "0.25",
                    "--kappa-min", "8", "--kappa-max", "16",
                    "--steps", "33", "--out", str(path),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_case_ii_branch_handoff(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--d", "3", "--m", "0.25",
            "--kappa-min", "9", "--kappa-max", "18", "--steps", "61",
        )
        assert code == 0
        rows = read_sweep(out)
        crit = en.critical_set(3, 0.25)
        k1, k2 = crit.kappa1, crit.kappa2
        supported = [r["kappa"] for r in rows if r["branch"] == "fully_supported"]
        singular = [r["kappa"] for r in rows if r["branch"] == "singular_upper"]
        assert max(supported) < k2 <= min(singular)
        assert min(supported) > k1
        assert not any(r["branch"] == "singular_lower" for r in rows)

    def test_case_iii_fold_window(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--d", "5", "--m", "0.3",
            "--kappa-min", "15", "--kappa-max", "21", "--steps", "121",
        )
        assert code == 0
        rows = read_sweep(out)
        crit = en.critical_set(5, 0.3)
        lower = [r["kappa"] for r in rows if r["branch"] == "singular_lower"]
        upper = [r["kappa"] for r in rows if r["branch"] == "singular_upper"]
        supported = [r["kappa"] for r in rows if r["branch"] == "fully_supported"]
        assert min(lower) >= crit.kappa3 and max(lower) < crit.kappa2
        assert min(upper) >= crit.kappa3
        assert min(supported) > crit.kappa2 and max(supported) < crit.kappa1

    def test_com_norm_identity_and_uniform_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--d", "5", "--m", "0.3",
            "--kappa-min", "16", "--kappa-max", "20", "--steps", "17",
        )
        assert code == 0
        rows = read_sweep(out)
        sb = eq.s_bar(5, 0.3)
        for row in rows:
            if row["branch"] == "uniform":
                assert row["com_norm"] == 0.0
            if row["branch"] in ("singular_upper", "singular_lower"):
                expected = row["alpha"] + (1.0 - row["alpha"]) * sb
                assert abs(row["com_norm"] - expected) <= 1e-12

    def test_rows_sorted_by_kappa_then_branch(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--d", "2", "--m", "0.5",
            "--kappa-min", "4", "--kappa-max", "8", "--steps", "9",
        )
        assert code == 0
        rows = read_sweep(out)
        keys = [(r["kappa"], r["branch"]) for r in rows]
        assert keys == sorted(keys)

    def test_log_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--d", "2", "--m", "0.5",
            "--kappa-min", "1", "--kappa-max", "100", "--steps", "5", "--log-grid",
        )
        assert code == 0
        kappas = sorted({r["kappa"] for r in read_sweep(out)})
        assert kappas == pytest.approx([1.0, math.sqrt(10), 10.0, 10 * math.sqrt(10), 100.0])

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--d", "2", "--m", "0.5",
            "--kappa-min", "4", "--kappa-max", "6", "--steps", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(row["branch"] in ("uniform", "fully_supported") for row in payload)

    def test_invalid_range_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--d", "2", "--m", "0.5",
            "--kappa-min", "5", "--kappa-max", "4", "--steps", "10",
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("grid", [[], ["--log-grid"]])
    def test_infinite_kappa_max_exits_2(self, capsys, grid):
        # numpy's grids would turn the bound into a NaN kappa under a RuntimeWarning
        code, out, err = run(
            capsys,
            "sweep", "--d", "2", "--m", "0.5",
            "--kappa-min", "4", "--kappa-max", "inf", "--steps", "3", *grid,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_unsolvable_samples_become_nan_rows(self, capsys, monkeypatch):
        def broken(requests):
            failure = BracketFailureError("injected solver failure")
            return [[failure] * len(kappas) for _, kappas in requests]

        monkeypatch.setattr(eq, "_fully_supported_states", broken)
        code, out, err = run(
            capsys,
            "sweep", "--d", "2", "--m", "0.5",
            "--kappa-min", "6", "--kappa-max", "8", "--steps", "3",
        )
        assert code == 0
        assert "nan" in out
        assert "3 kappa samples failed" in err

    def test_json_writes_failed_rows_as_null(self, capsys):
        # the three kappas fail (the energy cross-check at 1e8, s rounding to
        # 1 above it), and their rows' NaNs are null in JSON, nan in CSV
        argv = [
            "sweep", "--d", "2", "--m", "0.5",
            "--kappa-min", "1e8", "--kappa-max", "1e10", "--steps", "3", "--log-grid",
        ]
        code, out, err = run(capsys, *argv, "--format", "json")
        rows = strict_json(out)
        assert code == 0 and "3 kappa samples failed" in err
        assert [(row["com_norm"], row["energy"]) for row in rows] == [(None, None)] * 3
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count(",nan") == 12


    @pytest.mark.parametrize("d, m", [(3, 0.25), (5, 0.3)])
    def test_supported_row_at_kappa2(self, capsys, d, m):
        # the branch window is closed at kappa2, where eta = 1
        k2 = en.critical_set(d, m).kappa2
        code, out, _ = run(
            capsys,
            "sweep", "--d", str(d), "--m", str(m),
            "--kappa-min", repr(k2), "--kappa-max", repr(1.1 * k2), "--steps", "2",
        )
        assert code == 0
        rows = [
            r for r in read_sweep(out) if r["kappa"] == k2 and r["branch"] == "fully_supported"
        ]
        assert len(rows) == 1
        assert rows[0]["eta"] == 1.0
        assert rows[0]["energy"] == en.classify_minimizer(k2, d, m).e_fully_supported

    @pytest.mark.parametrize(
        "d, m, lo, hi", [(2, 0.5, 4.0, 16.0), (3, 0.25, 8.0, 20.0), (5, 0.3, 15.0, 22.0)]
    )
    def test_rows_match_classify_minimizer(self, capsys, d, m, lo, hi):
        code, out, err = run(
            capsys,
            "sweep", "--d", str(d), "--m", str(m),
            "--kappa-min", str(lo), "--kappa-max", str(hi), "--steps", "41",
        )
        assert code == 0 and err == ""
        swept = {}
        for row in read_sweep(out):
            swept.setdefault(row["kappa"], {})[row["branch"]] = row["energy"]
        assert len(swept) == 41
        for kappa, energies in swept.items():
            report = en.classify_minimizer(kappa, d, m)
            reported = {
                "uniform": report.e_uniform,
                "fully_supported": report.e_fully_supported,
                "singular_upper": report.e_singular_upper,
                "singular_lower": report.e_singular_lower,
            }
            assert energies == {k: v for k, v in reported.items() if v is not None}


class TestSweepWork:
    # Gauss-Kronrod batches of a 41-step sweep when every kappa was
    # solved on its own, one batch per computed integral or refinement step
    @pytest.mark.parametrize(
        "d, m, lo, hi, per_kappa_batches",
        [(5, 0.3, 15, 22, 449), (3, 0.25, 8, 20, 556)],
    )
    def test_lockstep_solves_share_their_batches(
        self, capsys, monkeypatch, d, m, lo, hi, per_kappa_batches
    ):
        # and the integrand nodes of the sweep when every seed panel was
        # computed, with the share of them it may take now that the upper
        # panels of deep seeds come from eta = 1.  Most seed panels of
        # (5, 0.3) lie at zeta > 1e-10, where no panel is free.
        full_seed_nodes, node_share = {(5, 0.3): (47190, 0.8), (3, 0.25): (167850, 0.65)}[d, m]
        # and the batches of the lockstep sweep when each seed that missed
        # the tolerance was refined in batches of its own, with the share
        # of them it may take now that a pass's seeds are refined together
        one_by_one_batches, batch_share = {(5, 0.3): 65, (3, 0.25): 55}[d, m], 0.93
        batches = record_calls(monkeypatch, quadrature, "_kronrod_batch")
        code, _, err = run(
            capsys,
            "sweep", "--d", str(d), "--m", str(m),
            "--kappa-min", str(lo), "--kappa-max", str(hi), "--steps", "41",
        )
        assert code == 0 and err == ""
        assert len(batches) <= per_kappa_batches / 4
        assert len(batches) <= batch_share * one_by_one_batches
        nodes = sum(15 * (bounds.size - 1) for _, bounds in batches)
        assert nodes <= node_share * full_seed_nodes

    def test_only_refinement_builds_nodes(self, capsys, monkeypatch):
        # a seed pass and an eta = 1 table read the angle basis of their
        # panels from the ladder; only a refinement batch builds the nodes of
        # its halves, once per batch.  A case_i sweep still refines (the
        # case_ii sweep of test_lockstep_solves_share_their_batches no
        # longer does: its one-panel seeds come with their halves)
        quadrature._ladder()  # its one-time build computes nodes too
        within, log = ["sweep"], []

        def entered(name, function):
            def call(*args):
                within.append(name)
                try:
                    return function(*args)
                finally:
                    within.pop()

            return call

        def logged(name, function):
            def call(*args):
                log.append((within[-1], name))
                return function(*args)

            return call

        for name in ("_refine", "_seed_pass", "_eta1_table"):
            monkeypatch.setattr(quadrature, name, entered(name, getattr(quadrature, name)))
        for name in ("_panel_nodes", "_kronrod_batch"):
            monkeypatch.setattr(quadrature, name, logged(name, getattr(quadrature, name)))
        code, _, err = run(
            capsys,
            "sweep", "--d", "2", "--m", "0.5",
            "--kappa-min", "4", "--kappa-max", "16", "--steps", "41",
        )
        assert code == 0 and err == ""
        calls = {}
        for where, name in log:
            calls.setdefault(where, []).append(name)
        assert set(calls) == {"_refine", "_seed_pass", "_eta1_table"}
        refined = calls.pop("_refine")
        assert refined == ["_panel_nodes", "_kronrod_batch"] * (len(refined) // 2)
        assert all(set(names) == {"_kronrod_batch"} for names in calls.values())

    def test_one_eta1_table_per_solve_and_none_kept(self, capsys, monkeypatch):
        # each branch solve call builds its own eta = 1 table in one batch,
        # and no table outlives the call
        solve, build, builds, built = eq._fully_supported_states, quadrature._eta1_table, [], []

        def counted_solve(*args):
            builds.append(0)
            return solve(*args)

        def counted_build(*args):
            table = build(*args)
            builds[-1] += 1
            built.append(weakref.ref(table))
            return table

        monkeypatch.setattr(eq, "_fully_supported_states", counted_solve)
        monkeypatch.setattr(quadrature, "_eta1_table", counted_build)
        for d, m, lo, hi in ((5, 0.3, 15, 22), (3, 0.25, 8, 20), (2, 0.5, 4, 16)):
            code, _, err = run(
                capsys,
                "sweep", "--d", str(d), "--m", str(m),
                "--kappa-min", str(lo), "--kappa-max", str(hi), "--steps", "41",
            )
            assert code == 0 and err == ""
        assert builds == [1, 1, 1]
        gc.collect()
        assert not any(table() is not None for table in built)


    def test_sweep_energies_call_no_integral(self, capsys, monkeypatch):
        # each root's energy takes the moments of its solve, and the singular
        # energies take the rho_bar entropy from its closed form.  The kernel
        # is forbidden inside the supported energy, and its one-mesh face
        # _integral throughout: the solve's rounds, a lone zeta included,
        # call _integrals.
        def forbidden(*args):
            raise AssertionError("a sweep energy computed an integral")

        original = en.energy_fully_supported

        def energy_without_integral(*args):
            with pytest.MonkeyPatch.context() as inside:
                inside.setattr(quadrature, "_integrals", forbidden)
                return original(*args)

        monkeypatch.setattr(en, "energy_fully_supported", energy_without_integral)
        monkeypatch.setattr(quadrature, "_integral", forbidden)
        code, _, err = run(
            capsys,
            "sweep", "--d", "5", "--m", "0.3",
            "--kappa-min", "15", "--kappa-max", "22", "--steps", "41",
        )
        assert code == 0 and err == ""


class TestVerifyWork:
    # the checks that read the supported branch of the reference pairs
    BRANCH_CHECKS = (
        "branch_continuity",
        "energy_two_route_agreement",
        "energy_slope_identities",
        "energy_comparison_steps",
        "minimizer_consistency",
    )

    def test_verify_never_solves_one_kappa_at_a_time(self, monkeypatch):
        calls = record_calls(monkeypatch, eq, "fully_supported_state")
        assert all(r.passed for r in verification.run_verification())
        assert calls == []

    @pytest.mark.parametrize(
        "check, tol, pairs",
        [
            ("check_energy_two_route_agreement", 1e-8, verification.REFERENCE_PAIRS),
            ("check_energy_slope_identities", 1e-4, [(2, 0.5)]),
            ("check_energy_comparison_steps", 0.0, verification.REFERENCE_PAIRS),
            ("check_branch_continuity", 1e-2, verification.REFERENCE_PAIRS),
        ],
    )
    def test_one_branch_solve_per_pair(self, monkeypatch, check, tol, pairs):
        # at the thresholds of run_verification, which every check reads; a
        # check called on its own solves the supported branch of each pair
        # it reads once, over its own kappas
        assert verification.THRESHOLDS[check.removeprefix("check_")] == tol
        calls = record_calls(monkeypatch, eq, "fully_supported_states")
        assert getattr(verification, check)().passed
        assert [(d, m) for _, d, m in calls] == list(pairs)

    def test_minimizer_check_enumerates_each_grid_once(self, monkeypatch):
        # one solve over each pair's grid, and its rows built from those
        # states, not one classify_minimizer per kappa
        solves = record_calls(monkeypatch, eq, "fully_supported_states")
        classified = record_calls(monkeypatch, en, "classify_minimizer")
        assert verification.check_minimizer_consistency().passed
        assert [(d, m, list(kappas)) for kappas, d, m in solves] == [
            (d, m, verification._minimizer_kappas(d, m)) for d, m in verification._MINIMIZER_SPANS
        ]
        assert classified == []

    def test_branch_checks_solve_measure_valued_roots_at_minimizer_kappas_only(
        self, monkeypatch
    ):
        # the branch checks read supported states; only minimizer_consistency
        # builds equilibria rows, with their measure-valued roots, at its own
        # grid kappas of the case_ii and case_iii pairs (18 calls; 31 when
        # every kappa of those pairs' whole grids got its rows)
        roots = record_calls(monkeypatch, eq, "_measure_valued_alphas")
        read = []  # (d, m, kappa) of each call within a branch check

        def counted(check):
            first = len(roots)
            try:
                return check()
            finally:
                read.extend((c.d, c.m, kappa) for kappa, c in roots[first:])

        for name in self.BRANCH_CHECKS:
            check = getattr(verification, "check_" + name)
            monkeypatch.setattr(verification, "check_" + name, functools.partial(counted, check))
        assert all(r.passed for r in verification.run_verification())
        assert read == [
            (d, m, kappa)
            for d, m in verification._MINIMIZER_SPANS
            if model.classify_regime(d, m).tag is not model.RegimeCase.CASE_I
            for kappa in verification._minimizer_kappas(d, m)
        ]
        assert len(read) == 18

    def test_one_enumeration_per_pair_per_run(self, monkeypatch):
        # the branch checks of a run share one lockstep solve, over every
        # kappa any of them reads at each reference pair (13 solves when each
        # check ran its own, 3 when each pair did); the next run in the
        # process solves them again
        solves = record_calls(monkeypatch, eq, "_fully_supported_states")
        locksteps = record_calls(monkeypatch, eq, "lockstep_roots")
        for _ in range(2):
            assert all(r.passed for r in verification.run_verification())
            ((requests,),) = solves
            assert [(c.d, c.m, list(kappas)) for c, kappas in requests] == [
                (d, m, verification._pair_grid(d, m)) for d, m in verification.REFERENCE_PAIRS
            ]
            assert [len(kappas) for _, kappas in requests] == [20, 15, 16]
            assert len(locksteps) == 1
            solves.clear()
            locksteps.clear()
        assert verification._run_entries.get() is None

    def test_sharing_couples_no_verdict(self, monkeypatch):
        ran = {r.name: r for r in verification.run_verification()}
        at = record_calls(monkeypatch, eq, "fully_supported_states")
        for name in self.BRANCH_CHECKS:
            alone = getattr(verification, "check_" + name)()
            assert alone == ran[name]
        own = [(d, m, list(kappas)) for kappas, d, m in at]
        # in reverse order, the last branch check solves each pair
        monkeypatch.setattr(
            verification, "THRESHOLDS", dict(reversed(verification.THRESHOLDS.items()))
        )
        reversed_run = verification.run_verification()
        assert [r.name for r in reversed_run] == list(reversed(ran))
        assert {r.name: r for r in reversed_run} == ran

        def solved(kappas, d, m):
            return [
                (type(state), str(state))
                if isinstance(state, FastSphereError)
                else (state.eta_minus_1, state.s, state.moments)
                for state in eq.fully_supported_states(kappas, d, m)
            ]

        # each check's own kappas solve bit for bit as in its pair's whole grid
        for d, m in verification.REFERENCE_PAIRS:
            grid = verification._pair_grid(d, m)
            whole = dict(zip(grid, solved(grid, d, m)))
            reads = [kappas for dd, mm, kappas in own if (dd, mm) == (d, m)]
            assert len(reads) == 4 + ((d, m) == (2, 0.5))
            for kappas in reads:
                assert solved(kappas, d, m) == [whole[kappa] for kappa in kappas]

    def test_verify_shares_its_rounds_and_batches(self, monkeypatch):
        # one run's solver rounds and batched checks, Gauss-Kronrod batches
        # and integrand nodes: 567, 1170 and 326,085 when each branch check
        # ran its own solves, 701 batches while each check integrated one
        # mesh at a time, 154 rounds and 260 batches while each reference
        # pair ran its own lockstep solve (62 and 122 in one lockstep), and
        # 122 batches while each eta = 1 mesh took its own (67 and 111 now)
        rounds = record_calls(monkeypatch, quadrature, "_integrals")
        batches = record_calls(monkeypatch, quadrature, "_kronrod_batch")
        assert all(r.passed for r in verification.run_verification())
        assert len(rounds) <= 70
        assert len(batches) <= 115
        assert sum(15 * (bounds.size - 1) for _, bounds in batches) <= 215_000

    def test_verify_integrates_its_grids_in_batches(self, monkeypatch):
        # each check that integrates sends all its meshes, eta = 1 included,
        # to one _integrals call; _integral is left the one theta_integral
        # read of theta_integral_eta_monotone, itself a one-mesh _integrals
        # call (324 _integral calls when each mesh took its own, 18 while
        # the eta = 1 oracles, branch_continuity's reads and the lone zetas
        # of the branch solves took it)
        batched = {
            "quadrature_self_consistency": [100],
            "eta1_quadrature_vs_closed_form": [5],
            "theta_integral_eta_monotone": [36, 1],
            "moment_bounded_by_mass": [25],
            "branch_monotone_direction": [100],
            "branch_limit_matches_kappa1": [5],
            "case_iii_com_decreasing": [15],
            "kappa2_dual_oracle": [3],
            "com_norm_closed_form": [5],
            "energy_two_route_agreement": [9],
            "energy_slope_identities": [10],
        }
        singles = record_calls(monkeypatch, quadrature, "_integral")
        rounds = record_calls(monkeypatch, quadrature, "_integrals")
        meshes = {}  # the meshes of each _integrals call of each check

        def counted(check, name):
            first = len(rounds)
            try:
                return check()
            finally:
                meshes[name] = [sum(map(len, groups.values())) for groups, *_ in rounds[first:]]

        for name in verification.THRESHOLDS:
            check = getattr(verification, "check_" + name)
            monkeypatch.setattr(
                verification, "check_" + name, functools.partial(counted, check, name)
            )
        assert all(r.passed for r in verification.run_verification())
        assert {name: meshes[name] for name in batched} == batched
        # branch_continuity's call comes after the lockstep rounds of the
        # reference pairs, which its first read starts
        assert meshes["branch_continuity"][-1] == 2
        assert len(singles) == 1


def run_demo_sweeps(out_dir):
    """Run the three bifurcation diagrams of demos/bifurcation_diagram.py into out_dir; their names."""
    demo = DEMOS / "bifurcation_diagram.py"
    spec = importlib.util.spec_from_file_location("bifurcation_diagram", demo)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, sweep in module.SWEEPS.items():
        assert main(module.sweep_argv(sweep, out_dir / name)) == 0
    return list(module.SWEEPS)


class TestDemoSweeps:
    def test_demo_csvs_are_reproduced_byte_for_byte(self, tmp_path):
        for name in run_demo_sweeps(tmp_path):
            assert (tmp_path / name).read_bytes() == (DEMOS / name).read_bytes(), name


class TestWorkLedger:
    # The kernel's work on the seed-0 demo sweeps and on verify: _integrals
    # calls, Gauss-Kronrod batches and integrand nodes, counted at the
    # kernel's own functions.  A change that moves the work updates these
    # pins and names the change.
    KERNEL = ("_integrals", "_kronrod_batch", "_folded_integrand")

    def ledger(self, monkeypatch, work):
        """(calls, batches, nodes) of work(), and the integrand's arguments at every call."""
        calls = {name: record_calls(monkeypatch, quadrature, name) for name in self.KERNEL}
        work()
        integrands = calls["_folded_integrand"]
        nodes = sum(v.size for v, *_ in integrands)
        assert nodes == 15 * sum(bounds.size - 1 for _, bounds in calls["_kronrod_batch"])
        return (len(calls["_integrals"]), len(calls["_kronrod_batch"]), nodes), integrands

    def test_demo_sweeps(self, monkeypatch, tmp_path):
        counts, integrands = self.ledger(monkeypatch, lambda: run_demo_sweeps(tmp_path))
        assert counts == (151, 204, 805_170)
        # every batch of a sweep holds one pass, whose q and d reach the
        # integrand as numbers
        assert all(type(q) is float and type(d) is int for *_, q, d in integrands)

    def test_verify(self, monkeypatch):
        work = lambda: all(r.passed for r in verification.run_verification())
        counts, integrands = self.ledger(monkeypatch, work)
        assert counts == (67, 83, 200_940)
        # a batch of meshes at several (q, d) gives every node its own q and d
        mixed = [(v, q, d) for v, _, _, q, d in integrands if isinstance(q, np.ndarray)]
        assert mixed and all(q.shape == d.shape == v.shape for v, q, d in mixed)


def test_python_m_runs_the_command_line(capsys):
    # python -m fastsphere is the fastsphere command: the bytes cli.main writes
    argv = ["critical", "--d", "5", "--m", "0.3"]
    env = dict(os.environ, PYTHONPATH=str(DEMOS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "fastsphere", *argv], capture_output=True, env=env, timeout=120
    )
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert code == 0 and out


# the demos that only print; bifurcation_diagram.py rewrites the demo CSVs
READ_ONLY_DEMOS = ("regime_map.py", "ground_state_switch.py", "density_profiles.py")


@pytest.mark.parametrize("demo", READ_ONLY_DEMOS)
def test_read_only_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(DEMOS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", str(DEMOS / demo)],
        cwd=DEMOS.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
    if demo == "ground_state_switch.py":
        assert f"  kappa_c = {KAPPA_C_5_03:.6f}   ground state switches" in proc.stdout.splitlines()


# per command: a valid call, and the index in it of a required flag (None: it has none)
PARSE_CALLS = {
    "critical": (["critical", "--d", "2", "--m", "0.5"], 1),
    "sweep": (
        ["sweep", "--d", "2", "--m", "0.5", "--kappa-min", "4", "--kappa-max", "6", "--steps", "3"],
        5,
    ),
    "profile": (["profile", "--d", "2", "--m", "0.5", "--kappa", "8", "--points", "5"], 3),
    "verify": (["verify"], None),
}


def _parse_argvs():
    """(argv, whether it parses) for the valid calls, help and usage errors."""
    cases = []
    for command, (valid, required) in PARSE_CALLS.items():
        cases += [("valid", valid, True), ("help", [command, "-h"], False)]
        if required is not None:
            cases.append(("missing-flag", valid[:required] + valid[required + 2:], False))
        cases += [
            ("bad-type", [command, "--d", "x", *valid[3:]], False),
            ("unknown-flag", [*valid, "--rel-tol", "1e-8"], False),
            ("extra-positional", [*valid, "extra"], False),
        ]
    cases = [(f"{argv[0]}-{case}", argv, parses) for case, argv, parses in cases]
    cases += [("no-command", [], False), ("unknown-command", ["bogus"], False), ("help", ["-h"], False)]
    return [pytest.param(argv, parses, id=case) for case, argv, parses in cases]


def _outcome(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _two_pass(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


class TestParser:
    @pytest.fixture
    def namespaces(self, monkeypatch):
        """The vars of every namespace a command is run with, by either route."""
        seen = []

        def recorded(command, args):
            seen.append(dict(vars(args)))
            return command(args)

        for name in ("cmd_critical", "cmd_sweep", "cmd_profile", "cmd_verify"):
            monkeypatch.setattr(cli, name, functools.partial(recorded, getattr(cli, name)))
        cli._parser.cache_clear()
        yield seen
        cli._parser.cache_clear()

    @pytest.mark.parametrize(("argv", "parses"), _parse_argvs())
    def test_main_parses_as_the_top_level_parser(self, capsys, namespaces, argv, parses):
        # main parses a command's flags with its parser alone; the top-level
        # parser, which re-enters that parser, is the reference
        expected = _outcome(capsys, _two_pass, argv)
        expected_namespaces = namespaces[:]
        namespaces.clear()
        assert _outcome(capsys, main, argv) == expected
        assert namespaces == expected_namespaces
        assert [ns["command"] for ns in namespaces] == argv[:1] * parses

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        build = cli.build_parser
        built = record_calls(monkeypatch, cli, "build_parser")
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, "critical", "--d", "5", "--m", "0.3")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert built == [()]
        assert build() is not build()


FLAT_OBJECTS = st.dictionaries(
    st.text(), st.one_of(st.integers(), st.floats(), st.none(), st.text())
)


@given(st.one_of(FLAT_OBJECTS, st.lists(FLAT_OBJECTS)))
def test_json_writer_matches_indented_dumps(obj):
    # non-finite floats, empty objects and one-row tables included
    assert cli._json(obj) == json.dumps(obj, indent=2)


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON (RFC 8259)."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_critical_payload_with_nulls_matches_indented_dumps(capsys):
    code, out, _ = run(capsys, "critical", "--d", "2", "--m", "0.5")
    payload = json.loads(out)
    assert (code, payload["kappa3"], payload["alpha_bar"], payload["kappa_c"]) == (0, None, None, None)
    assert out == json.dumps(payload, indent=2) + "\n"


class TestProfile:
    def test_json_writes_the_pole_as_null(self, capsys):
        # at kappa2 of (3, 0.25) the density is +inf at theta = 0: null in
        # JSON, inf in CSV
        argv = ["profile", "--d", "3", "--m", "0.25", "--kappa", "14.056326244543639"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        rows = strict_json(out)
        assert code == 0 and rows[0] == {"theta": 0.0, "density": None}
        assert all(type(row["density"]) is float for row in rows[1:])
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.splitlines()[1] == "0.0,inf"

    def test_flat_near_branch_birth(self, capsys):
        kappa = en.critical_set(2, 0.5).kappa1 * 1.000001
        code, out, _ = run(
            capsys,
            "profile", "--d", "2", "--m", "0.5",
            "--kappa", repr(kappa), "--points", "11",
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert max(values) / min(values) - 1.0 <= 1e-2

    def test_concentration_at_large_kappa(self, capsys):
        code, out, _ = run(
            capsys,
            "profile", "--d", "2", "--m", "0.5", "--kappa", "20", "--points", "101",
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values[0] / values[-1] > 10.0

    def test_rho_bar_profile(self, capsys):
        # (5, 0.3): the weighted integrand vanishes at theta = 0, so the
        # coarse trapezoid converges; border-singular pairs like (3, 0.25)
        # would need millions of samples for the same tolerance
        code, out, _ = run(
            capsys,
            "profile", "--d", "5", "--m", "0.3",
            "--branch", "rho_bar", "--points", "2001",
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert lines[0].split(",")[1] == "inf"
        theta = np.array([float(line.split(",")[0]) for line in lines[1:]])
        dens = np.array([float(line.split(",")[1]) for line in lines[1:]])
        dwd = sphere_geometry(5).area_sdm1
        weighted = dens * np.sin(theta) ** 4
        trapezoid = 0.5 * np.sum((weighted[1:] + weighted[:-1]) * np.diff(theta))
        assert dwd * trapezoid == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("d, m", [(3, 0.25), (5, 0.3)])
    def test_kappa2_profile_is_inf_at_the_pole_alone(self, capsys, d, m):
        # at kappa2 the solved eta - 1 is 1e-280, so the density at theta = 0
        # leaves double range: it prints inf there, as rho_bar's does
        kappa2 = en.critical_set(d, m).kappa2
        assert eq.fully_supported_state(kappa2, d, m).eta_minus_1 < 1e-250
        code, out, err = run(
            capsys,
            "profile", "--d", str(d), "--m", str(m), "--kappa", repr(kappa2), "--points", "101",
        )
        assert code == 0 and err == ""
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values[0] == math.inf and all(math.isfinite(v) for v in values[1:])

    @pytest.mark.parametrize(
        "argv",
        [
            ("--d", "5", "--m", "0.3", "--branch", "rho_bar"),
            ("--branch", "fully_supported", "--d", "2", "--m", "0.5", "--kappa", "12"),
        ],
    )
    def test_forms_its_pass_once(self, capsys, monkeypatch, argv):
        # one pass of the (d, m) constants for all 200 thetas, not one per theta
        passes = record_calls(monkeypatch, eq, "_constants")
        geometries = record_calls(monkeypatch, model, "sphere_geometry")
        closed_forms = record_calls(monkeypatch, model, "eta1_closed_form")
        validations = record_calls(monkeypatch, model, "validate_params")
        code, out, _ = run(capsys, "profile", *argv)
        assert code == 0 and len(out.splitlines()) == 201
        assert len(passes) == 1
        assert len(geometries) == 1
        assert len(closed_forms) <= 1
        assert len(validations) <= 2

    def test_out_of_window_prints_interval(self, capsys):
        code, _, err = run(
            capsys, "profile", "--d", "2", "--m", "0.5", "--kappa", "3", "--points", "5"
        )
        assert code == 2
        assert "window" in err and "5.317" in err


def test_non_finite_kappa_is_named_as_such(capsys):
    # inf is > 0, so the rule names finiteness too, as eta's does
    for kappa in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParamError, match=r"kappa must be finite and > 0, got"):
            model.check_kappa(kappa)
    with pytest.raises(InvalidParamError, match=r"kappa must be finite and >= 0, got inf"):
        en.energy_uniform(math.inf, 5, 0.3)
    code, out, err = run(
        capsys, "profile", "--d", "2", "--m", "0.5", "--kappa", "inf", "--points", "3"
    )
    assert (code, out) == (2, "")
    assert err == "error: interaction strength kappa must be finite and > 0, got inf\n"


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        assert "12.4453" in out  # the reported-value discrepancy note
        assert "closed form 14.05" in out

    def test_report_is_reproduced_byte_for_byte(self, tmp_path):
        # demos/verify.txt is written by `fastsphere verify --out demos/verify.txt`
        assert main(["verify", "--out", str(tmp_path / "verify.txt")]) == 0
        assert (tmp_path / "verify.txt").read_bytes() == (DEMOS / "verify.txt").read_bytes()

    def test_sign_flip_canary_fails(self, capsys, monkeypatch):
        # a corrupted branch function, which the branch solve and the
        # checks both read, must be caught by the suite
        original = eq._inverse_kappa_of

        def flipped(*args):
            return -original(*args)

        monkeypatch.setattr(eq, "_inverse_kappa_of", flipped)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL" in out

    def test_eta1_check_covers_the_entropy_member(self, monkeypatch):
        # kappa_c and the singular energies take I(1, q + 1, 0) from the
        # closed form, so verify must hold it against the quadrature too
        original = quadrature._integrals

        def skewed(*args):
            return [(i0, i1, i_ent * (1.0 + 1e-6)) for i0, i1, i_ent in original(*args)]

        assert verification.check_eta1_quadrature_vs_closed_form().passed
        monkeypatch.setattr(quadrature, "_integrals", skewed)
        assert not verification.check_eta1_quadrature_vs_closed_form().passed

    @pytest.mark.parametrize("member", [0, 1], ids=["mass", "moment"])
    def test_quadrature_check_holds_moment_against_mass(self, monkeypatch, member):
        # the by-parts route compares two members of the kernel at different
        # (q, d), so a skew of either one alone must show
        original = quadrature._integrals

        def skewed(*args):
            found = [list(moments) for moments in original(*args)]
            for moments in found:
                moments[member] *= 1.0 + 1e-6
            return [tuple(moments) for moments in found]

        assert verification.check_quadrature_self_consistency().passed
        monkeypatch.setattr(quadrature, "_integrals", skewed)
        assert not verification.check_quadrature_self_consistency().passed

    def test_eta_monotone_check_reads_the_public_theta_integral(self, monkeypatch):
        # the grid is integrated in one kernel batch; a fault in the public
        # front, here one ulp on its value, must still fail the check
        original = model.theta_integral
        calls = record_calls(monkeypatch, model, "theta_integral")
        assert verification.check_theta_integral_eta_monotone().passed
        assert len(calls) == 1
        monkeypatch.setattr(
            model, "theta_integral", lambda *args: math.nextafter(original(*args), math.inf)
        )
        assert not verification.check_theta_integral_eta_monotone().passed

    def test_moment_check_takes_both_members_from_one_integral(self, monkeypatch):
        # 25 distinct meshes in one batch; with each moment set to its own
        # entry's mass the check passes, and fails one part in 1e6 above it
        calls = record_calls(monkeypatch, quadrature, "_integrals")
        assert verification.check_moment_bounded_by_mass().passed
        ((groups,),) = calls
        meshes = [(zeta, spec) for spec, zetas in groups.items() for zeta in zetas]
        assert len(set(meshes)) == len(meshes) == 25
        original = quadrature._integrals
        for skew, passes in ((1.0, True), (1.0 + 1e-6, False)):
            monkeypatch.setattr(
                quadrature,
                "_integrals",
                lambda *args: [(i0, skew * i0, i_ent) for i0, _, i_ent in original(*args)],
            )
            assert verification.check_moment_bounded_by_mass().passed is passes

    def test_reports_the_fixed_thresholds(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        reported = re.findall(r"^PASS (\w+): .*\(tolerance (\S+)\)", out, re.M)
        assert [(name, float(tol)) for name, tol in reported] == list(
            verification.THRESHOLDS.items()
        )

    def test_bad_tolerance_exits_2(self, capsys):
        # the thresholds are fixed: a tolerance flag is rejected, not applied
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--rel-tol", "-1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rel-tol" in capsys.readouterr().err

    def test_failure_at_one_kappa_leaves_the_other_rows(self, capsys, monkeypatch):
        argv = (
            "sweep", "--d", "2", "--m", "0.5",
            "--kappa-min", "6", "--kappa-max", "8", "--steps", "3",
        )
        _, clean, _ = run(capsys, *argv)
        solve = eq._fully_supported_states

        def broken_at_7(requests):
            ((_, kappas),) = requests
            (states,) = solve(requests)
            return [[
                BracketFailureError("injected solver failure") if kappa == 7.0 else state
                for kappa, state in zip(kappas, states)
            ]]

        monkeypatch.setattr(eq, "_fully_supported_states", broken_at_7)
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert "1 kappa samples failed" in err
        kept = [line for line in clean.splitlines() if not line.startswith("7.0,")]
        assert [line for line in out.splitlines() if not line.startswith("7.0,")] == kept
        assert [line for line in out.splitlines() if line.startswith("7.0,")] == [
            "7.0,uniform,nan,nan,nan,nan"
        ]
