"""What perfbench/ relies on exists in the package.

traced() skips a boundary the package no longer has, without a warning,
and every metric read from its spans then reads 0; a rename or deletion
must fail here instead.  Likewise every argv the workloads build must
still parse, through main in one argparse pass, and the sweep and critical
outputs must pass the workloads' own checks, forming the (d, m) constants
once per call.
"""

import argparse
import importlib
import sys
from pathlib import Path

from conftest import record_calls
from fastsphere import cli, equilibria, model, verification
from fastsphere import quadrature  # noqa: F401  loaded as perfbench/run.py loads it, for traced()

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_boundary_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert len(tracing.BOUNDARIES) > 30
    missing = [
        f"fastsphere.{module}.{name}"
        for module, name in tracing.BOUNDARIES
        if not callable(getattr(importlib.import_module(f"fastsphere.{module}"), name, None))
    ]
    assert missing == []


def test_every_traced_verify_check_is_a_check_in_report_order(monkeypatch):
    # perfbench traces verification.check_<name> and reports a time per name
    # of VERIFY_CHECKS; a check replaced under another name must fail here,
    # not read 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("workloads").VERIFY_CHECKS
    assert [name for name in verification.THRESHOLDS if name in traced] == list(traced)


def test_traced_verify_passes_with_no_cache_hit(monkeypatch):
    # _integral keeps no cache, so the trace sees no cache hit, and its
    # other cross-checks hold on the verify workload
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workload = importlib.import_module("workloads").Verify(0)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        outputs = [unit() for unit in workload.units]
    assert workload.check(outputs) == (0, [])
    layers, problems = tracer.metrics(None)
    assert problems == []
    assert layers["quadrature.cache_hits"] == 0


def test_traced_sweep_cross_checks_hold(monkeypatch):
    # the branch solves integrate through _integrals, whose seed passes and
    # refinement rounds must all run through _kronrod_batch for the trace
    # to count their panels: every integrand node lies in a traced batch
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workload = importlib.import_module("workloads").Sweep(0)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        outputs = [unit() for unit in workload.units]
    assert workload.check(outputs) == (0, [])
    layers, problems = tracer.metrics(None)
    assert problems == []
    assert layers["quadrature.integrand_nodes"] > 0


def test_the_parser_accepts_every_workload_argv(monkeypatch):
    # a CLI change that would break a benchmark workload fails here first
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    argvs = [
        workloads.sweep_argv(name, offset)
        for name, *_ in workloads.SWEEPS
        for offset in range(workloads.SWEEP_OFFSETS)
    ]
    argvs += workloads.Critical(0).argvs + [["verify"]]
    seen = []
    for name in ("cmd_critical", "cmd_sweep", "cmd_verify"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    cli._parser.cache_clear()
    try:
        parser = cli.build_parser()
        expected = [vars(parser.parse_args(argv)) for argv in argvs]
        assert [ns["command"] for ns in expected] == [argv[0] for argv in argvs]
        # main's route: the same namespaces, in one argparse pass per call
        passes = []
        parse = argparse.ArgumentParser._parse_known_args

        def counted(self, *args, **kwargs):
            passes.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", counted)
        for argv in argvs:
            passes.clear()
            assert (cli.main(argv), passes) == (0, [f"fastsphere {argv[0]}"])
    finally:
        cli._parser.cache_clear()
    assert seen == expected


def test_workload_outputs_pass_their_checks(monkeypatch):
    # a change that moves a sweep row more than 1e-10 from perfbench/ref/sweep.csv,
    # or a critical value past its bound, fails here before the benchmark runs
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for workload in [workloads.Sweep(seed) for seed in range(4)] + [workloads.Critical(0)]:
        assert workload.check([unit() for unit in workload.units]) == (0, [])


def test_workloads_form_one_pass_per_call(monkeypatch):
    # each demo sweep forms the kappa-free constants once, with the eta = 1
    # closed form where rho_bar exists (case_ii, case_iii); a critical pair
    # builds that closed form once.  Past the 3 passes, only the energy of
    # each of the 195 supported rows (energy_fully_supported, a public call)
    # checks (d, m) and takes the geometry again: no per-kappa code does.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    sweep, critical = workloads.Sweep(0), workloads.Critical(0)
    passes = record_calls(monkeypatch, equilibria, "_constants")
    closed_forms = record_calls(monkeypatch, model, "eta1_closed_form")
    geometries = record_calls(monkeypatch, model, "sphere_geometry")
    validations = record_calls(monkeypatch, model, "validate_params")
    assert [unit()[0] for unit in sweep.units] == [0, 0, 0]
    assert (len(passes), len(closed_forms)) == (3, 2)
    assert len(geometries) <= 198
    assert len(validations) <= 198
    closed_forms.clear()
    for unit in critical.units:
        unit()
    assert len(closed_forms) == len(critical.pairs) == 300
