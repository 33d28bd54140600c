"""The three workloads: inputs from the benchmark seed, runs, output checks.

Every workload drives the package through ``fastsphere.cli.main``, the
entry point of the ``fastsphere`` command, with stdout and stderr captured
in memory.  A workload object makes its inputs and references when it is
built (untimed).  Its ``units`` are the timed parts, each about a second
of work, and ``check()`` turns their outputs into (failed items, problems).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import re

import checks
from fastsphere import cli

# The three demo sweeps of demos/bifurcation_diagram.py:
# (name, d, m, kappa_min, kappa_max, steps), one per diffusion regime.
SWEEPS = (
    ("case_i", 2, 0.5, 4.0, 16.0, 121),
    ("case_ii", 3, 0.25, 8.0, 20.0, 121),
    ("case_iii", 5, 0.3, 15.0, 22.0, 141),
)
# The seed picks one of this many sub-step shifts of every grid, so the
# golden reference can hold them all; offset 0 (seed 0) is the demo grid.
SWEEP_OFFSETS = 4

CRITICAL_DIMS = range(3, 13)
CRITICAL_PAIRS_PER_DIM = 30
CRITICAL_UNITS = 3  # timed units per repetition, about 0.3 s each
# distance kept from both regime thresholds, wider than the package's own
# exclusion zone (1e-9)
THRESHOLD_MARGIN = 1e-6


def run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr) of one CLI invocation; code None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed item
            err.write(f"{type(exc).__name__}: {exc}\n")
            code = None
    return code, out.getvalue(), err.getvalue()


def sweep_argv(name: str, offset: int) -> list[str]:
    """CLI arguments of one demo sweep shifted by offset / SWEEP_OFFSETS steps."""
    _, d, m, lo, hi, steps = next(s for s in SWEEPS if s[0] == name)
    shift = offset / SWEEP_OFFSETS * (hi - lo) / (steps - 1)
    return [
        "sweep", "--d", str(d), "--m", repr(m),
        "--kappa-min", repr(lo + shift), "--kappa-max", repr(hi + shift),
        "--steps", str(steps),
    ]


class Sweep:
    """Branch sweeps over kappa; one item is one kappa sample."""

    def __init__(self, seed: int):
        self.offset = seed % SWEEP_OFFSETS
        self.units = [functools.partial(run_cli, sweep_argv(s[0], self.offset)) for s in SWEEPS]
        self.items = sum(s[5] for s in SWEEPS)
        reference = checks.load_sweep_reference()
        self.refs = {s[0]: reference[(s[0], self.offset)] for s in SWEEPS}
        self.inputs = {"grid_offset": f"{self.offset}/{SWEEP_OFFSETS} step"}

    def check(self, outputs) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for (code, out, err), (name, _, _, _, _, steps) in zip(outputs, SWEEPS):
            if code != 0:
                failed += steps
                problems.append(f"sweep {name}: exit {code}: {err.strip()}")
                continue
            rows = checks.parse_sweep_csv(out)
            nan_kappas = {r[0] for r in rows if math.isnan(r[4])}
            match = re.search(r"(\d+) kappa samples failed to solve", err)
            reported = int(match.group(1)) if match else 0
            failed += max(len(nan_kappas), reported)
            if nan_kappas or reported:
                problems.append(
                    f"sweep {name}: {len(nan_kappas)} NaN kappa samples, "
                    f"{reported} reported failed on stderr"
                )
            mismatches = checks.sweep_mismatches(rows, self.refs[name])
            problems.extend(f"sweep {name}: {p}" for p in mismatches)
        return failed, problems


def critical_pairs(seed: int) -> list[tuple[int, float]]:
    """(d, m) pairs: every d in 3..12, m uniform in (0, 1 - 2/d), off the thresholds.

    m is stratified, one draw in each of CRITICAL_PAIRS_PER_DIM equal bins,
    so that the mix of regimes, and with it the work, varies little
    between seeds.
    """
    rng = random.Random(seed)
    pairs = []
    for d in CRITICAL_DIMS:
        top = 1.0 - 2.0 / d
        for k in range(CRITICAL_PAIRS_PER_DIM):
            while True:
                m = (k + rng.random()) / CRITICAL_PAIRS_PER_DIM * top
                gap = min(abs(m - top), abs(m - 1.0 + 2.0 / (d - 1)))
                if m > 0.0 and gap > THRESHOLD_MARGIN:
                    break
            pairs.append((d, m))
    return pairs


class Critical:
    """The critical-strength table; one item is one (d, m) pair."""

    def __init__(self, seed: int):
        self.pairs = critical_pairs(seed)
        self.argvs = [["critical", "--d", str(d), "--m", repr(m)] for d, m in self.pairs]
        # every unit takes each CRITICAL_UNITS-th pair, so all see every d
        self.units = [functools.partial(self._run_pairs, k) for k in range(CRITICAL_UNITS)]
        self.items = len(self.pairs)
        self.refs = [checks.critical_reference(d, m) for d, m in self.pairs]
        case_iii = sum(r["regime"] == "case_iii" for r in self.refs)
        self.inputs = {"pairs": self.items, "case_iii": case_iii}

    def _run_pairs(self, k: int):
        return [run_cli(argv) for argv in self.argvs[k::CRITICAL_UNITS]]

    def check(self, outputs) -> tuple[int, list[str]]:
        results = [None] * len(self.pairs)
        for k, unit_outputs in enumerate(outputs):
            results[k::CRITICAL_UNITS] = unit_outputs
        failed, problems = 0, []
        for (d, m), ref, (code, out, err) in zip(self.pairs, self.refs, results):
            if code != 0:
                failed += 1
                problems.append(f"critical d={d} m={m!r}: exit {code}: {err.strip()}")
                continue
            payload = json.loads(out)
            bad = checks.critical_mismatches(payload, ref)
            if (payload.get("d"), payload.get("m")) != (d, m):
                bad.append(f"echoed d, m = {payload.get('d')!r}, {payload.get('m')!r}")
            problems.extend(f"critical d={d} m={m!r}: {b}" for b in bad)
        return failed, problems


class Verify:
    """``fastsphere verify`` with default tolerances; one item is one check.

    It takes no seeded input: the suite is fixed.
    """

    def __init__(self, seed: int):
        self.units = [functools.partial(run_cli, ["verify"])]
        self.items = len(VERIFY_CHECKS)
        self.inputs = {"seeded": False}

    def check(self, outputs) -> tuple[int, list[str]]:
        [(code, out, err)] = outputs
        status = {name: flag for flag, name in re.findall(r"^(PASS|FAIL) (\w+):", out, re.M)}
        failing = [name for name, flag in status.items() if flag == "FAIL"]
        problems = [f"verify check {name} failed" for name in failing]
        missing = [name for name in VERIFY_CHECKS if name not in status]
        problems.extend(f"verify check {name} not reported" for name in missing)
        if code != 0:
            problems.append(f"verify exited {code}: {err.strip()}")
        return sum(status.get(name) != "PASS" for name in VERIFY_CHECKS), problems


# The checks of ``fastsphere verify``, in report order.
VERIFY_CHECKS = (
    "geometry_consistency",
    "regime_partition",
    "quadrature_self_consistency",
    "eta1_quadrature_vs_closed_form",
    "theta_integral_eta_monotone",
    "moment_bounded_by_mass",
    "branch_monotone_direction",
    "branch_limit_matches_kappa1",
    "branch_continuity",
    "case_iii_com_decreasing",
    "singular_multiplier_relation",
    "singular_alpha_saturates",
    "kappa2_dual_oracle",
    "com_norm_closed_form",
    "energy_two_route_agreement",
    "energy_slope_identities",
    "energy_comparison_steps",
    "minimizer_consistency",
    "reference_energies",
    "uniform_stability_threshold",
)

WORKLOADS = {"sweep": Sweep, "critical": Critical, "verify": Verify}
