"""Spans and work counts at the package's layer boundaries, from outside.

``traced(tracer)`` replaces each boundary function by a recording wrapper
in every ``fastsphere`` module that binds it (``_integral`` is imported by
name into ``equilibria`` and ``energy``, ``bracketed_root`` into
``equilibria``, the ``check_*`` functions are looked up as globals of
``verification``), and puts the originals back on exit.  A span is
(name, parent, start, end, work, failed); spans stay in memory, in flat
arrays, until ``write`` dumps them.  Layers are module names, and a span
is named ``<module>.<function>``.

Only the boundaries below are wrapped, so a layer's self time is the time
in its spans not covered by a wrapped call into another boundary.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from array import array

from workloads import VERIFY_CHECKS

# _kronrod_batch evaluates the Gauss-Kronrod 7/15 rule: 15 nodes per panel
NODES_PER_PANEL = 15

BOUNDARIES = (
    ("cli", "main"),
    ("energy", "critical_set"),
    ("energy", "kappa_c"),
    ("energy", "classify_minimizer"),
    ("energy", "energy_fully_supported"),
    ("equilibria", "fully_supported_state"),
    ("equilibria", "alpha_roots"),
    ("solvers", "bracketed_root"),
    ("model", "validate_params"),
    ("model", "sphere_geometry"),
    ("quadrature", "_integral"),
    ("quadrature", "_kronrod_batch"),
    ("quadrature", "_folded_integrand"),
) + tuple(("verification", "check_" + name) for name in VERIFY_CHECKS)

# work recorded per span: panels per batch, nodes per integrand call
WORK = {
    "quadrature._kronrod_batch": lambda f, bounds: len(bounds) - 1,
    "quadrature._folded_integrand": lambda theta, *rest: theta.size,
}

UNITS = {
    "quadrature.integrand_calls": "count",
    "quadrature.integrand_nodes": "count",
    "quadrature.kronrod_batches": "count",
    "quadrature.integrals": "count",
    "quadrature.cache_hits": "count",
    "quadrature.cache_misses": "count",
    "quadrature.failures": "count",
    "quadrature.integrand_self_s": "s",
    "quadrature.kronrod_self_s": "s",
    "quadrature.integral_s": "s",
    "quadrature.cache_hit_ratio": "ratio",
    "quadrature.batches_per_integral": "count/integral",
    "quadrature.nodes_per_integral": "count/integral",
    "solvers.solves": "count",
    "solvers.evals": "count",
    "solvers.evals_per_solve": "count/solve",
    "solvers.self_s": "s",
    "solvers.failures": "count",
    "equilibria.fss_calls": "count",
    "equilibria.fss_s": "s",
    "equilibria.integrals_per_fss": "count/call",
    "equilibria.alpha_roots_calls": "count",
    "equilibria.alpha_roots_s": "s",
    "energy.critical_set_s": "s",
    "energy.kappa_c_s": "s",
    "energy.classify_s": "s",
    "energy.energy_fs_s": "s",
    "model.validate_calls": "count",
    "model.validate_s": "s",
    "model.geometry_calls": "count",
    **{f"verification.{name}_s": "s" for name in VERIFY_CHECKS},
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Span store shared by the wrappers of one traced repetition."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.failed = array("b")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        work = WORK.get(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        works, failed, stack, clock = self.work, self.failed, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            works.append(work(*args) if work else 0)
            failed.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def wrap_solver(self, fn):
        """bracketed_root, with each residual evaluation as a child span."""

        def bracketed_root(f, *args, **kwargs):
            layer = f.__module__.rsplit(".", 1)[-1]
            return fn(self.wrap(f"{layer}.residual", f), *args, **kwargs)

        return self.wrap("solvers.bracketed_root", bracketed_root)

    def write(self, path) -> None:
        """Gzipped CSV, one line per span; times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id,parent,name,start_s,end_s,work,failed\n")
            for i, nid in enumerate(self.name):
                handle.write(
                    f"{i},{self.parent[i]},{self.names[nid]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.work[i]},{self.failed[i]}\n"
                )

    def metrics(self, cache_info) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics (without cli.import_s and trace.*) and cross-check problems.

        cache_info is ``_integral.cache_info()`` taken right after the
        repetition, whose cache was cleared (which zeroes the counts) before
        it, or None when ``_integral`` has no cache.
        """
        n = len(self.name)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        covered = array("d", bytes(8 * n))
        by_name = {name: array("l") for name in self.names}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
            by_name[self.names[self.name[i]]].append(i)

        def spans(name):
            return by_name.get(name, [])

        def total(name):
            return sum(dur[i] for i in spans(name))

        def self_time(name):
            return sum(dur[i] - covered[i] for i in spans(name))

        def under(i, name):
            """Whether span i runs inside a span of the given name."""
            target = self._ids.get(name)
            i = self.parent[i]
            while i >= 0:
                if self.name[i] == target:
                    return True
                i = self.parent[i]
            return False

        integrals = spans("quadrature._integral")
        batches = spans("quadrature._kronrod_batch")
        computed = {self.parent[i] for i in batches}
        failures = sum(self.failed[i] for i in integrals)
        hits = sum(1 for i in integrals if i not in computed and not self.failed[i])
        misses = len(integrals) - hits
        nodes = sum(self.work[i] for i in spans("quadrature._folded_integrand"))
        panels = sum(self.work[i] for i in batches)
        solves = spans("solvers.bracketed_root")
        evals = sum(len(spans(name)) for name in self.names if name.endswith(".residual"))
        fss = spans("equilibria.fully_supported_state")
        fss_integrals = sum(1 for i in integrals if under(i, "equilibria.fully_supported_state"))

        out = {
            "quadrature.integrand_calls": len(spans("quadrature._folded_integrand")),
            "quadrature.integrand_nodes": nodes,
            "quadrature.kronrod_batches": len(batches),
            "quadrature.integrals": len(integrals),
            "quadrature.cache_hits": hits,
            "quadrature.cache_misses": misses,
            "quadrature.failures": failures,
            "quadrature.integrand_self_s": self_time("quadrature._folded_integrand"),
            "quadrature.kronrod_self_s": self_time("quadrature._kronrod_batch"),
            "quadrature.integral_s": total("quadrature._integral"),
            "quadrature.cache_hit_ratio": hits / len(integrals) if integrals else 0.0,
            "quadrature.batches_per_integral": len(batches) / misses if misses else 0.0,
            "quadrature.nodes_per_integral": nodes / misses if misses else 0.0,
            "solvers.solves": len(solves),
            "solvers.evals": evals,
            "solvers.evals_per_solve": evals / len(solves) if solves else 0.0,
            "solvers.self_s": self_time("solvers.bracketed_root"),
            "solvers.failures": sum(self.failed[i] for i in solves),
            "equilibria.fss_calls": len(fss),
            "equilibria.fss_s": total("equilibria.fully_supported_state"),
            "equilibria.integrals_per_fss": fss_integrals / len(fss) if fss else 0.0,
            "equilibria.alpha_roots_calls": len(spans("equilibria.alpha_roots")),
            "equilibria.alpha_roots_s": total("equilibria.alpha_roots"),
            "energy.critical_set_s": total("energy.critical_set"),
            "energy.kappa_c_s": total("energy.kappa_c"),
            "energy.classify_s": total("energy.classify_minimizer"),
            "energy.energy_fs_s": total("energy.energy_fully_supported"),
            "model.validate_calls": len(spans("model.validate_params")),
            "model.validate_s": total("model.validate_params"),
            "model.geometry_calls": len(spans("model.sphere_geometry")),
            **{
                f"verification.{name}_s": total(f"verification.check_{name}")
                for name in VERIFY_CHECKS
            },
            "cli.self_s": self_time("cli.main"),
        }

        problems = []
        if cache_info is not None and (hits, hits + misses) != (
            cache_info.hits,
            cache_info.hits + cache_info.misses,
        ):
            problems.append(
                f"trace cross-check: {hits} hits + {misses} misses seen by the _integral "
                f"wrapper, but the lru_cache counted {cache_info.hits} + {cache_info.misses}"
            )
        if nodes != NODES_PER_PANEL * panels:
            problems.append(
                f"trace cross-check: {nodes} integrand nodes for {panels} panels "
                f"(expected {NODES_PER_PANEL} per panel)"
            )
        return out, problems


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "fastsphere" or name.startswith("fastsphere."))
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every boundary call through tracer while the block runs."""
    modules = _package_modules()
    patches = []
    for module_name, func in BOUNDARIES:
        original = getattr(sys.modules[f"fastsphere.{module_name}"], func, None)
        if original is None:
            continue  # a boundary the package no longer has; its metrics read 0
        if module_name == "solvers":
            wrapper = tracer.wrap_solver(original)
        else:
            wrapper = tracer.wrap(f"{module_name}.{func}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)
