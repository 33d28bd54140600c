#!/usr/bin/env python3
"""Benchmark of the fastsphere package on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Workloads (see README.md for why each was chosen):

* ``sweep``     the three demo branch sweeps over kappa (383 kappa samples);
* ``critical``  the ``critical`` command on 300 seeded (d, m) pairs;
* ``verify``    the ``verify`` self-check suite (20 checks; no seeded input).

Everything runs in this one single-threaded process through
``fastsphere.cli.main``.  After an untimed warm-up, each repetition starts
from a cleared ``_integral`` cache, as a fresh CLI invocation does, and
repetitions continue until ``--seconds`` have passed.  Every repetition's
output is checked against a reference.

``--trace 0`` prints the end-to-end metrics: median wall and CPU time of a
repetition, items per second, peak resident memory, and ``setup_s``, the
time a fresh interpreter takes to import the package beyond a bare start.
Times are calibrated: the speed of a shared machine drifts by tens of
percent within seconds, so a fixed calibration loop, independent of the
package, runs before and after each unit of timed work, and each unit's
time is rescaled to the loop's reference time ``CAL_REF_S``.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of tracing.py plus the tracing overhead; the spans of the
last traced repetition are written to ``perfbench/out/``.

The last line of stdout is the JSON result; the line before it holds
details (quartiles, sample counts, failures, machine).  Exit code 0 means
the benchmark ran; ``correct`` says whether every output check passed.
"""

import os

# one thread everywhere, set before numpy is imported here or in a child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

MIN_REPS = 3  # timed repetitions per run, at least
MIN_TRACE_PAIRS = 2  # untraced + traced repetition pairs per traced run, at least
SETUP_SAMPLES = 9  # fresh interpreters per kind in the set-up measurement

# The calibration loop mixes what the package's hot paths do: numpy ufuncs
# on arrays of 105 nodes (7 Gauss-Kronrod panels), a heap, scalar Python.
CAL_ITERATIONS = 5000
# about the loop's fastest time on a 2-core Xeon VM (Python 3.11, numpy 2.4),
# so that calibrated times there read close to uncontended wall times
CAL_REF_S = 0.04
_CAL_NODES = np.linspace(0.01, 1.5, 105)

UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def calibration() -> tuple[float, float]:
    """(wall, cpu) seconds of one run of the fixed calibration loop."""
    wall, cpu = time.perf_counter(), time.process_time()
    heap, acc = [], 0.0
    for i in range(CAL_ITERATIONS):
        y = np.exp(-1.3 * np.log(_CAL_NODES + 1e-3 * i)) + np.sin(_CAL_NODES)
        acc += float(y.sum())
        heapq.heappush(heap, (acc % 7.0, i))
        if len(heap) > 50:
            heapq.heappop(heap)
        for j in range(30):
            acc += math.sqrt(j + 1.0)
    return time.perf_counter() - wall, time.process_time() - cpu


def _child_seconds(code: str) -> float:
    """Seconds a fresh interpreter running code prints, or its wall time if it prints none."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout) if proc.stdout.strip() else elapsed


def measure_setup() -> dict:
    """Fresh-interpreter `import fastsphere` minus a bare interpreter start.

    Each child's time is rescaled by the calibration loops run around it.
    """
    imports, bare = [], []
    before = calibration()[0]
    for _ in range(SETUP_SAMPLES):
        for code, samples in (("import fastsphere", imports), ("pass", bare)):
            elapsed = _child_seconds(code)
            after = calibration()[0]
            samples.append(elapsed * 2.0 * CAL_REF_S / (before + after))
            before = after
    return {
        "setup_s": statistics.median(imports) - statistics.median(bare),
        "import_start_s": _quartiles(imports),
        "bare_start_s": _quartiles(bare),
    }


def measure_cli_import() -> float:
    """Median in-interpreter time of `import fastsphere.cli`, fresh each time."""
    code = (
        "import time; t = time.perf_counter(); import fastsphere.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    return statistics.median(_child_seconds(code) for _ in range(SETUP_SAMPLES))


def environment() -> dict:
    """The machine facts that must match before two runs are compared."""
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if "model name" in line]
    except OSError:
        models = []
    return {
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Run:
    """Repetitions of one workload, their timings and their output checks."""

    def __init__(self, workload, cache):
        self.workload = workload
        self.cache = cache  # the lru_cached quadrature._integral, if it is cached
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _check(self, outputs) -> None:
        failed, problems = self.workload.check(outputs)
        self.failed += failed
        self.problems.extend(p for p in problems if p not in self.problems)

    def warm_up(self) -> None:
        """First calls into numpy and the package, untimed and unchecked."""
        self.workload.units[0]()

    def rep(self) -> dict[str, float]:
        """Calibrated and raw wall and CPU seconds of one repetition.

        The repetition starts from a cleared _integral cache.
        """
        if self.cache is not None:
            self.cache.cache_clear()
        times = dict.fromkeys(("wall", "cpu", "raw_wall", "raw_cpu"), 0.0)
        outputs = []
        cal_wall, cal_cpu = calibration()
        for unit in self.workload.units:
            wall, cpu = time.perf_counter(), time.process_time()
            outputs.append(unit())
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            next_wall, next_cpu = calibration()
            times["wall"] += wall * 2.0 * CAL_REF_S / (cal_wall + next_wall)
            times["cpu"] += cpu * 2.0 * CAL_REF_S / (cal_cpu + next_cpu)
            times["raw_wall"] += wall
            times["raw_cpu"] += cpu
            cal_wall, cal_cpu = next_wall, next_cpu
        self.attempted += self.workload.items
        self._check(outputs)
        return times


def timed_run(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    run.warm_up()
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(run.rep())
    series = {key: [r[key] for r in reps] for key in reps[0]}
    wall_s = statistics.median(series["wall"])
    metrics = {
        "wall_s": wall_s,
        "cpu_s": statistics.median(series["cpu"]),
        "items_per_s": run.workload.items / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup.pop("setup_s"),
    }
    details = {f"{key}_s": _quartiles(values) for key, values in series.items()}
    details["setup"] = setup
    return metrics, details


def traced_run(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    import tracing

    cli_import_s = measure_cli_import()
    run.warm_up()
    plain, traced, layer_runs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        traced_first = len(traced) % 2 == 1
        if not traced_first:
            plain.append(run.rep()["wall"])
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced.append(run.rep()["wall"])
        layers, problems = tracer.metrics(run.cache.cache_info() if run.cache else None)
        run.problems.extend(p for p in problems if p not in run.problems)
        layers["trace.spans"] = len(tracer.name)
        layer_runs.append(layers)
        if traced_first:
            plain.append(run.rep()["wall"])
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(spans_path)

    counts = [
        {k: v for k, v in layers.items() if tracing.UNITS[k] != "s"} for layers in layer_runs
    ]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        run.problems.append(f"work counts differ between traced repetitions: {diff}")
    metrics = {
        name: statistics.median(layers[name] for layers in layer_runs)
        for name in layer_runs[0]
    }
    metrics.update(counts[0])
    metrics["cli.import_s"] = cli_import_s
    # neighbouring repetitions share the machine's momentary speed best
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    details = {
        "untraced_wall_s": _quartiles(plain),
        "traced_wall_s": _quartiles(traced),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "critical", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fastsphere" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'fastsphere'}\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import fastsphere
    from fastsphere import quadrature

    if Path(fastsphere.__file__).resolve().parent != SRC / "fastsphere":
        sys.stderr.write(f"error: imported fastsphere from {fastsphere.__file__}\n")
        return 2
    import tracing
    import workloads

    cache = getattr(quadrature, "_integral", None)
    cache = cache if hasattr(cache, "cache_clear") else None
    run = Run(workloads.WORKLOADS[args.workload](args.seed), cache)
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}.csv.gz"
        metrics, details = traced_run(run, args.seconds, spans_path)
        units = tracing.UNITS
    else:
        metrics, details = timed_run(run, args.seconds)
        units = UNITS
    details.update(
        workload=args.workload,
        seed=args.seed,
        inputs=run.workload.inputs,
        items_per_rep=run.workload.items,
        failed_frac=run.failed / max(run.attempted, 1),
        problems=run.problems[:20],
        environment=environment(),
    )
    print(json.dumps({"details": details}))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
