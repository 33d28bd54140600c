"""The public surface as a whole: what it rejects, and what the package imports."""

import ast
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fastsphere
from fastsphere.errors import FastSphereError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fastsphere"

# valid values of every other parameter a public function of (d, m) takes
VALID_ARGS = {
    "kappa": 18.0,
    "kappas": [18.0],
    "alpha": 0.5,
    "theta": 1.0,
    "branch": "upper",
}
BAD_D = [(d, 0.3) for d in (0, -3, 2.5, True, math.nan, math.inf)]
# off (0, 1), or on one of the thresholds 1 - 2/d and 1 - 2/(d-1) of d = 5
BAD_M = [(5, m) for m in (0.0, 1.0, -0.1, 1.5, math.nan, math.inf, 1.0 - 2.0 / 5, 1.0 - 2.0 / 4)]
# eta1_closed_form takes (q, p, d), which its own tests cover
TAKING_D = [
    name
    for name in fastsphere.__all__
    if inspect.isfunction(getattr(fastsphere, name))
    and "d" in inspect.signature(getattr(fastsphere, name)).parameters
    and name != "eta1_closed_form"
]


@pytest.fixture(scope="module")
def state():
    return fastsphere.fully_supported_state(8.0, 2, 0.5)


@pytest.mark.parametrize("name", TAKING_D)
def test_every_public_call_rejects_bad_d_and_m(name, state):
    # each checks (d, m) where it enters the package, whichever private
    # reader it hands them to
    func = getattr(fastsphere, name)
    params = inspect.signature(func).parameters
    args = dict(VALID_ARGS, state=state)
    accepted = []
    for d, m in BAD_D + (BAD_M if "m" in params else []):
        kwargs = {key: args[key] for key in params if key not in ("d", "m")}
        kwargs.update({"d": d, "m": m} if "m" in params else {"d": d})
        try:
            func(**kwargs)
        except FastSphereError:
            continue
        accepted.append((d, m))
    assert accepted == []


def _top_level_imports(tree: ast.Module) -> set:
    """The names the module's top-level import statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    # no linter is a dependency of the package; this is its unused-import check
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = _top_level_imports(tree)
    if path.name == "__init__.py":
        # the package module imports exactly what it exports
        assert imported == set(fastsphere.__all__)
        return
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_public_definition_has_a_caller():
    # a public top-level function or class is exported, called from the
    # package, or a verify check that run_verification looks up by name
    from fastsphere.verification import THRESHOLDS

    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for name, tree in trees.items()
        if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    kept = set(fastsphere.__all__) | referenced | {"check_" + name for name in THRESHOLDS}
    unused = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in kept
    ]
    assert unused == []


def _load_time_imports(tree: ast.Module):
    """The modules named by the import statements that run when the module loads.

    Relative names keep their dots; function bodies run later and are skipped.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.module:
                yield base
            else:
                yield from (base + alias.name for alias in node.names)
        else:
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(SRC.glob("*.py")) if path.name != "quadrature.py"],
    ids=lambda path: path.name,
)
def test_only_the_kernel_loads_numpy(path):
    # numpy comes with the quadrature kernel, imported by the function that
    # integrates or builds a grid, so `import fastsphere` and the closed
    # forms run on the standard library
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = [
        name
        for name in _load_time_imports(tree)
        if name.split(".")[0] == "numpy" or name in (".quadrature", "fastsphere.quadrature")
    ]
    assert loaded == []


# Run in a fresh interpreter, with perfbench/ as its first argument.
FRESH_PROCESS = """
import sys

import fastsphere

assert "numpy" not in sys.modules, "import fastsphere loaded numpy"
from fastsphere import cli

assert cli.main(["critical", "--d", "5", "--m", "0.3"]) == 0
assert "numpy" not in sys.modules, "critical loaded numpy"

# what perfbench/run.py and workloads.py import, with numpy and the kernel
# loaded after the package
sys.path.insert(0, sys.argv[1])
import numpy
from fastsphere import quadrature
import tracing
import workloads

workload = workloads.Critical(0)
tracer = tracing.Tracer()
with tracing.traced(tracer):
    outputs = [workload.units[0]()]
outputs += [unit() for unit in workload.units[1:]]
assert workload.check(outputs) == (0, []), workload.check(outputs)[1][:3]
assert tracer.metrics(None)[1] == []
"""


def test_import_and_critical_load_no_numpy():
    # the environment perfbench/run.py gives its child interpreters
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", FRESH_PROCESS, str(ROOT / "perfbench")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"regime": "case_iii"' in proc.stdout
