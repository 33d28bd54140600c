"""The public surface as a whole: what it rejects, and what the package imports."""

import ast
import dataclasses
import inspect
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fastsphere
from fastsphere.errors import (
    FastSphereError,
    InvalidParamError,
    NotIntegrableError,
    ToleranceNotMetError,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fastsphere"

# valid values of every other parameter a public function of (d, m) takes
VALID_ARGS = {
    "kappa": 18.0,
    "kappas": [18.0],
    "alpha": 0.5,
    "theta": 1.0,
    "branch": "upper",
    "eta": 1.5,
    "q": -1.5,
    "p": 0,
}
# values float() cannot read, which every check rejects as it rejects a bad number
NOT_NUMBERS = (None, "x", 10**400, 1j)
BAD_D = [(d, 0.3) for d in (0, -3, 2.5, True, math.nan, math.inf, *NOT_NUMBERS)]
# off (0, 1), or on one of the thresholds 1 - 2/d and 1 - 2/(d-1) of d = 5
BAD_M = [
    (5, m)
    for m in (0.0, 1.0, -0.1, 1.5, math.nan, math.inf, 1.0 - 2.0 / 5, 1.0 - 2.0 / 4, *NOT_NUMBERS)
]
# kappas every call that takes one rejects (energy_uniform admits kappa = 0)
BAD_KAPPAS = (-1.0, *NOT_NUMBERS)
BAD_KAPPA = BAD_KAPPAS[0]
# bad values of the other numbers the public functions of d take
BAD_OTHERS = {
    "kappa": BAD_KAPPAS,
    "alpha": (0.0, 1.0, math.nan, *NOT_NUMBERS),
    "theta": (-0.5, 4.0, math.nan, *NOT_NUMBERS),
    "eta": (0.5, math.inf, math.nan, *NOT_NUMBERS),
    "q": (math.inf, math.nan, *NOT_NUMBERS),
}
TAKING_D = [
    name
    for name in fastsphere.__all__
    if inspect.isfunction(getattr(fastsphere, name))
    and "d" in inspect.signature(getattr(fastsphere, name)).parameters
]
TAKING_KAPPA = [
    name
    for name in TAKING_D
    if {"kappa", "kappas"} & set(inspect.signature(getattr(fastsphere, name)).parameters)
]


def _other_args(func, **values) -> dict:
    """Valid values of every parameter of func but d and m, updated by values."""
    args = dict(VALID_ARGS, **values)
    return {key: args[key] for key in inspect.signature(func).parameters if key not in ("d", "m")}


def _rejects(func, kwargs) -> bool:
    try:
        result = func(**kwargs)
    except InvalidParamError:
        return True
    # a call over a list of kappas returns each kappa's error as its entry
    return "kappas" in kwargs and isinstance(result[0], InvalidParamError)


@pytest.fixture(scope="module")
def state():
    return fastsphere.fully_supported_state(8.0, 2, 0.5)


@pytest.mark.parametrize("name", TAKING_D)
def test_every_public_call_rejects_bad_d_and_m(name, state):
    # each checks (d, m) where it enters the package, whichever private
    # reader it hands them to
    func = getattr(fastsphere, name)
    params = inspect.signature(func).parameters
    kwargs = _other_args(func, state=state)
    accepted = []
    for d, m in BAD_D + (BAD_M if "m" in params else []):
        try:
            func(**kwargs, **({"d": d, "m": m} if "m" in params else {"d": d}))
        except FastSphereError:
            continue
        accepted.append((d, m))
    for key, values in BAD_OTHERS.items():
        # and each bad kappa, alpha, theta, eta and q at a valid (d, m)
        for value in values if {key, key + "s"} & set(params) else ():
            bad = _other_args(func, **{key: value, key + "s": [value]}, state=state)
            if not _rejects(func, dict(bad, d=5, **({"m": 0.3} if "m" in params else {}))):
                accepted.append((key, value))
    assert accepted == []


def _bits(value):
    """value as bits: each float as its hex, a dataclass as its fields, every type kept."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
        return list, [_bits(item) for item in value]
    if isinstance(value, (list, tuple)):
        return type(value), [_bits(item) for item in value]
    return type(value), value.hex() if type(value) is float else value


def _leaf_types(bits) -> set:
    """The types of the numbers and other leaves of _bits."""
    kind, value = bits
    if kind in (list, tuple):
        return set().union(*map(_leaf_types, value))
    return {kind}


@pytest.mark.parametrize("d", [np.int64(5), 5.0], ids=repr)
@pytest.mark.parametrize(
    "m", [np.float32(0.3), np.float64(0.3), Decimal("0.3"), Fraction(3, 10)], ids=repr
)
def test_every_public_call_computes_with_the_checked_d_and_m(d, m):
    # validate_params returns (d, m) as the int and float it checked, and
    # every public call computes with them: each gives the bits of its call
    # at (5, float(m)), as built-in numbers
    state = fastsphere.fully_supported_state(18.0, 5, float(m))
    for name in TAKING_D:
        func = getattr(fastsphere, name)
        kwargs = _other_args(func, state=state)
        takes_m = "m" in inspect.signature(func).parameters
        typed, plain = (
            _bits(func(**kwargs, d=dd, **({"m": mm} if takes_m else {})))
            for dd, mm in ((d, m), (5, float(m)))
        )
        assert typed == plain, name
        assert _leaf_types(plain) <= {float, int, bool, str, type(None), fastsphere.RegimeCase}


# the start of the rule each field of a state must keep, and bad values of it
STATE_RULES = {
    "kappa": ("interaction strength kappa must", (-8.0, math.nan, *NOT_NUMBERS)),
    "s": ("centre-of-mass norm s must", (0.0, 1.0, -0.3, math.nan, *NOT_NUMBERS)),
    "eta_minus_1": ("eta_minus_1 must", (-0.5, math.nan, math.inf, *NOT_NUMBERS)),
    "moments": (
        "moments must",
        (
            (math.nan,) * 3,
            (math.inf,) * 3,
            (1.0, 0.5, math.nan),
            (0, 0, 0),
            (-1.0, 0.5, 0.5),
            (1.0,),
            "abc",
            (1.0, 0.5, "x"),
            *NOT_NUMBERS[1:],  # None is a state without moments
        ),
    ),
}


@pytest.mark.parametrize(
    "field, value", [(field, value) for field, (_, bad) in STATE_RULES.items() for value in bad]
)
def test_a_hand_built_state_is_checked_field_by_field(field, value):
    # FullySupportedState is public, so both functions that take one check
    # its fields, and a bad one raises InvalidParamError naming it, with or
    # without the moments of a solve
    solved = fastsphere.fully_supported_state(19.0, 5, 0.3)
    rule = STATE_RULES[field][0]
    for moments in (solved.moments, None) if field != "moments" else (value,):
        state = dataclasses.replace(solved, **{"moments": moments, field: value})
        with pytest.raises(InvalidParamError, match=rule):
            fastsphere.energy_fully_supported(state, 5, 0.3)
        with pytest.raises(InvalidParamError, match=rule):
            fastsphere.fully_supported_density(state, 1.0, 5, 0.3)


@pytest.mark.parametrize(
    "fields, energy_error, pole_density",
    [
        ({"kappa": 1e-300}, "density scale leaves double range", math.inf),
        ({"s": 1e-300}, "density scale leaves double range", math.inf),
        ({"eta_minus_1": 0.0}, None, math.inf),
        ({"eta_minus_1": 1e300, "moments": None}, "mass integral left double range", 0.0),
    ],
    ids=["kappa", "s", "eta-1", "massless"],
)
def test_a_hand_built_state_out_of_double_range(fields, energy_error, pole_density):
    # fields in range whose density or energy leaves double range: the
    # density is +inf there, as rho_bar's at its pole, and the energy
    # raises ToleranceNotMetError naming what left the range (the mass
    # underflows at eta - 1 = 1e300)
    solved = fastsphere.fully_supported_state(19.0, 5, 0.3)
    state = dataclasses.replace(solved, **fields)
    if energy_error is None:
        assert math.isfinite(fastsphere.energy_fully_supported(state, 5, 0.3))
    else:
        with pytest.raises(ToleranceNotMetError, match=energy_error):
            fastsphere.energy_fully_supported(state, 5, 0.3)
    assert fastsphere.fully_supported_density(state, 0.0, 5, 0.3) == pole_density


def test_a_state_field_is_read_as_check_kappa_reads_kappa():
    # through float(), and the functions compute with the value read
    solved = fastsphere.fully_supported_state(19.0, 5, 0.3)
    text = dataclasses.replace(solved, kappa="19", s=str(solved.s))
    assert fastsphere.energy_fully_supported(text, 5, 0.3) == fastsphere.energy_fully_supported(
        solved, 5, 0.3
    )
    assert fastsphere.fully_supported_density(
        text, 1.0, 5, 0.3
    ) == fastsphere.fully_supported_density(solved, 1.0, 5, 0.3)


def test_the_energies_read_kappa_and_alpha_as_check_kappa_does():
    # through float(), as every kappa-taking call reads kappa
    assert fastsphere.energy_uniform("17", 5, 0.3) == fastsphere.energy_uniform(17.0, 5, 0.3)
    assert fastsphere.energy_singular("0.5", "17", 5, 0.3) == fastsphere.energy_singular(
        0.5, 17.0, 5, 0.3
    )
    assert fastsphere.energy_uniform(0, 5, 0.3) == fastsphere.energy_uniform(0.0, 5, 0.3)


@pytest.mark.parametrize("name", TAKING_KAPPA)
def test_of_two_faults_the_one_in_d_and_m_is_reported(name):
    # (d, m) are checked before kappa, by every call; in case i the
    # measure-valued calls report first that rho_bar does not exist there
    func = getattr(fastsphere, name)
    bad = _other_args(func, kappa=BAD_KAPPA, kappas=[BAD_KAPPA])
    with pytest.raises(InvalidParamError, match="diffusion exponent"):
        func(**bad, d=5, m=1.5)
    if name in ("alpha_roots", "singular_state", "energy_singular"):
        with pytest.raises(NotIntegrableError, match="regular density"):
            func(**bad, d=2, m=0.5)


def test_theta_integral_takes_plain_numbers():
    # the polar integral takes its four numbers; no spec object is exported
    assert list(inspect.signature(fastsphere.theta_integral).parameters) == ["eta", "q", "p", "d"]
    assert len(fastsphere.__all__) == 34 and "ThetaIntegralSpec" not in fastsphere.__all__


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
