"""The public surface as a whole: what it rejects, and what the package imports."""

import ast
import inspect
import math
from pathlib import Path

import pytest

import fastsphere
from fastsphere.errors import FastSphereError

SRC = Path(__file__).resolve().parent.parent / "src" / "fastsphere"

# valid values of every other parameter a public function of (d, m) takes
VALID_ARGS = {
    "kappa": 18.0,
    "kappas": [18.0],
    "eta": 1.5,
    "alpha": 0.5,
    "theta": 1.0,
    "t": 0.5,
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
