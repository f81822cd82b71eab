"""The package's import order: each module imports only modules below it.

``core`` -> ``user_strategy`` (scalar stage 2) -> ``evaluation`` (count
kernel, evaluators, finish) -> ``homogeneous``/``heterogeneous``
(solvers) -> ``scenario`` -> ``cli``.
"""

import ast
from pathlib import Path

import pytest

import prompt_pricing

PACKAGE = Path(prompt_pricing.__file__).resolve().parent
ORDER = [("core",), ("user_strategy",), ("evaluation",), ("homogeneous", "heterogeneous"),
         ("scenario",), ("cli",)]


def _imports(module: str) -> tuple[set[str], set[str]]:
    """(package modules, other top-level modules) that ``module`` imports."""
    own, other = set(), set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            own.update([node.module.split(".")[0]] if node.module
                       else [a.name for a in node.names])
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "prompt_pricing":
                own.add(rest.split(".")[0])
            else:
                other.add(top)
    return own, other


def test_every_module_has_a_place():
    placed = {m for level in ORDER for m in level}
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == placed


@pytest.mark.parametrize("depth", range(len(ORDER)), ids=["/".join(lv) for lv in ORDER])
def test_imports_point_down(depth):
    """``evaluation``, for one, imports only ``core`` and ``user_strategy``."""
    below = {m for level in ORDER[:depth] for m in level}
    for module in ORDER[depth]:
        assert _imports(module)[0] <= below, module


def test_user_strategy_does_not_import_numpy():
    """Stage 2 stays scalar Python: numpy's ``power`` differs from ``**`` by
    an ulp on some (eps, k) pairs, which would move counts at indifference
    boundaries and so the CSV bytes."""
    assert "numpy" not in _imports("user_strategy")[1]


def test_heterogeneous_holds_only_searches():
    """The solvers reach the count rule and the user's payoff only through
    ``evaluation``: ``heterogeneous`` imports no stage-2 formula."""
    assert _imports("heterogeneous")[0] == {"core", "evaluation"}


def test_only_best_outcome_evaluates_schedules():
    """Every solve evaluates schedules once, in ``_best_outcome``: no other
    function in the package names ``_family_volumes``, and no module but
    ``evaluation``, where it is defined, imports it.  The searches rank
    with the pair lattice or the line scorer."""
    users = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    assert "_family_volumes" not in {a.name for a in node.names}, path.stem
                elif (isinstance(node, ast.Name) and node.id == "_family_volumes"
                      or isinstance(node, ast.Attribute) and node.attr == "_family_volumes"):
                    users.add((path.stem, getattr(top, "name", None)))
    assert users == {("evaluation", "_best_outcome")}
