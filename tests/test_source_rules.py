"""Rules the package's source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "lerchzeta").glob("*.py"))
# numpy entries that run through BLAS, whose threads make concurrent processes slow each other many-fold
BLAS_NAMES = {"dot", "matmul", "vdot", "inner", "einsum", "tensordot", "linalg"}
# the argument of a logarithm on the package's branch is formed in branching.py alone; evaluator._ray's atan2
# gives the angle of a ray toward an integrand pole, no logarithm's argument (cmath.phase, the one other
# spelling, raises OverflowError where atan2 underflows)
ARG_NAMES = {"atan2", "arctan2"}
ARG_HOMES = {"branching.py": None, "evaluator.py": "_ray"}


def blas_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            found += [f"line {node.lineno}: import {n}" for n in names if BLAS_NAMES & set(n.split("."))]
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_blas_product(path):
    # every coefficient of samples on a circle comes from np.fft.fft, which starts no threads
    assert blas_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "snippet",
    ["x @ y", "x @= y", "np.dot(x, y)", "np.matmul(x, y)", "np.vdot(x, y)", "np.inner(x, y)",
     "np.einsum('i,i', x, y)", "np.tensordot(x, y)", "np.linalg.norm(x)", "import numpy.linalg",
     "from numpy import dot"],
)
def test_rule_sees_each_product(snippet):
    assert blas_uses(ast.parse(snippet))


def arg_uses(tree: ast.Module, allowed_function: str | None = None) -> list[str]:
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == allowed_function:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in ARG_NAMES:
                found.append(f"line {node.lineno}: .{node.attr}")
            elif isinstance(node, ast.Name) and node.id in ARG_NAMES:
                found.append(f"line {node.lineno}: {node.id}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name in ARG_NAMES]
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "branching.py"], ids=lambda p: p.name)
def test_branch_rule_has_one_home(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert arg_uses(tree, ARG_HOMES.get(path.name)) == []


@pytest.mark.parametrize(
    "snippet",
    ["np.arctan2(y, x)", "math.atan2(y, x)", "from math import atan2", "from numpy import arctan2",
     "def _ray():\n    pass\ndef f():\n    return math.atan2(y, x)"],
)
def test_rule_sees_each_arg(snippet):
    assert arg_uses(ast.parse(snippet), "_ray")


def test_rule_spares_the_ray_angles_only():
    snippet = "def _ray():\n    return math.atan2(y, x)"
    assert arg_uses(ast.parse(snippet), "_ray") == []
    assert arg_uses(ast.parse(snippet))
