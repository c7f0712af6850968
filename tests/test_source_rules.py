"""Rules the package's source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "lerchzeta").glob("*.py"))
# numpy entries that run through BLAS, whose threads make concurrent processes slow each other many-fold
BLAS_NAMES = {"dot", "matmul", "vdot", "inner", "einsum", "tensordot", "linalg"}


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
