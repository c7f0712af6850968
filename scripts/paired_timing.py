"""Time the working tree against a parent revision, point by point, in one interpreter.

    python3 scripts/paired_timing.py --parent HEAD~1 [--passes 12]

Extracts REV's committed ``src/`` with ``parent_diff.extract`` into a
temporary directory, imports it as the package ``lerchzeta_parent`` next to
the working tree's ``lerchzeta`` and times both on the same inputs:

- point-scan: every point of ``bench/data/point_scan_oracle.jsonl``, one
  ``evaluate_on_cover`` at target 1e-10 per side and point;
- exact-algebra: seeded word pairs (``parent_diff._algebra_cases``) through
  ``Word.parse``, ``abelianize``, ``monodromy_of_word``,
  ``word_fold_monodromy``, ``compose_check`` and ``fe_monodromy_residual``.

Each input runs on both sides back to back, the side that goes first
alternating from input to input and pass to pass, so a drift in the host's
speed falls on both alike; whole passes timed one after the other swing far
more.  A pass sums each side's times; the script prints, per workload, the
median of the passes' parent/tree time ratios (above 1: the tree is faster)
and their range.  It reads ``bench/data/`` and writes nothing outside the
temporary directory, which it removes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ in either tree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_FILE = ROOT / "bench" / "data" / "point_scan_oracle.jsonl"
TARGET = 1e-10
ALGEBRA_SEED, ALGEBRA_CASES = 13, 400

sys.path.insert(0, str(HERE))
from parent_diff import _algebra_cases, extract  # noqa: E402


def load_package(name: str, src: Path):
    """The package in src/lerchzeta, imported under name (its modules import each other relatively)."""
    pkg = src / "lerchzeta"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def pool_ops(lz) -> list:
    """One closure per pool point: evaluate_on_cover at TARGET, a LerchError counting as done."""
    ops = []
    with open(POOL_FILE, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            point = lz.Point3(complex(*r["s"]), complex(*r["a"]), complex(*r["c"]))
            branch = lz.BranchState.from_dicts(dict(r["kx"]), dict(r["ky"]))
            ops.append(lambda p=point, b=branch: _quiet(lz, lambda: lz.evaluate_on_cover(p, b, TARGET)))
    return ops


def algebra_ops(lz) -> list:
    """One closure per seeded word pair: parse, abelianize and the monodromy functions of both kinds."""
    ops = []
    for t1, t2, s, a, c in _algebra_cases(ALGEBRA_SEED, ALGEBRA_CASES):
        def op(t1=t1, t2=t2, s=s, a=a, c=c):
            w1, w2 = lz.Word.parse(t1), lz.Word.parse(t2)
            lz.abelianize(w1)
            for fn in (lambda: lz.monodromy_of_word(w1, s, a, c), lambda: lz.word_fold_monodromy(w1, s, a, c),
                       lambda: lz.compose_check(w1, w2, s, a, c),
                       lambda: lz.fe_monodromy_residual(lz.SymKind.PLUS, w1, s, a, c)):
                _quiet(lz, fn)
        ops.append(op)
    return ops


def _quiet(lz, fn) -> None:
    try:
        fn()
    except lz.LerchError:
        pass


def paired_pass(parent: list, tree: list, flip: bool) -> tuple[float, float]:
    """(parent seconds, tree seconds) over one pass, each input on both sides, the first side alternating."""
    clock = time.perf_counter
    sums = [0.0, 0.0]
    for i, pair in enumerate(zip(parent, tree)):
        order = (1, 0) if (i % 2 == 1) != flip else (0, 1)
        for side in order:
            t0 = clock()
            pair[side]()
            sums[side] += clock() - t0
    return sums[0], sums[1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to time the working tree against, e.g. HEAD~1")
    ap.add_argument("--passes", type=int, default=12, help="passes over each workload's inputs (default 12)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="paired_timing_") as tmp:
        try:
            extract(args.parent, Path(tmp))
        except subprocess.CalledProcessError:
            return 2  # git has said why on stderr
        parent = load_package("lerchzeta_parent", Path(tmp) / "src")
        tree = load_package("lerchzeta", ROOT / "src")
        workloads = (("point-scan", pool_ops), ("exact-algebra", algebra_ops))
        print(f"parent {args.parent} against the working tree, {args.passes} passes")
        for name, build in workloads:
            sides = build(parent), build(tree)
            paired_pass(*sides, False)  # warm-up: first calls, caches, branch predictors
            times = [paired_pass(*sides, k % 2 == 1) for k in range(args.passes)]
            ratios = sorted(p / t for p, t in times)
            print(f"{name}: parent/tree time ratio median {statistics.median(ratios):.4f}"
                  f" (range {ratios[0]:.4f}-{ratios[-1]:.4f}); per pass parent"
                  f" {statistics.median(p for p, _ in times) * 1e3:.1f} ms,"
                  f" tree {statistics.median(t for _, t in times) * 1e3:.1f} ms (medians)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
