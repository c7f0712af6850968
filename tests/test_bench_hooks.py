"""The benchmark's hooks into the package still resolve.

bench/tracer.py wraps package functions by module and name, and
bench/workloads.py imports package names; a rename that breaks either fails
here.  bench/ is only read.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import lerchzeta.continuation as continuation
from lerchzeta import BranchState, Point3, evaluate_on_cover

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load("tracer")
    tr = tracing.Tracer()
    tr.install()
    try:
        evaluate_on_cover(Point3(2.0, 0.25 + 0.25j, 0.5), BranchState.zero())
    finally:
        tr.uninstall()
    # continuation.ladder names the DDE ladder, which the package no longer has
    assert {note.split(":")[0] for note in tr.notes} <= {"continuation.ladder"}
    assert tr.counts["continuation.route.series"] == 1
    assert not hasattr(continuation.evaluate_principal, "__wrapped__")


def test_workloads_import_and_one_algebra_block_passes():
    workloads = _load("workloads")
    wl = workloads.ExactAlgebra()
    # one block holds every kind, the CLI's monodromy against the library's among them
    outcomes = [wl.run(op) for op in itertools.islice(wl.items(7), wl.block)]
    assert all(o.ok for o in outcomes), [o.reason for o in outcomes]
