"""Tests of the benchmark itself: percentile rule, failure accounting, tracing.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lerchzeta import BranchState, Point3, evaluate_on_cover  # noqa: E402


def test_tail_percentile_rule():
    # the highest percentile with ten samples beyond it
    assert run.rule_percentile(100) == 90.0
    assert run.rule_percentile(2000) == pytest.approx(99.5)
    assert run.rule_percentile(16) == 37.5
    assert run.rule_percentile(5) == 20.0  # ten or fewer samples: only the smallest is left
    samples = [float(x) for x in range(100, 0, -1)]  # 1..100, unsorted
    assert run.latency_at(samples, run.rule_percentile(100)) == (90.0, 10)
    xs = [float(x) for x in range(1, 2001)]
    assert run.latency_at(xs, 99.5) == (1990.0, 10)
    assert run.latency_at(xs, 50.0) == (1000.0, 1000)
    # sixteen samples: the 6th smallest, at percentile 37.5
    assert run.latency_at([float(x) for x in range(16)], 37.5) == (5.0, 10)
    # each workload's fixed percentile leaves at least ten samples beyond at the parent's counts
    for name, n in (("point-scan", 2400), ("cover-circles", 16), ("exact-algebra", 90000)):
        assert run.latency_at(list(range(n)), workloads.WORKLOADS[name].tail_percentile)[1] >= 10


def _scan_point(index: int, s, a, c, oracle) -> workloads.ScanPoint:
    return workloads.ScanPoint(index, "synthetic", Point3(s, a, c), BranchState.zero(), oracle)


def test_failure_accounting_counts_raises_and_missed_targets():
    good = complex(evaluate_on_cover(Point3(2.0, 0.25 + 0.25j, 0.5), BranchState.zero()).value)
    pool = [
        _scan_point(0, 2.0, 0.25 + 0.25j, 0.5, good),  # passes
        _scan_point(1, 2.0, 0.25 + 0.25j, 0.5, good + 1e-6),  # misses the target
        _scan_point(2, 2.0, 1.0 - 0.5j, 0.5, 0j),  # on a cut ray: CutViolation (a LerchError)
        _scan_point(3, 2.0, 0.25 + 0.25j, 0.5, good + 1e-6),  # the parent's known miss, as large as then
        _scan_point(4, 2.0, 0.25 + 0.25j, 0.5, good + 1e-6),  # a known miss, now 100 times the parent's
    ]
    wl = workloads.PointScan(pool, known={3: 1e-6, 4: 1e-8})
    tally, wall = run.run_ops(wl, iter(pool), count=len(pool))
    res = run.summarize(tally, wall, 50.0)
    assert (res["attempted"], res["failed"]) == (5, 3)
    assert not res["correct"]
    assert res["info"]["failure_reasons"] == {"target_missed": 1, "CutViolation": 1, "known_error_grew": 1}
    # a known miss that did not grow passes its check but still misses the target
    assert res["metrics"]["ok_frac"] == pytest.approx(1.0 / 5.0)
    assert res["info"]["fail_frac"] == pytest.approx(4.0 / 5.0)
    # every call that returned a value had its estimate checked; the raise had none
    assert res["info"]["est_checked"] == 4
    # with only the passing point and the known miss, the run is correct and nothing failed
    tally, wall = run.run_ops(wl, iter([pool[0], pool[3]]), count=2)
    res = run.summarize(tally, wall, 50.0)
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["ok_frac"] == pytest.approx(0.5)


def test_self_time_on_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("c", 6.0, 8.0, 2, 0),
        ("a", 11.0, 12.0, -1, 1),
    ]
    st = tracing.self_times(spans)
    assert st["root"].self_s == pytest.approx(10.0 - 3.0 - 4.0)
    assert st["b"].self_s == pytest.approx(2.0)
    assert st["c"].self_s == pytest.approx(2.0)
    assert (st["a"].calls, st["a"].total_s, st["a"].self_s) == (2, pytest.approx(4.0), pytest.approx(4.0))


def test_missing_targets_are_noted_not_fatal():
    tr = tracing.Tracer(
        tracing.TARGETS
        + (
            tracing.Target("continuation.gone", "lerchzeta.continuation", "_deleted_helper"),
            tracing.Target("nomodule.fn", "lerchzeta.no_such_module", "fn"),
        )
    )
    tr.install()
    try:
        evaluate_on_cover(Point3(2.0, 0.25 + 0.25j, 0.5), BranchState.zero())
    finally:
        tr.uninstall()
    assert len(tr.notes) == 2
    assert "continuation.gone" not in tracing.self_times(tr.spans)
    assert tr.counts["continuation.route.series"] == 1
    import lerchzeta.continuation as cont

    assert not hasattr(cont.evaluate_principal, "__wrapped__")


def test_cover_op_makes_627_evaluations():
    wl = workloads.CoverCircles()
    # the cheapest panel point: its circles stay in the upper half a-plane
    idx = next(i for i, (p, _) in enumerate(wl.panel) if p.a.imag > 0.2)
    item = (idx, wl.panel[idx][0], BranchState.from_dicts({0: 1}, {-1: 1}))
    assert not workloads.on_ladder(item[1])
    tr = tracing.Tracer()
    tr.install()
    try:
        tally, _ = run.run_ops(wl, iter([item]), count=1, tracer=tr)
    finally:
        tr.uninstall()
    assert list(tally.ok) == [1]
    m = run.layer_metrics(tr, tally)
    assert m["continuation.evals_per_op"] == 627
    assert m["continuation.ladder.calls"] == 0
    # one circle each for lowering and raising, the outer pde circle and its 24 inner ones
    assert m["continuation.cauchy.calls"] == 1 + 1 + 1 + 24


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_algebra_block_call_counts():
    # one block holds each kind once ("word" twice); per block, by hand from monodromy.py and cli.py:
    # every op parses, abelianizes and takes monodromy_of_word once; compose adds a second
    # parse, one direct and three compose_check monodromy_of_word calls and two abelianize;
    # fe makes eight monodromy_of_word calls; cli parses and abelianizes once more;
    # each monodromy_of_word abelianizes once and calls monodromy_of_branch once.
    wl = workloads.ExactAlgebra()
    tr = tracing.Tracer()
    tr.install()
    try:
        tally, _ = run.run_ops(wl, wl.items(7), count=wl.block, tracer=tr)
    finally:
        tr.uninstall()
    assert all(tally.ok)
    m = run.layer_metrics(tr, tally)
    assert m["words.Word.parse.calls"] == 10
    assert m["monodromy.monodromy_of_word.calls"] == 20
    assert m["monodromy.monodromy_of_branch.calls"] == 20
    assert m["words.abelianize.calls"] == 20 + 2 + 8 + 1
    assert m["cli.main.calls"] == 1
    for name in ("quadrature.integrate", "evaluator.dirichlet_series", "evaluator.integral",
                 "continuation.evaluate_principal"):
        assert m[name + ".calls"] == 0
    # every monodromy_of_branch span sits under a monodromy_of_word span
    spans = tr.spans
    assert all(spans[p][0] == "monodromy.monodromy_of_word"
               for name, _, _, p, _ in spans if name == "monodromy.monodromy_of_branch")


def test_reference_scale_multiplies_every_timing():
    class HalfSpeed:  # a host twice as fast as the reference: every timing halves
        def scale(self):
            return 0.5

        def scale_at(self, since_start):
            return 0.5

    tally = run.Tally()
    for ms in (1.0, 2.0, 3.0):
        tally.add("x", workloads.Outcome(True), ms / 1e3, ms)
    plain = run.summarize(tally, 0.006, 50.0)["metrics"]
    scaled = run.summarize(tally, 0.006, 50.0, HalfSpeed())["metrics"]
    assert plain["latency_p50_ms"] == pytest.approx(2.0)
    assert scaled["latency_p50_ms"] == pytest.approx(1.0)
    assert scaled["latency_tail_ms"] == pytest.approx(0.5 * plain["latency_tail_ms"])
    assert scaled["ops_per_s"] == pytest.approx(2.0 * plain["ops_per_s"])


def test_reference_buckets():
    ref = calibrate.Reference()
    # slices run until they are a tenth of work plus slices (one slice takes about 0.1 ms)
    ref.keep_up(0.09)
    assert 0.01 <= ref.seconds < 0.03
    assert sum(ref.bucket_slices) == ref.slices
    assert ref.scale() == pytest.approx(calibrate.NOMINAL_S * ref.slices / ref.seconds)
    # buckets 0..3 at 1, 2, 4 and 8 units per slice: each time uses its bucket and both neighbours
    ref.bucket_slices = [10, 10, 10, 10]
    ref.bucket_seconds = [10.0, 20.0, 40.0, 80.0]
    w = calibrate.BUCKET_S
    assert ref.scale_at(0.0) == pytest.approx(calibrate.NOMINAL_S * 20 / 30.0)
    assert ref.scale_at(1.5 * w) == pytest.approx(calibrate.NOMINAL_S * 30 / 70.0)
    assert ref.scale_at(9 * w) == pytest.approx(calibrate.NOMINAL_S * 20 / 120.0)  # past the end: the last bucket
