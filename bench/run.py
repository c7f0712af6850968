"""lerchzeta benchmark: one workload, one seed, one process, one closed-loop caller.

    python3 bench/run.py --workload point-scan --seed 1 --seconds 50 --trace 0

With ``--trace 0`` it times the workload for ``--seconds`` seconds (whole
blocks only), checks every output and prints each end-to-end metric by name
with its unit; timings are scaled to a reference host speed (calibrate.py).  With ``--trace 1`` it runs a fixed number of operations
twice, untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, starting with ``run``, records versions, seed and sample counts.
Run it from the repository root; it imports ``lerchzeta`` from ``src/``.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 9
SETUP_SLICES = 150
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "frac",
    "est_hold_frac": "frac",
    "peak_rss_mb": "MB",
}

# the import plus the package's first call, in a fresh interpreter, then the
# host's speed right after it (numpy is loaded by then, so the slices add nothing to the import)
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import lerchzeta
lerchzeta.evaluate_principal(0.5, 0.5 + 0.5j, 0.5)
t1 = time.perf_counter()
sys.path.insert(0, {here!r})
import calibrate
ref = calibrate.Reference()
for _ in range({slices}):
    ref.run()
print(repr(t1 - t0), repr(ref.scale()))
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with a non-zero exit."""


def rule_percentile(n: int, beyond: int = TAIL_BEYOND) -> float:
    """Highest percentile of n samples that still has `beyond` samples above it."""
    return 100.0 * max(1, n - beyond) / n


def latency_at(samples: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank sample at `percentile`, and how many samples rank above it."""
    xs = sorted(samples)
    k = max(1, math.ceil(percentile / 100.0 * len(xs) - 1e-9))
    return xs[k - 1], len(xs) - k


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Seconds to import lerchzeta and make its first call, in fresh interpreters (one warm-up dropped).

    Returns the raw times and the same times scaled to the reference speed
    (calibrate.py), each by the slices its own interpreter ran.
    """
    code = _SETUP_CHILD.format(src=str(SRC), here=str(HERE), slices=SETUP_SLICES)
    raw, scaled = [], []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        if i:
            seconds, scale = map(float, proc.stdout.split())
            raw.append(seconds)
            scaled.append(seconds * scale)
    return raw, scaled


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


@dataclass
class Tally:
    """Per-run accounting, kept small so the loop does not grow the heap the package's GC walks."""

    latencies: array.array = field(default_factory=lambda: array.array("d"))
    ends: array.array = field(default_factory=lambda: array.array("d"))  # seconds since the loop started
    ok: bytearray = field(default_factory=bytearray)
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    missed: Counter = field(default_factory=Counter)  # accuracy target missed, failed or not
    reasons: Counter = field(default_factory=Counter)
    est_checked: int = 0
    est_held: int = 0

    def add(self, label: str, out, seconds: float, end: float) -> None:
        self.latencies.append(seconds)
        self.ends.append(end)
        self.ok.append(out.ok)
        self.attempted[label] += 1
        if not out.ok:
            self.failed[label] += 1
            self.reasons[out.reason] += 1
        if not (out.ok if out.met is None else out.met):
            self.missed[label] += 1
        if out.est_held is not None:
            self.est_checked += 1
            self.est_held += out.est_held


def run_ops(workload, items, *, seconds: float | None = None, count: int | None = None, tracer=None,
            reference=None):
    """Closed loop over `items` until `count` ops ran, or until the next block would end past `seconds`.

    With `seconds`, the loop runs whole blocks and starts another only if a
    block of the mean length so far still fits, so one slow block (a
    cover-circles panel at the parent) is not followed by a second that
    doubles the run.  With a `reference` (calibrate.Reference, made just
    before the call), reference slices run between operations; their time is
    part of the returned wall time and is kept in `reference.seconds`.
    """
    from workloads import Outcome

    tally = Tally()
    clock = time.perf_counter
    start = clock() if reference is None else reference.start
    deadline = start + seconds if seconds is not None else None
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = workload.run(item)
        except Exception as exc:  # an operation that raises counts as failed
            out = Outcome(False, type(exc).__name__)
        t1 = clock()
        tally.add(workload.label(item), out, t1 - t0, t1 - start)
        if reference is not None:
            reference.keep_up(clock() - start - reference.seconds)
        done = i + 1
        if count is not None and done >= count:
            break
        if deadline is not None and done % workload.block == 0:
            blocks = done // workload.block
            if t1 + (t1 - start) / blocks > deadline:
                break
    return tally, clock() - start


def summarize(tally: Tally, wall: float, tail_percentile: float, reference=None) -> dict:
    """Metrics of one loop; `wall` excludes reference slices.

    With a `reference`, throughput is scaled by its whole-loop factor and
    each latency by the factor around the time the operation ended.
    """
    n = len(tally.latencies)
    failed = sum(tally.failed.values())
    missed = sum(tally.missed.values())
    latencies = tally.latencies
    scale = 1.0
    if reference is not None:
        scale = reference.scale()
        latencies = array.array("d", (x * reference.scale_at(e) for x, e in zip(tally.latencies, tally.ends)))
    tail, beyond = latency_at(latencies, tail_percentile)
    p50 = statistics.median(latencies)
    raw_tail, _ = latency_at(tally.latencies, tail_percentile)
    raw_p50 = statistics.median(tally.latencies)
    held = tally.est_held / tally.est_checked if tally.est_checked else None
    return {
        "attempted": n,
        "failed": failed,
        "correct": failed == 0,
        "metrics": {
            "ops_per_s": n / (wall * scale),
            "latency_p50_ms": 1e3 * p50,
            "latency_tail_ms": 1e3 * tail,
            "ok_frac": 1.0 - missed / n,
            "est_hold_frac": 1.0 if held is None else held,
        },
        "info": {
            "wall_s": wall,
            "speed_scale": scale,
            "unscaled": {"ops_per_s": n / wall, "latency_p50_ms": 1e3 * raw_p50, "latency_tail_ms": 1e3 * raw_tail},
            "samples": n,
            "tail_percentile": tail_percentile,
            "tail_beyond": beyond,
            "rule_percentile": rule_percentile(n),
            "fail_frac": missed / n,
            "est_violation_frac": None if held is None else 1.0 - held,
            "est_checked": tally.est_checked,
            "failure_reasons": dict(tally.reasons),
            "failed": failed,
            "by_label": {k: {"attempted": v, "missed": tally.missed[k], "failed": tally.failed[k]}
                         for k, v in sorted(tally.attempted.items())},
        },
    }


def layer_metrics(tracer, tally: Tally) -> dict[str, float]:
    from tracer import self_times

    st = self_times(tracer.spans)

    def calls(name: str) -> int:
        return st[name].calls if name in st else 0

    def self_s(name: str) -> float:
        return st[name].self_s if name in st else 0.0

    m: dict[str, float] = {}
    for name in (
        "quadrature.integrate",
        "evaluator.dirichlet_series",
        "evaluator.integral",
        "branching.complex_gamma",
        "branching.branched_pow",
        "continuation.evaluate_principal",
        "continuation.transform",
        "continuation.ladder",
        "continuation.cauchy",
        "monodromy.monodromy_of_branch",
        "monodromy.monodromy_of_word",
        "words.Word.parse",
        "words.abelianize",
        "cli.main",
    ):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    n_quad = calls("quadrature.integrate")
    m["quadrature.panels"] = tracer.counts["quadrature.panels"]
    m["quadrature.panels_per_call"] = tracer.counts["quadrature.panels"] / n_quad if n_quad else 0.0
    m["quadrature.tol_met_ratio"] = tracer.counts["quadrature.tol_met"] / n_quad if n_quad else 0.0
    m["evaluator.dirichlet_series.raised"] = tracer.counts["evaluator.dirichlet_series.raised"]
    for route in ("series", "integral", "transform", "dde_shift"):
        m["continuation.route." + route] = tracer.counts["continuation.route." + route]
    per_op = Counter(op for name, _, _, _, op in tracer.spans if name == "continuation.evaluate_principal")
    ok_ops = [i for i, ok in enumerate(tally.ok) if ok]
    m["continuation.evals_per_op"] = sum(per_op[i] for i in ok_ops) / len(ok_ops) if ok_ops else 0.0
    return m


def layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    if tail == "self_s":
        return "s"
    if tail in ("tol_met_ratio", "trace_overhead_frac"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lerchzeta" / "__init__.py").is_file():
        raise BenchError(f"no lerchzeta package under {SRC}; run from a full checkout")
    threads = os.environ.get("LERCH_THREADS")
    if threads not in (None, "", "1"):
        raise BenchError(f"LERCH_THREADS={threads!r}; the benchmark drives one thread (unset it or set 1)")
    # numpy's OpenBLAS otherwise starts a thread per core at import; the package
    # makes no BLAS calls, and on two cores that thread makes set-up time bimodal
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    setup_raw, setup = measure_setup()
    import lerchzeta
    import numpy

    if Path(lerchzeta.__file__).resolve().parent != (SRC / "lerchzeta").resolve():
        raise BenchError(f"imported lerchzeta from {lerchzeta.__file__}, not from {SRC}")
    import workloads
    from calibrate import Reference

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "target_abs_err": workloads.TARGET,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "lerch_threads": threads,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "setup_samples_s": setup_raw,
        "setup_scaled_s": setup,
    }

    if not args.trace:
        ref = Reference()
        tally, wall = run_ops(wl, wl.items(args.seed), seconds=args.seconds, reference=ref)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before summarizing sorts
        res = summarize(tally, wall - ref.seconds, wl.tail_percentile, ref)
        info.update(reference_slices=ref.slices, reference_s=ref.seconds)
        metrics = {"setup_s": statistics.median(setup), **res["metrics"]}
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    else:
        from tracer import Tracer

        count = wl.trace_ops
        _, plain_wall = run_ops(wl, wl.items(args.seed), count=count)
        tracer = Tracer()
        tracer.install()
        try:
            tally, wall = run_ops(wl, wl.items(args.seed), count=count, tracer=tracer)
        finally:
            tracer.uninstall()
        res = summarize(tally, wall, wl.tail_percentile)
        metrics = layer_metrics(tracer, tally)
        metrics["trace_overhead_frac"] = wall / plain_wall - 1.0
        units = {name: layer_unit(name) for name in metrics}
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write(span_file)
        info.update(traced_ops=count, spans=len(tracer.spans), span_file=str(span_file.relative_to(ROOT)),
                    trace_notes=tracer.notes)

    info.update(res["info"])
    print("run " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:40s} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
