"""Freeze the point-scan oracle: a seeded point pool with mpmath reference values.

Run once from the repository root; every benchmark run reads the file this
writes instead of recomputing it:

    python3 bench/oracle.py
    python3 bench/oracle.py --baseline


Each reference value is the principal-sheet Lerch zeta

    zeta(s, a, c) = lerchphi(exp(2 pi i a), s, c)

computed by mpmath at 30 and at 40 significant digits; the two must agree to
1e-20 (relative to max(1, |value|)) or the script stops.  Points with
Re c < 1 are first moved by the index shift in c, summed in mpmath with the
package's logarithm (cut down the negative imaginary axis), so mpmath's own
shift, which uses its principal logarithm, never runs.  Points that carry a
winding vector add the closed-form monodromy of that vector, also in mpmath.

``--baseline`` instead runs the package at this commit over the frozen pool
and records the points it gets wrong (error above half the 1e-10 target),
each with its error there.  A later commit fails a listed point only when its
error there grows past ten times the recorded one, and any other point when
its error exceeds the target.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
ORACLE_FILE = HERE / "data" / "point_scan_oracle.jsonl"
BASELINE_FILE = HERE / "data" / "point_scan_baseline.json"
POOL_SEED = 20100526  # arXiv 1005.4967
PER_STRATUM = 256  # the baseline's failing_indices refer to this pool
AGREE = 1e-20

# stratum name -> route of the parent's dispatch it was drawn to exercise
STRATA = ("series", "real_a", "integral", "transform", "c_shift", "ladder")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return rng.uniform(lo, hi)


def _off_integer(rng: random.Random, lo: float, hi: float, gap: float = 0.1) -> float:
    while True:
        x = rng.uniform(lo, hi)
        if abs(x - round(x)) >= gap:
            return x


def _winding(rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """Nonzero winding vector over X_0, X_1 and Y_-1, Y_0, Y_1 (Y_1 adds nothing)."""
    while True:
        kx = {rng.randint(0, 1): rng.randint(-2, 2) for _ in range(rng.randint(0, 2))}
        ky = {rng.randint(-1, 1): rng.randint(-2, 2) for _ in range(rng.randint(0, 2))}
        kx = sorted([n, k] for n, k in kx.items() if k)
        ky = sorted([n, k] for n, k in ky.items() if k)
        if kx or ky:
            return kx, ky


def sample_point(stratum: str, rng: random.Random) -> dict:
    """One point of a stratum; the three moderate strata carry a winding vector a third of the time."""
    kx: list = []
    ky: list = []
    if stratum == "series":  # Im a > 0
        s = complex(_u(rng, -3.0, 3.0), _u(rng, -30.0, 30.0))
        a = complex(_u(rng, 0.05, 0.95), _u(rng, 0.02, 0.6))
        c = complex(_u(rng, 0.1, 2.0), 0.0)
    elif stratum == "real_a":  # the real-a line with Re s > 0
        s = complex(_u(rng, 0.1, 3.0), _u(rng, -30.0, 30.0))
        a = complex(_u(rng, 0.05, 0.95), 0.0)
        c = complex(_u(rng, 0.1, 2.0), 0.0)
    elif stratum == "integral":  # Im a < 0 with Re s > 0
        s = complex(_u(rng, 0.1, 3.0), _u(rng, -30.0, 30.0))
        a = complex(_u(rng, 0.05, 0.95), _u(rng, -0.4, -0.02))
        c = complex(_u(rng, 0.1, 2.0), 0.0)
    else:
        branched = rng.random() < 1.0 / 3.0
        if stratum == "transform":  # polycylinder, Re s <= 0, Im a <= 0
            s = complex(_u(rng, -2.5, -0.05), _u(rng, -3.0, 3.0))
            a = complex(_u(rng, 0.1, 0.9), _u(rng, -0.4, 0.0))
            c = complex(_u(rng, 0.1, 0.9), _u(rng, -0.3, 0.3))
        elif stratum == "c_shift":  # Re c outside (0, 1), Re c < 0 included
            s = complex(_u(rng, -2.5, 2.5), _u(rng, -1.0, 1.0))
            a = complex(_u(rng, 0.1, 0.9), _u(rng, -0.3, 0.3))
            re_c = _off_integer(rng, -2.5, 0.0) if rng.random() < 0.5 else _off_integer(rng, 1.0, 3.0)
            c = complex(re_c, _u(rng, -0.3, 0.3))
        elif stratum == "ladder":  # Re a outside (0, 1), Im a <= 0, Re s <= 0
            s = complex(_u(rng, -2.5, -0.05), _u(rng, -2.0, 2.0))
            re_a = _u(rng, 1.1, 1.9) if rng.random() < 0.5 else _u(rng, -0.9, -0.1)
            a = complex(re_a, _u(rng, -0.4, 0.0))
            c = complex(_u(rng, 0.1, 1.9), _u(rng, -0.2, 0.2))
        else:
            raise ValueError(f"unknown stratum {stratum!r}")
        if branched:
            # monodromy grows like exp(2 pi |Im s| k); keep it O(1e3) at most
            s = complex(s.real, _u(rng, -0.3, 0.3))
            kx, ky = _winding(rng)
    return {"stratum": stratum, "s": [s.real, s.imag], "a": [a.real, a.imag],
            "c": [c.real, c.imag], "kx": kx, "ky": ky}


def sample_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    return [sample_point(name, rng) for _ in range(PER_STRATUM) for name in STRATA]


# -- mpmath side ---------------------------------------------------------------


def _log(z):
    """Package logarithm: cut down the negative imaginary axis, arg in (-pi/2, 3pi/2)."""
    z = mp.mpc(z)
    theta = mp.atan2(z.imag, z.real)
    if theta < -mp.pi / 2 or (theta == -mp.pi / 2 and z.real < 0):
        theta += 2 * mp.pi
    return mp.mpc(mp.log(abs(z)), theta)


def _pow(base, exponent):
    return mp.exp(exponent * _log(base))


def _principal(s, a, c):
    """Principal-sheet zeta(s, a, c) with the index shift done in the package convention."""
    z = mp.exp(2j * mp.pi * a)
    m = max(0, int(math.ceil(1.0 - float(c.real))))
    head = mp.mpc(0)
    for j in range(m):
        head += mp.exp(2j * mp.pi * a * j) * _pow(j + c, -s)
    return head + mp.exp(2j * mp.pi * a * m) * mp.lerchphi(z, s, c + m)


def _geometric(lam, k):
    """(lam^k - 1)/(lam - 1) for any integer k, as a finite sum."""
    if k > 0:
        return mp.fsum(lam**j for j in range(k))
    return -mp.fsum(lam ** (-j) for j in range(1, -k + 1))


def _monodromy(s, a, c, kx, ky):
    """Closed-form monodromy of the winding vector (Lagarias-Li)."""
    total = mp.mpc(0)
    rgamma = mp.rgamma(s)
    for n, k in kx:
        pref = -mp.exp(s * mp.log(2 * mp.pi) + 0.5j * mp.pi * s) * rgamma
        kernel = _pow(a - n, s - 1) * mp.exp(-2j * mp.pi * c * (a - n))
        total += _geometric(mp.exp(2j * mp.pi * s), k) * pref * kernel
    for n, k in ky:
        if n >= 1:
            continue
        base = (mp.exp(-2j * mp.pi * s) - 1) * mp.exp(-2j * mp.pi * n * a) * _pow(c - n, -s)
        total += _geometric(mp.exp(-2j * mp.pi * s), k) * base
    return total


def _value(rec: dict, dps: int):
    with mp.workdps(dps):
        s, a, c = (mp.mpc(*rec[k]) for k in ("s", "a", "c"))
        v = _principal(s, a, c)
        if rec["kx"] or rec["ky"]:
            v += _monodromy(s, a, c, rec["kx"], rec["ky"])
        return v


def reference(rec: dict) -> dict:
    v30 = _value(rec, 30)
    v40 = _value(rec, 40)
    with mp.workdps(40):
        gap = float(abs(v30 - v40) / max(1, abs(v40)))
    out = dict(rec)
    out["value"] = [float(v40.real), float(v40.imag)]
    out["gap_30_40"] = gap
    return out


def record_baseline() -> int:
    """Write the pool points this commit gets wrong, with their errors and per-stratum counts, to BASELINE_FILE."""
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from lerchzeta import evaluate_on_cover
    from workloads import TARGET, load_oracle

    known, worst = [], Counter()
    attempted, failed, est_violated = Counter(), Counter(), Counter()
    for p in load_oracle():
        attempted[p.stratum] += 1
        # a raise is not caught: a pool point the parent cannot evaluate would fail every run
        lv = evaluate_on_cover(p.point, p.branch, TARGET)
        err = abs(lv.value - p.oracle)
        if not math.isfinite(err):
            raise SystemExit(f"non-finite result at pool point {p.index}")
        worst[p.stratum] = max(worst[p.stratum], err)
        est_violated[p.stratum] += err > lv.abs_err_estimate
        if not err <= TARGET:
            failed[p.stratum] += 1
        if not err <= 0.5 * TARGET:
            known.append([p.index, err])
    commit = subprocess.run(["git", "-C", str(HERE.parent), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    record = {
        "commit": commit,
        "target_abs_err": TARGET,
        "rule": "[index, |value - oracle|] listed where |value - oracle| > target/2",
        "per_stratum": {
            name: {"attempted": attempted[name], "failed": failed[name],
                   "est_violated": est_violated[name], "worst_abs_err": worst[name]}
            for name in attempted
        },
        "known_errors": known,
    }
    with open(BASELINE_FILE, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record["per_stratum"], indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", action="store_true", help="record this commit's errors instead")
    args = ap.parse_args(argv)
    if args.baseline:
        return record_baseline()
    pool = sample_pool()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as workers:
        rows = workers.map(reference, pool, chunksize=4)
    bad = [r for r in rows if not r["gap_30_40"] <= AGREE]
    for r in bad:
        print(f"30/40-digit disagreement {r['gap_30_40']:.3e} at {r}", file=sys.stderr)
    if bad:
        return 1
    ORACLE_FILE.parent.mkdir(parents=True, exist_ok=True)
    with open(ORACLE_FILE, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
    print(f"wrote {len(rows)} points to {ORACLE_FILE.relative_to(HERE.parent)}; "
          f"max 30/40-digit gap {max(r['gap_30_40'] for r in rows):.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
