"""Work counts over the benchmark's point-scan pool.

Counts of integrand calls, partial-sum terms and three-term transforms repeat exactly on every
machine, so unlike timings they can gate a change in Tier-1.  The pool is
read from bench/data/point_scan_oracle.jsonl and never written.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from lerchzeta import BranchState, Point3, continuation, evaluate_on_cover, evaluator, quadrature

POOL = Path(__file__).resolve().parents[1] / "bench" / "data" / "point_scan_oracle.jsonl"


def pool_points():
    with open(POOL, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            point = Point3(complex(*r["s"]), complex(*r["a"]), complex(*r["c"]))
            yield r["stratum"], point, BranchState.from_dicts(dict(r["kx"]), dict(r["ky"]))


@pytest.fixture(scope="module")
def pool_counts():
    """Integrand calls, partial-sum terms and three-term transforms by stratum over one pass at the benchmark's 1e-10."""
    counts = {}
    stratum = None
    integrate, partial_sum, transform = quadrature.integrate, evaluator._partial_sum, continuation._transform_value

    def counted_integrate(f, *args, **kwargs):
        def g(x):
            counts[stratum]["integrand_calls"] += 1
            return f(x)

        return integrate(g, *args, **kwargs)

    def counted_partial_sum(s, alpha, c, lo, hi):
        counts[stratum]["terms"] += hi - lo
        return partial_sum(s, alpha, c, lo, hi)

    def counted_transform(*args):
        counts[stratum]["transforms"] += 1
        return transform(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "integrate", counted_integrate)
        mp.setattr(evaluator, "_partial_sum", counted_partial_sum)
        mp.setattr(continuation, "_transform_value", counted_transform)
        for stratum, point, branch in pool_points():
            counts.setdefault(stratum, Counter())
            evaluate_on_cover(point, branch, 1e-10)
    return counts


def test_integral_stratum_integrand_calls(pool_counts):
    # 524 from 16 first panels on every ray; 366 with first panels sized to the phase of t^{s-1}
    assert pool_counts["integral"]["integrand_calls"] <= 400


def test_real_a_stratum_integrand_calls(pool_counts):
    # 528 when each Abel-Plana tail ran its two integrals as two quadratures; 267 as one in u = y / y_max
    assert pool_counts["real_a"]["integrand_calls"] <= 280


def test_pool_partial_sum_terms(pool_counts):
    # 97,714 when any direct sum up to 300,000 terms served; 56,696 when one serves only
    # while it is at most 1024 terms longer than the Abel-Plana split point; 24,853 once the
    # integral owns -4 < Re s <= 0 and the transform's inner series no longer run there
    assert sum(c["terms"] for c in pool_counts.values()) <= 30_000


def test_pool_transforms(pool_counts):
    # 585 three-term transforms (one per point of the transform and ladder strata, 72 in c_shift)
    # while the transform owned Re s <= 0; 1 once the integral owns -4 < Re s <= 0
    assert sum(c["transforms"] for c in pool_counts.values()) <= 40
