"""Work counts over the benchmark's point-scan pool.

Counts of integrand calls, quadrature panels, partial-sum terms and three-term transforms repeat exactly on every
machine, so unlike timings they can gate a change in Tier-1.  The pool is
read from bench/data/point_scan_oracle.jsonl and never written.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from lerchzeta import (BranchState, DivergentSeries, Point3, branching, continuation, evaluate_on_cover, evaluator,
                       quadrature)

POOL = Path(__file__).resolve().parents[1] / "bench" / "data" / "point_scan_oracle.jsonl"


def pool_points():
    with open(POOL, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            point = Point3(complex(*r["s"]), complex(*r["a"]), complex(*r["c"]))
            yield r["stratum"], point, BranchState.from_dicts(dict(r["kx"]), dict(r["ky"]))


@pytest.fixture(scope="module")
def pool_counts():
    """Integrand calls, quadrature panels, partial-sum terms, three-term transforms, the dispatch's DivergentSeries
    raises, branch_monodromy calls (and those with an empty winding vector) and log Gamma computations by stratum over
    one pass at the benchmark's 1e-10."""
    counts = {}
    stratum = None
    integrate, partial_sum, transform = quadrature.integrate, evaluator._partial_sum, continuation._transform_value
    series, monodromy, log_gamma = continuation.dirichlet_series, evaluator.branch_monodromy, branching._log_gamma

    def counted_integrate(f, *args, **kwargs):
        def g(x):
            counts[stratum]["integrand_calls"] += 1
            return f(x)

        result = integrate(g, *args, **kwargs)
        counts[stratum]["panels"] += result[2]
        return result

    def counted_partial_sum(s, alpha, c, lo, hi):
        counts[stratum]["terms"] += hi - lo
        return partial_sum(s, alpha, c, lo, hi)

    def counted_transform(*args):
        counts[stratum]["transforms"] += 1
        return transform(*args)

    def counted_series(*args):
        try:
            return series(*args)
        except DivergentSeries:
            counts[stratum]["divergent_series"] += 1
            raise

    def counted_monodromy(b, *args):
        counts[stratum]["monodromy_calls"] += 1
        counts[stratum]["empty_monodromy"] += b.is_zero
        return monodromy(b, *args)

    def counted_log_gamma(s):
        counts[stratum]["log_gamma"] += 1
        return log_gamma(s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "integrate", counted_integrate)
        mp.setattr(evaluator, "_partial_sum", counted_partial_sum)
        mp.setattr(continuation, "_transform_value", counted_transform)
        mp.setattr(continuation, "dirichlet_series", counted_series)
        for module in (evaluator, continuation):
            mp.setattr(module, "branch_monodromy", counted_monodromy)
        mp.setattr(branching, "_log_gamma", counted_log_gamma)
        for stratum, point, branch in pool_points():
            counts.setdefault(stratum, Counter())
            evaluate_on_cover(point, branch, 1e-10)
    return counts


def test_integral_stratum_integrand_calls(pool_counts):
    # 524 from 16 first panels on every ray; 366 with first panels sized to the phase of t^{s-1}
    # (2 radians each, G7/K15); 296 with G10/K21 panels of 4 radians
    assert pool_counts["integral"]["integrand_calls"] <= 310


def test_real_a_stratum_integrand_calls(pool_counts):
    # 528 when each Abel-Plana tail ran its two integrals as two quadratures; 267 as one in u = y / y_max;
    # 259 from 6 first G10/K21 panels
    assert pool_counts["real_a"]["integrand_calls"] <= 265


def test_pool_quadrature_panels(pool_counts):
    # 25,603 G7/K15 panels; 13,305 G10/K21 panels, whose estimator lets a panel be about twice as wide
    assert sum(c["panels"] for c in pool_counts.values()) <= 14_000


def test_pool_partial_sum_terms(pool_counts):
    # 97,714 when any direct sum up to 300,000 terms served; 56,696 when one serves only
    # while it is at most 1024 terms longer than the Abel-Plana split point; 24,853 once the
    # integral owns -4 < Re s <= 0 and the transform's inner series no longer run there
    assert sum(c["terms"] for c in pool_counts.values()) <= 30_000


def test_pool_transforms(pool_counts):
    # 585 three-term transforms (one per point of the transform and ladder strata, 72 in c_shift)
    # while the transform owned Re s <= 0; 1 once the integral owns -4 < Re s <= 0
    assert sum(c["transforms"] for c in pool_counts.values()) <= 40


def test_dispatch_tries_the_series_only_where_it_converges(pool_counts):
    # 896 series calls only raised DivergentSeries (Im a < 0, or real a with Re s <= 0) while the dispatch tried
    # the series first at every point
    assert sum(c["divergent_series"] for c in pool_counts.values()) == 0


def test_monodromy_only_of_poles_turned_over(pool_counts):
    # 826 of the integral's 898 branch_monodromy calls were of the empty winding vector of a ray that turns over no
    # pole (1155 calls in all with the cover's)
    assert sum(c["empty_monodromy"] for c in pool_counts.values()) == 0
    assert sum(c["monodromy_calls"] for c in pool_counts.values()) <= 340


def test_pool_log_gamma_computations(pool_counts):
    # 3134 (the reflection's inner call included) while each of the ray's floor, the ray, the monodromy of the poles
    # it turns over, the cover's monodromy and the transform's inner routes computed log Gamma anew; 1578 once an
    # evaluation computes it once per s
    assert sum(c["log_gamma"] for c in pool_counts.values()) <= 1700
