import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lerchzeta import evaluate_principal, quadrature

ZA = 1.0 + 1e-3j  # the pole t = ZA of 1/(1 - e^{ZA - t}) sits 1e-3 above the axis


def near_pole(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 - np.exp(ZA - t))


def near_pole_antiderivative(t: float) -> complex:
    # the log's argument stays in Im < 0 on [0, 2]
    return t + cmath.log(1.0 - cmath.exp(ZA - t))


def exp_k(x: np.ndarray) -> np.ndarray:
    return np.exp((1.0 + 3.0j) * x)


def near_pole_variation() -> float:
    # the integral of |f'| over [0, 2]: with u = e^{1-t}, that of 1 / |1 - u e^{i delta}|^2 over [1/e, e]
    d = ZA.imag
    return (math.atan((math.e - math.cos(d)) / math.sin(d)) - math.atan((1.0 / math.e - math.cos(d)) / math.sin(d))) / math.sin(d)


# integrand, interval, antiderivative and the integral of |f'| over the interval
CLOSED_FORMS = {
    "near_pole": (near_pole, 0.0, 2.0, near_pole_antiderivative, near_pole_variation()),
    "exp": (exp_k, 0.0, 5.0, lambda t: cmath.exp((1.0 + 3.0j) * t) / (1.0 + 3.0j), abs(1.0 + 3.0j) * math.expm1(5.0)),
}


def counting(f):
    """f, and a list whose length is the number of calls made to it."""
    calls = []

    def counted(x):
        calls.append(x.shape)
        return f(x)

    return counted, calls


class TestPanels:
    def test_degree_22_is_exact(self):
        # K15 integrates polynomials of degree <= 3*7 + 1 exactly; x^24 it does not
        def one_panel(k: int, lo: float, hi: float) -> float:
            (value,), _, _ = quadrature._panels(lambda x: x**k + 0j, [lo], [hi])
            want = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            return abs(value - want) / abs(want)

        for k in range(23):
            assert one_panel(k, -0.5, 1.5) <= 1e-14
        assert one_panel(24, -1.0, 1.0) > 1e-9

    def test_batch_matches_single_panels(self):
        # one call on panels that are not adjacent, out of order and of unequal widths gives each to the bit
        lo, hi = [0.3, 1.7, 0.9, 0.0], [0.95, 2.0, 1.1, 1e-9]
        batch = quadrature._panels(near_pole, lo, hi)
        rows = [[column[i : i + 1].tobytes() for column in batch] for i in range(len(lo))]
        assert rows == [[column.tobytes() for column in quadrature._panels(near_pole, [a], [b])] for a, b in zip(lo, hi)]

    def test_error_column_is_python_abs(self):
        # np.hypot of K15 - G7 gives what Python's abs of a complex gives, to the bit (np.abs does not)
        rng = np.random.default_rng(5)
        cuts = np.sort(rng.uniform(0.0, 2.0, 2001))
        lo, hi = cuts[:-1].tolist(), cuts[1:].tolist()
        values, errs, resabs = quadrature._panels(near_pole, lo, hi)
        a, b = np.array(lo), np.array(hi)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        g7 = half * (quadrature._WG * near_pole(mid[:, None] + half[:, None] * quadrature._XGK)[:, 1::2]).sum(axis=1)
        want = [abs(v - g) + 4.0 * quadrature._EPS * r for v, g, r in zip(values.tolist(), g7.tolist(), resabs.tolist())]
        assert [e.hex() for e in errs.tolist()] == [e.hex() for e in want]


class TestIntegrate:
    def test_complex_closed_form(self):
        k = 1.0 + 3.0j
        value, err, n = quadrature.integrate(lambda x: np.exp(k * x), [0.0, 5.0], 1e-10)
        want = (cmath.exp(5.0 * k) - 1.0) / k
        assert abs(value - want) <= err
        assert err <= 1e-10
        assert n > 1

    def test_near_pole_closed_form(self):
        # antiderivative t + log(1 - e^{ZA - t}); the log's argument stays in Im < 0 on [0, 2]
        value, err, _ = quadrature.integrate(near_pole, [0.0, 2.0], 1e-10)
        F = lambda t: t + cmath.log(1.0 - cmath.exp(ZA - t))
        assert abs(value - (F(2.0) - F(0.0))) <= err <= 1e-9

    def test_near_pole_bits(self):
        # frozen from the sweep rule: value, estimate and panel count to the bit, and the closed form within err
        value, err, n = quadrature.integrate(near_pole, [0.0, 2.0], 1e-10)
        assert (value.real.hex(), value.imag.hex(), err.hex(), n) == (
            "0x1.0000000000007p+0",
            "0x1.91d8ccb71db81p+1",
            "0x1.962d2078e20f2p-34",
            57,
        )
        F = lambda t: t + cmath.log(1.0 - cmath.exp(ZA - t))
        assert abs(value - (F(2.0) - F(0.0))) <= err

    def test_one_call_per_sweep(self):
        # the first panel alone, then the q pieces of every panel a sweep splits in one (kq, 15) call
        for f, lo, hi, shapes in [
            (near_pole, 0.0, 2.0, [1, 8, 16, 16, 12, 4]),
            (lambda x: np.exp((1.0 + 3.0j) * x), 0.0, 5.0, [1, 8]),
        ]:
            counted, calls = counting(f)
            _, _, n = quadrature.integrate(counted, [lo, hi], 1e-10)
            assert calls == [(k, 15) for k in shapes]
            assert sum(shapes) == n

    def test_sweep_respects_max_panels(self):
        # a sweep takes at most half the panels left, and at least one bisection; it splits
        # 8 ways only while that fits, 2 ways from 3 panels left
        counted, calls = counting(near_pole)
        _, err, n = quadrature.integrate(counted, [0.0, 2.0], 1e-14, max_panels=20)
        assert err > 1e-14
        assert calls == [(k, 15) for k in [1, 8, 8, 2, 2]]
        assert n == 21

    def test_split_depth_follows_error(self):
        # the panel's K15 - G7 error falls like h^15: an estimate within 2^15 of the tolerance is
        # bisected, one within 2^30 split 4 ways and a larger one 8 ways, in one call
        _, (e0,), (r0,) = quadrature._panels(near_pole, [0.0], [2.0])
        for ratio, q in [(2.0**14, 2), (2.0**15, 2), (2.0**16, 4), (2.0**30, 4), (2.0**31, 8), (2.0**46, 8)]:
            assert e0 / ratio > 16.0 * quadrature._EPS * r0  # the tolerance, not the roundoff floor, is the goal
            counted, calls = counting(near_pole)
            quadrature.integrate(counted, [0.0, 2.0], e0 / ratio)
            assert calls[:2] == [(1, 15), (q, 15)]

    def test_first_panels_in_one_call(self):
        # a k-panel start is one (k, 15) call, and each first panel is the one _panels gives alone
        f = lambda x: np.exp((1.0 + 3.0j) * x)
        edges = [0.0, 0.5, 2.0, 3.0, 5.0]
        counted, calls = counting(f)
        value, err, n = quadrature.integrate(counted, edges, 1e-3)
        assert calls == [(4, 15)]
        assert n == 4
        alone = [[column.item() for column in quadrature._panels(f, [a], [b])] for a, b in zip(edges, edges[1:])]
        assert value == sum(v for v, _, _ in alone)
        assert err == sum(e for _, e, _ in alone)

    def test_first_pass_returns_the_edge_order_sums(self):
        # a first pass that meets its goal makes one call and returns the Python sums of the panels'
        # values and errors in edge order, as Python numbers, to the bit; the first edges are 8 equal
        # panels and edges graded toward the pole's foot t = 1, as the ray grades them
        edges = sorted({2.0 * k / 8 for k in range(9)} | {1.0 + x * 1e-3 * 2.0**j for j in range(9) for x in (-1, 1)})
        counted, calls = counting(near_pole)
        value, err, n = quadrature.integrate(counted, edges, 1e-8)
        assert calls == [(26, 15)]
        alone = [[column.item() for column in quadrature._panels(near_pole, [a], [b])] for a, b in zip(edges, edges[1:])]
        total = 0j
        for v, _, _ in alone:
            total += v
        total_err = sum(e for _, e, _ in alone)
        assert total_err <= 1e-8
        assert max(total_err, 16.0 * quadrature._EPS * sum(r for _, _, r in alone)) == total_err
        assert (value.real.hex(), value.imag.hex(), err.hex(), n) == (total.real.hex(), total.imag.hex(), total_err.hex(), 26)
        assert (type(value), type(err), type(n)) == (complex, float, int)

    @pytest.mark.parametrize(
        "f",
        [lambda x: np.exp(800.0 * x) + 0j, lambda x: np.full(x.shape, complex(math.nan, 0.0))],
        ids=["inf", "nan"],
    )
    def test_non_finite_integrand_ends_after_the_first_pass(self, f):
        # inf - inf in K15 - G7 makes the estimate NaN; the loop's exit test is false for NaN, so no sweep
        counted, calls = counting(f)
        with np.errstate(over="ignore", invalid="ignore"):
            _, err, n = quadrature.integrate(counted, [0.0, 1.0, 2.0], 1e-10)
        assert calls == [(2, 15)]
        assert math.isnan(err) and n == 2

    def test_below_roundoff_stops_at_floor(self):
        # t^{-4-40i} e^{-t} turns its phase 240 radians over [0.1, 40]; a tolerance
        # below roundoff ends at the 16 eps floor (an 8 eps floor ran to max_panels)
        s = -3.0 - 40.0j
        edges = [0.1 * 400.0 ** (k / 16) for k in range(16)] + [40.0]
        value, err, n = quadrature.integrate(lambda t: np.exp((s - 1.0) * np.log(t) - t), edges, 1e-20)
        with mpmath.workdps(30):
            want = complex(mpmath.gammainc(s, 0.1, 40.0))
        assert n < 300
        assert abs(value - want) <= err <= 1e-13 * abs(want)

    def test_floor_rises_with_a_split_panel(self):
        # a peak of height 1e8 and width 1e-4 at tol 1e-30, below roundoff: the pieces of the panels split
        # around it raise the floor to 16 eps of their summed resabs, where the sweeps stop (729 panels
        # with only the first panels' floor)
        x0, eps = 0.5123, 1e-4
        value, err, n = quadrature.integrate(lambda x: 1.0 / ((x - x0) ** 2 + 1e-8) + 0j, [0.0, 1.0], 1e-30)
        assert n <= 200
        assert abs(value - (math.atan((1.0 - x0) / eps) + math.atan(x0 / eps)) / eps) <= err

    def test_stalled_point_ends_below_max_panels(self, monkeypatch):
        # from 16 first panels equal in log t, an 8 eps floor left its inner integral
        # stalled at 1.06-1.3x the floor until max_panels = 3000
        integrate = quadrature.integrate
        ends = []

        def counted(*args, **kwargs):
            result = integrate(*args, **kwargs)
            ends.append((result[2], kwargs.get("max_panels", 1500)))
            return result

        monkeypatch.setattr(quadrature, "integrate", counted)
        lv = evaluate_principal(-4.3015 - 27.8845j, 2.1544 + 0.2769j, 2.0905 - 0.3745j)
        assert cmath.isfinite(lv.value)
        assert ends and all(n < cap for n, cap in ends)

    def test_jump_stops_at_min_width(self):
        # a jump at 1/3 inside an interval of 3e-14: the first sweep splits it into pieces narrower
        # than min_width = 1e-14, so no panel is worth refining and integrate stops above the goal
        step = lambda x: np.where(x < 1.0 / 3.0, 1.0, 0.0) + 0j
        lo = 1.0 / 3.0 - 1e-14
        value, err, n = quadrature.integrate(step, [lo, lo + 3e-14], 1e-20)
        assert n == 5
        assert err > 1e-20 and err >= abs(value - (1.0 / 3.0 - lo))

    @pytest.mark.parametrize("hi", [2.0, 10.0])
    def test_jump_stops_on_the_roundoff_floor(self, hi):
        # a jump at 1/3 at tol 1e-16: once the panel holding it is narrower than min_width, the
        # panels left carry only their own roundoff charge, and splitting them cannot lower the error;
        # without that stop the sweeps ran to max_panels (1501), against 105 panels on [0, 1]
        step = lambda x: np.where(x < 1.0 / 3.0, 1.0, 0.0) + 0j
        value, err, n = quadrature.integrate(step, [0.0, hi], 1e-16)
        assert n <= 110
        assert err >= abs(value - 1.0 / 3.0)

    def test_empty_interval(self):
        counted, calls = counting(near_pole)
        assert quadrature.integrate(counted, [1.0, 1.0], 1e-10) == (0j, 0.0, 0)
        assert calls == []


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(sorted(CLOSED_FORMS)),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=8),
    log_tol=st.floats(-20.0, -3.0),
    max_panels=st.integers(1, 200),
)
def test_integrate_properties(case, cuts, log_tol, max_panels):
    # from any first edges: at most max_panels + 1 panels past the first sweep, one integrand
    # call per sweep, and an estimate that covers the closed form.  A node t carries a rounding
    # error of up to eps |t|, so f's value one of eps |t f'(t)|; no estimate from f's values sees
    # it, and within 1e-3 of near_pole's pole it passes the roundoff floor (by up to 1.6x at
    # tolerances below 1e-13).  The check allows eps * hi * (the integral of |f'|) for it.
    f, lo, hi, F, variation = CLOSED_FORMS[case]
    edges = [lo, *sorted(lo + (hi - lo) * u for u in cuts), hi]
    counted, calls = counting(f)
    value, err, n = quadrature.integrate(counted, edges, 10.0**log_tol, max_panels=max_panels)
    assert n <= max(max_panels + 1, len(edges) - 1)
    assert calls[0] == (len(edges) - 1, 15)
    assert all(k % 2 == 0 and width == 15 for k, width in calls[1:])
    assert sum(k for k, _ in calls) == n
    assert abs(value - (F(hi) - F(lo))) <= err + quadrature._EPS * hi * variation
