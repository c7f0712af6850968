import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from lerchzeta import (
    DivergentSeries,
    Method,
    NonConvergence,
    Point3,
    dirichlet_series,
    evaluate_principal,
    integral_eval,
    series_eval,
    two_sided_series,
)
from conftest import (
    PI2_6,
    PI2_12,
    TS_MINUS_3_05_05,
    TS_MINUS_4_05_05,
    TS_PLUS_3_03_07,
    TS_PLUS_3_05_05,
    Z_BASE,
    Z_HIGH_IMS,
    Z_INT_A,
    Z_S0_AI_C1,
    Z_SMALL_IM_A_1,
    Z_SMALL_IM_A_2,
)


def alternating_sum_oracle(s: float, c: float, pairs: int = 4_000_000) -> float:
    """sum (-1)^n (n+c)^{-s} by pairwise summation; tail ~ s*(2*pairs)^{-s-... }."""
    m = np.arange(pairs, dtype=np.float64)
    block = (2 * m + c) ** (-s) - (2 * m + 1 + c) ** (-s)
    return float(np.sum(block[::-1]))


def two_sided_oracle(kind: str, s: float, a: float, c: float, n: int = 1_000_000) -> complex:
    k = np.arange(-n, n + 1, dtype=np.float64)
    x = k + c
    terms = np.exp(2j * np.pi * a * k) * np.abs(x) ** (-s)
    if kind == "minus":
        terms = terms * np.sign(x)
    return complex(np.sum(terms))


class TestSeriesValues:
    def test_geometric_closed_form(self):
        # at s = 0, a = i, c = 1 the sum telescopes to 1/(1 - e^{-2 pi})
        lv = series_eval(Point3(0.0, 1j, 1.0), 1e-12)
        want = 1.0 / (1.0 - math.exp(-2.0 * math.pi))
        assert abs(lv.value - want) < 1e-13
        assert abs(lv.value - Z_S0_AI_C1) < 1e-13
        assert lv.method is Method.SERIES

    def test_alternating_value_against_oracle(self):
        got = dirichlet_series(2.0, 0.5, 1.0, 1e-13)
        oracle = alternating_sum_oracle(2.0, 1.0)
        assert abs(oracle - PI2_12) < 5e-13  # oracle is itself tight
        assert abs(got.value - PI2_12) < 1e-12
        assert abs(got.value - oracle) < 1e-12

    def test_hurwitz_path_riemann_point(self):
        got = dirichlet_series(2.0, 1.0, 1.0, 1e-13)
        assert abs(got.value - PI2_6) < 1e-12

    def test_hurwitz_path_against_scipy(self):
        got = dirichlet_series(3.0, 0.0, 1.5, 1e-13)
        assert got.value == pytest.approx(float(hurwitz_zeta(3.0, 1.5)), abs=1e-12)

    @pytest.mark.parametrize("a", [0.0, 2.0])
    def test_integer_a_complex_s_and_c(self, a):
        # integer a takes the same tail as real a, with reduced a = 0
        lv = dirichlet_series(1.5 + 2j, a, 0.3 + 0.4j, 1e-10)
        err = abs(lv.value - Z_INT_A)
        assert err <= 1e-10
        assert err <= lv.abs_err_estimate

    @pytest.mark.parametrize(
        "s, a, c, want",
        [
            (0.497 + 20.5j, 0.215 + 1.8e-6j, 0.895 - 0.519j, Z_SMALL_IM_A_1),
            (1.43 + 23.8j, 0.26 + 3e-6j, 1.02, Z_SMALL_IM_A_2),
        ],
    )
    def test_small_im_a_large_im_s(self, s, a, c, want):
        # the direct sum cannot reach the target at this Im a, so the tail's
        # split point follows Re a and |Im s| as for real a
        lv = dirichlet_series(s, a, c, 1e-10)
        err = abs(lv.value - want)
        assert err <= 1e-10
        assert err <= lv.abs_err_estimate

    def test_base_point_matches_integral(self):
        p = Point3(0.5, 0.5, 0.5)
        vs = series_eval(p, 1e-10)
        vi = integral_eval(p, target_abs_err=1e-13)
        assert abs(vs.value - vi.value) <= vs.abs_err_estimate + vi.abs_err_estimate
        assert abs(vs.value - Z_BASE) < 1e-12

    def test_large_imaginary_s(self):
        got = dirichlet_series(0.5 + 5j, 0.35, 0.65, 1e-11)
        assert abs(got.value - Z_HIGH_IMS) < 1e-10

    def test_tail_overflow_stays_silent(self):
        # the Abel-Plana boundary integrand divides by e^{2 pi y} - 1, which
        # overflows to inf past y ~ 113, where the quotient is rightly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lv = evaluate_principal(-1.9532 + 13.7579j, -0.6735 - 0.5980j, -47.507)
        assert cmath.isfinite(lv.value)

    def test_error_estimate_is_reported_bound(self, rng):
        for _ in range(20):
            s = complex(rng.uniform(-1, 3), rng.uniform(-3, 3))
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(0.05, 1.0))
            c = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.3, 0.3))
            lv = dirichlet_series(s, a, c, 1e-11)
            check = dirichlet_series(s, a, c, 1e-13)
            assert abs(lv.value - check.value) <= lv.abs_err_estimate + check.abs_err_estimate


class TestTailOracle:
    def test_seeded_tail_sweep(self, rng):
        """The Abel-Plana tail against mpmath at 30 digits: true error <= abs_err_estimate.

        Every point takes the tail: real a with Re s > 0, integer a with
        Re s > 1 (oracle zeta(s, c)), and 0 < Im a <= 1e-6, where the direct
        sum cannot reach the target.
        """
        for k in range(40):
            kind = k % 5  # 0, 1: real a; 2: integer a; 3, 4: small Im a
            s = complex(rng.uniform(1.1 if kind == 2 else 0.1, 3.0), rng.uniform(-15.0, 15.0))
            if kind == 2:
                a = complex(rng.randint(-1, 2), 0.0)
            else:
                a = complex(rng.uniform(-1.0, 2.0), 0.0 if kind < 2 else 10 ** rng.uniform(-9.0, -6.0))
            c = complex(rng.uniform(0.1, 2.0), rng.uniform(-0.5, 0.5))
            lv = dirichlet_series(s, a, c, 1e-10)
            with mpmath.workdps(30):
                if kind == 2:
                    want = mpmath.zeta(mpmath.mpc(s), mpmath.mpc(c))
                else:
                    z = mpmath.exp(2j * mpmath.pi * mpmath.mpc(a))
                    want = mpmath.lerchphi(z, mpmath.mpc(s), mpmath.mpc(c))
            err = abs(lv.value - complex(want))
            assert err <= lv.abs_err_estimate, (k, s, a, c, err, lv.abs_err_estimate)


class TestDirectSumOracle:
    def test_seeded_direct_sum_sweep(self, rng):
        """The direct partial sum against mpmath at 30 digits: true error <= abs_err_estimate.

        With Im a >= 0.05 the geometric tail bound reaches the target after a
        few hundred terms, so every point takes the direct sum.  The 40 points
        are the first 40 of the conftest seed, drawn once and kept: here the
        largest error/estimate is 0.69, while a roundoff floor of
        4 eps sum |terms|, without the phase-error factor |s| log(n0 + |c| + 1),
        lets 5 of them through with ratios up to 2.7.
        """
        for k in range(40):
            s = complex(rng.uniform(-3.0, 3.0), rng.uniform(-25.0, 25.0))
            a = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.05, 0.6))
            c = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
            lv = dirichlet_series(s, a, c, 1e-10)
            with mpmath.workdps(30):
                z = mpmath.exp(2j * mpmath.pi * mpmath.mpc(a))
                want = mpmath.lerchphi(z, mpmath.mpc(s), mpmath.mpc(c))
            err = abs(lv.value - complex(want))
            assert err <= lv.abs_err_estimate, (k, s, a, c, err, lv.abs_err_estimate)


class TestSeriesDomain:
    def test_lower_half_plane_rejected(self):
        with pytest.raises(DivergentSeries):
            dirichlet_series(2.0, 0.3 - 0.2j, 1.0)

    def test_real_a_needs_positive_re_s(self):
        with pytest.raises(DivergentSeries):
            dirichlet_series(-0.5, 0.3, 1.0)

    def test_integer_a_needs_re_s_above_one(self):
        with pytest.raises(DivergentSeries):
            dirichlet_series(0.9, 1.0, 1.0)

    @pytest.mark.parametrize("a", [0.0, 2.0])
    def test_integer_a_on_re_s_one(self, a):
        # Hermite's formula makes the tail exact on Re s = 1 as well; s = 1 is the pole
        c = 0.3 + 0.4j
        lv = dirichlet_series(1 + 2j, a, c, 1e-10)
        with mpmath.workdps(30):
            want = complex(mpmath.zeta(mpmath.mpc(1, 2), mpmath.mpc(c)))
        err = abs(lv.value - want)
        assert err <= 1e-10
        assert err <= lv.abs_err_estimate
        with pytest.raises(DivergentSeries):
            dirichlet_series(1.0, a, c)

    def test_nonpositive_re_c_rejected(self):
        with pytest.raises(DivergentSeries):
            dirichlet_series(2.0, 0.5j, -0.5)

    def test_hopeless_oscillation_rate_raises(self):
        with pytest.raises(NonConvergence):
            dirichlet_series(0.5, 1e-9, 0.5, 1e-10)


class TestSeriesInvariants:
    def test_periodicity_exact_at_dyadic_a(self):
        # a + 1 is exactly representable, so reduction makes the two term-by-term identical
        s, c = 1.3 + 0.4j, 0.75
        for a in (0.25 + 0.5j, 0.375 + 0.125j, 0.5 + 1.0j):
            v1 = dirichlet_series(s, a, c, 1e-12)
            v2 = dirichlet_series(s, a + 1.0, c, 1e-12)
            assert v1.value == v2.value

    @pytest.mark.parametrize("n_shift", [1, 5, 10])
    def test_index_shift_identity(self, n_shift, rng):
        # zeta(s,a,c) = sum_{n<=N} e^{2pi i n a}(n+c)^{-s} + e^{2pi i (N+1) a} zeta(s,a,c+N+1)
        for _ in range(5):
            s = complex(rng.uniform(-0.5, 2.5), rng.uniform(-1.5, 1.5))
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.8))
            c = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.3, 0.3))
            lhs = dirichlet_series(s, a, c, 1e-12).value
            partial = sum(
                cmath.exp(2j * math.pi * n * a) * (n + c) ** (-s) for n in range(n_shift + 1)
            )
            rest = dirichlet_series(s, a, c + n_shift + 1, 1e-12).value
            rhs = partial + cmath.exp(2j * math.pi * (n_shift + 1) * a) * rest
            assert abs(lhs - rhs) < 1e-10


class TestTwoSided:
    def test_plus_cancels_at_center(self):
        got = two_sided_series("plus", 3.0, 0.5, 0.5)
        assert abs(got - TS_PLUS_3_05_05) < 1e-12

    def test_plus_against_direct_sum(self):
        got = two_sided_series("plus", 3.0, 0.3, 0.7)
        oracle = two_sided_oracle("plus", 3.0, 0.3, 0.7)
        assert abs(got - oracle) < 5e-11  # oracle tail ~ 1e-12, fft phase noise dominates
        assert abs(got - TS_PLUS_3_03_07) < 1e-11

    def test_minus_is_real_at_symmetric_point(self):
        got = two_sided_series("minus", 4.0, 0.5, 0.5)
        assert abs(got.imag) < 1e-12
        assert abs(got - TS_MINUS_4_05_05) < 1e-11
        got3 = two_sided_series("minus", 3.0, 0.5, 0.5)
        assert abs(got3 - TS_MINUS_3_05_05) < 1e-11

    def test_requires_re_s_above_one(self):
        with pytest.raises(DivergentSeries):
            two_sided_series("plus", 1.0, 0.3, 0.7)
