import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from lerchzeta import (
    BranchState,
    CutViolation,
    DivergentSeries,
    InvalidPoint,
    InvalidRegion,
    Method,
    NonConvergence,
    Point3,
    dirichlet_series,
    evaluate_on_cover,
    evaluate_principal,
    integral_eval,
    monodromy_space_basis,
    residue_discrepancy,
    series_eval,
    two_sided_series,
)
from lerchzeta import evaluator, quadrature
from lerchzeta.branching import branched_pow
from lerchzeta.monodromy import branch_monodromy
from conftest import (
    PI2_6,
    PI2_12,
    TS_MINUS_3_05_05,
    TS_MINUS_4_05_05,
    TS_PLUS_3_03_07,
    TS_PLUS_3_05_05,
    Z_BASE,
    Z_DIRECT_SUM,
    Z_FAR_LEFT,
    Z_HIGH_IMS,
    Z_INT_A,
    Z_LONG_DIRECT,
    Z_S0_AI_C1,
    Z_SMALL_IM_A_1,
    Z_SMALL_IM_A_2,
    Z_SMALL_IM_A_3,
    Z_TAIL_SWEEP,
    by_transform,
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

    def test_tail_below_roundoff_ends_below_max_panels(self, monkeypatch):
        # an index shift in c asks the boundary integral for 7.7e-25; as the difference
        # g(n0+iy) - g(n0-iy), which cancels as y -> 0, it ran to max_panels = 1500
        integrate = quadrature.integrate
        ends = []

        def counted(*args, **kwargs):
            result = integrate(*args, **kwargs)
            ends.append((result[2], kwargs.get("max_panels", 1500)))
            return result

        monkeypatch.setattr(quadrature, "integrate", counted)
        lv = evaluate_principal(-1.0184 + 12.6086j, 2.1746 - 0.5493j, -7.7024)
        assert ends and all(n < cap for n, cap in ends)
        # the value and estimate the difference gave
        value, estimate = -3.4988645147520396e27 + 1.2947798453965262e27j, 279408929736871.8
        assert abs(lv.value - value) <= lv.abs_err_estimate
        assert abs(lv.abs_err_estimate - estimate) <= lv.abs_err_estimate

    def test_error_estimate_is_reported_bound(self, rng):
        for _ in range(20):
            s = complex(rng.uniform(-1, 3), rng.uniform(-3, 3))
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(0.05, 1.0))
            c = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.3, 0.3))
            lv = dirichlet_series(s, a, c, 1e-11)
            check = dirichlet_series(s, a, c, 1e-13)
            assert abs(lv.value - check.value) <= lv.abs_err_estimate + check.abs_err_estimate


class TestTailOracle:
    def test_seeded_tail_sweep(self):
        """The Abel-Plana tail against frozen mpmath values at 30 digits: true error <= abs_err_estimate.

        Every point takes the tail: real a with Re s > 0, integer a with
        Re s > 1 (oracle zeta(s, c)), and 0 < Im a <= 1e-6, where the direct
        sum cannot reach the target.
        """
        for k, ((s, a, c), want) in enumerate(Z_TAIL_SWEEP):
            lv = dirichlet_series(s, a, c, 1e-10)
            err = abs(lv.value - want)
            assert err <= lv.abs_err_estimate, (k, s, a, c, err, lv.abs_err_estimate)


class TestDirectSumOracle:
    def test_seeded_direct_sum_sweep(self):
        """The direct partial sum against mpmath at 30 digits: true error <= abs_err_estimate.

        With Im a >= 0.05 the geometric tail bound reaches the target after a
        few hundred terms, so every point takes the direct sum.  The 40 points
        are the first 40 of the conftest seed, drawn once and kept with their
        frozen references (Z_DIRECT_SUM): here the largest error/estimate is
        0.78 under the per-term charge 4 eps |term| (1 + |2 pi a j| +
        |s log(j + c)|) (0.69 under the former 4 eps sum |terms|
        (1 + |s| log(n0 + |c| + 1))), while 4 eps sum |terms| alone lets 5 of
        them through with ratios up to 2.7.
        """
        for k, ((s, a, c), want) in enumerate(Z_DIRECT_SUM):
            lv = dirichlet_series(s, a, c, 1e-10)
            err = abs(lv.value - want)
            assert err <= lv.abs_err_estimate, (k, s, a, c, err, lv.abs_err_estimate)


class TestDirectOrAbelPlana:
    """A direct sum serves only while it is at most _DIRECT_MARGIN terms longer than the
    Abel-Plana split point; a longer one gives way to the tail."""

    @pytest.mark.parametrize("point,branch,want", Z_LONG_DIRECT)
    def test_pool_points_sum_no_longer_than_the_margin(self, monkeypatch, point, branch, want):
        lengths = []
        partial_sum = evaluator._partial_sum

        def recorded(s, alpha, c, lo, hi):
            lengths.append((hi - lo, evaluator._split_point(s, alpha)))
            return partial_sum(s, alpha, c, lo, hi)

        monkeypatch.setattr(evaluator, "_partial_sum", recorded)
        lv = by_transform(*point, 1e-10)
        extra, roundoff = branch_monodromy(BranchState.from_dicts(*branch), *map(complex, point))
        assert lengths and all(n <= split + evaluator._DIRECT_MARGIN for n, split in lengths)
        assert abs(lv.value + extra - want) <= lv.abs_err_estimate + roundoff
        # the dispatch takes the integral, whose ray needs no series
        lv = evaluate_on_cover(Point3(*point), BranchState.from_dicts(*branch), 1e-10)
        assert lv.method is Method.INTEGRAL
        assert abs(lv.value - want) <= lv.abs_err_estimate

    def test_direct_sum_past_the_split_cap(self, monkeypatch):
        # Im s = 30 at Re a = 1e-4 puts the split point past _SPLIT_CAP, so no Abel-Plana tail serves;
        # the direct sum does, here past _SPLIT_CAP + _DIRECT_MARGIN, where it would raise NonConvergence
        lengths = []
        partial_sum = evaluator._partial_sum

        def recorded(s, alpha, c, lo, hi):
            lengths.append(hi - lo)
            return partial_sum(s, alpha, c, lo, hi)

        monkeypatch.setattr(evaluator, "_partial_sum", recorded)
        s, a, c = 0.5 + 30j, 1e-4 + 2e-4j, 0.5
        lv = dirichlet_series(s, a, c, 1e-20)
        with mpmath.workdps(40):
            want = complex(mpmath.lerchphi(mpmath.exp(2j * mpmath.pi * mpmath.mpc(a)), s, c))
        assert evaluator._split_point(s, a) is None
        assert lengths and max(lengths) > evaluator._SPLIT_CAP + evaluator._DIRECT_MARGIN
        assert abs(lv.value - want) <= min(lv.abs_err_estimate, 1e-13)

    def test_split_point_cap_holds_for_imaginary_alpha(self):
        # |Im s| / pi alone sets the split point where Re alpha = 0; past _SPLIT_CAP there is none either (at
        # s = 1e300i the series summed 1e299 terms, more than numpy can make an array of)
        assert evaluator._split_point(1.2e5j, 0.4j) == 38198
        assert evaluator._split_point(1.3e5j, 0.4j) is None
        assert evaluator._split_point(1e300j, 0.4j) is None

    def test_window_past_the_term_cap_raises(self):
        # at Re c = -1e300 the terms before Re(j + c) reaches 0.6 number 1e300, where n + Re c rounds to 0
        with pytest.raises(NonConvergence, match="window"):
            dirichlet_series(23.3, 0.3 + 0.5j, -1e300 + 1j)
        with pytest.raises(NonConvergence, match="window"):  # a window of _TERM_CAP + 1 terms
            dirichlet_series(2.0, 0.3 + 0.5j, -evaluator._TERM_CAP + 0.5j)

    def test_small_im_a_answers_by_series(self):
        # a direct sum would need 32768 terms; while any up to 300 000 terms served, the series
        # missed its target there and the transform answered
        lv = evaluate_principal(-0.5 + 2j, 0.3 + 0.0002j, 0.7, 1e-10)
        assert lv.method is Method.SERIES
        assert abs(lv.value - Z_SMALL_IM_A_3) <= min(lv.abs_err_estimate, 1e-10)

    @pytest.mark.parametrize("point,want", Z_FAR_LEFT)
    def test_far_left_goes_on_to_the_transform(self, point, want):
        # the series' value and estimate are NaN at the first and the third point (Re c < 0, summed from
        # j = 0); the tail's truncation bounds overflow at the second.  The series raises NonConvergence
        # at all three, so the dispatch goes on to the transform
        lv = evaluate_principal(*point, 1e-10)
        assert lv.method is Method.TRANSFORM
        assert abs(lv.value - want) <= lv.abs_err_estimate

    @pytest.mark.parametrize("point", [p for p, _ in Z_FAR_LEFT])
    def test_far_left_series_raises(self, point):
        # the series names its own overflow, also where its value is a NaN product that raised nothing itself
        with pytest.raises(NonConvergence, match="^series overflows"):
            dirichlet_series(*point, 1e-10)

    @pytest.mark.parametrize(
        "point,bits,want",
        [
            (
                (-99.80344504412413 - 0.011105409967784008j, -1.4368727437487032 + 0.0003346572595215068j,
                 11.204031509065635 - 0.44634950442973187j),
                ("-0x1.447a5ed0b0715p+376", "-0x1.50b945ea3d5a3p+378", "0x1.3f83bf9b69843p+338"),
                complex(-1.9508490801472624592e113, -8.0978944230998134309e113),
            ),
            (
                (-102.62239329105572 + 2.411146907822711j, 0.5778815891100955 + 1.9494742608508472e-05j,
                 -0.02559797684156229 + 0.9492217541718502j),
                ("-0x1.0dabe49acf03cp+386", "-0x1.1cd743f672019p+387", "0x1.4fb147b637393p+346"),
                complex(-1.660249440463241491e116, -3.5072819216896702696e116),
            ),
            (
                (-95.41771714382455 - 39.41223513389904j, 0.6764950173666104 + 0.43675101591913407j,
                 1918.1223154119516 + 0.7471840232984202j),
                None,
                None,
            ),
        ],
    )
    def test_far_left_series_overflow_stays_quiet(self, point, bits, want):
        # the series' tail integrands (the first two) and its partial sum (the third) overflow; numpy
        # warned from quadrature._panels and _partial_sum.  Under np.errstate the series raises
        # NonConvergence, and the dispatch answers as it did with warnings off: the first two by
        # the transform, to the bit, and the third with NonConvergence from the index shift in c.
        # The transform's inner values keep the series where its estimate is the smaller; want is
        # mpmath lerchphi at 60 digits (|Im s| <= 2.4, inside its reliable range)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if bits is None:
                with pytest.raises(NonConvergence):
                    evaluate_principal(*point, 1e-10)
                return
            lv = evaluate_principal(*point, 1e-10)
        assert lv.method is Method.TRANSFORM
        assert (lv.value.real.hex(), lv.value.imag.hex(), lv.abs_err_estimate.hex()) == bits
        assert abs(lv.value - want) <= lv.abs_err_estimate


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

    def test_nonpositive_re_c_answers(self):
        # the sum starts at j = 0 for every c off the c-cuts; here its first term is (-0.5)^{-2} = 4
        lv = dirichlet_series(2.0, 0.5j, -0.5)
        want = sum(math.exp(-math.pi * j) * (j - 0.5) ** -2.0 for j in range(40))
        assert abs(lv.value - want) <= lv.abs_err_estimate <= 1e-12
        for c in (-1.0, -2.0 - 0.5j):  # a puncture, and a point on the cut below it
            with pytest.raises(CutViolation):
                dirichlet_series(2.0, 0.5j, c)

    def test_hopeless_oscillation_rate_raises(self):
        with pytest.raises(NonConvergence):
            dirichlet_series(0.5, 1e-9, 0.5, 1e-10)

    def test_direct_sum_bound_overflow_raises(self):
        # the direct sum's geometric bound carries n^{300}, past math.exp's range
        with pytest.raises(NonConvergence, match="overflows"):
            dirichlet_series(-300, 0.3 + 1j, 1000)


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
        # zeta(s,a,c) = sum_{n<=N} e^{2pi i n a}(n+c)^{-s} + e^{2pi i (N+1) a} zeta(s,a,c+N+1), with fixed
        # points at Re c <= 0, where the series starts at n = 0 as elsewhere and (n+c)^{-s} takes the
        # package's branch: below the real axis it differs from Python's left of the imaginary one
        points = [(2.0, 0.5j, -0.5), (0.7 - 3j, 0.3 + 0.4j, -2.5 - 0.7j), (-1.5 + 2j, 0.2 + 0.3j, -10.3 + 0.4j),
                  (0.4 + 1j, 0.6 + 0.25j, -0.02 - 0.1j), (1.5, 0.45 + 0.5j, -7.0 + 0.3j)]
        for _ in range(5):
            s = complex(rng.uniform(-0.5, 2.5), rng.uniform(-1.5, 1.5))
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.8))
            c = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.3, 0.3))
            points.append((s, a, c))
        for s, a, c in points:
            lhs = dirichlet_series(s, a, c, 1e-12).value
            partial = sum(
                cmath.exp(2j * math.pi * n * a) * branched_pow(n + c, -s) for n in range(n_shift + 1)
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

    @pytest.mark.parametrize("a, c", [(1.2, 0.7), (0.3, 0.0)])
    def test_requires_a_and_c_in_the_unit_interval(self, a, c):
        with pytest.raises(InvalidRegion):
            two_sided_series("minus", 3.0, a, c)


_A_ENCLOSED = 1 - 0.5j / (2 * math.pi) + 0.01  # inside residue_discrepancy's half-disk for n = 1, u = 0.5, eps = 0.2


class TestNonFiniteInput:
    # each entry admits its coordinates through domain.finite_coordinates
    @pytest.mark.parametrize(
        "call",
        [
            lambda: two_sided_series("plus", complex(2.0, math.nan), 0.3, 0.4),
            lambda: two_sided_series("minus", 2.0, math.inf, 0.4),
            lambda: dirichlet_series(math.nan, 0.3 + 0.1j, 1.0),
            lambda: dirichlet_series(2.0, 0.3 + 0.1j, math.inf),
            lambda: dirichlet_series(2.0, complex(0.3, math.inf), 1.0),
            lambda: residue_discrepancy(math.nan, _A_ENCLOSED, 0.5, 1, 0.5, 0.2),
            lambda: residue_discrepancy(0.6, _A_ENCLOSED, complex(0.5, -math.inf), 1, 0.5, 0.2),
            lambda: monodromy_space_basis(math.nan),
            lambda: monodromy_space_basis(complex(-math.inf, 0.0)),
        ],
        ids=["two_sided_s", "two_sided_a", "series_s", "series_c", "series_a", "residue_s", "residue_c",
             "basis_nan", "basis_inf"],
    )
    def test_raises_invalid_point(self, call):
        with pytest.raises(InvalidPoint, match="is not finite"):
            call()
