import cmath
import math
import random
import warnings

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from lerchzeta import (
    ContourHitsPole,
    CutViolation,
    DerivativeCircleLeavesDomain,
    InvalidPoint,
    InvalidRegion,
    LerchError,
    LerchValue,
    Method,
    NonConvergence,
    Point3,
    SZero,
    dde_shift,
    dirichlet_series,
    evaluate_on_cover,
    evaluate_principal,
    integral_eval,
    monodromy_generator,
    pde_residual,
    residue_discrepancy,
    series_eval,
    transform_eval,
)
from lerchzeta import continuation
from lerchzeta.branching import branched_pow
from lerchzeta.continuation import dde_lower_residual, dde_raise_residual
from lerchzeta.words import BranchState, Generator
from conftest import (
    Z_05_03_02i_07,
    Z_07_03i04_m15,
    Z_BASE,
    Z_C2,
    Z_EDGE_A_0,
    Z_EDGE_A_1,
    Z_COVER_500,
    Z_FAR_LEFT_TRANSFORM,
    Z_INNER_SHIFT,
    Z_NEAR_CUT,
    Z_1_I_1,
    Z_2_I_1,
    Z_INT_C_1,
    Z_INT_C_2,
    Z_INT_C_3,
    Z_INT_RE_C,
    Z_INT_RE_C_SWEEP,
    Z_M05_04_06,
    Z_NEAR_RE_C,
    Z_NEXT_TO_RE_C,
    Z_M3_05_05,
    Z_REAL_A_30,
    Z_REAL_A_30_C,
    Z_REAL_A_60,
    Z_REAL_A_M45,
    Z_SERIES_FALLBACK,
    Z_SERIES_KEPT,
    Z_SHIFT_LONG_PHASE,
    Z_SHIFT_SMALL_C,
    Z_SHIFTED_HURWITZ,
    Z_TINY_RE_C,
    by_transform,
)


class TestClassify:
    """The route the dispatch reports in each region; each route owns its region."""

    def test_series_region(self):
        lv = evaluate_principal(2.0, 1j, 1.0, 1e-12)
        assert lv.method is Method.SERIES
        assert abs(lv.value - Z_2_I_1) < 1e-12

    @pytest.mark.parametrize(
        "s, method",
        # left of the strip the transform; on the strip the integral, but at Gamma's poles,
        # where the integral raises, the transform again
        [(-4.5, Method.TRANSFORM), (-3.0, Method.TRANSFORM), (-0.5, Method.INTEGRAL), (-2.5 + 1j, Method.INTEGRAL)],
    )
    def test_polycylinder_any_s(self, s, method):
        assert evaluate_principal(s, 0.5, 0.5).method is method

    def test_puncture_rejected(self):
        with pytest.raises(InvalidPoint):
            evaluate_principal(0.5, 0.5, 0.0)

    def test_integral_region(self):
        assert evaluate_principal(1.5, 0.4 - 0.3j, 2.0).method is Method.INTEGRAL

    @pytest.mark.parametrize(
        "s, method",
        # Re s <= -sigma0 needs the transform; the pole s = -1 falls back to it from the integral
        [(-4.5, Method.TRANSFORM), (-1.0, Method.TRANSFORM), (-1.3, Method.INTEGRAL)],
    )
    def test_transform_needed_for_shiftable_c(self, s, method):
        assert evaluate_principal(s, 0.5, -0.5 - 0.2j).method is method

    @pytest.mark.parametrize("s, method", [(-4.5, Method.TRANSFORM), (-1.3, Method.INTEGRAL)])
    def test_ladder_fallback(self, s, method):
        # Re s <= 0, Re a outside (0, 1) and Im a <= 0: the transform (Re s <= -sigma0) or the
        # integral (the strip) after the reduction of a by its period
        lv = evaluate_principal(s, 1.5 - 0.2j, 0.5, 1e-11)
        assert lv.method is method
        assert abs(lv.value - evaluate_principal(s, 0.5 - 0.2j, 0.5, 1e-11).value) < 1e-12

    def test_total_on_valid_points(self, rng):
        # on seeded random points only LerchError escapes; every fourth a is
        # real and every fifth c lies on a line where Re c is an integer
        for i in range(200):
            s = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            a = complex(rng.uniform(-3, 3) + 0.017, rng.uniform(-2, 2) if i % 4 else 0.0)
            c = complex(rng.uniform(-3, 3) + 0.013 if i % 5 else rng.randint(-2, 3), rng.uniform(-2, 2))
            try:
                lv = evaluate_principal(s, a, c)
            except LerchError:
                continue
            assert cmath.isfinite(lv.value)


class TestTransform:
    def test_left_halfplane_value(self):
        lv = transform_eval(Point3(-0.5, 0.4, 0.6), 1e-10)
        assert abs(lv.value - Z_M05_04_06) < 1e-9
        assert lv.method is Method.TRANSFORM

    def test_base_point_self_consistency(self):
        lv = transform_eval(Point3(0.5, 0.5, 0.5), 1e-11)
        assert abs(lv.value - Z_BASE) < 1e-10

    def test_special_value_vanishing_point(self):
        lv = evaluate_principal(-3.0, 0.5, 0.5, 1e-10)
        assert abs(lv.value - Z_M3_05_05) < 1e-9

    def test_gamma_overflow_raises(self):
        # at s = -200.5 the value, about e^{734}, is past binary64 (its coefficients, about e^{492}, are not)
        with pytest.raises(NonConvergence, match="overflows"):
            transform_eval(Point3(-200.5, 0.3, 0.4))

    @pytest.mark.parametrize("s, want", Z_FAR_LEFT_TRANSFORM)
    def test_far_left_coefficients_in_log_scale(self, s, want):
        # Gamma(1 - s) is past binary64 at s = -175.5, and so is (2 pi)^{s-1} Gamma(1 - s) at s = -160.5; each
        # coefficient is one exp of a sum of logs, and the value is in range
        lv = evaluate_principal(s, 0.3 + 0.1j, 0.4)
        assert lv.method is Method.TRANSFORM
        assert abs(lv.value - want) <= lv.abs_err_estimate <= 1e-11 * abs(want)

    def test_outside_polycylinder_rejected(self):
        with pytest.raises(InvalidRegion):
            transform_eval(Point3(0.5, 1.2, 0.5))
        with pytest.raises(InvalidRegion):
            transform_eval(Point3(1.5, 0.5, 0.5))

    def test_matches_descent_route(self):
        # value at (-0.5, 0.4, 0.6) via the transformation formula versus two
        # lowering steps from (1.5, 0.4, 0.6)
        v_transform = transform_eval(Point3(-0.5, 0.4, 0.6), 1e-10).value
        mid = dde_shift(Point3(1.5, 0.4, 0.6), "lower", 1e-10)
        low = dde_shift(Point3(0.5, 0.4, 0.6), "lower", 1e-10)
        assert abs(mid.value - evaluate_principal(0.5, 0.4, 0.6, 1e-11).value) < 1e-9
        assert abs(low.value - v_transform) < 1e-9


class TestDdeShift:
    def test_lower_matches_series(self):
        lv = dde_shift(Point3(2.0, 1j, 1.0), "lower", 1e-9)
        assert abs(lv.value - Z_1_I_1) < 1e-9
        assert lv.method is Method.DDE_SHIFT

    def test_chained_lower_consistency(self):
        # two lowering steps from s = 2.5 against the direct route at s = 0.5
        first = dde_shift(Point3(2.5, 0.3 + 0.2j, 0.7), "lower", 1e-9)
        assert abs(first.value - evaluate_principal(1.5, 0.3 + 0.2j, 0.7, 1e-11).value) < 1e-8
        second = dde_shift(Point3(1.5, 0.3 + 0.2j, 0.7), "lower", 1e-9)
        assert abs(second.value - Z_05_03_02i_07) < 1e-7

    def test_raise_rejected_at_zero(self):
        with pytest.raises(SZero):
            dde_shift(Point3(0.0, 1j, 1.0), "raise")

    def test_value_is_c_independent_at_s_zero(self):
        # at s = 0 the sum telescopes to 1/(1 - e^{2 pi i a}), independent of c
        v1 = dirichlet_series(0.0, 0.4j, 0.7, 1e-13).value
        v2 = dirichlet_series(0.0, 0.4j, 1.9, 1e-13).value
        assert abs(v1 - v2) < 1e-12

    def test_raise_step(self):
        lv = dde_shift(Point3(1.0, 1j, 1.0), "raise", 1e-9)
        want = dirichlet_series(2.0, 1j, 1.0, 1e-13).value
        assert abs(lv.value - want) < 1e-9


def _zero_route(s, a, c, target):
    return LerchValue(0j, Method.SERIES, 0.0)


def _shift_c_loop(s, a, c, n):
    """The index shift's correction term, summed one term at a time with branched_pow."""
    partial = sum(
        cmath.exp(2j * math.pi * a * (j - n)) * branched_pow(j + c, -s) for j in range(min(n, 0), max(n, 0))
    )
    return cmath.exp(2j * math.pi * a * n) * math.copysign(1.0, n) * partial


class TestShiftC:
    @pytest.mark.parametrize("n", [1, 3, -1, -3])
    @pytest.mark.parametrize(
        "s, a, c",
        [
            (-0.5 + 2j, 0.3 - 0.1j, -2.7 - 0.4j),
            (0.7 - 3j, 0.45 + 0.2j, -0.3 - 1.2j),
            # atan2(Im, Re) of j + c rounds to -pi/2 at j = 0; the sign of Re picks the side
            (1.5 - 0.5j, 0.2 + 0.1j, -1e-300 - 1j),
            (1.5 - 0.5j, 0.2 + 0.1j, 1e-300 - 1j),
        ],
    )
    def test_partial_sum_matches_loop(self, s, a, c, n):
        # Re(j + c) < 0 for every j when n < 0, and Im c < 0 throughout
        lv = continuation._shift_c(s, a, c, n, 1e-10, _zero_route)
        assert abs(lv.value - _shift_c_loop(s, a, c, n)) <= lv.abs_err_estimate

    @pytest.mark.parametrize("n", [-10000, 10000])
    def test_ten_thousand_terms_match_loop(self, n):
        lv = continuation._shift_c(-0.5, 0.3, 1e4 + 0.5, n, 1e-10, _zero_route)
        assert abs(lv.value - _shift_c_loop(-0.5, 0.3, 1e4 + 0.5, n)) <= lv.abs_err_estimate

    def test_far_re_c_against_mpmath(self):
        lv = evaluate_principal(-0.5, 0.3, 1e4 + 0.5)
        with mpmath.workdps(30):
            want = complex(mpmath.lerchphi(mpmath.exp(0.6j * mpmath.pi), -0.5, mpmath.mpf(10000.5)))
        assert abs(lv.value - want) <= lv.abs_err_estimate

    def test_overflowing_term_raises_without_a_warning(self):
        # |j + c|^{-s} reaches 1e800 at s = -200; the non-finite sum ends in LerchValue's NonConvergence
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="overflows"):
                continuation._shift_c(-200.0, 0.3, 1e4 + 0.5, -10000, 1e-10, _zero_route)

    @pytest.mark.parametrize("point, want", Z_SHIFT_SMALL_C)
    def test_phase_error_of_a_small_term(self, point, want):
        # the j = 0 term c^{-s} dominates; its phase error is |s log c|, about 38 (14 + i pi)
        lv = evaluate_principal(*point)
        assert abs(lv.value - want) <= lv.abs_err_estimate

    def test_phase_error_of_the_exponentials(self):
        # the shift by -48 passes phases up to 2 pi |a| 48, about 110, to exp; without their
        # roundoff in the estimate the error is 2.6e-15 against an estimate of 9.2e-16
        lv = evaluate_principal(-0.114 - 0.222j, -0.169 - 0.362j, 48.43)
        assert abs(lv.value - Z_SHIFT_LONG_PHASE) <= lv.abs_err_estimate

    def test_term_on_the_cut_raises(self):
        # j + c = -0.5i at j = 2
        with pytest.raises(CutViolation):
            continuation._shift_c(0.5, 0.2, -2.0 - 0.5j, 3, 1e-10, _zero_route)


class TestEvaluatePrincipal:
    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda t: evaluate_principal(2, 0.3, 0.5, t),
            lambda t: evaluate_principal(2, 0.3 - 0.2j, 0.5, t),
            lambda t: evaluate_on_cover(Point3(2, 0.3, 0.5), BranchState.from_dicts({0: 1}, {}), t),
            lambda t: dirichlet_series(2, 0.3, 0.5, t),
            lambda t: series_eval(Point3(2, 0.3, 0.5), t),
            lambda t: integral_eval(Point3(2, 0.3 - 0.2j, 0.5), target_abs_err=t),
            lambda t: transform_eval(Point3(-1.5, 0.3, 0.5), t),
            lambda t: residue_discrepancy(0.6, 1 - 0.5j / (2 * math.pi) + 0.01, 0.5, 1, 0.5, 0.2, t),
        ],
        ids=["principal", "principal_im_a", "cover", "dirichlet_series", "series_eval", "integral_eval",
             "transform_eval", "residue_discrepancy"],
    )
    def test_bad_target_is_refused(self, entry, target):
        # a NaN target answered with estimate 0.20 (evaluate_principal, dirichlet_series) or 0.014
        # (transform_eval), and -1 raised NonConvergence from the ray's cutoff
        with pytest.raises(InvalidPoint, match="target_abs_err"):
            entry(target)

    def test_zero_target_answers(self):
        lv = evaluate_principal(2, 0.3, 0.5, 0.0)
        assert lv.method is Method.SERIES and 0.0 < lv.abs_err_estimate < 1e-13

    def test_negative_re_c_shift(self):
        lv = evaluate_principal(0.7, 0.3 + 0.4j, -1.5 + 0.3j, 1e-10)
        assert abs(lv.value - Z_07_03i04_m15) < 1e-9

    def test_removable_positive_integer_c(self):
        lv = evaluate_principal(0.7, 0.3 + 0.4j, 2.0, 1e-11)
        assert abs(lv.value - Z_C2) < 1e-10

    def test_richardson_limit_at_removable_point(self):
        base = evaluate_principal(0.7, 0.3 + 0.4j, 2.0, 1e-12).value
        errs = []
        for delta in (1e-3, 1e-4, 1e-5):
            v = evaluate_principal(0.7, 0.3 + 0.4j, 2.0 + delta, 1e-12).value
            errs.append(abs(v - base))
        # first-order convergence in delta
        assert errs[1] < 0.2 * errs[0]
        assert errs[2] < 0.2 * errs[1]

    @pytest.mark.parametrize("s, a, c", [(0.5, 0.3 + 2j, -300.5), (-0.5, 0.3 - 0.5j, 300.5)])
    def test_large_index_shift_in_c(self, s, a, c):
        # e^{2 pi i a n} over a shift by n ~ 300 leaves the binary64 range
        try:
            lv = evaluate_principal(s, a, c)
        except LerchError:
            return
        assert cmath.isfinite(lv.value)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.floats(1e-3, 3.0, exclude_min=True),
        st.floats(-40.0, 40.0),
        st.one_of(st.floats(0.0, 1.0), st.floats(-1e-3, 1e-3), st.floats(1.0 - 1e-3, 1.0 + 1e-3)),
        st.floats(-0.5, 0.0, exclude_max=True),
        st.floats(-300.0, 300.0),
        st.floats(-3.0, 3.0),
    )
    def test_total_on_integral_region(self, sr, si, ar, ai, cr, ci):
        # Re s > 0 and Im a < 0 is the integral's region: Re a within 1e-3 of an
        # integer brings a pole to t = 0, and |Re c| up to 300 reaches both
        # the index-shift overflow guard and a steep e^{-ct}
        try:
            lv = evaluate_principal(complex(sr, si), complex(ar, ai), complex(cr, ci))
        except LerchError:
            return
        assert cmath.isfinite(lv.value)
        assert math.isfinite(lv.abs_err_estimate)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.floats(-3.0, 0.0),
        st.floats(-12.0, 12.0),
        st.floats(0.0, 1.0),
        st.floats(-0.5, 0.5),
        st.integers(-3, 3),
        st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
        st.one_of(st.floats(-0.5, 0.5), st.floats(-1e-3, 1e-3)),
    )
    def test_total_next_to_integer_re_c(self, sr, si, ar, ai, m, dr, ci):
        # Re s <= 0 with Re c on or next to an integer: after the index shift an inner
        # a-variable of the three-term formula lies next to an integer, and with it an
        # integrand pole next to the t-axis or t = 0
        try:
            lv = evaluate_principal(complex(sr, si), complex(ar, ai), complex(m + dr, ci))
        except LerchError:
            return
        assert cmath.isfinite(lv.value)
        assert math.isfinite(lv.abs_err_estimate)

    @pytest.mark.parametrize("point, want", Z_TINY_RE_C)
    def test_tiny_re_c_read_inside(self, point, want):
        # at Re c <= 2^-54 the transform's 1 - c would round onto Re 1, the cut below
        # a = 1 when Im c > 0; the value is the limit from inside, as at Re c = 2^-52
        s, a, c = point
        lv = by_transform(s, a, c)
        near = by_transform(s, a, complex(2.0**-52, c.imag))
        assert abs(lv.value - want) <= min(lv.abs_err_estimate, 1e-12)
        assert abs(lv.value - near.value) <= lv.abs_err_estimate
        # the dispatch shifts c by 1 into the integral's strip
        lv = evaluate_principal(s, a, c)
        assert lv.method is Method.INTEGRAL
        assert abs(lv.value - want) <= lv.abs_err_estimate

    def test_anchoring_cut_violations(self):
        with pytest.raises(CutViolation):
            evaluate_principal(0.5, 1.0 - 0.5j, 0.5)
        with pytest.raises(CutViolation):
            evaluate_principal(0.5, 0.5, -1.0 - 0.5j)

    def test_invalid_point(self):
        with pytest.raises(InvalidPoint):
            evaluate_principal(0.5, 2.0, 0.5)
        with pytest.raises(InvalidPoint):
            evaluate_principal(0.5, 0.5, -3.0)

    def test_principal_sheet_near_cut_ray(self):
        # just right of the ray below a = 1, deep in the lower half-plane: the
        # pole passes 0.07 above the contour and the sheet must not flip
        lv = evaluate_principal(0.753 + 1.504j, 1.0110 - 0.1725j, 0.4209 - 0.2332j, 1e-10)
        assert abs(lv.value - Z_NEAR_CUT) < 1e-9


class TestRouting:
    @pytest.mark.parametrize(
        "s, a, c",
        [(-0.5 + 0.2j, 0.3 - 0.1j, 0.6), (-1.5 - 0.3j, 0.75 - 0.2j, 0.4 + 0.1j), (-0.2 + 1.0j, 0.45, 0.8 - 0.1j)],
    )
    def test_periodic_in_a(self, s, a, c):
        base = by_transform(s, a, c, 1e-11)
        dispatch = evaluate_principal(s, a, c, 1e-11)
        assert dispatch.method is Method.INTEGRAL
        assert abs(dispatch.value - base.value) <= dispatch.abs_err_estimate + base.abs_err_estimate
        for n in (-2, -1, 1, 2):
            lv = by_transform(s, a + n, c, 1e-11)
            assert lv.method is Method.TRANSFORM
            assert abs(lv.value - base.value) < 1e-12
            assert abs(evaluate_principal(s, a + n, c, 1e-11).value - dispatch.value) < 1e-12

    @pytest.mark.parametrize(
        "s, a, c, want",
        [
            (-0.5 + 0.3j, 0.3 - 0.1j, 1 + 0.2j, Z_INT_C_1),
            (-1.2 - 0.4j, 0.7 - 0.05j, 1.0, Z_INT_C_2),
            (-0.8, 1.6 - 0.2j, 1 - 0.25j, Z_INT_C_3),
            *[(*point, want) for point, want in Z_INT_RE_C],
            *[(*point, want) for point, want in Z_NEAR_RE_C],
        ],
    )
    def test_integer_re_c(self, s, a, c, want):
        # the index shift moves c onto Re c = 1, where the transform is read from Re c < 1;
        # for 0 < |Im c| < 0.01 it is the Taylor series in c about 1
        lv = by_transform(s, a, c, 1e-10)
        err = abs(lv.value - want)
        assert lv.method is Method.TRANSFORM
        assert err < 1e-10
        assert err <= lv.abs_err_estimate
        # the dispatch takes the integral, except at the pole s = 0 of Gamma(s) and where
        # 1e-10 |Gamma(s)| is below the ray's floor (|Im s| = 4 at Re s = -1.5, and |Im s| = 8)
        lv = evaluate_principal(s, a, c, 1e-10)
        s = complex(s)
        ray = s != 0 and continuation._ray_first(s, 1e-10)
        assert ray == (s != 0 and abs(s.imag) < 4)
        assert lv.method is (Method.INTEGRAL if ray else Method.TRANSFORM)
        assert abs(lv.value - want) <= lv.abs_err_estimate

    @pytest.mark.parametrize("c", [0.02 + 0.1j, -0.7 + 0.3j, 1.5])
    def test_strip_below_the_ray_floor_is_the_transform(self, monkeypatch, c):
        # 1e-10 |Gamma(-0.5 + 8i)| = 1.1e-16 is below the ray's floor: the transform runs first (its inner
        # evaluations at 1 - s take the integral), and where it meets the target the dispatch is the transform
        # after one index shift of c, bit for bit; the integral at s runs only after a transform that misses
        # (at the first c), and the smaller estimate answers
        s, a = -0.5 + 8j, 0.3 - 0.1j
        assert not continuation._ray_first(s, 1e-10)
        assert not continuation._ray_first(-0.5 + 460j, 1e-10)  # 1/Gamma(s) is past binary64
        calls, integral, transform = [], continuation._integral_eval_raw, continuation._transform_value

        def ray(s_, *args):
            if s_ == s:
                calls.append("integral")
            return integral(s_, *args)

        def three_term(s_, *args):
            if s_ == s:
                calls.append("transform")
            return transform(s_, *args)

        monkeypatch.setattr(continuation, "_integral_eval_raw", ray)
        monkeypatch.setattr(continuation, "_transform_value", three_term)
        want = by_transform(s, a, c, 1e-10)
        calls.clear()
        lv = evaluate_principal(s, a, c, 1e-10)
        if want.abs_err_estimate <= 1e-10:
            assert calls == ["transform"]
            assert (lv.value, lv.abs_err_estimate, lv.method) == (want.value, want.abs_err_estimate, Method.TRANSFORM)
        else:
            assert calls == ["transform", "integral"]
            assert lv.abs_err_estimate <= want.abs_err_estimate

    def test_ray_floor_orders_the_routes(self):
        # below the floor the transform misses here (estimate 4.7e-7) and the integral after it answers
        (s, a, c), want = Z_NEXT_TO_RE_C[45]
        assert not continuation._ray_first(s, 1e-10)
        lv = evaluate_principal(s, a, c, 1e-10)
        assert lv.method is Method.INTEGRAL
        assert lv.abs_err_estimate <= 1e-9
        assert abs(lv.value - want) <= 1e-11

    @staticmethod
    def _one_shift(monkeypatch, s, a, c):
        """by_transform at (s, a, c), checked to be one index shift of c into (0, 1] and one transform there,
        bit for bit."""
        seen, transform = [], continuation._transform_value

        def recorded(s_, a_, c_, t_):
            seen.append(c_)
            return transform(s_, a_, c_, t_)

        monkeypatch.setattr(continuation, "_transform_value", recorded)
        want = by_transform(s, a, c, 1e-10)
        monkeypatch.setattr(continuation, "_transform_value", transform)
        n = 1 - math.ceil(c.real)
        one = continuation._shift_c(s, complex(a.real - math.floor(a.real), a.imag), c, n, 1e-10, transform)
        assert seen == [c + n] and 0.0 < seen[0].real <= 1.0
        assert (want.value, want.abs_err_estimate, want.method) == (one.value, one.abs_err_estimate, Method.TRANSFORM)
        return want

    def test_transform_shifts_c_once(self, monkeypatch):
        # fuzz point 26 of scripts/parent_diff.py (_fuzz_points(7, 1500)): the transform moves c by 50
        # into (0, 1], estimate 1.15e-10; moving it by 51 into [0.6, 1.6) and then by -1 gave a larger
        # estimate.  The series, which starts at j = 0 for every c and shifts none, answers here
        s, a, c = (-1.947150241937635 - 1.0408018719853231j, 1.9409959882589676 + 0.2205242937868166j,
                   -49.80916866699352 + 2.455195187910409j)
        want = self._one_shift(monkeypatch, s, a, c)
        lv = evaluate_principal(s, a, c, 1e-10)
        assert lv.abs_err_estimate <= max(1e-10, want.abs_err_estimate)

    def test_seeded_one_shift_sweep(self, monkeypatch, rng):
        """Re s <= 0, Im a > 0 and Re c <= 0.05 with c + ceil(0.6 - Re c) in (1, 1.6), where a shift into
        [0.6, 1.6) followed by the transform's shift into (0, 1] would move c twice.  The transform
        shifts c once, bit for bit, and the dispatch meets the target or its estimate is at most
        by_transform's; its series, which makes no shift, answers at most points."""
        series = 0
        for _ in range(60):
            s = complex(rng.uniform(-6.0, 0.0), rng.uniform(-30.0, 30.0))
            a = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.01, 1.0))
            m = rng.randint(0, 50)
            c = complex(-m + rng.uniform(0.0, 0.05 if m == 0 else 0.6), rng.uniform(-3.0, 3.0))
            assert 1.0 < c.real + math.ceil(0.6 - c.real) < 1.6
            want = self._one_shift(monkeypatch, s, a, c)
            lv = evaluate_principal(s, a, c, 1e-10)
            assert lv.abs_err_estimate <= max(1e-10, want.abs_err_estimate), (s, a, c)
            series += lv.method is Method.SERIES
        assert series >= 50  # 58 of the 60

    def test_seeded_integer_re_c_sweep(self):
        """The transform on integer lines Re c against mpmath lerchphi at 30 digits, frozen in Z_INT_RE_C_SWEEP.

        Re a stays in [0.15, 0.85] modulo 1, with -0.25 <= Im a <= -0.02 or a
        real, and |Im c| <= 0.5: lerchphi is not the principal sheet for
        Im a < 0 and non-real c when Re a is near 0 or 1, nor at some points
        with |Im a| and |Im c| both above about 0.3.  |Im s| <= 8 turns the
        inner integral's ray at about a third of the points.  The dispatch answers within its
        estimate too, by the integral or, where that declines or misses the target, by the transform.
        """
        methods = set()
        for k, ((s, a, c), want) in enumerate(Z_INT_RE_C_SWEEP):
            lv = by_transform(s, a, c, 1e-10)
            err = abs(lv.value - want)
            assert lv.method is Method.TRANSFORM
            assert err <= 1e-10, (k, s, a, c, err)
            assert err <= lv.abs_err_estimate, (k, s, a, c, err, lv.abs_err_estimate)
            lv = evaluate_principal(s, a, c, 1e-10)
            assert lv.method in (Method.INTEGRAL, Method.TRANSFORM)
            assert abs(lv.value - want) <= lv.abs_err_estimate, (k, s, a, c, lv)
            methods.add(lv.method)
        assert methods == {Method.INTEGRAL, Method.TRANSFORM}  # the integral owns the strip; the transform still answers

    def test_seeded_near_integer_re_c_sweep(self, rng):
        """0 < |Im c| < 0.01 on integer lines Re c, with a near an integer too, against mpmath.

        Re a near 0 or 1 is taken with Im a = 0 or with Im a > 0, where lerchphi
        is the principal sheet; Im a > 0 at Re s < 0 reaches the Taylor series
        where the Dirichlet series misses the target.
        """
        for k in range(20):
            s = complex(rng.uniform(-1.5, 0.0), rng.uniform(-8.0, 8.0))
            if k % 2:
                a = complex(rng.choice([1e-6, 0.999999]), rng.choice([0.0, 1e-7, 0.3]))
            else:
                a = complex(rng.uniform(0.15, 0.85), rng.uniform(-0.25, 0.0))
            c = complex(rng.randint(1, 3), rng.choice([-1, 1]) * 10.0 ** rng.uniform(-10.0, -2.0))
            lv = evaluate_principal(s, a, c, 1e-10)
            with mpmath.workdps(30):
                want = complex(mpmath.lerchphi(mpmath.exp(2j * mpmath.pi * mpmath.mpc(a)), mpmath.mpc(s), mpmath.mpc(c)))
            err = abs(lv.value - want)
            assert err <= 1e-10 * max(1.0, abs(want)), (k, s, a, c, err)
            assert err <= lv.abs_err_estimate, (k, s, a, c, err, lv.abs_err_estimate)

    def test_seeded_next_to_integer_re_c_sweep(self):
        """Re c on or within 1e-4 of an integer with 3e-4 <= |Im c| <= 0.3, against frozen mpmath values.

        After the index shift an inner a-variable of the three-term formula lies
        next to an integer, so with Im a < 0 an integrand pole lies next to the
        t-axis and the ray tilts away from it.  Where that pole lies within about
        2e-3 of t = 0 (c = m - 1e-9 +- 3e-4i) a tilt capped by Re(c e^{i theta}) > 0
        may not clear it, and the point raises ContourHitsPole; this seed draws none.
        """
        for k, (point, want) in enumerate(Z_NEXT_TO_RE_C):
            lv = evaluate_principal(*point, 1e-10)
            err = abs(lv.value - want)
            assert err <= 1e-10 * max(1.0, abs(want)), (k, point, err)
            assert err <= lv.abs_err_estimate, (k, point, err, lv.abs_err_estimate)

    @pytest.mark.parametrize("n", [0, 2, -1])
    def test_series_fallback_point(self, n):
        # Im a > 0 but the series misses the target at Re s < 0, also with Re a outside (0, 1)
        s = -2.1760155316224776 - 0.5588129495590355j
        a = 0.38418727940415864 + 0.002948133365388572j + n
        c = 1.1914584485350448 + 0.2120879772022975j
        lv = evaluate_principal(s, a, c, 1e-10)
        err = abs(lv.value - Z_SERIES_FALLBACK)
        assert err < 1e-10
        assert err <= lv.abs_err_estimate

    @pytest.mark.parametrize(
        "s, c, want",
        [
            (0.5 + 30j, 0.5, Z_REAL_A_30),
            (0.5 - 45j, 0.5, Z_REAL_A_M45),
            (0.5 + 60j, 0.5, Z_REAL_A_60),
            (0.5 + 30j, 0.5 + 1.5j, Z_REAL_A_30_C),
        ],
    )
    def test_real_a_large_im_s(self, s, c, want):
        # the series owns real a with Re s > 0; the integral would divide by
        # Gamma(s).  The target is relative to the value, which is near 1e16
        # for the complex c.
        target = 1e-10 * max(1.0, abs(want))
        lv = evaluate_principal(s, 0.3, c, target)
        err = abs(lv.value - want)
        assert lv.method is Method.SERIES
        assert err <= target
        assert err <= lv.abs_err_estimate

    @pytest.mark.parametrize("s", [0.5 + 500j, 0.5 + 50j])
    def test_real_a_near_integer_large_im_s(self, s):
        # the real-a split point would pass 1e7 here; the series declines it
        # and the point is left to the integral
        try:
            lv = evaluate_principal(s, 1e-6, 0.5)
        except LerchError:
            return
        assert cmath.isfinite(lv.value)

    # (s, a, c, second route): the integral for Re s > 0, else the transform, at a c it reaches
    # without an index shift (0 < Re c <= 1) and after one (Re c > 1)
    SECOND_ROUTES = [
        (0.5, 0.3, 0.5, "_integral_eval_raw"),
        (-1.0, 0.3 + 0.1j, 0.5, "_transform_value"),
        (-1.0, 0.3 + 0.1j, 1.5 + 0.1j, "_transform_value"),
        (-1.0, 0.3 + 0.1j, 1.0 + 0.1j, "_transform_value"),
    ]

    @pytest.mark.parametrize("s, a, c, route", SECOND_ROUTES)
    def test_failure_after_missed_series(self, monkeypatch, s, a, c, route):
        # the series misses its target and the second route fails: the dispatch keeps the series
        # value with its estimate, the only answer it has
        missed = LerchValue(1.0 + 0j, Method.SERIES, 1.0)
        monkeypatch.setattr(continuation, "dirichlet_series", lambda *args: missed)

        def fail(*args):
            raise NonConvergence("route failed")

        monkeypatch.setattr(continuation, route, fail)
        assert evaluate_principal(s, a, c) is missed

    @pytest.mark.parametrize("s, a, c, route", SECOND_ROUTES)
    def test_no_route_answers(self, monkeypatch, s, a, c, route):
        # both routes fail: the second route's error propagates, with its class
        def series_fails(*args):
            raise NonConvergence("series failed")

        def route_fails(*args):
            raise ContourHitsPole("route failed")

        monkeypatch.setattr(continuation, "dirichlet_series", series_fails)
        monkeypatch.setattr(continuation, route, route_fails)
        with pytest.raises(ContourHitsPole, match="route failed"):
            evaluate_principal(s, a, c)

    @pytest.mark.parametrize("s, a, c, route", [r for r in SECOND_ROUTES if 0.0 < r[2].real <= 1.0])
    def test_estimate_tie_keeps_the_series(self, monkeypatch, s, a, c, route):
        # both routes miss the target by the same estimate: the series is kept
        missed = LerchValue(1.0 + 0j, Method.SERIES, 1.0)
        monkeypatch.setattr(continuation, "dirichlet_series", lambda *args: missed)
        monkeypatch.setattr(continuation, route, lambda *args: LerchValue(2.0 + 0j, Method.INTEGRAL, 1.0))
        assert evaluate_principal(s, a, c) is missed
        monkeypatch.setattr(continuation, route, lambda *args: LerchValue(2.0 + 0j, Method.INTEGRAL, 0.5))
        assert evaluate_principal(s, a, c).value == 2.0

    @pytest.mark.parametrize("point, want", Z_SERIES_KEPT)
    def test_missed_series_beats_the_transform(self, point, want):
        # Im a > 0, so the series converges absolutely and holds the value to about 1e-13 of
        # |value|, though not to the absolute target.  The transform after the index shift by
        # about -Re c multiplies by e^{2 pi Im a |n|}; it was off by up to 1e104 here
        lv = evaluate_principal(*point, 1e-10)
        err = abs(lv.value - want)
        assert lv.method is Method.SERIES
        assert err <= lv.abs_err_estimate <= 1e-3, (err, lv.abs_err_estimate)

    def test_shifted_hurwitz_series_answers(self):
        # the c = 1 branch of the transform takes the Hurwitz series at a target scaled far below
        # its roundoff by the index shift; the series answers with its estimate, where it raised
        lv = evaluate_principal(-19.25j, -1.3124 - 1.5102j, -3 + 0.001j, 1e-10)
        assert math.isfinite(lv.abs_err_estimate)
        assert lv.abs_err_estimate <= 1e-10 * abs(lv.value)
        assert abs(lv.value - Z_SHIFTED_HURWITZ) <= lv.abs_err_estimate

    def test_index_shift_inside_transform(self):
        # Re a = 0, so the transform's first inner evaluation has c = a = 1e-4 i;
        # the dispatch moves it by the index shift before the series or the
        # integral sees it, where the integral used to raise InvalidRegion
        lv = evaluate_principal(-0.5, 1e-4j, 0.5)
        assert cmath.isfinite(lv.value)
        assert abs(lv.value - Z_INNER_SHIFT) <= lv.abs_err_estimate

    @pytest.mark.parametrize(
        "s, a, c, want",
        [(-0.5 + 0.3j, 0.02 - 0.2j, 0.4, Z_EDGE_A_0), (-1.3 - 0.7j, 0.97 - 0.1j, 0.65, Z_EDGE_A_1)],
    )
    def test_re_a_near_an_integer(self, s, a, c, want):
        # one inner evaluation of the transform has Re c <= 0.05 and takes the index shift
        lv = evaluate_principal(s, a, c, 1e-10)
        err = abs(lv.value - want)
        assert err <= 1e-10
        assert err <= lv.abs_err_estimate

    def test_reduction_rounding_onto_cut(self):
        # -1e-17 + 1 rounds to exactly 1.0, a point on the ray below a = 1
        with pytest.raises(CutViolation):
            evaluate_principal(-0.5, -1e-17 - 0.1j, 0.5)


class TestEvaluateOnCover:
    base = Point3(0.5, 0.5, 0.5)

    def test_zero_branch_is_principal(self):
        v0 = evaluate_on_cover(self.base, BranchState.zero(), 1e-11)
        assert abs(v0.value - Z_BASE) < 1e-10

    def test_single_winding_adds_closed_form(self):
        b = BranchState.from_dicts({0: 1}, {})
        v0 = evaluate_on_cover(self.base, BranchState.zero(), 1e-11)
        v1 = evaluate_on_cover(self.base, b, 1e-11)
        want = monodromy_generator(Generator("X", 0), 0.5, 0.5, 0.5)
        assert v1.value - v0.value == want

    def test_trivial_y_windings(self):
        b = BranchState.from_dicts({}, {3: 7})
        v0 = evaluate_on_cover(self.base, BranchState.zero(), 1e-11)
        v1 = evaluate_on_cover(self.base, b, 1e-11)
        assert v0.value == v1.value

    def test_monodromy_additivity(self, rng):
        # the branch sum is linear over distinct generators: the mixed
        # difference of cover values cancels exactly in closed-form arithmetic
        p = Point3(0.35, 0.45, 0.55)
        for _ in range(20):
            b1 = BranchState.from_dicts({rng.randint(-1, 1): rng.randint(-2, 2)}, {})
            b2 = BranchState.from_dicts({}, {rng.randint(-1, 0): rng.randint(-2, 2)})
            v12 = evaluate_on_cover(p, b1 + b2, 1e-11).value
            v1 = evaluate_on_cover(p, b1, 1e-11).value
            v2 = evaluate_on_cover(p, b2, 1e-11).value
            v0 = evaluate_on_cover(p, BranchState.zero(), 1e-11).value
            assert abs(v12 - v1 - v2 + v0) < 1e-12

    @pytest.mark.parametrize(
        "p,kx",
        [
            # e^{2 pi i s} - 1 in the X_1^{-1} loop's geometric factor overflows
            (Point3(0.5 - 120j, 0.3 - 0.1j, 0.5), {1: -1}),
            # three X_0 loops overflow to a non-finite sum without raising
            (Point3(0.5 - 50j, 0.4 - 0.3j, 0.5), {0: 3}),
        ],
    )
    def test_monodromy_overflow_raises(self, p, kx):
        assert cmath.isfinite(evaluate_on_cover(p, BranchState.zero()).value)
        with pytest.raises(NonConvergence):
            evaluate_on_cover(p, BranchState.from_dicts(kx))

    def test_reciprocal_gamma_past_binary64_answers(self):
        # 1/Gamma(0.5 + 500i), about e^{784}, is past binary64; M(X_0)'s prefactor is one exp of
        # s log(2 pi i) - log Gamma(s) and stays in range.  X's prefactor still overflows at s = -400.5
        # (tests/test_monodromy.py's TestOverflowRule)
        lv = evaluate_on_cover(Point3(0.5 + 500j, 0.3 + 0.2j, 0.4), BranchState.from_dicts({0: 1}))
        assert abs(lv.value - Z_COVER_500) <= lv.abs_err_estimate <= 1e-11

    def test_summed_charge_stays_finite(self):
        # extreme record #1269: the Y_-1^2 term is about 5.4e306, so a sum of |term| (1 + phase) taken before the
        # factor 4 eps would pass binary64 while the value does not; the charge is taken term by term.  The
        # monodromy is the closed form in mpmath at 50 digits (the principal value is about 1e123)
        s, a = -38.86464415269049 + 33.63567505632778j, -1.4227785774192392 + 5.342108239541162e-06j
        c = -97.73098014591643 - 0.7101695721993773j
        lv = evaluate_on_cover(Point3(s, a, c), BranchState.from_dicts({}, {-1: 2}))
        want = complex(-1.9737782651047753459e306, 5.0556550705469675436e306)
        assert math.isfinite(lv.abs_err_estimate)
        assert abs(lv.value - want) <= lv.abs_err_estimate <= 1e-11 * abs(want)

    @pytest.mark.parametrize(
        "s, a, c, kx, ky, family",
        [
            # the transform's products coef * v leave binary64, and a complex product raises nothing
            (
                -139.01140797747885 - 0.10388469157113783j,
                -0.03485346474339179 - 1.7401916520543936e-05j,
                35.60873917909216 - 2.0297876971269466j,
                {-1: 1, 0: 1},
                {0: -1},
                "three-term transformation overflows",
            ),
            (
                -135.78352318004514 + 1.7982167226583206j,
                0.025563179325895913 - 2.6034619056343912e-05j,
                0.005097789880867897 - 2.8909763430167965j,
                {2: 0},
                {0: 1, -2: -1},
                "three-term transformation overflows",
            ),
            (
                -116.50864267839212 - 354.961547785728j,
                -1.127094877360896 - 1.7681293616870994j,
                -25.549172379986754 + 1.3044071510798982j,
                {},
                {1: -1},
                "three-term transformation overflows",
            ),
            # the index shift's e^{2 pi i a n} times the route's value at c + n: below the ray's floor the
            # transform's shift by 10945 raises first, then the integral's by 10946
            (
                -2.1110165903286315 - 23.65215547972198j,
                1.462748730210437 - 0.009874269611910472j,
                -10944.735700073497 - 2.8369650144766556j,
                {},
                {1: -1, -1: -2},
                "index shift of c = .* by 10946 overflows",
            ),
        ],
    )
    def test_route_names_its_product_overflow(self, s, a, c, kx, ky, family):
        with pytest.raises(NonConvergence, match=family):
            evaluate_on_cover(Point3(s, a, c), BranchState.from_dicts(kx, ky))


class TestLerchValue:
    @pytest.mark.parametrize("value, err", [(complex("inf"), 0.0), (0j, float("nan"))])
    def test_non_finite_raises(self, value, err):
        with pytest.raises(NonConvergence, match="overflows"):
            LerchValue(value, Method.SERIES, err)


def _extreme_points(n: int):
    """Seeded points far out in s, a and c, with up to two windings per axis (the box is fixed)."""
    rng = random.Random(11)
    for _ in range(n):
        s = complex(rng.uniform(-200, 200), rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 2.8))
        a = complex(rng.uniform(-2, 2), rng.choice((-1, 1)) * 10 ** rng.uniform(-6, 0.5))
        c = complex(rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 5), rng.uniform(-3, 3))
        kx = {rng.randint(-1, 2): rng.randint(-2, 2) for _ in range(rng.randint(0, 2))}
        ky = {rng.randint(-2, 1): rng.randint(-2, 2) for _ in range(rng.randint(0, 2))}
        yield s, a, c, kx, ky


def test_extreme_sweep_is_total():
    # every point gives a finite value and estimate or a LerchError; a numpy warning fails the test, and so
    # does any other exception, such as ZeroDivisionError from 1/Gamma(s) at point 468 (s = 25.69 + 555.33i)
    for i, (s, a, c, kx, ky) in enumerate(_extreme_points(500)):
        try:
            lv = evaluate_on_cover(Point3(s, a, c), BranchState.from_dicts(kx, ky))
        except LerchError:
            continue
        assert cmath.isfinite(lv.value) and math.isfinite(lv.abs_err_estimate), i


class TestDerivativeResiduals:
    def test_lowering_residual_on_cover(self):
        p = Point3(1.5, 0.4 + 0.3j, 0.8)
        b = BranchState.from_dicts({0: 1}, {0: -1})
        assert dde_lower_residual(p, b) < 1e-8

    def test_raising_residual_on_cover(self):
        p = Point3(1.5, 0.4 + 0.3j, 0.8)
        b = BranchState.from_dicts({0: 1}, {0: -1})
        assert dde_raise_residual(p, b) < 1e-8

    def test_pde_residual_zero_branch(self):
        assert pde_residual(Point3(0.5, 0.5, 0.5), BranchState.zero()) < 1e-8

    def test_pde_residual_nonzero_branch(self):
        assert pde_residual(Point3(0.5, 0.5, 0.5), BranchState.from_dicts({0: 1}, {})) < 1e-8

    def test_pde_residual_at_s_zero(self):
        assert pde_residual(Point3(0.0, 0.4 + 0.2j, 0.6), BranchState.zero()) < 1e-8

    def test_circle_too_close_to_a_cut(self):
        # a sits 1e-3 right of the ray below a = 0: no Cauchy circle fits
        with pytest.raises(DerivativeCircleLeavesDomain):
            dde_lower_residual(Point3(0.5, 0.001 - 0.1j, 0.5), BranchState.zero())
