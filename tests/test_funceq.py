import cmath
import math

import pytest

from lerchzeta import (
    InvalidRegion,
    IteratedVariant,
    NonConvergence,
    SymKind,
    completed_l,
    evaluate_principal,
    fe_iterated_residual,
    fe_residual,
    funceq,
    l_pm,
    three_term_residual,
    two_sided_series,
)
from conftest import TS_MINUS_3_05_05, TS_PLUS_3_03_07


class TestSymmetrizedValues:
    def test_plus_matches_two_sided_sum(self):
        got = l_pm(SymKind.PLUS, 3.0, 0.3, 0.7, 1e-11)
        assert abs(got - two_sided_series("plus", 3.0, 0.3, 0.7)) < 1e-10
        assert abs(got - TS_PLUS_3_03_07) < 1e-10

    def test_minus_matches_two_sided_sum(self):
        got = l_pm(SymKind.MINUS, 3.0, 0.5, 0.5, 1e-11)
        assert abs(got - two_sided_series("minus", 3.0, 0.5, 0.5)) < 1e-10
        assert abs(got - TS_MINUS_3_05_05) < 1e-10

    def test_plus_vanishes_at_center(self):
        # e^{-2 pi i a} = -1 at a = 1/2 and the two terms coincide
        assert abs(l_pm(SymKind.PLUS, 1.7, 0.5, 0.5, 1e-12)) < 1e-12

    def test_symmetrization_rearrangement(self, rng):
        # zeta = (L+ + L-)/2 and the reflected term is (L+ - L-)/2, exactly
        for _ in range(10):
            s = complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.2, 0.2))
            c = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.2, 0.2))
            lp = l_pm(SymKind.PLUS, s, a, c, 1e-12)
            lm = l_pm(SymKind.MINUS, s, a, c, 1e-12)
            z = evaluate_principal(s, a, c, 1e-12).value
            zr = cmath.exp(-2j * math.pi * a) * evaluate_principal(s, 1 - a, 1 - c, 1e-12).value
            scale = max(1.0, abs(lp), abs(lm))
            assert abs((lp + lm) / 2 - z) < 1e-12 * scale + 1e-11
            assert abs((lp - lm) / 2 - zr) < 1e-12 * scale + 1e-11


class TestCompletedForms:
    def test_factor_and_value(self):
        got = completed_l(SymKind.PLUS, 0.6, 0.3, 0.7, 1e-11)
        factor = math.pi ** (-0.3) * math.gamma(0.3)
        assert got.factor == pytest.approx(factor, rel=1e-13)
        assert got.value == pytest.approx(factor * l_pm(SymKind.PLUS, 0.6, 0.3, 0.7, 1e-11), rel=1e-9)
        assert not got.scale_overflow

    def test_overflow_flag_near_pole(self):
        got = completed_l(SymKind.PLUS, 1e-10, 0.3, 0.7, 1e-9)
        assert got.scale_overflow


class TestReflectionIdentity:
    def test_plus_instance(self):
        assert fe_residual(SymKind.PLUS, 0.4, 0.3, 0.7, 1e-10) < 1e-10

    def test_archimedean_overflow_raises(self):
        # the factor at s = 400 is Gamma(200), past binary64
        with pytest.raises(NonConvergence):
            fe_residual("plus", 400.0, 0.3, 0.4)

    def test_minus_instance_high_in_strip(self):
        assert fe_residual(SymKind.MINUS, 0.5 + 2j, 0.25, 0.75, 1e-10) < 1e-9

    def test_plus_at_exact_factor_pole(self):
        # the completed factor has a pole at s = -2; the normalized residual
        # reduces to the vanishing of the surviving side
        assert fe_residual(SymKind.PLUS, -2.0, 0.35, 0.6, 1e-10) < 1e-9

    @pytest.mark.parametrize(
        "kind, s", [(SymKind.PLUS, 1.0), (SymKind.PLUS, 3.0), (SymKind.MINUS, 2.0), (SymKind.PLUS, 2.98)]
    )
    def test_at_and_near_right_factor_pole(self, kind, s):
        # Gamma((1 - s + k)/2) has a pole at the first three points and is 0.01
        # from one at s = 2.98, where the residual is relative
        assert fe_residual(kind, s, 0.35, 0.6, 1e-10) < 1e-9

    @pytest.mark.parametrize(
        "kind, s", [(SymKind.PLUS, -2.0), (SymKind.PLUS, 3.0), (SymKind.MINUS, -1.0), (SymKind.MINUS, 2.0)]
    )
    def test_pole_form_evaluates_only_the_surviving_side(self, monkeypatch, kind, s):
        # one factor has a pole, so the divided identity multiplies the other side by an
        # exact zero 1/Gamma: one l_pm, that is two evaluations, not four
        calls = 0
        evaluate = funceq.evaluate_principal

        def counted(*args):
            nonlocal calls
            calls += 1
            return evaluate(*args)

        monkeypatch.setattr(funceq, "evaluate_principal", counted)
        assert fe_residual(kind, s, 0.35 + 0.1j, 0.6 - 0.05j, 1e-10) < 1e-12
        assert calls == 2

    def test_random_polycylinder_points(self, rng):
        checked = 0
        while checked < 25:
            s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(s.real - round(s.real)) < 0.12 and abs(s.imag) < 0.12:
                continue
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4))
            c = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4))
            assert fe_residual(SymKind.PLUS, s, a, c, 1e-10) < 1e-9
            assert fe_residual(SymKind.MINUS, s, a, c, 1e-10) < 1e-9
            checked += 1


class TestIteratedIdentities:
    @pytest.mark.parametrize(
        "s, a, c, bound",
        [
            (0.3, 0.4, 0.6, 1e-10),
            # |factor| = 10.4: each L must meet the target over the factor, or the residual reads 4.3e-10
            (
                -2.5165121927991683 - 0.5081259905066906j,
                0.5395519273152299 + 0.30670706115321j,
                0.755423870268593 + 0.29118757575881216j,
                1e-11,
            ),
        ],
    )
    def test_a_reflection_plus(self, s, a, c, bound):
        assert fe_iterated_residual(SymKind.PLUS, "a_reflect", s, a, c, 1e-10) < bound

    @pytest.mark.parametrize(
        "kind, s",
        [
            # (s + k)/2 at the archimedean factor's poles 0, -1: the undivided residual
            (SymKind.PLUS, -2.0),
            (SymKind.MINUS, -1.0),
            # within the pole margin of -1: the residual divided by the factor's size
            (SymKind.PLUS, -2.0 + 0.01j),
            (SymKind.MINUS, -2.98),
        ],
    )
    def test_a_reflection_at_and_near_factor_poles(self, kind, s):
        assert fe_iterated_residual(kind, "a_reflect", s, 0.35 + 0.1j, 0.6 - 0.05j) < 1e-12

    def test_quarter_turn_minus(self):
        assert fe_iterated_residual(SymKind.MINUS, "quarter_turn", 0.7, 0.6, 0.4) < 1e-10

    def test_double_a_reflection_is_identity(self):
        # reflecting at (a,c) and again at (1-a,1-c) composes to the identity:
        # the two one-step relations must hold with reciprocal phases
        s, a, c = 0.45, 0.37, 0.61
        l0 = l_pm(SymKind.PLUS, s, a, c, 1e-12)
        l_ref = l_pm(SymKind.PLUS, s, 1 - a, 1 - c, 1e-12)
        assert abs(l0 - cmath.exp(-2j * math.pi * a) * l_ref) < 1e-11
        assert abs(l_ref - cmath.exp(-2j * math.pi * (1 - a)) * l0) < 1e-11

    def test_variants_accept_enum(self):
        assert fe_iterated_residual(SymKind.PLUS, IteratedVariant.QUARTER_TURN, 0.3, 0.4, 0.6) < 1e-9


class TestThreeTerm:
    def test_base_point(self):
        assert three_term_residual(0.5, 0.5, 0.5, 1e-10) < 1e-10

    def test_random_strip_points(self, rng):
        for _ in range(10):
            sp = complex(rng.uniform(0.1, 0.9), rng.uniform(-2, 2))
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
            c = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
            assert three_term_residual(sp, a, c, 1e-10) < 1e-9

    def test_gamma_overflow_raises(self):
        # the transform at s = -399.5 needs Gamma(400.5), past binary64
        with pytest.raises(NonConvergence):
            three_term_residual(400.5, 0.3, 0.4)

    @pytest.mark.parametrize("sp, a, c", [(0.5, 0.4, 1.2), (0.5, 1.3, 0.6), (-0.1, 0.4, 0.6)])
    def test_outside_the_strips_raises(self, sp, a, c):
        # Re c = 1.2, Re a = 1.3 and Re sp = -0.1 are outside the formula's domain
        with pytest.raises(InvalidRegion):
            three_term_residual(sp, a, c, 1e-10)
