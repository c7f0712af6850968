import cmath
import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from lerchzeta import (
    PRINCIPAL_LOG,
    CutViolation,
    PoleAtNonpositiveInteger,
    branched_pow,
    complex_gamma,
    principal_log,
    reciprocal_gamma,
)
from conftest import GAMMA_GRID, GAMMA_HALF, RGAMMA_2_5

off_cut = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
).filter(lambda z: not (z.real == 0.0 and z.imag <= 0.0))


class TestPrincipalLog:
    def test_identity_case(self):
        assert principal_log(1.0) == 0.0

    def test_negative_real_axis(self):
        # real on the positive axis forces log(-x) = log x + i pi
        got = principal_log(-2.0)
        assert got == pytest.approx(complex(math.log(2.0), math.pi), abs=1e-15)

    def test_positive_imaginary_axis(self):
        assert principal_log(1j) == pytest.approx(complex(0.0, math.pi / 2), abs=1e-15)

    @pytest.mark.parametrize("z", [0.0, -1j, -3.5j, complex(0.0, -1e-12)])
    def test_cut_rejected(self, z):
        with pytest.raises(CutViolation):
            principal_log(z)
        assert not PRINCIPAL_LOG.admits(z)

    @given(off_cut)
    def test_exp_log_roundtrip(self, z):
        w = principal_log(z)
        assert abs(cmath.exp(w) - z) <= 1e-13 * abs(z)
        # open range up to one rounding step at the boundary
        assert -math.pi / 2 <= w.imag <= 3 * math.pi / 2

    def test_cut_side_resolution_at_rounding_limit(self):
        # points a hair to the right of the cut keep arg ~ -pi/2, a hair to
        # the left wrap to ~ 3*pi/2
        right = principal_log(complex(1e-160, -1.0))
        left = principal_log(complex(-1e-160, -1.0))
        assert right.imag == pytest.approx(-math.pi / 2, abs=1e-15)
        assert left.imag == pytest.approx(3 * math.pi / 2, abs=1e-15)

    @given(off_cut.filter(lambda z: z.real > 0))
    def test_agrees_with_standard_log_right_half_plane(self, z):
        got, want = principal_log(z), cmath.log(z)
        assert got.imag == want.imag
        assert got.real == pytest.approx(want.real, rel=1e-14, abs=1e-15)
        assert -math.pi / 2 <= got.imag <= math.pi / 2


class TestBranchedPow:
    def test_square_root(self):
        assert branched_pow(4.0, 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_one_extra_turn(self):
        s = 0.3
        got = branched_pow(1.0, s, extra_winding=1)
        assert got == pytest.approx(cmath.exp(2j * math.pi * s), abs=1e-15)

    def test_negative_base_matches_rotated_form(self):
        # (a - n)^{s-1} = e^{i pi (s-1)} (n - a)^{s-1} for 0 < a < n
        n, a, s = 1, 0.5, 0.5
        got = branched_pow(a - n, s - 1)
        want = cmath.exp(1j * math.pi * (s - 1)) * (n - a) ** (s - 1)
        assert got == pytest.approx(want, abs=1e-15)

    @given(off_cut, st.integers(min_value=-3, max_value=3))
    def test_winding_is_a_phase_factor(self, z, k):
        s = 0.37 + 0.21j
        base = branched_pow(z, s, 0)
        wound = branched_pow(z, s, k)
        assert wound == pytest.approx(base * cmath.exp(2j * math.pi * k * s), rel=1e-12)


class TestGamma:
    def test_gamma_one(self):
        assert complex_gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half(self):
        assert complex_gamma(0.5) == pytest.approx(GAMMA_HALF, rel=1e-13)

    @pytest.mark.parametrize("z,want", GAMMA_GRID)
    def test_reference_grid(self, z, want):
        got = complex_gamma(z)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_poles_raise(self):
        for n in (0, -1, -2, -7):
            with pytest.raises(PoleAtNonpositiveInteger):
                complex_gamma(complex(n))

    def test_reflection_identity(self, rng):
        # Gamma(s) Gamma(1-s) sin(pi s) / pi = 1 on the strip, off the integers
        checked = 0
        while checked < 100:
            s = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(s.real - round(s.real)) < 0.1 and abs(s.imag) < 0.1:
                continue
            lhs = complex_gamma(s) * complex_gamma(1 - s) * cmath.sin(math.pi * s) / math.pi
            assert abs(lhs - 1.0) < 1e-11
            checked += 1

    def test_next_to_the_poles(self, rng):
        # the reflection's sin(pi s) is taken at s - round(Re s), which is exact; sin of the rounded
        # pi s was off by about eps k / |s + k| relative, 1.8e-3 at 1e-12 from s = -8
        for _ in range(80):
            k = rng.randint(0, 12)
            s = -k + 10.0 ** rng.uniform(-12.0, -3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            with mpmath.workdps(30):
                want, rwant = complex(mpmath.gamma(s)), complex(mpmath.rgamma(s))
            assert abs(complex_gamma(s) - want) <= 1e-12 * abs(want), (s, complex_gamma(s), want)
            assert abs(reciprocal_gamma(s) - rwant) <= 1e-12 * abs(rwant), (s, reciprocal_gamma(s), rwant)

    def test_specific_reflection_point(self):
        s = 0.3 + 0.2j
        val = complex_gamma(s) * complex_gamma(1 - s) * cmath.sin(math.pi * s) / math.pi
        assert val == pytest.approx(1.0, abs=1e-13)

    def test_recurrence(self, rng):
        for _ in range(50):
            s = complex(rng.uniform(0.5, 20), rng.uniform(-20, 20))
            assert complex_gamma(s + 1) == pytest.approx(s * complex_gamma(s), rel=1e-12)


class TestReciprocalGamma:
    def test_gamma_underflow_overflows(self):
        # Gamma(0.5 + 500i) underflows to 0, so its reciprocal overflows as complex_gamma's own would
        assert complex_gamma(0.5 + 500j) == 0
        with pytest.raises(OverflowError):
            reciprocal_gamma(0.5 + 500j)

    def test_exact_zeros(self):
        for n in (0, -1, -2, -3, -10):
            assert reciprocal_gamma(complex(n)) == 0j

    def test_one(self):
        assert reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_value(self):
        assert reciprocal_gamma(2.5) == pytest.approx(RGAMMA_2_5, rel=1e-13)

    def test_product_with_gamma(self, rng):
        checked = 0
        while checked < 100:
            s = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(s.real - round(s.real)) < 0.1 and abs(s.imag) < 0.1:
                continue
            assert reciprocal_gamma(s) * complex_gamma(s) == pytest.approx(1.0, rel=1e-12)
            checked += 1
