import cmath
import math

import mpmath
import pytest

from lerchzeta import (
    ContourHitsPole,
    ContourSpec,
    CutViolation,
    InvalidRegion,
    Method,
    NonConvergence,
    Point3,
    dirichlet_series,
    evaluate_principal,
    integral_eval,
    monodromy_generator,
    residue_discrepancy,
)
from lerchzeta import quadrature
from lerchzeta.evaluator import _ray
from lerchzeta.words import BranchState, Generator
from conftest import (
    PI2_12,
    Z_AXIS_POLE,
    Z_BASE,
    Z_COMPLEX_S,
    Z_INTEGRAL_RAY,
    Z_INTEGRAL_ROUTE,
    Z_LINE_2_RIGHT,
    Z_NEAR_AXIS,
)

TWO_PI = 2.0 * math.pi


class TestStraightContour:
    def test_alternating_point(self):
        lv = integral_eval(Point3(2.0, 0.5, 1.0), target_abs_err=1e-11)
        assert abs(lv.value - PI2_12) < 1e-10
        assert lv.abs_err_estimate <= 1e-10
        assert lv.method is Method.INTEGRAL

    def test_base_point(self):
        lv = integral_eval(Point3(0.5, 0.5, 0.5), target_abs_err=1e-12)
        assert abs(lv.value - Z_BASE) < 1e-11

    def test_complex_parameters(self):
        lv = integral_eval(Point3(1.3 + 2.1j, 0.35 + 0.2j, 0.7 - 0.3j), target_abs_err=1e-11)
        assert abs(lv.value - Z_COMPLEX_S) < 1e-10

    def test_matches_series_in_overlap(self, rng):
        for _ in range(10):
            p = Point3(
                complex(rng.uniform(0.2, 3.0), rng.uniform(-2, 2)),
                complex(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.8)),
                complex(rng.uniform(0.3, 1.5), rng.uniform(-0.3, 0.3)),
            )
            vi = integral_eval(p, target_abs_err=1e-11)
            vs = dirichlet_series(p.s, p.a, p.c, 1e-11)
            assert abs(vi.value - vs.value) <= vi.abs_err_estimate + vs.abs_err_estimate

    def test_region_preconditions(self):
        with pytest.raises(InvalidRegion):
            integral_eval(Point3(-0.1, 0.5, 0.5))
        with pytest.raises(InvalidRegion):
            integral_eval(Point3(1.0, 0.5, -0.2))

    def test_pole_near_axis_off_the_ray(self):
        # Im a < 0 puts the pole column on the positive real t-axis, and Re a = 1e-4
        # puts t_0 within 1e-3 of the axis; the ray tilts away from it
        lv = integral_eval(Point3(1.0, 1e-4 - 0.3j, 1.0))
        err = abs(lv.value - Z_NEAR_AXIS)
        assert err <= 1e-12 and err <= lv.abs_err_estimate

    def test_pole_near_origin_detected(self):
        # t_0 = 2 pi i a lies within 1e-3 of t = 0, so no ray clears it
        with pytest.raises(ContourHitsPole):
            integral_eval(Point3(1.0, 1e-4 - 1e-5j, 1.0))

    @pytest.mark.parametrize("s,c", [(0.5 + 500j, 0.5), (1.5 + 600j, 0.7)])
    def test_gamma_underflow_raises(self, s, c):
        # complex_gamma(s) underflows to 0 here, so the integral cannot divide by it
        with pytest.raises(NonConvergence):
            evaluate_principal(s, 0.3 - 0.1j, c)
        with pytest.raises(NonConvergence):
            integral_eval(Point3(s, 0.3 - 0.1j, c))

    def test_gamma_reflection_overflow_raises(self):
        # Re s < 1/2: Gamma(s) comes from the reflection formula, whose
        # sin(pi s) overflows at |Im s| = 277 before Gamma(s) reaches 0
        with pytest.raises(NonConvergence):
            integral_eval(Point3(0.430 - 277.3j, 0.704 - 0.175j, 0.741 + 2.513j))

    @pytest.mark.parametrize("contour", [ContourSpec.STRAIGHT, ContourSpec(0.5, 0.2)])
    def test_one_quadrature_call(self, monkeypatch, contour):
        # the straight contour and the detour both run on one ray
        calls = 0
        integrate = quadrature.integrate

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", counted)
        integral_eval(Point3(0.6 + 20j, 1 - 0.5j / TWO_PI + 0.01, 0.5), contour)
        assert calls == 1


class TestIntegralOracle:
    @pytest.mark.parametrize("point,want", Z_INTEGRAL_ROUTE)
    def test_small_re_s_near_integer_a(self, point, want):
        # Re a within 0.05 of 0 or 1 brings a pole near t = 0, so the endpoint
        # series runs on the circle |t| = 0.4 R < 0.5 (all but the last point)
        lv = evaluate_principal(*point, 1e-10)
        err = abs(lv.value - want)
        assert lv.method is Method.INTEGRAL
        assert err <= 1e-10
        assert err <= lv.abs_err_estimate

    @pytest.mark.parametrize("point,want", Z_INTEGRAL_RAY)
    def test_rotated_ray(self, point, want):
        # on the real axis 1/Gamma(s) costs e^{pi |Im s| / 2}, an error of 2.1e52
        # and 1.2e65 at the first two points; the third steps off the pole on its
        # nominal ray
        lv = evaluate_principal(*point, 1e-10)
        err = abs(lv.value - want)
        assert lv.method is Method.INTEGRAL
        assert err <= lv.abs_err_estimate
        assert err <= 1e-11 * max(1.0, abs(want))

    def test_seeded_integral_sweep(self, rng):
        """The integral route against mpmath at 30 digits at 6 <= |Im s| <= 30.

        Real c keeps lerchphi on the principal sheet.  On the real axis 11 of
        these 20 points miss 1e-10 relative, by up to 9e3 at |value| 1.2e5.
        """
        for k in range(20):
            s = complex(rng.uniform(0.1, 3.0), rng.choice((-1.0, 1.0)) * rng.uniform(6.0, 30.0))
            a = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.4, -0.02))
            c = rng.uniform(0.1, 2.0)
            lv = evaluate_principal(s, a, c, 1e-10)
            with mpmath.workdps(30):
                z = mpmath.exp(2j * mpmath.pi * mpmath.mpc(a))
                want = complex(mpmath.lerchphi(z, mpmath.mpc(s), c))
            err = abs(lv.value - want)
            assert lv.method is Method.INTEGRAL
            assert err <= lv.abs_err_estimate, (k, s, a, c, err, lv.abs_err_estimate)
            assert err <= 1e-10 * max(1.0, abs(want)), (k, s, a, c, err)

    def test_panel_count(self, monkeypatch):
        # a point at |Im s| = 24.5 that took 1642 panels when the endpoint
        # piece was integrated in log t; a repeatable work count, not a timing
        panels = 0
        integrate = quadrature.integrate

        def counted(*args, **kwargs):
            nonlocal panels
            result = integrate(*args, **kwargs)
            panels += result[2]
            return result

        monkeypatch.setattr(quadrature, "integrate", counted)
        integral_eval(Point3(0.33299 + 24.53071j, 0.30537 - 0.39405j, 0.55468))
        assert panels < 400

    def test_integrand_call_count(self, monkeypatch):
        # the same point: 76 integrand calls when each call bisected one panel, 13 with one call per
        # sweep from a single first panel, 6 from 16 first panels equal in log t
        calls = 0
        integrate = quadrature.integrate

        def counted(f, *args, **kwargs):
            def g(x):
                nonlocal calls
                calls += 1
                return f(x)

            return integrate(g, *args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", counted)
        integral_eval(Point3(0.33299 + 24.53071j, 0.30537 - 0.39405j, 0.55468))
        assert calls <= 8


def inside(a: complex) -> complex:
    """a with Re a = 0 or 1 moved 2^-53 into 0 < Re a < 1, as the transform passes it on Re c = 1."""
    return complex(min(max(a.real, 2.0**-53), 1.0 - 2.0**-53), a.imag)


class TestPoleOnAxis:
    """The limit from inside 0 < Re a < 1 at Re a = 0 or 1 with Im a < 0, read 2^-53 inside
    as the transform's inner evaluations on Re c = 1 reach it: the pole t_0 (t_1) then lies
    just above (below) the t-axis."""

    @pytest.mark.parametrize("point,want", Z_AXIS_POLE)
    def test_limit_from_inside(self, point, want):
        s, a, c = point
        lv = integral_eval(Point3(s, inside(a), c), target_abs_err=1e-10)
        err = abs(lv.value - want)
        assert err <= lv.abs_err_estimate
        assert err <= 1e-10 * max(1.0, abs(want))

    def test_ray_counts_the_pole_it_turns_over(self):
        # just right of Re a = 0 the pole t_0 lies just above the axis, so the ray
        # turned up passes over it (X_0); just left of Re a = 1 the pole t_1 lies
        # just below and is not turned over
        theta, b, _ = _ray(1.5 + 8j, inside(-0.2j), 0.3 - 0.1j, ContourSpec.STRAIGHT)
        assert theta > 0.0 and b == BranchState.from_dicts({0: 1})
        theta, b, _ = _ray(1.5 + 8j, inside(1 - 0.2j), 0.3 - 0.1j, ContourSpec.STRAIGHT)
        assert theta > 0.0 and b.is_zero

    @pytest.mark.parametrize("a, sign", [(-0.2j, -1.0), (1 - 0.2j, 1.0)])
    def test_ray_tilts_away_from_the_pole(self, a, sign):
        theta, b, _ = _ray(1.5, inside(a), 0.3 - 0.1j, ContourSpec.STRAIGHT)
        assert sign * theta > 0.0 and b.is_zero

    def test_tilt_keeps_re_c_positive(self):
        # arg c = 1.37: a tilt of 0.21 toward the next pole would make Re(c e^{i theta}) < 0,
        # where no cutoff of the integral can be certified
        c = 0.1395413006423473 + 0.6862524871519032j
        theta, _, _ = _ray(1.94 - 0.88j, inside(1 - 0.5992864491233267j), c, ContourSpec.STRAIGHT)
        assert 0.0 < theta <= 0.5 * (0.5 * math.pi - cmath.phase(c))
        assert (c * cmath.exp(1j * theta)).real > 0.0

    def test_either_side_of_another_integer_line(self):
        # the pole t_2 lies 2 pi 1e-9 above (below) the axis; the ray tilts away from
        # it, and the two sides differ by the jump M(X_2) across the cut below a = 2
        right = integral_eval(Point3(1.5, 2 + 1e-9 - 0.2j, 0.3))
        left = integral_eval(Point3(1.5, 2 - 1e-9 - 0.2j, 0.3))
        for lv, want in ((right, Z_LINE_2_RIGHT), (left, Z_LINE_2_RIGHT.conjugate())):
            assert abs(lv.value - want) <= min(1e-11, lv.abs_err_estimate)
        jump = monodromy_generator(Generator("X", 2), 1.5, 2 + 1e-9 - 0.2j, 0.3)
        assert abs(left.value - right.value - jump) <= 1e-7

    @pytest.mark.parametrize("a", [-0.2j, 1 - 0.2j, 2 - 0.2j])
    def test_public_route_rejects_a_on_a_cut(self, a):
        with pytest.raises(CutViolation):
            integral_eval(Point3(1.5, a, 0.3 - 0.1j))


class TestDetouredContour:
    def test_deformation_invariance_without_pole(self, rng):
        # a in the upper half-plane: no pole between the contours
        for _ in range(5):
            p = Point3(
                complex(rng.uniform(0.3, 2.0), rng.uniform(-1, 1)),
                complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.8)),
                complex(rng.uniform(0.3, 1.2), 0.0),
            )
            u = rng.uniform(0.3, 1.0)
            eps = rng.uniform(0.3, 0.9) * min(u, 0.5)
            v1 = integral_eval(p, ContourSpec(u, eps), 1e-11)
            v2 = integral_eval(p, ContourSpec.STRAIGHT, 1e-11)
            assert abs(v1.value - v2.value) <= v1.abs_err_estimate + v2.abs_err_estimate

    def test_contour_spec_validation(self):
        with pytest.raises(ValueError):
            ContourSpec(0.5, 0.6)  # epsilon >= u
        with pytest.raises(ValueError):
            ContourSpec(2.0, 0.5)  # epsilon >= 1/2
        with pytest.raises(ValueError):
            ContourSpec(-1.0, 0.1)

    def test_pole_on_detour_arc_detected(self):
        # place the k = 1 pole exactly on the semicircle of radius epsilon
        u, eps = 0.5, 0.2
        a = 1 - 1j * u / TWO_PI + (eps / TWO_PI) * cmath.exp(0.4j)
        with pytest.raises(ContourHitsPole):
            integral_eval(Point3(0.8, a, 0.7), ContourSpec(u, eps))


class TestResidueDiscrepancy:
    def test_matches_closed_form(self):
        n, u, eps = 1, 0.5, 0.2
        a = n - 0.5j / TWO_PI + 0.01
        s, c = 0.6, 0.5
        got = residue_discrepancy(s, a, c, n, u, eps, 1e-10)
        want = monodromy_generator(Generator("X", n), s, a, c)
        assert abs(got - want) < 1e-8

    def test_s_equals_one_instance(self):
        n, u, eps = 1, 0.5, 0.2
        a = n - 0.5j / TWO_PI + 0.01
        c = 0.5
        got = residue_discrepancy(1.0, a, c, n, u, eps, 1e-10)
        want = -2j * math.pi * cmath.exp(-2j * math.pi * c * (a - n))
        assert abs(got - want) < 1e-8

    def test_invariant_under_epsilon_shrink(self):
        n, u = 1, 0.5
        a = n - 0.5j / TWO_PI + 0.005
        s, c = 0.6, 0.5
        v1 = residue_discrepancy(s, a, c, n, u, 0.2, 1e-10)
        v2 = residue_discrepancy(s, a, c, n, u, 0.1, 1e-10)
        assert abs(v1 - v2) < 1e-8

    @pytest.mark.parametrize("s", [0.6 + 20j, 0.6 - 20j])
    def test_rotated_straight_ray(self, s):
        # the straight contour's ray turns up (or, mirrored, down) past the pole
        n, u, eps = 1, 0.5, 0.2
        a = n - 0.5j / TWO_PI + 0.01
        got = residue_discrepancy(s, a, 0.5, n, u, eps, 1e-10)
        want = monodromy_generator(Generator("X", n), s, a, 0.5)
        assert abs(got - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("c", [0.3 + 0.9j, 0.2 - 0.9j, 0.2 + 0.9j])
    def test_steep_c(self, c):
        # at c = 0.3+0.9i a ray through the top of the semicircle has Re(c e^{i theta}) < 0;
        # at c = 0.2+0.9i no ray above the pole has Re(c e^{i theta}) > 0, so the
        # detour adds the closed form M(X_n) to the real axis
        n, u, eps = 1, 0.5, 0.4
        a = n - 0.5j / TWO_PI + 0.02
        got = residue_discrepancy(0.8, a, c, n, u, eps, 1e-10)
        want = monodromy_generator(Generator("X", n), 0.8, a, c)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_pole_not_enclosed_rejected(self):
        n, u, eps = 1, 0.5, 0.2
        a = n - 0.5j / TWO_PI + 0.1  # 2 pi |delta| > epsilon
        with pytest.raises(InvalidRegion):
            residue_discrepancy(0.6, a, 0.5, n, u, eps)
