import cmath
import math

import mpmath
import numpy as np
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
    evaluate_on_cover,
    evaluate_principal,
    integral_eval,
    monodromy_generator,
    residue_discrepancy,
)
from lerchzeta import evaluator, quadrature
from lerchzeta.branching import log_gamma
from lerchzeta.evaluator import _MAX_RAY_PANELS, _contour_integral, _pick_t_max, _ray
from lerchzeta.words import BranchState, Generator
from conftest import (
    PI2_12,
    Z_AXIS_POLE,
    Z_BASE,
    Z_COMPLEX_S,
    Z_CUTOFF_100,
    Z_GAMMA_400,
    Z_GAMMA_TINY,
    Z_INTEGRAL_RAY,
    Z_INTEGRAL_ROUTE,
    Z_INTEGRAL_SWEEP,
    Z_LINE_2_RIGHT,
    Z_NEAR_AXIS,
    Z_NEAR_RAY_POLE,
    Z_PEAK_141,
    Z_PHASE_PANELS,
    Z_REFLECTION_277,
    Z_STRIP_SWEEP,
    by_transform,
)
from test_work_counts import pool_points

TWO_PI = 2.0 * math.pi
EPS = 2.220446049250313e-16


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
            integral_eval(Point3(-evaluator._SIGMA0 - 0.5, 0.5, 0.5))
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

    @pytest.mark.parametrize("point, want", Z_GAMMA_TINY)
    def test_gamma_underflow_answers(self, point, want):
        # Gamma(s) is below binary64's range here (e^{-785} and e^{-940}); 1/Gamma(s) enters the integrand's
        # exponent as -log Gamma(s), so the integral answers, and the dispatch by it
        s, c = point
        for lv in (evaluate_principal(s, 0.3 - 0.1j, c), integral_eval(Point3(s, 0.3 - 0.1j, c))):
            assert lv.method is Method.INTEGRAL
            assert abs(lv.value - want) <= lv.abs_err_estimate <= 1e-10 * abs(want)

    @pytest.mark.parametrize("point, want", [((400, 0.3 - 0.1j, 0.4), Z_GAMMA_400), ((100, 0.3 - 0.1j, 0.01), Z_CUTOFF_100)])
    def test_gamma_overflow_answers(self, point, want):
        # Gamma(400) is about 1e846, and at Re c = 0.01 t^{99} e^{-ct} peaks near e^{812}: both past binary64,
        # while t^{s-1} e^{-ct} / Gamma(s) and the value are not
        lv = integral_eval(Point3(*point))
        assert abs(lv.value - want) <= lv.abs_err_estimate <= 1e-10 * abs(want)

    def test_cutoff_bound_overflow_raises(self):
        # at Re c = 0.01 the cutoff's bound t^{199} e^{-ct} / Gamma(200) passes math.exp's range before it decays
        s, a, c = 200, 0.3 - 0.1j, 0.01 + 1j
        with pytest.raises(OverflowError):
            _pick_t_max(s, a, c, 1e-11, 0.0, log_gamma(s).real)
        with pytest.raises(NonConvergence, match="overflows"):
            integral_eval(Point3(s, a, c))

    @pytest.mark.parametrize("c", [1j, -1.0 + 0.5j])
    def test_cutoff_needs_decay_along_the_ray(self, c):
        # Re(c e^{i theta}) <= 0: e^{-ct} does not decay, so no cutoff bound exists (it divided by 0, or
        # came out negative)
        with pytest.raises(NonConvergence, match="could not certify an integral cutoff"):
            _pick_t_max(0.5, 0.3 - 0.1j, c, 1e-11, 0.0, log_gamma(0.5).real)

    def test_cutoff_survives_rounding_at_huge_im_a(self):
        # at Im a = -1e300 the bound's factor 1 - |e^{2 pi i a - t}| rounded to 0 at the first t it read
        t, b = _pick_t_max(1e-16 + 1e-16j, 0.5 - 1e300j, 11.9, 1e-11, 0.0, 0.0)
        assert t > 6e300 and 0.0 <= b <= 1e-11

    def test_first_panel_past_the_decay_of_e_ct_raises(self):
        # at c = 1e300 - 2i e^{-ct} decays within 1e-298 of t = 0, and the first panel, 1.3e-262 wide, has no
        # node there: the quadrature saw none of the integrand's mass and answered 0.56% from the value
        # c^{-s} / (1 - e^{2 pi i a}) (its next term is 1e-300 smaller) with an estimate of 4.5e-12 of it
        with pytest.raises(NonConvergence, match="decay lengths"):
            integral_eval(Point3(-0.7130034175697695, 0.8023806210825373, 1e300 - 2j))

    def test_gamma_reflection_in_log_scale(self):
        # Re s < 1/2: Gamma(s) comes from the reflection formula, whose sin(pi s) overflows at |Im s| = 277;
        # its logarithm does not
        lv = integral_eval(Point3(0.430 - 277.3j, 0.704 - 0.175j, 0.741 + 2.513j))
        assert abs(lv.value - Z_REFLECTION_277) <= lv.abs_err_estimate <= 1e-10 * abs(Z_REFLECTION_277)

    def test_cutoff_skips_a_start_below_its_bound_condition(self):
        # the start t = 2(sigma - 1)/Re c rounds so that Re c t < 2(sigma - 1), where the tail bound
        # does not hold yet; the cutoff steps past it (an inner call of a seed-7 fuzz point)
        s = 2.6809591697100306 + 0.9474102110710056j
        a = 0.6731831518466862 - 1.4544840078996168j
        c = 0.26329590311798645 - 0.2525751961521374j
        start = 2.0 * (s.real - 1.0) / c.real
        assert c.real * start < 2.0 * (s.real - 1.0)
        t, bound = _pick_t_max(s, a, c, 1e3, 0.0, 0.0)
        assert c.real * t >= 2.0 * (s.real - 1.0)
        assert t == pytest.approx(1.3 * start) and bound <= 1e3

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

    def test_seeded_integral_sweep(self):
        """The integral route against mpmath at 30 digits at 6 <= |Im s| <= 30, frozen in Z_INTEGRAL_SWEEP.

        Real c keeps lerchphi on the principal sheet.  On the real axis 11 of
        these 20 points miss 1e-10 relative, by up to 9e3 at |value| 1.2e5.
        """
        for k, ((s, a, c), want) in enumerate(Z_INTEGRAL_SWEEP):
            lv = evaluate_principal(s, a, c, 1e-10)
            err = abs(lv.value - want)
            assert lv.method is Method.INTEGRAL
            assert err <= lv.abs_err_estimate, (k, s, a, c, err, lv.abs_err_estimate)
            assert err <= 1e-10 * max(1.0, abs(want)), (k, s, a, c, err)

    def test_seeded_strip_agrees_with_the_transform(self, rng):
        """The integral and the transform on -_SIGMA0 < Re s <= 0, with no oracle: 200 seeded points.

        A quarter lie 1e-9 to 1e-3 from s = -k, where H_k/(s + k) and 1/Gamma(s) cancel.  c is
        complex and Im a takes both signs; the two routes share only the index shift in c and
        complex_gamma, so |v_integral - v_transform| <= e_integral + e_transform checks each
        estimate against a value computed another way.
        """
        for k in range(200):
            s = complex(rng.uniform(-evaluator._SIGMA0, 0.0), rng.uniform(-8.0, 8.0))
            if k % 4 == 0:
                gap = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -3.0)
                s = complex(-rng.randint(0, 3) + gap, 0.0) if k % 8 else complex(-rng.randint(1, 3), gap)
            a = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.4, 0.4))
            c = complex(rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0))
            vi = integral_eval(Point3(s, a, c), target_abs_err=1e-10)
            vt = by_transform(s, a, c, 1e-10)
            diff = abs(vi.value - vt.value)
            assert diff <= vi.abs_err_estimate + vt.abs_err_estimate, (k, s, a, c, diff, vi, vt)

    def test_seeded_strip_sweep(self):
        """The integral on -_SIGMA0 < Re s <= 0 against mpmath at 30 digits, frozen in Z_STRIP_SWEEP: 40 seeded points.

        Every fourth point lies 1e-9 to 1e-3 from s = -k.  Where Im a < 0, c is real: lerchphi is
        not the principal sheet there with complex c.  The dispatch answers within its estimate too.
        """
        for k, ((s, a, c), want) in enumerate(Z_STRIP_SWEEP):
            for lv in (integral_eval(Point3(s, a, c), target_abs_err=1e-10), evaluate_principal(s, a, c, 1e-10)):
                err = abs(lv.value - want)
                assert err <= lv.abs_err_estimate, (k, s, a, c, err, lv)

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
        # sweep from a single first panel, 6 from 16 first panels equal in log t, 3 with sweeps
        # that split a panel as many ways as its error asks
        _, calls = integrand_calls(monkeypatch, Point3(0.33299 + 24.53071j, 0.30537 - 0.39405j, 0.55468))
        assert calls <= 4

    def test_near_ray_pole_call_count(self, monkeypatch):
        # the pole t_0 lies 0.006 from the tilted ray: 11 integrand calls from the 16 panels equal
        # in log t alone, 2 with first edges graded toward the pole's foot on the ray
        p = Point3(0.43104904329137717 + 27.350430761804013j, 0.5138958835661489 - 0.15373238814105197j, 0.9622958181043063)
        lv, calls = integrand_calls(monkeypatch, p)
        assert calls <= 4
        assert abs(lv.value - Z_NEAR_RAY_POLE) <= lv.abs_err_estimate


class TestPhasePanels:
    """The ray's first panels are equal in log t, at least 8 and each turning the phase of
    t^{s-1} by at most 4 radians, up to half the ray's max_panels."""

    @pytest.mark.parametrize("point,want,most_calls", Z_PHASE_PANELS)
    def test_pool_points_at_large_im_s(self, monkeypatch, point, want, most_calls):
        lv, calls = integrand_calls(monkeypatch, Point3(*point))
        assert calls <= most_calls
        assert abs(lv.value - want) <= lv.abs_err_estimate

    @pytest.mark.parametrize("s", [0.5 + 3j, 0.5 - 3j, 1.5 + 0.5j])
    def test_small_im_s_starts_from_8_panels(self, monkeypatch, s):
        # a = 1/2 keeps every integrand pole pi from the t-axis, so no edge is graded toward one
        first = first_edges(monkeypatch)
        integral_eval(Point3(s, 0.5, 0.5))
        assert [len(e) - 1 for e in first] == [8]

    def test_first_panels_stay_within_the_cap(self, monkeypatch):
        # at Im s = 800 the phase turns about 8000 radians over the ray, past 4 radians on each of 1500 panels
        s, a, c = 2 + 800j, 0.3 + 1j, 0.4
        theta, _, _, d, k = _ray(s, a, c, ContourSpec.STRAIGHT)
        assert d >= 3.0  # no edge is graded toward a pole
        first = first_edges(monkeypatch, stop=True)
        _contour_integral(s, a, c, theta, 1e-10, d, k, log_gamma(s))
        assert [len(e) - 1 for e in first] == [_MAX_RAY_PANELS // 2]

    def test_peak_past_binary64_answers(self):
        # t^{s-1} e^{-ct} peaks near e^{720} on the ray at s = 141.5; over Gamma(s), near e^{163}
        lv = integral_eval(Point3(141.5, 0.6, 0.3 + 0.1j))
        assert abs(lv.value - Z_PEAK_141) <= lv.abs_err_estimate <= 1e-10 * abs(Z_PEAK_141)

    def test_overflow_raises(self):
        # at Re c = 6e-4, t^{99} e^{-ct} / Gamma(100) peaks near e^{731} on the ray, as the value c^{-100} passes
        # binary64's range
        with pytest.raises(NonConvergence, match="overflows"):
            integral_eval(Point3(100, 0.3 - 0.1j, 6e-4))


class TestEndpointRing:
    def test_h_near_its_poles(self, rng):
        # -h = 1 / expm1(w) at c = 0, w = fl(za - t) 1e-3 to 1e-1 from 2 pi i k, |k| <= 200, against mpmath at
        # that same w: within 8 eps; reducing w by fl(2 pi k) first added an absolute error of up to eps pi |k|
        za, t = [], []
        for _ in range(300):
            a = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
            pole = 2j * math.pi * rng.randint(-200, 200)
            w = pole + 10.0 ** rng.uniform(-3.0, -1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            za.append(2j * math.pi * a)
            t.append(za[-1] - w)
        za, t = np.array(za), np.array(t)
        got = evaluator._h(za, 0j, t)
        with mpmath.workdps(30):
            for w, h in zip((za - t).tolist(), got.tolist()):
                want = 1 / mpmath.expm1(mpmath.mpc(w))
                assert abs(h - want) <= 8 * EPS * abs(want), (w, h)

    @staticmethod
    def assert_covers_the_ring(za, c, t0, theta, bound):
        # the 64 samples on |t| = 2 t0 the endpoint ring once took for this bound
        samples = np.abs(evaluator._h(za, c, 2.0 * t0 * cmath.exp(1j * theta) * evaluator._ROOTS)).max()
        assert bound >= samples, (za, c, t0, theta, bound, samples)

    def test_outer_bound_on_pool_rays(self, monkeypatch):
        rays, contour_integral, outer_max = [], evaluator._contour_integral, evaluator._outer_max

        def recorded_ray(s, a, c, theta, *args):
            rays.append([2j * math.pi * a, c, theta])
            return contour_integral(s, a, c, theta, *args)

        def recorded_bound(za, c, t0, radius):
            bound = outer_max(za, c, t0, radius)
            rays[-1] += [t0, bound]
            return bound

        monkeypatch.setattr(evaluator, "_contour_integral", recorded_ray)
        monkeypatch.setattr(evaluator, "_outer_max", recorded_bound)
        for _, point, branch in pool_points():
            evaluate_on_cover(point, branch, 1e-10)
        assert len(rays) > 800
        for za, c, theta, t0, bound in rays:
            self.assert_covers_the_ring(za, c, t0, theta, bound)

    def test_outer_bound_near_integer_a(self, rng):
        # a within 1e-3 of an integer but at least 1e-3 / 2 pi from it (nearer, a pole lies within 1e-3
        # of t = 0 and the ray raises), |c| up to 50 and a ray that keeps Re(c e^{i theta}) > 0
        for _ in range(2000):
            a = rng.randint(-3, 3) + 10.0 ** rng.uniform(-3.8, -3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            c = cmath.rect(rng.uniform(1e-3, 50.0), rng.uniform(-0.5, 0.5) * math.pi)
            limit = 0.5 * math.pi - abs(cmath.phase(c))
            theta = rng.uniform(-limit, limit)
            radius = TWO_PI * abs(a - round(a.real))
            t0 = min(0.5, 0.4 * radius, 2.0 / abs(c))
            za = 2j * math.pi * a
            self.assert_covers_the_ring(za, c, t0, theta, evaluator._outer_max(za, c, t0, radius))

    def test_outer_bound_far_from_the_real_axis(self, rng):
        # |Im a| up to 100 puts the poles up to 2 pi 100 from the circle; the bound stays at least the samples
        for _ in range(2000):
            a = complex(rng.uniform(-0.5, 0.5), rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 2.0))
            c = cmath.rect(rng.uniform(1e-3, 50.0), rng.uniform(-0.5, 0.5) * math.pi)
            limit = 0.5 * math.pi - abs(cmath.phase(c))
            theta = rng.uniform(-limit, limit)
            radius = TWO_PI * abs(a - round(a.real))
            t0 = min(0.5, 0.4 * radius, 2.0 / abs(c))
            za = 2j * math.pi * a
            self.assert_covers_the_ring(za, c, t0, theta, evaluator._outer_max(za, c, t0, radius))

    @pytest.mark.parametrize("im_a", [-12.0, -100.0])
    def test_far_below_the_real_axis(self, im_a):
        # poles 2 pi |Im a| from the ring: the alias bound stays near e^{2 t0 |c|} 2^{-64}, so the target holds,
        # and |e^{za - t}| >= e^{2 pi |Im a| - 2 t0} takes it down with the value, near e^{-2 pi |Im a|}
        lv = evaluate_principal(2.0, complex(0.3, im_a), 1.0, 1e-10)
        with mpmath.workdps(30):
            want = mpmath.lerchphi(mpmath.exp(2j * mpmath.pi * mpmath.mpc(0.3, im_a)), 2, 1)
        assert lv.abs_err_estimate <= {-12.0: 1e-28, -100.0: 1e-268}[im_a]
        assert abs(lv.value - complex(want)) <= lv.abs_err_estimate

    @pytest.mark.parametrize("im_a", [-113.0, -120.0, -150.0, -340.0])
    def test_past_the_exp_range(self, im_a):
        # Re za = 2 pi |Im a| passes log(float max) = 709.8, so e^{za - t} leaves binary64 at small t, where h takes
        # e^{-w} / expm1(-w); the value falls like e^{-2 pi |Im a|}, below binary64's range from about Im a = -120
        # on, and the estimate, charged the subnormal floor of every sample, still covers it.  The reference is the
        # integral itself over the real axis, which no pole crosses as a moves down from the real axis
        lv = evaluate_principal(2.0, complex(0.3, im_a), 1.0, 1e-10)
        with mpmath.workdps(50):
            za = 2j * mpmath.pi * mpmath.mpc(0.3, im_a)
            r = za.real
            f = lambda t: t * mpmath.exp(-t) / (1 - mpmath.exp(za - t))  # Gamma(2) = 1
            want = mpmath.quad(f, [0, r - 40, r - 5, r, r + 5, r + 40, r + 200, mpmath.inf])
            assert abs(mpmath.mpc(lv.value) - want) <= lv.abs_err_estimate <= 1e-300


def first_edges(monkeypatch, stop: bool = False) -> list[list[float]]:
    """The first edges of every quadrature.integrate call from now on; with stop, calls integrate nothing."""
    seen = []
    integrate = quadrature.integrate

    def recorded(f, edges, *args, **kwargs):
        seen.append(list(edges))
        return (0j, 0.0, len(edges) - 1) if stop else integrate(f, edges, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", recorded)
    return seen


def integrand_calls(monkeypatch, p: Point3):
    """integral_eval(p) and the number of integrand calls its quadratures make."""
    calls = 0
    integrate = quadrature.integrate

    def counted(f, *args, **kwargs):
        def g(x):
            nonlocal calls
            calls += 1
            return f(x)

        return integrate(g, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counted)
    lv = integral_eval(p)
    return lv, calls


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
        theta, b, *_ = _ray(1.5 + 8j, inside(-0.2j), 0.3 - 0.1j, ContourSpec.STRAIGHT)
        assert theta > 0.0 and b == BranchState.from_dicts({0: 1})
        theta, b, *_ = _ray(1.5 + 8j, inside(1 - 0.2j), 0.3 - 0.1j, ContourSpec.STRAIGHT)
        assert theta > 0.0 and b.is_zero

    def test_ray_turns_over_at_most_the_pole_cap(self):
        # at Im s = 600 the ray turns up to tan theta ~ 75, so at Im a = -67 it would pass over 5025 poles, one
        # monodromy term each (at Im a = -1e300, 1e300 of them)
        with pytest.raises(NonConvergence, match="cap of 4096"):
            _ray(0.5 + 600j, 0.5 - 67j, 0.5, ContourSpec.STRAIGHT)
        _, b, *_ = _ray(0.5 + 600j, 0.5 - 54j, 0.5, ContourSpec.STRAIGHT)
        assert 4000 < len(b.kx) <= 4096

    @pytest.mark.parametrize("a, sign", [(-0.2j, -1.0), (1 - 0.2j, 1.0)])
    def test_ray_tilts_away_from_the_pole(self, a, sign):
        theta, b, *_ = _ray(1.5, inside(a), 0.3 - 0.1j, ContourSpec.STRAIGHT)
        assert sign * theta > 0.0 and b.is_zero

    def test_tilt_keeps_re_c_positive(self):
        # arg c = 1.37: a tilt of 0.21 toward the next pole would make Re(c e^{i theta}) < 0,
        # where no cutoff of the integral can be certified
        c = 0.1395413006423473 + 0.6862524871519032j
        theta, *_ = _ray(1.94 - 0.88j, inside(1 - 0.5992864491233267j), c, ContourSpec.STRAIGHT)
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
        with pytest.raises(ValueError, match="give both"):
            ContourSpec(0.5)  # u without epsilon

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
