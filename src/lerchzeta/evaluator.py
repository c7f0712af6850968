"""Direct evaluation on the native convergence regions.

Two routes: the three-variable Dirichlet series and the integral
representation over straight or detoured contours.  The series sums its
tail by the Abel-Plana formula, one exponentially convergent integral that
is exact for every reduced a: the conditionally convergent real-a case,
integer a and Im a too small for a direct partial sum.  The integral runs
on one ray; the poles it turns over come from the closed-form monodromy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quadrature
from .branching import complex_gamma
from .domain import ContourSpec, Point3, SymKind, is_real_integer, on_a_cut_ray
from .errors import (
    ContourHitsPole,
    CutViolation,
    DivergentSeries,
    InvalidRegion,
    NonConvergence,
)
from .monodromy import branch_monodromy
from .words import BranchState

_EPS = 2.220446049250313e-16
_TWO_PI = 2.0 * math.pi
_SPLIT_CAP = 40_000  # largest split point the series tail starts from
_POLE_CLEARANCE = 1e-3  # least distance from an integrand pole to the ray or a detour
_RING = 64  # samples on the endpoint circle, and terms of the endpoint series
_K = np.arange(_RING, dtype=np.float64)
_ROOTS = np.exp((2j * math.pi / _RING) * _K)
# DFT with phases reduced mod _RING before exp: unreduced ones lose about 1e-13
_DFT = np.exp((-2j * math.pi / _RING) * (np.outer(_K, _K) % _RING)) / _RING


class Method(str, Enum):
    SERIES = "series"
    INTEGRAL = "integral"
    TRANSFORM = "transform"
    DDE_SHIFT = "dde_shift"  # only dde_shift returns it; no route of evaluate_principal does


@dataclass(frozen=True)
class LerchValue:
    """A computed value with its evaluation route and error estimate.

    abs_err_estimate comes from the tail/quadrature estimators plus roundoff
    accounting; it is an estimate in the upper-bound style, not a guess.
    """

    value: complex
    method: Method
    abs_err_estimate: float


def _reduce_a(a: complex) -> complex:
    """Shift a by an integer so Re lands in [-1/2, 1/2]; exact in binary64."""
    return complex(a.real - round(a.real), a.imag)


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------


def _even_edges(y_max: float) -> list[float]:
    """Edges of 8 equal first panels over [0, y_max], the last exactly y_max."""
    return [y_max * k / 8 for k in range(9)]


def _osc_tail(s: complex, alpha: complex, c: complex, n0: int, target: float) -> tuple[complex, float]:
    """sum_{n>=n0} g(n), g(t) = exp(2*pi*i*alpha*t) (t+c)^{-s}; alpha reduced, Im alpha >= 0.

    Abel-Plana formula (DLMF 2.10.2), exact for every such alpha:

        int_{n0}^inf g(t) dt + g(n0)/2 + i int_0^inf (g(n0+iy) - g(n0-iy)) / (e^{2 pi y} - 1) dy.

    The first integral runs on a contour rotated toward decay (the real axis
    when Re alpha = 0); for alpha = 0 it is (n0+c)^{1-s}/(s-1), returned less
    its pole 1/(s-1).  The second decays like e^{-2 pi (1 - |Re alpha|) y}.
    """
    x0, beta = alpha.real, alpha.imag
    sigma = s.real
    w = 2j * math.pi * alpha

    def g(t: np.ndarray) -> np.ndarray:
        return np.exp(w * t - s * np.log(t + c))

    def checked(rate: float) -> float:
        if rate < 1e-6:
            raise NonConvergence(f"tail integrand decays too slowly at reduced a = {alpha!r}, n0 = {n0}")
        return rate

    grow = max(0.0, -sigma)
    # |(n0+c)^{-s}| carries exp(Im s * arg(n0+c)), and away from n0 the factor
    # e^{Im s * arg(t+c)} of |(t+c)^{-s}| grows by at most e^{|Im s| |t-n0| / (n0+Re c)}
    scale0 = math.exp(-_TWO_PI * beta * n0 + abs(s.imag) * abs(c.imag) / (n0 + c.real))

    if alpha == 0:  # ((n0+c)^{1-s} - 1)/(s-1), which is -log(n0+c) at s = 1
        log_n0, err = cmath.log(n0 + c), 0.0
        integral = complex(np.expm1((1.0 - s) * log_n0)) / (s - 1.0) if s != 1 else -log_n0
    else:
        decay = _TWO_PI * (abs(x0) if x0 != 0.0 else beta)
        # rotate the contour toward decay; purely imaginary alpha has no
        # oscillation and stays on the real axis
        rot = 1j if x0 > 0.0 else -1j if x0 < 0.0 else 1.0
        rate = checked(decay - max(0.0, s.imag * rot.imag) / (n0 + c.real))

        def trunc_bound(y: float) -> float:
            return scale0 * math.exp(-rate * y) * (n0 + abs(c) + y + 2.0) ** grow / rate

        y_max = (40.0 + 2.0 * abs(sigma)) / decay
        while trunc_bound(y_max) > 0.125 * target and y_max < 1e9:
            y_max *= 2.0
        integral, quad_err, _ = quadrature.integrate(lambda y: g(n0 + rot * y), _even_edges(y_max), tol=0.125 * target)
        integral *= rot
        err = quad_err + trunc_bound(y_max)

    # For y >= log(2)/(2 pi), each of |g(n0 +- iy)| / (e^{2 pi y} - 1) is at
    # most 2 scale0 e^{-rate y} (n0+|c|+y+2)^grow; past y_max >= 2 grow / rate
    # that integrates to at most twice its value at y_max over rate.
    rate = checked(_TWO_PI * (1.0 - abs(x0)) - abs(s.imag) / (n0 + c.real))

    def corr_bound(y: float) -> float:
        return 8.0 * scale0 * math.exp(-rate * y) * (n0 + abs(c) + y + 2.0) ** grow / rate

    y_max = max(0.5, 2.0 * grow / rate)
    while corr_bound(y_max) > 0.125 * target and y_max < 1e9:
        y_max *= 1.5

    def corr(y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # e^{2 pi y} overflows to inf past y ~ 113, where the quotient is 0
            damp = np.expm1(_TWO_PI * y)
        return (g(n0 + 1j * y) - g(n0 - 1j * y)) / damp

    boundary, corr_err, _ = quadrature.integrate(corr, _even_edges(y_max), tol=0.125 * target)
    value = integral + 0.5 * cmath.exp(w * n0 - s * cmath.log(n0 + c)) + 1j * boundary
    return value, err + corr_err + corr_bound(y_max)


def _partial_sum(s: complex, alpha: complex, c: complex, n_terms: int) -> tuple[complex, float]:
    n = np.arange(n_terms, dtype=np.float64)
    terms = np.exp((2j * math.pi * alpha) * n - s * np.log(n + c))
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def _direct_length(s: complex, alpha: complex, c: complex, tol: float) -> tuple[int, float] | None:
    """(n, bound) for the first n = 16, 32, ... <= 300000 whose geometric tail bound is below tol, or None.

    The bound is |term(n)| / (1 - ratio), term(n) the first excluded term;
    |(n+c)^{-s}| carries an extra exp(Im s * arg(n+c)) factor.
    """
    sigma, beta, rc = s.real, alpha.imag, c.real
    n = 16
    while beta > 0.0 and n <= 300_000:
        ratio = math.exp(-_TWO_PI * beta) * (1.0 + 1.0 / (n + rc)) ** max(0.0, -sigma)
        if ratio < 0.999:
            bound = math.exp(
                -_TWO_PI * beta * n
                - sigma * math.log(n + (rc if sigma >= 0 else rc + abs(c.imag)))
                + abs(s.imag) * abs(c.imag) / (n + rc)
            ) / (1.0 - ratio)
            if bound < tol:
                return n, bound
        n *= 2
    return None


def dirichlet_series(s: complex, a: complex, c: complex, target_abs_err: float = 1e-12) -> LerchValue:
    """Dirichlet-series value of the three-variable zeta at (s, a, c).

    Converges for Im a > 0 (any s), for real non-integral a when Re s > 0
    (conditionally for Re s <= 1) and for real integer a when Re s >= 1 and
    s != 1, where the tail is Hermite's formula.  Requires Re c > 0.  The
    terms before n0 are summed directly; the rest is 0 with its geometric
    bound when that bound reaches the target at a cheap n0 (Im a > 0), and
    the Abel-Plana tail otherwise.  One roundoff rule covers both:
    4 eps (sum |terms| + |tail|) (1 + |s| log(n0 + |c| + 1)).
    """
    s, a, c = complex(s), complex(a), complex(c)
    if c.real <= 0.0:
        raise DivergentSeries(f"series needs Re c > 0, got c = {c!r}")
    if a.imag < 0.0:
        raise DivergentSeries("series diverges for Im a < 0")
    if is_real_integer(a) and (s.real < 1.0 or s == 1):
        raise DivergentSeries("integer a requires Re s >= 1 and s != 1")
    if a.imag == 0.0 and s.real <= 0.0:
        raise DivergentSeries("real a requires Re s > 0")
    lv = _series(s, _reduce_a(a), c, target_abs_err)
    pole = 1.0 / (s - 1.0) if is_real_integer(a) else 0.0
    return LerchValue(lv.value + pole, Method.SERIES, lv.abs_err_estimate + 4.0 * _EPS * abs(pole))


def _series(s: complex, alpha: complex, c: complex, target_abs_err: float) -> LerchValue:
    """The unchecked series at reduced alpha; at alpha = 0 less its pole 1/(s-1), so entire in s."""
    direct = _direct_length(s, alpha, c, 0.5 * target_abs_err)
    if direct is not None:
        n0, tail_err = direct
        tail = 0j
    else:
        # n0 >= |Im s| / pi keeps the decay rate of the tail's boundary
        # integral at pi or more.  Where Re alpha != 0 the split point also
        # keeps the phase growth |Im s| / n0 of (t+c)^{-s} on the rotated
        # contour below pi |Re alpha|, up to a cap.
        n0 = max(1, int(math.ceil(abs(s.imag) / math.pi)))
        if alpha.real != 0.0:
            split = 2.0 * abs(s.imag) / (_TWO_PI * abs(alpha.real))
            if split > _SPLIT_CAP:
                raise NonConvergence(f"split point {split:.3e} exceeds {_SPLIT_CAP}")
            n0 = max(n0, int(math.ceil(split)))
        tail, tail_err = _osc_tail(s, alpha, c, n0, 0.5 * target_abs_err)
    partial, absum = _partial_sum(s, alpha, c, n0)
    # roundoff of exp(-s log(n+c)) carries the phase error |s| log(n+c)
    phase_err = 1.0 + abs(s) * math.log(n0 + abs(c) + 1.0)
    err = tail_err + 4.0 * _EPS * (absum + abs(tail)) * phase_err
    if err > max(1e6 * target_abs_err, 1e-6):
        raise NonConvergence(f"series error estimate {err:.3e} far above target {target_abs_err:.3e}")
    return LerchValue(partial + tail, Method.SERIES, err)


def series_eval(p: Point3, target_abs_err: float = 1e-12) -> LerchValue:
    """Series evaluation at a valid point (see :func:`dirichlet_series`)."""
    return dirichlet_series(p.s, p.a, p.c, target_abs_err)


# ---------------------------------------------------------------------------
# integral route
# ---------------------------------------------------------------------------


def _nearest_pole(a: complex, theta: float, contour: ContourSpec) -> tuple[float, int]:
    """(distance, k) of the pole t_k = 2*pi*i*(a - k) nearest the ray arg t = theta, or the detour.

    That is one of the two around the axis or the ray's crossing of the column Re t = -2*pi*Im a.
    The straight contour's poles need clearance from the ray only: the closed form carries the
    ones it turns over.  A detour's semicircle is nearest radially above the axis and at an end below it.
    """
    to_ray = lambda q: abs(q.imag) if q.real >= 0.0 else abs(q)

    def distance(p: complex) -> float:
        d = to_ray(p * cmath.exp(-1j * theta))
        if contour.is_straight:
            return d
        w, eps = p - contour.u, contour.epsilon
        arc = abs(abs(w) - eps) if w.imag >= 0.0 else min(abs(w - eps), abs(w + eps))
        return min(d, arc, to_ray(p) if abs(w.real) >= eps else arc)

    ks = {f(x) for x in (a.real, a.real + a.imag * math.tan(theta)) for f in (math.floor, math.ceil)}
    return min((distance(2j * math.pi * (a - k)), k) for k in ks)


def _ray(s: complex, a: complex, c: complex, contour: ContourSpec) -> tuple[float, BranchState, float]:
    """(theta, b, sign): the contour's integral is the ray's plus sign * Gamma(s) * M(b), M the monodromy.

    For Im s > 16/pi the straight contour's ray turns up to pi/2 - 8/Im s -
    max(arg c, 0), so Re(c e^{i theta}) > 0 and 1/Gamma(s) loses e^8, not
    e^{pi Im s / 2}.  Within 1e-3 of a pole it steps toward the axis, onto it
    if still that close.  An axis still that close to a pole tilts away from
    it, by at most half the angle that keeps Re(c e^{i theta}) > 0.  b = one
    X_k per pole turned over.  A detour's ray passes over the pole n it
    encloses, halfway to the nearer of the next pole's angle and
    pi/2 - arg c; else it is the axis, b = X_n and sign = +1.  A pole within
    1e-3 of the ray or the detour raises ContourHitsPole.
    """
    theta, b, sign, x0 = 0.0, {}, -1.0, -_TWO_PI * a.imag
    if contour.is_straight:
        if s.imag > 16.0 / math.pi:
            theta = max(0.0, 0.5 * math.pi - 8.0 / s.imag - max(cmath.phase(c), 0.0))
        d, k = _nearest_pole(a, theta, contour)
        y = _TWO_PI * (a.real - k)  # step a quarter of the pole spacing below the pole, or to half its height
        if d < _POLE_CLEARANCE and x0 > 0.0 and y > 0.0:
            theta = math.atan2(max(y - 0.25 * math.pi, 0.5 * y), x0)
        if _nearest_pole(a, theta, contour)[0] < _POLE_CLEARANCE:
            theta = 0.0
        d, k = _nearest_pole(a, theta, contour)
        if d < _POLE_CLEARANCE and x0 > 0.0:
            # pass pi/4 from the pole at its column, keeping Re(c e^{i theta}) > 0
            side = math.copysign(1.0, a.real - k)  # +1: the pole lies above the axis
            theta = -side * min(math.atan2(0.25 * math.pi, x0), 0.5 * (0.5 * math.pi + side * cmath.phase(c)))
        first = math.floor(a.real + a.imag * math.tan(theta)) + 1
        b = dict.fromkeys(range(first, math.ceil(a.real)), 1)
    else:
        n = round(a.real)
        w = 2j * math.pi * (a - n) - contour.u
        angle, limit = math.atan2(w.imag, x0), min(math.atan2(w.imag + _TWO_PI, x0), 0.5 * math.pi - cmath.phase(c))
        if w.imag > 0.0 and abs(w) < contour.epsilon:  # the pole n lies under the semicircle
            theta, b, sign = (0.5 * (angle + limit), {}, -1.0) if limit > angle else (0.0, {n: 1}, 1.0)
    d, k = _nearest_pole(a, theta, contour)
    if d < _POLE_CLEARANCE:
        raise ContourHitsPole(f"integrand pole at t = {2j * math.pi * (a - k)!r} (a-plane index {k}) is {d:.2e} away")
    return theta, BranchState.from_dicts(b), sign


def _pick_t_max(s: complex, a: complex, c: complex, target: float, theta: float) -> tuple[float, float]:
    """Cutoff T on the ray arg t = theta with a certified bound on the discarded [T, inf) piece."""
    # |t^{s-1} e^{-ct}| = r^{sigma-1} e^{-Im s theta - rc r}, |1 - e^{2 pi i a - t}| >= 1 - e^{log_abs_z - r cos}
    sigma, rc, cos = s.real, (c * cmath.exp(1j * theta)).real, math.cos(theta)
    log_abs_z = -_TWO_PI * a.imag

    def bound(t: float) -> float | None:
        if t * cos < log_abs_z + math.log(2.0):
            return None
        if sigma > 1.0 and rc * t < 2.0 * (sigma - 1.0):
            return None
        d = 1.0 - math.exp(log_abs_z - t * cos)
        base = math.exp((sigma - 1.0) * math.log(t) - rc * t - s.imag * theta) / rc
        return (2.0 if sigma > 1.0 else 1.0) * base / d

    t = max(2.0, (log_abs_z + 1.0) / cos, 2.0 * (sigma - 1.0) / rc if sigma > 1.0 else 0.0)
    for _ in range(400):
        b = bound(t)
        if b is not None and b <= target:
            return t, b
        t *= 1.3
    raise NonConvergence("could not certify an integral cutoff")


def _h(za: complex, c: complex, t: np.ndarray, lead: complex | np.ndarray = 0.0) -> np.ndarray:
    """e^{lead - ct} / (1 - e^{za - t}): h(t) itself, or t^{s-1} h(t) for lead = (s-1) log t."""
    w = za - t
    w = w - (2j * math.pi) * np.rint(w.imag / _TWO_PI)
    return np.exp(lead - c * t) / (-np.expm1(w))


def _contour_integral(s: complex, a: complex, c: complex, theta: float, tol: float) -> tuple[complex, float]:
    """Integral of t^{s-1} h(t), h = e^{-ct} / (1 - e^{2*pi*i*a} e^{-t}), over the ray t = r e^{i theta}.

    h is analytic in |t| < R = 2*pi*dist(a, Z), so the piece over r in (0, t0]
    with t0 <= 0.4 R is T^s sum_{k<64} H_k / (s+k), T = t0 e^{i theta},
    H_k = h_k T^k from 64 samples on |t| = t0.  One adaptive quadrature takes
    the rest up to a certified cutoff, in real arithmetic when theta = 0.
    """
    za = 2j * math.pi * a
    sm1 = s - 1.0
    rot = cmath.exp(1j * theta)
    t_max, tail_err = _pick_t_max(s, a, c, 0.1 * tol, theta)
    # a pole within 1e-3 of t = 0 has raised, so R >= 1e-3; t0 <= 2/|c| keeps
    # |e^{-ct}| <= e^4 on the circle |t| = 2 t0
    t0 = min(0.5, 0.25 * t_max, 0.4 * _TWO_PI * abs(a - round(a.real)), 2.0 / abs(c))
    log_t0 = complex(math.log(t0), theta)

    samples = _h(za, c, t0 * rot * _ROOTS)
    inv = 1.0 / (s + _K)
    total = cmath.exp(s * log_t0) * complex((_DFT @ samples) @ inv)
    # |H_k| <= M 2^{-k}, M = max |h| on |t| = 2 t0, bounds aliasing and truncation;
    # then the roundoff of the samples and of the phase s log T, then the cutoff tail
    alias = float(np.max(np.abs(_h(za, c, 2.0 * t0 * rot * _ROOTS)))) * 2.0**-_RING * (4.0 / abs(s) + 2.0 / _RING)
    roundoff = 4.0 * _EPS * float(np.max(np.abs(samples)) * np.sum(np.abs(inv))) * (1.0 + abs(s) * abs(log_t0))
    err = t0**s.real * math.exp(-s.imag * theta) * (alias + roundoff) + tail_err
    f = lambda r: _h(za, c, r * rot, sm1 * (np.log(r) + 1j * theta)) * rot
    if theta == 0.0:  # real arithmetic on the axis
        f = lambda r: _h(za, c, r, sm1 * np.log(r))
    # t^{s-1} turns its phase uniformly in log t, so the first panels are equal in log t
    inner = [t0 * (t_max / t0) ** (k / 16) for k in range(1, 16)]
    val, e, _ = quadrature.integrate(f, [t0, *inner, t_max], tol=0.4 * tol, max_panels=3000)
    return total + val, err + e


def integral_eval(
    p: Point3,
    contour: ContourSpec = ContourSpec.STRAIGHT,
    target_abs_err: float = 1e-10,
) -> LerchValue:
    """Contour-integral evaluation, valid for Re s > 0, Re c > 0.

    The straight contour runs along the positive real t-axis; a detoured
    contour makes a clockwise semicircular excursion of radius epsilon over
    u.  The integrand's t^{s-1} uses the principal branch continued along the
    contour.  The integral runs on one ray (:func:`_ray`); the poles
    t = 2*pi*i*(a - k) between the two come from the closed-form monodromy,
    and any pole closer than 1e-3 to the ray or a detour raises
    ContourHitsPole.  An a on a cut ray raises CutViolation.
    """
    if on_a_cut_ray(p.a):
        raise CutViolation(f"a = {p.a!r} lies on a downward cut ray below an integer")
    return _integral_eval_raw(p.s, p.a, p.c, contour, target_abs_err)


def _integral_eval_raw(
    s: complex,
    a: complex,
    c: complex,
    contour: ContourSpec = ContourSpec.STRAIGHT,
    target_abs_err: float = 1e-10,
) -> LerchValue:
    s, a, c = complex(s), complex(a), complex(c)
    if s.real <= 0.0:
        raise InvalidRegion(f"integral needs Re s > 0, got s = {s!r}")
    if c.real <= 0.0:
        raise InvalidRegion(f"integral needs Re c > 0, got c = {c!r}")
    if contour.is_straight and s.imag < -16.0 / math.pi:
        # conj zeta(s, a, c) = zeta(conj s, 1 - conj a, conj c)
        lv = _integral_eval_raw(s.conjugate(), 1.0 - a.conjugate(), c.conjugate(), contour, target_abs_err)
        return LerchValue(lv.value.conjugate(), lv.method, lv.abs_err_estimate)
    try:  # for Re s < 1/2 the reflection's sin(pi s) overflows where Gamma(s) underflows
        gam = complex_gamma(s)
    except OverflowError:
        gam = 0j
    if gam == 0:
        raise NonConvergence(f"Gamma(s) underflows at s = {s!r}")
    theta, b, sign = _ray(s, a, c, contour)
    scale = abs(gam)
    raw, raw_err = _contour_integral(s, a, c, theta, 0.9 * target_abs_err * scale)
    poles, poles_err = branch_monodromy(b, s, a, c)
    value = raw / gam + sign * poles
    err = raw_err / scale + 4e-13 * abs(value) + poles_err
    return LerchValue(value, Method.INTEGRAL, err)


def residue_discrepancy(
    s: complex,
    a: complex,
    c: complex,
    n: int,
    u: float,
    epsilon: float,
    target_abs_err: float = 1e-10,
) -> complex:
    """Detoured-minus-straight integral value at the same point.

    Defined when a sits in the half-disk between the straight and detoured
    cuts below the puncture at n, i.e. a = (n - i*u/(2*pi)) + delta with
    Re delta > 0 and 2*pi*|delta| < epsilon, so the contour deformation
    crosses exactly the k = n pole, which the detour's ray carries by
    quadrature.  Equals -(2*pi*i)^s / Gamma(s) * (a-n)^{s-1} * exp(-2*pi*i*c*(a-n))
    up to the combined quadrature error.
    """
    s, a, c = complex(s), complex(a), complex(c)
    delta = a - (n - 1j * u / _TWO_PI)
    if delta.real <= 0.0 or _TWO_PI * abs(delta) >= 0.95 * epsilon:
        raise InvalidRegion(
            "a must lie in the enclosed half-disk: Re(a - (n - i u/2pi)) > 0 and 2pi|a - (n - i u/2pi)| < epsilon"
        )
    detoured = _integral_eval_raw(s, a, c, ContourSpec(u, epsilon), 0.5 * target_abs_err)
    straight = _integral_eval_raw(s, a, c, ContourSpec.STRAIGHT, 0.5 * target_abs_err)
    return detoured.value - straight.value


# ---------------------------------------------------------------------------
# two-sided series
# ---------------------------------------------------------------------------


def two_sided_series(kind: SymKind | str, s: complex, a: float, c: float) -> complex:
    """Literal two-sided sum over all integers n of e^{2*pi*i*n*a} |n+c|^{-s},
    with an extra sgn(n+c) factor for the MINUS kind.

    Requires Re s > 1 (absolute convergence) and real 0 < a < 1, 0 < c < 1.
    Tails on both sides are summed by the Abel-Plana formula; no symmetrized-zeta
    identity is used, so this is an independent oracle for those identities.
    """
    kind = SymKind(kind)
    s = complex(s)
    a, c = float(a), float(c)
    if s.real <= 1.0:
        raise DivergentSeries("two-sided series needs Re s > 1")
    if not (0.0 < a < 1.0 and 0.0 < c < 1.0):
        raise InvalidRegion("two-sided series needs real 0 < a < 1 and 0 < c < 1")
    sign = -1.0 if kind is SymKind.MINUS else 1.0
    target = 1e-12

    n_split = 48
    n = np.arange(-n_split, n_split, dtype=np.float64)
    x = n + c
    terms = np.exp(2j * math.pi * a * n - s * np.log(np.abs(x)))
    if kind is SymKind.MINUS:
        terms = terms * np.sign(x)
    partial = complex(np.sum(terms))

    right, _ = _osc_tail(s, _reduce_a(complex(a)), complex(c), n_split, target)
    left, _ = _osc_tail(s, _reduce_a(complex(-a)), complex(1.0 - c), n_split, target)
    left *= sign * cmath.exp(-2j * math.pi * a)
    return partial + right + left
