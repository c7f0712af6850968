"""Direct evaluation on the native convergence regions.

Two routes: the three-variable Dirichlet series and the integral
representation over straight or detoured contours.  The series sums its
tail by the Abel-Plana formula, one exponentially convergent integral that
is exact for every reduced a: the conditionally convergent real-a case,
integer a and Im a too small for a short direct partial sum.  The integral
runs on one ray; the poles it turns over come from the closed-form
monodromy.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quadrature
from .branching import _principal_log_array, log_gamma
from .domain import ContourSpec, Point3, SymKind, checked_target, finite_coordinates, is_real_integer, on_a_cut_ray
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
# the longest index shift in c, and the longest window of the series, in terms: above every shift of the seeded
# boxes (|Re c| <= 1e5) and the 1e6 terms of c = -1e6 + 0.5i
_TERM_CAP = 2**21
_DIRECT_MARGIN = 1024  # a direct sum this much longer than the split point costs more than the Abel-Plana tail
_MAX_RAY_PANELS = 3000  # quadrature panels on the integral's ray; its first panels take at most half
_POLE_CLEARANCE = 1e-3  # least distance from an integrand pole to the ray or a detour
# the most decay lengths of e^{-ct} the ray's first panel may span: its first K21 node, 0.00217 of the way in, then
# sees e^{-ct} above e^{-2.2}, so the panel's error estimate sees the mass there.  At 2e5 lengths (c = 1e40, s = 0.3)
# every node sees e^{-ct} decayed and the quadrature answered 2% off with an estimate of 1e-12 of the value; at 630
# (c = 1e20) it answered within its estimate.  Seeded boxes with |c| <= 1e5 reach 6.4
_DECAY_SPAN = 1000.0
# the most poles the integral's ray may turn over, one monodromy term each; seeded boxes turn over at most 162
_POLE_CAP = 4096
_RING = 64  # samples on the endpoint circle, and terms of the endpoint series
_K = np.arange(_RING, dtype=np.float64)
_ROOTS = np.exp((2j * math.pi / _RING) * _K)
_NO_POLES = BranchState()  # the ray turns over no pole
# the integral owns Re s > -_SIGMA0; further left t0^{Re s} cancels and the transform serves.  On seeded
# points with |Im s| <= 3 it met 1e-10 at 85% of -4 < Re s <= -3 and at 47% of -5 < Re s <= -4
_SIGMA0 = 4.0
# flat relative error charged to a value that passes through Gamma (here and in continuation): it stands in for
# log_gamma's error, at most 3.1e-13 for |Im s| <= 120, until a charge derived from that error replaces it
_FLAT_REL_ERR = 4e-13
_EXP_MAX = math.log(sys.float_info.max)  # e^x is finite for real x up to here


class Method(str, Enum):
    SERIES = "series"
    INTEGRAL = "integral"
    TRANSFORM = "transform"
    DDE_SHIFT = "dde_shift"  # only dde_shift returns it; no route of evaluate_principal does


@dataclass(frozen=True)
class LerchValue:
    """A computed value with its evaluation route and error estimate.

    abs_err_estimate comes from the tail/quadrature estimators plus roundoff accounting; it is an estimate
    in the upper-bound style, not a guess.  Both are finite: a value or estimate that overflows binary64
    (numpy's inf or NaN) raises NonConvergence here, so every route ends it alike.  method names the route
    that evaluated the principal value at the (shifted) point; an index shift in c or a cover term keeps
    that label, even where its own terms set the value and estimate.
    """

    value: complex
    method: Method
    abs_err_estimate: float

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.value) and math.isfinite(self.abs_err_estimate)):
            raise NonConvergence(f"value {self.value!r} or its estimate {self.abs_err_estimate!r} overflows")


def _route_value(value: complex, method: Method, err: float) -> LerchValue:
    """LerchValue(value, method, err), raising OverflowError, for the route's own try to name, where either is not
    finite: a complex product that leaves binary64 gives inf or NaN and raises nothing itself."""
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise OverflowError
    return LerchValue(value, method, err)


def _target_over(target: float, log_factor: float) -> float:
    """target / e^{log_factor}, a target over a factor of log modulus log_factor, saturating at float max."""
    return math.exp(min(math.log(target) - log_factor, _EXP_MAX)) if target > 0.0 else 0.0


def _reduce_a(a: complex) -> complex:
    """Shift a by an integer so Re lands in [-1/2, 1/2]; exact in binary64."""
    return complex(a.real - round(a.real), a.imag)


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------


# first edges of the Abel-Plana tail in u = y / y_max: 4 equal panels, the first split at 1/32 and 1/8 toward
# u = 0, where the integrand varies fastest
_TAIL_EDGES = [0.0, 1 / 32, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0]


def _osc_tail(s: complex, alpha: complex, c: complex, n0: int, target: float) -> tuple[complex, float]:
    """sum_{n>=n0} g(n), g(t) = exp(2*pi*i*alpha*t) (t+c)^{-s}; alpha reduced, Im alpha >= 0.

    Abel-Plana formula (DLMF 2.10.2), exact for every such alpha:

        int_{n0}^inf g(t) dt + g(n0)/2 + i int_0^inf (g(n0+iy) - g(n0-iy)) / (e^{2 pi y} - 1) dy.

    The first integral runs on a contour rotated toward decay (the real axis
    when Re alpha = 0); for alpha = 0 it is (n0+c)^{1-s}/(s-1), returned less
    its pole 1/(s-1).  The second decays like e^{-2 pi (1 - |Re alpha|) y}.
    Each is cut at its own y_max with its own truncation bound; both run as
    one quadrature in u = y / y_max from the first edges _TAIL_EDGES, at the
    sum of their tolerances.
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

    def bound(k: float, rate: float, y: float) -> float:  # k times the bound on the part past y decaying at rate
        return k * scale0 * math.exp(-rate * y) * (n0 + abs(c) + y + 2.0) ** grow / rate

    if alpha == 0:  # ((n0+c)^{1-s} - 1)/(s-1), which is -log(n0+c) at s = 1
        log_n0, err = cmath.log(n0 + c), 0.0
        integral = complex(np.expm1((1.0 - s) * log_n0)) / (s - 1.0) if s != 1 else -log_n0
        rotated, tol = None, 0.125 * target
    else:
        decay = _TWO_PI * (abs(x0) if x0 != 0.0 else beta)
        # rotate the contour toward decay; purely imaginary alpha has no
        # oscillation and stays on the real axis
        rot = 1j if x0 > 0.0 else -1j if x0 < 0.0 else 1.0
        rate = checked(decay - max(0.0, s.imag * rot.imag) / (n0 + c.real))
        y_max = (40.0 + 2.0 * abs(sigma)) / decay
        while bound(1.0, rate, y_max) > 0.125 * target and y_max < 1e9:
            y_max *= 2.0
        integral, err, tol = 0j, bound(1.0, rate, y_max), 0.25 * target
        step = rot * y_max
        rotated = lambda u: step * g(n0 + step * u)

    # For y >= log(2)/(2 pi), each of |g(n0 +- iy)| / (e^{2 pi y} - 1) is at
    # most 2 scale0 e^{-rate y} (n0+|c|+y+2)^grow; past y_max >= 2 grow / rate
    # that integrates to at most twice its value at y_max over rate.
    rate = checked(_TWO_PI * (1.0 - abs(x0)) - abs(s.imag) / (n0 + c.real))
    y_corr = max(0.5, 2.0 * grow / rate)
    while bound(8.0, rate, y_corr) > 0.125 * target and y_corr < 1e9:
        y_corr *= 1.5

    def tail(u: np.ndarray) -> np.ndarray:
        # g(n0+iy) - g(n0-iy) = 2 e^mean sinh(half) keeps its relative accuracy as y -> 0, where the
        # difference cancels; e^{2 pi y} (and the sinh) overflow to inf past y ~ 113, where the quotient is 0
        # (both callers hold np.errstate around _osc_tail, so numpy does not warn)
        y = y_corr * u
        mean = w * n0 - 0.5 * s * (np.log(n0 + c + 1j * y) + np.log(n0 + c - 1j * y))
        half = 1j * w * y - s * np.arctanh(1j * y / (n0 + c))
        damp = np.expm1(_TWO_PI * y)
        return (1j * y_corr) * np.where(np.isinf(damp), 0.0, 2.0 * np.exp(mean) * np.sinh(half) / damp)

    f = tail if rotated is None else lambda u: rotated(u) + tail(u)
    quad, quad_err, _ = quadrature.integrate(f, _TAIL_EDGES, tol=tol)
    value = integral + 0.5 * cmath.exp(w * n0 - s * cmath.log(n0 + c)) + quad
    return value, err + quad_err + bound(8.0, rate, y_corr)


def _window(c: complex) -> int:
    """ceil(0.6 - Re c) for Re c <= 0.05, else 0: the terms before Re(j + c) first reaches [0.6, 1.6)."""
    return math.ceil(0.6 - c.real) if c.real <= 0.05 else 0


def _partial_sum(s: complex, a: complex, c: complex, lo: int, hi: int) -> tuple[complex, float]:
    """(sum over lo <= j < hi of e^{2 pi i a j} (j + c)^{-s}, its roundoff): each term is one
    exp(2 pi i a j - s log(j + c)), charged 4 eps |term| (1 + |2 pi a j| + |s log(j + c)|) for its exponent's
    rounding.  A term past binary64 raises OverflowError (numpy warns unless under np.errstate)."""
    j = np.arange(lo, hi, dtype=np.float64)
    phase = (2j * math.pi * a) * j
    power = s * _principal_log_array(j, c)
    terms = np.exp(phase - power)
    charge = 4.0 * _EPS * float((np.abs(terms) * (1.0 + np.abs(phase) + np.abs(power))).sum())
    if not math.isfinite(charge):
        raise OverflowError(f"a term of the partial sum over [{lo}, {hi}) at c = {c!r} overflows")
    return complex(terms.sum()), charge


def _direct_length(s: complex, alpha: complex, c: complex, lo: int, tol: float, limit: int) -> tuple[int, float] | None:
    """(n, bound) for the first n = lo + 16, lo + 32, ... <= lo + limit whose geometric tail bound is below tol, or None.

    The bound is |term(n)| / (1 - ratio), term(n) the first excluded term;
    |(n+c)^{-s}| carries an extra exp(Im s * arg(n+c)) factor.
    """
    sigma, beta, rc = s.real, alpha.imag, c.real
    n = lo + 16
    while beta > 0.0 and n <= lo + limit:
        ratio = math.exp(-_TWO_PI * beta) * (1.0 + 1.0 / (n + rc)) ** max(0.0, -sigma)
        if ratio < 0.999:
            bound = math.exp(
                -_TWO_PI * beta * n
                - sigma * math.log(n + (rc if sigma >= 0 else rc + abs(c.imag)))
                + abs(s.imag) * abs(c.imag) / (n + rc)
            ) / (1.0 - ratio)
            if bound < tol:
                return n, bound
        n = 2 * n - lo
    return None


def _split_point(s: complex, alpha: complex) -> int | None:
    """n0 where the Abel-Plana tail starts, or None above _SPLIT_CAP.

    n0 >= |Im s| / pi keeps the decay rate of the tail's boundary integral at
    pi or more.  Where Re alpha != 0 it also keeps the phase growth
    |Im s| / n0 of (t+c)^{-s} on the rotated contour below pi |Re alpha|.
    """
    split = abs(s.imag) / math.pi
    if alpha.real != 0.0:
        split = max(split, 2.0 * abs(s.imag) / (_TWO_PI * abs(alpha.real)))
    return None if split > _SPLIT_CAP else max(1, int(math.ceil(split)))


def _divergence(s: complex, a: complex) -> str | None:
    """Why the series diverges at (s, a), or None where it converges: the one test of :func:`dirichlet_series`
    and of the dispatch, which tries the series only where it converges."""
    if a.imag < 0.0:
        return "series diverges for Im a < 0"
    if is_real_integer(a) and (s.real < 1.0 or s == 1):
        return "integer a requires Re s >= 1 and s != 1"
    if a.imag == 0.0 and s.real <= 0.0:
        return "real a requires Re s > 0"
    return None


def dirichlet_series(s: complex, a: complex, c: complex, target_abs_err: float = 1e-12) -> LerchValue:
    """Dirichlet-series value of the three-variable zeta at (s, a, c).

    Converges for Im a > 0 (any s), for real non-integral a when Re s > 0
    (conditionally for Re s <= 1) and for real integer a when Re s >= 1 and
    s != 1, where the tail is Hermite's formula; at every c off the c-cuts.
    The terms j < n0, n0 >= :func:`_window` (c), are :func:`_partial_sum`;
    the rest is 0 with its geometric bound when that bound reaches the target
    at a cheap n0 (Im a > 0), else the Abel-Plana tail, charged for roundoff
    as the term at n0.  A value that misses the target is returned with its
    estimate; the dispatch decides.  A non-finite coordinate or target, or a
    negative target, raises InvalidPoint; a c on a c-cut CutViolation.
    """
    s, a, c = finite_coordinates(s, a, c)
    checked_target(target_abs_err)
    diverges = _divergence(s, a)
    if diverges:
        raise DivergentSeries(diverges)
    lv = _series(s, _reduce_a(a), c, target_abs_err)
    pole = 1.0 / (s - 1.0) if is_real_integer(a) else 0.0
    return LerchValue(lv.value + pole, Method.SERIES, lv.abs_err_estimate + 4.0 * _EPS * abs(pole))


def _series(s: complex, alpha: complex, c: complex, target_abs_err: float) -> LerchValue:
    """The unchecked series at reduced alpha; at alpha = 0 less its pole 1/(s-1), so entire in s.

    Counting from :func:`_window` (c), a direct partial sum with its geometric
    tail bound (Im alpha > 0) serves while it is at most _DIRECT_MARGIN terms
    longer than the Abel-Plana split point, or up to 300000 terms where the
    split point exceeds _SPLIT_CAP; the Abel-Plana tail from the split point
    serves otherwise.  It returns what it
    has with its honest estimate, however far above the target, and raises
    NonConvergence only where it has no value: a window longer than
    _TERM_CAP terms, a split point past _SPLIT_CAP with no direct sum, a tail
    that decays too slowly, or an overflow.
    """
    lo = _window(c)
    if lo > _TERM_CAP:
        raise NonConvergence(f"series window of c = {c!r}, {float(lo):.4g} terms, exceeds the cap of {_TERM_CAP}")
    try:  # far left in s the terms, tail bounds and tail integrands may pass binary64's range
        split = _split_point(s, alpha)
        limit = 300_000 if split is None else split + _DIRECT_MARGIN
        direct = _direct_length(s, alpha, c, lo, 0.5 * target_abs_err, limit)
        with np.errstate(over="ignore", invalid="ignore"):
            if direct is not None:
                n0, tail_err = direct
                tail = 0j
            elif split is None:
                raise NonConvergence(f"split point exceeds {_SPLIT_CAP} at s = {s!r}, reduced a = {alpha!r}")
            else:
                n0 = lo + split
                tail, tail_err = _osc_tail(s, alpha, c, n0, 0.5 * target_abs_err)
            partial, partial_err = _partial_sum(s, alpha, c, 0, n0)
        size = _TWO_PI * abs(alpha) * n0 + abs(s * cmath.log(n0 + c))  # of the tail's first exponent
        err = tail_err + partial_err + 4.0 * _EPS * abs(tail) * (1.0 + size)
        return _route_value(partial + tail, Method.SERIES, err)
    except OverflowError as exc:
        raise NonConvergence(f"series overflows at s = {s!r}, reduced a = {alpha!r}, c = {c!r}") from exc


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
    turn = cmath.exp(-1j * theta)
    nearest = None
    for k in {f(x) for x in (a.real, a.real + a.imag * math.tan(theta)) for f in (math.floor, math.ceil)}:
        p = 2j * math.pi * (a - k)
        d = to_ray(p * turn)
        if not contour.is_straight:
            w, eps = p - contour.u, contour.epsilon
            arc = abs(abs(w) - eps) if w.imag >= 0.0 else min(abs(w - eps), abs(w + eps))
            d = min(d, arc, to_ray(p) if abs(w.real) >= eps else arc)
        if nearest is None or (d, k) < nearest:
            nearest = (d, k)
    return nearest


def _ray(s: complex, a: complex, c: complex, contour: ContourSpec) -> tuple[float, BranchState, float, float, int]:
    """(theta, b, sign, d, k): the contour's integral is the ray's plus sign * Gamma(s) * M(b), M the monodromy.

    For Im s > 16/pi the straight contour's ray turns up to pi/2 - 8/Im s -
    max(arg c, 0), so Re(c e^{i theta}) > 0 and 1/Gamma(s) loses e^8, not
    e^{pi Im s / 2}.  Within 1e-3 of a pole it steps toward the axis, onto it
    if still that close.  An axis still that close to a pole tilts away from
    it, by at most half the angle that keeps Re(c e^{i theta}) > 0.  b = one
    X_k per pole turned over; more than _POLE_CAP raise NonConvergence.  A
    detour's ray passes over the pole n it encloses, halfway to the nearer of
    the next pole's angle and
    pi/2 - arg c; else it is the axis, b = X_n and sign = +1.  A pole within
    1e-3 of the ray or the detour raises ContourHitsPole.  (d, k) is the
    pole nearest the final ray, as :func:`_nearest_pole` gives it.
    """
    theta, b, sign, x0 = 0.0, {}, -1.0, -_TWO_PI * a.imag
    if contour.is_straight:
        if s.imag > 16.0 / math.pi:
            theta = max(0.0, 0.5 * math.pi - 8.0 / s.imag - max(cmath.phase(c), 0.0))
        d, k = _nearest_pole(a, theta, contour)
        y = _TWO_PI * (a.real - k)  # step a quarter of the pole spacing below the pole, or to half its height
        if d < _POLE_CLEARANCE and x0 > 0.0 and y > 0.0:
            theta = math.atan2(max(y - 0.25 * math.pi, 0.5 * y), x0)
            d, k = _nearest_pole(a, theta, contour)
        if d < _POLE_CLEARANCE and theta != 0.0:
            theta = 0.0
            d, k = _nearest_pole(a, theta, contour)
        if d < _POLE_CLEARANCE and x0 > 0.0:
            # pass pi/4 from the pole at its column, keeping Re(c e^{i theta}) > 0
            side = math.copysign(1.0, a.real - k)  # +1: the pole lies above the axis
            theta = -side * min(math.atan2(0.25 * math.pi, x0), 0.5 * (0.5 * math.pi + side * cmath.phase(c)))
            d, k = _nearest_pole(a, theta, contour)
        first, end = math.floor(a.real + a.imag * math.tan(theta)) + 1, math.ceil(a.real)
        if end - first > _POLE_CAP:  # a Python int: len(range) would overflow past 2^63
            raise NonConvergence(f"the ray turns over {float(end - first):.4g} poles, more than the cap of {_POLE_CAP}")
        b = dict.fromkeys(range(first, end), 1)
    else:
        n = round(a.real)
        w = 2j * math.pi * (a - n) - contour.u
        angle, limit = math.atan2(w.imag, x0), min(math.atan2(w.imag + _TWO_PI, x0), 0.5 * math.pi - cmath.phase(c))
        if w.imag > 0.0 and abs(w) < contour.epsilon:  # the pole n lies under the semicircle
            theta, b, sign = (0.5 * (angle + limit), {}, -1.0) if limit > angle else (0.0, {n: 1}, 1.0)
        d, k = _nearest_pole(a, theta, contour)
    if d < _POLE_CLEARANCE:
        raise ContourHitsPole(f"integrand pole at t = {2j * math.pi * (a - k)!r} (a-plane index {k}) is {d:.2e} away")
    return theta, BranchState.from_dicts(b) if b else _NO_POLES, sign, d, k


def _pick_t_max(s: complex, a: complex, c: complex, target: float, theta: float, scale: float) -> tuple[float, float]:
    """Cutoff T on the ray arg t = theta, certifying the discarded [T, inf) piece of the integrand over e^scale;
    NonConvergence where e^{-ct} does not decay along the ray (Re(c e^{i theta}) <= 0, the bound's divisor)."""
    # |t^{s-1} e^{-ct}| = r^{sigma-1} e^{-Im s theta - rc r}, |1 - e^{2 pi i a - t}| >= 1 - e^{log_abs_z - r cos}
    sigma, rc, cos = s.real, (c * cmath.exp(1j * theta)).real, math.cos(theta)
    if not rc > 0.0:
        raise NonConvergence("could not certify an integral cutoff")
    log_abs_z, phase = -_TWO_PI * a.imag, s.imag * theta + scale
    # the bound holds once d >= 1/2 and, for sigma > 1, past the peak of r^{sigma-1} e^{-rc r}
    near, peak, factor = log_abs_z + math.log(2.0), 2.0 * (sigma - 1.0), 2.0 if sigma > 1.0 else 1.0
    t = max(2.0, (log_abs_z + 1.0) / cos, peak / rc if sigma > 1.0 else 0.0)
    for _ in range(400):
        if t * cos >= near and (sigma <= 1.0 or rc * t >= peak):
            d = 1.0 - math.exp(log_abs_z - t * cos)  # >= 1/2, unless rounding at |log_abs_z| ~ 1e300 leaves 0
            b = factor * (math.exp((sigma - 1.0) * math.log(t) - rc * t - phase) / rc) / d if d > 0.0 else math.inf
            if b <= target:
                return t, b
        t *= 1.3
    raise NonConvergence("could not certify an integral cutoff")


def _h(za: complex, c: complex, t: np.ndarray, lead: complex | np.ndarray | None = None) -> np.ndarray:
    """-h(t) = e^{lead - ct} / (e^{za - t} - 1), so callers fold the sign into a scalar: with no lead -h(t) itself,
    or -t^{s-1} h(t) / Gamma(s) for lead = (s-1) log t - log Gamma(s).

    Where e^w, w = za - t, would leave binary64 (Re w > _EXP_MAX), 1/(e^w - 1) is e^{-w} / -expm1(-w), with e^{-w}
    folded into the exponent.  The integral samples t with Re t > -1, so a scalar za with Re za < _EXP_MAX - 1
    needs no such node.
    """
    # complex expm1 is accurate for the float za - t near each pole 2 pi i k; reducing by fl(2 pi k) adds eps pi |k|
    exponent = -c * t if lead is None else lead - c * t
    if isinstance(za, complex) and za.real < _EXP_MAX - 1.0:
        return np.exp(exponent) / np.expm1(za - t)
    w = za - t
    with np.errstate(over="ignore", invalid="ignore"):  # np.where forms both quotients at every node
        far = np.exp(exponent - w) / -np.expm1(-w)
        return np.where(w.real > _EXP_MAX, far, np.exp(exponent) / np.expm1(w))


def _outer_max(za: complex, c: complex, t0: float, radius: float) -> float:
    """A bound on |h| on |t| = 2 t0 <= 0.8 radius, radius = 2 pi dist(a, Z), where |e^{-ct}| <= e^{2 t0 |c|}.

    w = za - t = u + iv lies delta = radius - 2 t0 from 2 pi i Z, so |e^w - 1|^2 = (e^u - 1)^2 + 4 e^u sin^2(v/2)
    is at least its first term at |u| >= half, else its second with v half from 2 pi Z (sin x >= 2x/pi), for any
    half <= delta/sqrt 2; half stops at 2, where 2 half e^{-half/2} peaks, so far poles keep the bound finite.
    Also |e^w - 1| >= e^lift - 1, lift = Re za - 2 t0 <= u; the larger lower bound wins (in log form, no overflow).
    """
    half, lift = min((radius - 2.0 * t0) / math.sqrt(2.0), 2.0), za.real - 2.0 * t0
    near = math.exp(2.0 * t0 * abs(c)) / min(-math.expm1(-half), 2.0 * half * math.exp(-0.5 * half) / math.pi)
    return min(near, math.exp(2.0 * t0 * abs(c) - lift) / -math.expm1(-lift)) if lift > 0.0 else near


def _contour_integral(
    s: complex, a: complex, c: complex, theta: float, tol: float, d: float, k: int, lg: complex
) -> tuple[complex, float]:
    """Integral of t^{s-1} h(t) / Gamma(s), h = e^{-ct} / (1 - e^{2*pi*i*a} e^{-t}), over the ray t = r e^{i theta};
    1/Gamma(s) enters as -lg, lg = log_gamma(s), in the endpoint sum's, each sample's and the cutoff bound's exponent.

    h is analytic in |t| < R = 2*pi*dist(a, Z), so the piece over r in (0, t0]
    with t0 <= 0.4 R is T^s sum_{k<64} H_k / (s+k), T = t0 e^{i theta},
    H_k = h_k T^k from one FFT of 64 samples on |t| = t0, aliased by at most
    :func:`_outer_max` 2^{-64}; for Re s <= 0 that sum is the continuation of
    the divergent piece, so the integral holds for every s off the poles
    s = -k (a pole 1/Gamma(s) cancels), and the alias and truncation bound
    divides by min_k |s + k|, not |s|.  One adaptive quadrature takes
    the rest up to a certified cutoff t_max.  Its first edges are equal in
    log t, max(8, ceil(|Im s| log(t_max / t0) / 4)) panels so the phase of
    t^{s-1} turns at most 4 radians over each, which a G10/K21 panel
    resolves, and at most half of _MAX_RAY_PANELS; edges graded toward the
    foot of the pole t_k = 2*pi*i*(a - k) on the ray join them when that
    pole's distance d to the ray (both from :func:`_ray`) is below 3.
    """
    za = 2j * math.pi * a
    sm1, lead = s - 1.0, 1j * theta * (s - 1.0) - lg  # t^{s-1} / Gamma(s) = e^{sm1 log r + lead}
    rot = cmath.exp(1j * theta)
    t_max, tail_err = _pick_t_max(s, a, c, 0.1 * tol, theta, lg.real)
    # a pole within 1e-3 of t = 0 has raised, so R >= 1e-3; t0 <= 2/|c| keeps
    # |e^{-ct}| <= e^4 on the circle |t| = 2 t0
    radius = _TWO_PI * abs(a - round(a.real))
    t0 = min(0.5, 0.25 * t_max, 0.4 * radius, 2.0 / abs(c))
    log_t0 = complex(math.log(t0), theta)

    ring = _h(za, c, t0 * rot * _ROOTS)  # -h on the circle
    inv = 1.0 / (s + _K)
    # H_k is the trapezoid rule on the circle: the FFT of the samples over _RING (a power of 2, so exact)
    total = -cmath.exp(s * log_t0 - lg) * complex((np.fft.fft(ring) * inv).sum()) / _RING
    # |H_k| <= M 2^{-k}, M >= max |h| on |t| = 2 t0, bounds aliasing and truncation;
    # then the roundoff of the samples (max |h| on |t| = t0) and of the phase s log T, then the cutoff tail
    # below binary64's normal range a sample keeps absolute digits only: each is exact to 4 eps max(|h|, tiny),
    # tiny = sys.float_info.min, on the ring and over the ray's length
    h_max = max(float(np.abs(ring).max()), sys.float_info.min)
    # sum_k 2^{-k} / |s + k| <= 2 / min_{k<64} |s + k| (|s| for Re s > 0) and, past k = 64, 2 / (64 + min(Re s, 0))
    nearest = abs(s + min(max(round(-s.real), 0), _RING - 1))
    alias = _outer_max(za, c, t0, radius) * 2.0**-_RING * (4.0 / nearest + 2.0 / (_RING + min(s.real, 0.0)))
    roundoff = 4.0 * _EPS * float(h_max * np.abs(inv).sum()) * (1.0 + abs(s) * abs(log_t0))
    err = math.exp(s.real * log_t0.real - s.imag * theta - lg.real) * (alias + roundoff) + tail_err
    back = -rot  # _h gives -h
    f = lambda r: _h(za, c, r * rot, sm1 * np.log(r) + lead) * back
    if t_max / t0 == math.inf:  # the ray's ends lie further apart than binary64 reaches (t0 = 2/|c| at |c| ~ 1e300)
        raise OverflowError
    # t^{s-1} turns its phase by |Im s| per unit of log t; a pole within 3 of the ray adds edges at
    # its foot and d 2^j to either side, graded to its distance d
    m = min(max(8, math.ceil(0.25 * abs(s.imag) * math.log(t_max / t0))), _MAX_RAY_PANELS // 2)
    inner = {t0 * (t_max / t0) ** (j / m) for j in range(1, m)}
    foot = (2j * math.pi * (a - k) / rot).real
    if d < 3.0 and t0 < foot < t_max:
        inner.add(foot)
        step = d
        while step < 0.25 * foot:
            inner.update((foot - step, foot + step))
            step *= 2.0
    edges = [t0, *sorted(t for t in inner if t0 < t < t_max), t_max]
    span = (c * rot).real * (edges[1] - t0)  # of the first panel, in decay lengths of e^{-ct}
    if span > _DECAY_SPAN:
        raise NonConvergence(f"the integral's first panel spans {span:.3g} decay lengths of e^(-ct) at c = {c!r}")
    val, e, _ = quadrature.integrate(f, edges, tol=0.4 * tol, max_panels=_MAX_RAY_PANELS)
    return total + val, err + e + 4.0 * _EPS * sys.float_info.min * (t_max - t0)


def integral_eval(
    p: Point3,
    contour: ContourSpec = ContourSpec.STRAIGHT,
    target_abs_err: float = 1e-10,
) -> LerchValue:
    """Contour-integral evaluation, valid for Re s > -_SIGMA0, Re c > 0.

    The endpoint series of :func:`_contour_integral` continues the integral
    in s past Re s = 0; at s = 0, -1, -2, ... log Gamma(s) raises
    PoleAtNonpositiveInteger.

    The straight contour runs along the positive real t-axis; a detoured
    contour makes a clockwise semicircular excursion of radius epsilon over
    u.  The integrand's t^{s-1} uses the principal branch continued along the
    contour.  The integral runs on one ray (:func:`_ray`); the poles
    t = 2*pi*i*(a - k) between the two come from the closed-form monodromy,
    and any pole closer than 1e-3 to the ray or a detour raises
    ContourHitsPole.  An a on a cut ray raises CutViolation, and a NaN,
    infinite or negative target InvalidPoint.
    """
    checked_target(target_abs_err)
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
    """:func:`integral_eval` unchecked: the ray's integral of t^{s-1} h(t) / Gamma(s) at 0.9 target (1/Gamma(s) in
    its exponents), Gamma's error charged as _FLAT_REL_ERR |value|, plus the poles it turns over.  NonConvergence
    where the cutoff's bound, the integrand or the value passes binary64; PoleAtNonpositiveInteger at s = -k."""
    s, a, c = complex(s), complex(a), complex(c)
    if s.real <= -_SIGMA0:
        raise InvalidRegion(f"integral needs Re s > -{_SIGMA0:g}, got s = {s!r}")
    if c.real <= 0.0:
        raise InvalidRegion(f"integral needs Re c > 0, got c = {c!r}")
    if contour.is_straight and s.imag < -16.0 / math.pi:
        # conj zeta(s, a, c) = zeta(conj s, 1 - conj a, conj c)
        lv = _integral_eval_raw(s.conjugate(), 1.0 - a.conjugate(), c.conjugate(), contour, target_abs_err)
        return LerchValue(lv.value.conjugate(), lv.method, lv.abs_err_estimate)
    lg = log_gamma(s)
    try:  # the cutoff's bound and t^{s-1} e^{-ct} / Gamma(s) may pass binary64's range
        theta, b, sign, d, k = _ray(s, a, c, contour)
        with np.errstate(over="ignore", invalid="ignore"):
            raw, raw_err = _contour_integral(s, a, c, theta, 0.9 * target_abs_err, d, k, lg)
        poles, poles_err = (0j, 0.0) if b.is_zero else branch_monodromy(b, s, a, c)
        value = raw + sign * poles  # not finite where the integrand passed binary64's range
        return _route_value(value, Method.INTEGRAL, raw_err + _FLAT_REL_ERR * abs(value) + poles_err)
    except OverflowError as exc:
        raise NonConvergence(f"integral overflows at s = {s!r}") from exc


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
    up to the combined quadrature error.  A non-finite s, a or c, or a NaN,
    infinite or negative target, raises InvalidPoint.
    """
    s, a, c = finite_coordinates(s, a, c)
    checked_target(target_abs_err)
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
    A non-finite s, a or c raises InvalidPoint.
    """
    kind = SymKind(kind)
    s, _, _ = finite_coordinates(s, a, c)
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

    with np.errstate(over="ignore", invalid="ignore"):  # as in _series: the boundary integrand's e^{2 pi y} overflows
        right, _ = _osc_tail(s, _reduce_a(complex(a)), complex(c), n_split, target)
        left, _ = _osc_tail(s, _reduce_a(complex(-a)), complex(1.0 - c), n_split, target)
    left *= sign * cmath.exp(-2j * math.pi * a)
    return partial + right + left
