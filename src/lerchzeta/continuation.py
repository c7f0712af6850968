"""Evaluation anywhere on the maximal abelian cover of the punctured domain.

The principal sheet is anchored at the base point (1/2, 1/2, 1/2) through the
cut a-plane (downward rays below every integer) and cut c-plane (rays below
the nonpositive integers).  The value is 1-periodic in a, so Re a is first
reduced into [0, 1).  One answer rule then tries a table of routes in order,
each owning its region: the Dirichlet series (Im a > 0, or real a with
Re s > 0) at c itself; the straight-contour integral (Re s > -_SIGMA0), by
an index shift of Re c <= 0.05 into [0.6, 1.6); for Re s <= 0 the three-term
transformation formula by one into 0 < Re c <= 1 (or near c = 1 its Taylor
series in c), before the integral below the ray's floor.  The cover value
adds the closed-form monodromy of the winding vector.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .branching import is_nonpositive_integer, log_gamma
from .domain import (
    ContourSpec,
    Point3,
    checked_target,
    cut_distances,
    on_a_cut_ray,
    on_c_cut_ray,
)
from .errors import (
    CutViolation,
    DerivativeCircleLeavesDomain,
    InvalidRegion,
    LerchError,
    NonConvergence,
    SZero,
)
from .evaluator import (_EPS, _FLAT_REL_ERR, _SIGMA0, LerchValue, Method, _integral_eval_raw, _partial_sum,
                        _route_value, _series, _target_over, _window, dirichlet_series)
from .monodromy import branch_monodromy
from .words import BranchState

_TWO_PI = 2.0 * math.pi
_CIRCLE_CAP = 0.05
_NODES = 24  # trapezoid nodes on every Cauchy circle
_TAYLOR_RADIUS = 0.01  # |Im c| on Re c = 1 below which the value is the Taylor series about c = 1
_TAYLOR_TERMS = 60
_RESIDUAL_TARGET = 1e-12  # target of every evaluation inside a residual check, each by _on_sheet
# the ray's floor on target |Gamma(s)|.  In seeded strip sweeps at targets 1e-8, 1e-10 and 1e-12 the integral
# missed at 15-40% of the points in [3e-14, 1e-13) and still took 0.83-0.89 of the transform's time there; in
# [1e-14, 3e-14) it missed at 50-65% and took 1.17-1.37 of it
_RAY_FLOOR = 3e-14
_Route = Callable[[complex, complex, complex, float], LerchValue]  # (s, a, c, target) -> value


class ShiftDirection(str, Enum):
    RAISE = "raise"
    LOWER = "lower"


def _anchor_check(a: complex, c: complex) -> None:
    if on_a_cut_ray(a):
        raise CutViolation(f"a = {a!r} lies on a downward cut ray below an integer")
    if on_c_cut_ray(c):
        raise CutViolation(f"c = {c!r} lies on a downward cut ray below a nonpositive integer")


def _core_eval(s: complex, a: complex, c: complex, target: float) -> LerchValue:
    """The one answer rule, for an anchored point with 0 < Re a < 1 when Im a <= 0: of :func:`_routes`, each
    shifting c itself and answering with its honest estimate or raising, the first answer that meets the target
    wins, else the smallest estimate (the earlier route on a tie); the last error is raised only if none answered.
    """
    best, error = None, None
    for route in _routes(s, target):
        try:
            lv = route(s, a, c, target)
        except LerchError as exc:
            error = exc
            continue
        if lv.abs_err_estimate <= target:
            return lv
        if best is None or lv.abs_err_estimate < best.abs_err_estimate:
            best = lv
    if best is None:  # no route answered
        raise error
    return best


def _routes(s: complex, target: float) -> Iterator[_Route]:
    """Series then integral for Re s > 0, series then transform for Re s <= -_SIGMA0, and between them series,
    integral and transform, the integral last below the ray's floor (read only once the series has not answered)."""
    series, integral, transform = _ROUTES
    yield series
    if s.real > 0.0:
        yield integral
    elif s.real <= -_SIGMA0:
        yield transform
    else:
        yield from (integral, transform) if _ray_first(s, target) else (transform, integral)


def _ray_first(s: complex, target: float) -> bool:
    """Whether the integral runs before the transform on the strip: where target |Gamma(s)| >= _RAY_FLOOR, in logs,
    and at s = 0, -1, ..., where it raises at once.  Below the floor the target sits under the roundoff of its
    integrand's 1/Gamma(s), about e^{pi |Im s| / 2}, so the integral would mostly refine to its floor and miss."""
    return is_nonpositive_integer(s) or target > 0.0 and log_gamma(s).real >= math.log(_RAY_FLOOR / target)


def _integral(s: complex, a: complex, c: complex, target: float) -> LerchValue:
    ray = lambda s, a, c, t: _integral_eval_raw(s, a, c, ContourSpec.STRAIGHT, t)
    return _shift_c(s, a, c, _window(c), target, ray)


def _shifted_transform(s: complex, a: complex, c: complex, target: float) -> LerchValue:
    return _shift_c(s, a, c, 1 - math.ceil(c.real), target, _transform_value)


_ROUTES = (lambda *a: dirichlet_series(*a), _integral, _shifted_transform)  # each finds its evaluator when it runs


def _shift_c(s: complex, a: complex, c: complex, n: int, target: float, inner: _Route) -> LerchValue:
    """The value at c from inner's value at c + n, by the exact index shift in c.

    zeta(s,a,c) = e^{2pi i n a} zeta(s,a,c+n) + sign(n) sum_j e^{2pi i j a}(j+c)^{-s}, j over [0, n) for n > 0
    and over [n, 0) for n < 0, is the series' split at n: the sum is :func:`_partial_sum`, and the first term
    is charged by its rule, with the exponent 2 pi i a n.
    """
    if n == 0:
        return inner(s, a, c, target)
    try:  # e^{2 pi i a n} and the terms may pass binary64's range
        phase = cmath.exp(2j * math.pi * a * n)
        shifted = inner(s, a, c + n, _target_over(0.5 * target, -_TWO_PI * a.imag * n))
        with np.errstate(over="ignore", invalid="ignore"):
            partial, partial_err = _partial_sum(s, a, c, min(n, 0), max(n, 0))
        head = phase * shifted.value
        err = abs(phase) * shifted.abs_err_estimate + partial_err + 4.0 * _EPS * abs(head) * (1.0 + _TWO_PI * abs(a * n))
        return _route_value(head + math.copysign(1.0, n) * partial, shifted.method, err)
    except OverflowError as exc:
        raise NonConvergence(f"index shift of c = {c!r} by {n} overflows at Im a = {a.imag:.3g}") from exc


def evaluate_principal(s: complex, a: complex, c: complex, target_abs_err: float = 1e-10) -> LerchValue:
    """Principal-sheet value at an anchored point of the extended domain.

    The value is 1-periodic in a (the cut rays are integer translates of
    each other), so Re a is first reduced into [0, 1); a reduction that
    rounds to 1 keeps a when Im a > 0 and raises CutViolation when Im a <= 0,
    where it lands on a cut.  The dispatch :func:`_core_eval` does the rest;
    each route ends an overflow in NonConvergence (see :class:`LerchValue`).
    A NaN, infinite or negative target raises InvalidPoint.
    """
    s, a, c = complex(s), complex(a), complex(c)
    Point3(s, a, c)  # validity
    checked_target(target_abs_err)
    _anchor_check(a, c)
    reduced = complex(a.real - math.floor(a.real), a.imag)
    if reduced.real < 1.0:
        a = reduced
    elif a.imag <= 0.0:
        raise CutViolation(f"a = {a!r} rounds onto a downward cut ray when reduced by its period")
    return _core_eval(s, a, c, target_abs_err)


def transform_eval(p: Point3, target_abs_err: float = 1e-10) -> LerchValue:
    """Polycylinder evaluation of the left half s-plane via the three-term formula.

    Requires 0 < Re a < 1, 0 < Re c < 1 and Re s < 1; the two right-hand
    terms are evaluated at 1 - s (where Re > 0) by the series or integral
    route at a quarter of the target each.  A NaN, infinite or negative
    target raises InvalidPoint.
    """
    checked_target(target_abs_err)
    s, a, c = p.s, p.a, p.c
    if not (0.0 < a.real < 1.0 and 0.0 < c.real < 1.0):
        raise InvalidRegion("transformation formula needs 0 < Re a < 1 and 0 < Re c < 1")
    if not s.real < 1.0:
        raise InvalidRegion("transformation route expects Re s < 1 (use series/integral otherwise)")
    return _transform_value(s, a, c, target_abs_err)


def _transform_value(s: complex, a: complex, c: complex, target: float) -> LerchValue:
    """Three-term transformation: the value at s from two evaluations at 1 - s, for 0 < Re c <= 1.

    The dispatch calls it with Re(1 - s) >= 1, where the series or the
    integral applies, so it recurses no deeper.  Re c is read inside
    [2^-53, 1 - 2^-53]: on Re c = 1 that is the limit from Re c < 1, and near
    Re c = 0 it keeps 1 - c from rounding to Re 1, so the inner a-variables
    1 - c and c lie inside 0 < Re a < 1.  At c = 1 these are 0 and 1, and each
    inner value a Hurwitz zeta with the pole 1/(-s); the pole enters once, as
    -2 (2 pi)^{s-1} Gamma(1-s) e^{-2 pi i a} sin(pi s/2)/s.  That needs no
    integral and holds for every s but the positive integers.  Within
    _TAYLOR_RADIUS of c = 1 on the line, :func:`_c_taylor_value` answers.
    Each coefficient and the pole's Gamma-bearing factor is one exp of a sum of
    logs, log Gamma(1 - s) among them, and gives its inner target from that exponent.
    """
    if c.real == 1.0 and 0.0 < abs(c.imag) < _TAYLOR_RADIUS:
        return _c_taylor_value(s, a, c, target)
    sp = 1.0 - s  # coefficients of zeta(sp, 1-c, a) and zeta(sp, c, 1-a)
    try:  # the coefficients and the value may pass binary64's range
        lead = log_gamma(sp) - sp * math.log(_TWO_PI)  # log of (2 pi)^{s-1} Gamma(1 - s)
        e1 = lead + 0.5j * math.pi * sp - 2j * math.pi * a * c
        e2 = lead - 0.5j * math.pi * sp + 2j * math.pi * c * (1.0 - a)
        coef1, coef2 = cmath.exp(e1), cmath.exp(e2)
        target1, target2 = _target_over(0.25 * target, e1.real), _target_over(0.25 * target, e2.real)
        if c == 1.0:  # the series' pole-free parts
            v1, v2 = _series(sp, 0j, a, target1), _series(sp, 0j, 1.0 - a, target2)
            pole = -2.0 * cmath.exp(lead - 2j * math.pi * a)
            pole *= cmath.sin(0.5 * math.pi * s) / s if s != 0 else 0.5 * math.pi
        else:
            c = complex(min(max(c.real, 2.0**-53), 1.0 - 2.0**-53), c.imag)
            v1 = _core_eval(sp, 1.0 - c, a, target1)
            v2 = _core_eval(sp, c, 1.0 - a, target2)
            pole = 0j
        value = coef1 * v1.value + coef2 * v2.value + pole
        err = abs(coef1) * v1.abs_err_estimate + abs(coef2) * v2.abs_err_estimate
        err += _FLAT_REL_ERR * (abs(coef1 * v1.value) + abs(coef2 * v2.value) + abs(pole))
        return _route_value(value, Method.TRANSFORM, err)
    except OverflowError as exc:
        raise NonConvergence(f"three-term transformation overflows at s = {s!r}") from exc


def _c_taylor_value(s: complex, a: complex, c: complex, target: float) -> LerchValue:
    """The value at c = 1 + h, h = i Im c, from the Taylor series in c about 1.

    zeta(s, a, 1 + h) = sum_k binom(-s, k) h^k zeta(s + k, a, 1), since d/dc zeta = -s zeta(s + 1);
    it converges for |h| < 1, the distance to the puncture c = 0.  The transform at c itself
    puts one inner integrand pole within 2 pi |h| of t = 0.  At c = 1 the transform needs no
    integral, and it holds for every s + k the sum reaches: where s + k is a positive integer,
    s is a nonpositive integer and the weight vanishes first.  Coefficient k gets the target
    2^-k / 4 of its term's.  The sum stops once the weights shrink at least twofold from term
    to term and the next weight, times twice the largest coefficient so far (at least 1), is
    below a quarter of the target.
    """
    h = c - 1.0
    weight, value, err, absum, biggest = 1.0 + 0j, 0j, 0.0, 0.0, 1.0
    for k in range(_TAYLOR_TERMS):
        lv = _transform_value(s + k, a, 1.0 + 0j, 0.25 * target * 0.5**k / abs(weight))
        value += weight * lv.value
        absum += abs(weight * lv.value)
        err += abs(weight) * lv.abs_err_estimate
        biggest = max(biggest, abs(lv.value))
        weight *= -(s + k) * h / (k + 1)
        # |weight| shrinks by at most |h| max(1, (|s| + j) / (j + 1)) from term j >= k + 1 on
        ratio = abs(h) * max(1.0, (abs(s) + k + 1) / (k + 2))
        tail = 2.0 * abs(weight) * biggest
        if ratio <= 0.5 and tail <= 0.25 * target:
            return LerchValue(value, Method.TRANSFORM, err + tail + _FLAT_REL_ERR * absum)
    raise NonConvergence(f"Taylor series in c about 1 misses the target after {_TAYLOR_TERMS} terms at h = {h!r}")


def _circle(z: complex, plane: str) -> tuple[float, float]:
    """(radius, puncture distance) of the Cauchy circle around z in the "a"- or "c"-plane.

    The circle stays on the principal sheet (inside the ray clearance) and
    well inside the disk of analyticity (the nearest puncture); every circle
    (:func:`dde_shift`, the residual checks) takes this rule, capped at _CIRCLE_CAP.
    """
    clearance, puncture = cut_distances(z, plane)
    domain = min(0.4 * clearance, 0.22 * puncture)
    if domain < 2e-3:
        raise DerivativeCircleLeavesDomain(
            f"no circle fits: cut-ray clearance {clearance:.2e}, puncture distance {puncture:.2e}"
        )
    return min(_CIRCLE_CAP, domain), puncture


def _cauchy_derivative(f: Callable[[complex], complex], center: complex, radius: float) -> tuple[complex, complex, float]:
    """(f(center), f'(center), max |f| on the circle) by the _NODES-point trapezoid rule."""
    values = [f(center + radius * cmath.exp(2j * math.pi * i / _NODES)) for i in range(_NODES)]
    coeffs = np.fft.fft(values) / _NODES  # the trapezoid rule's Taylor coefficients times radius^k
    return complex(coeffs[0]), complex(coeffs[1]) / radius, max(abs(v) for v in values)


def _lowered(z: Callable[[complex], complex], a: complex, c: complex, radius: float) -> tuple[complex, float]:
    """((1/(2*pi*i) d/da + c) z at a, max |z| on the circle): the lowering operator on one Cauchy circle."""
    z0, d1, max_abs = _cauchy_derivative(z, a, radius)
    return d1 / (2j * math.pi) + c * z0, max_abs


def _on_sheet(b: BranchState, s: complex, a: complex, c: complex) -> complex:
    return evaluate_on_cover(Point3(s, a, c), b, _RESIDUAL_TARGET).value


def dde_shift(p: Point3, direction: ShiftDirection | str, target_abs_err: float = 1e-9) -> LerchValue:
    """One differential-difference step away from p = (s, a, c).

    LOWER returns the value at (s-1, a, c) via (1/(2*pi*i) d/da + c) applied
    at s; RAISE returns the value at (s+1, a, c) via -(1/s) d/dc, undefined at
    s = 0.  Derivatives are Cauchy-circle based, with the radius every circle
    takes (:func:`_circle`, capped at 0.05).
    """
    direction = ShiftDirection(direction)
    s, a, c = p.s, p.a, p.c
    _anchor_check(a, c)
    if direction is ShiftDirection.RAISE and s == 0:
        raise SZero("the raising relation degenerates at s = 0")

    r, punct = _circle(a, "a") if direction is ShiftDirection.LOWER else _circle(c, "c")
    analytic_radius = 0.9 * punct
    node_target = max(target_abs_err * r / 8.0, 1e-14)

    if direction is ShiftDirection.LOWER:
        value, max_abs = _lowered(lambda aa: evaluate_principal(s, aa, c, node_target).value, a, c, r)
        amp = 1.0 / (_TWO_PI * r) + abs(c)
    else:
        _, d1, max_abs = _cauchy_derivative(lambda cc: evaluate_principal(s, a, cc, node_target).value, c, r)
        value = -d1 / s
        amp = 1.0 / (abs(s) * r)
    alias = 4.0 * max_abs * (r / analytic_radius) ** (_NODES - 1) / analytic_radius
    err = amp * (node_target + 4.0 * _EPS * max_abs) + alias + _FLAT_REL_ERR * abs(value)
    return LerchValue(value, Method.DDE_SHIFT, err)


def evaluate_on_cover(p: Point3, b: BranchState, target_abs_err: float = 1e-10) -> LerchValue:
    """Value on the sheet addressed by the winding vector b.

    Principal-sheet value plus the closed-form monodromy of b; entries
    ky[n] with n >= 1 contribute nothing.  Requires the endpoint to be off
    the anchoring cut rays in both the a- and c-planes.  A monodromy term,
    value or estimate that overflows raises NonConvergence.
    """
    z0 = evaluate_principal(p.s, p.a, p.c, target_abs_err)
    if b.is_zero:
        return z0
    extra, roundoff = branch_monodromy(b, p.s, p.a, p.c)
    return LerchValue(z0.value + extra, z0.method, z0.abs_err_estimate + roundoff)


def dde_lower_residual(p: Point3, b: BranchState) -> float:
    """| (1/(2*pi*i) d/da + c) Z(s) - Z(s-1) | on the sheet b."""
    s, a, c = p.s, p.a, p.c
    _anchor_check(a, c)
    r, _ = _circle(a, "a")
    lowered, _ = _lowered(lambda aa: _on_sheet(b, s, aa, c), a, c, r)
    return abs(lowered - _on_sheet(b, s - 1, a, c))


def dde_raise_residual(p: Point3, b: BranchState) -> float:
    """| d/dc Z(s) + s Z(s+1) | on the sheet b."""
    s, a, c = p.s, p.a, p.c
    _anchor_check(a, c)
    r, _ = _circle(c, "c")
    _, d1, _ = _cauchy_derivative(lambda cc: _on_sheet(b, s, a, cc), c, r)
    return abs(d1 + s * _on_sheet(b, s + 1, a, c))


def pde_residual(p: Point3, b: BranchState) -> float:
    """Residual of the second-order relation tying the mixed derivative to -s Z.

    Computes | (1/(2*pi*i) d/da + c) dZ/dc + s Z | by nested 24-node Cauchy
    circles around a and c on the sheet addressed by b.
    """
    s, a, c = p.s, p.a, p.c
    _anchor_check(a, c)
    r_a, _ = _circle(a, "a")
    r_c, _ = _circle(c, "c")
    dz_dc = lambda aa: _cauchy_derivative(lambda cc: _on_sheet(b, s, aa, cc), c, r_c)[1]
    lowered, _ = _lowered(dz_dc, a, c, r_a)
    return abs(lowered + s * _on_sheet(b, s, a, c))
