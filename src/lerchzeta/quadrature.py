"""Adaptive Gauss-Kronrod (G10/K21) panels for complex-valued integrands.

Integrands map a real-parameter numpy array, of any shape, elementwise to a
complex array; contour pieces are handled by the callers via
parameterization.  The returned error is the accumulated |K21 - G10| panel
estimate plus a roundoff floor, intended as an upper-bound style estimate,
not a proof.

The caller chooses the first panels, matched to its integrand (QUADPACK's
``dqagpe`` starts from user breakpoints at known trouble spots the same
way); a single panel over the whole interval needs several sweeps before
the panels fit.  The rule is QUADPACK's ``dqk21``, the one ``dqags`` uses:
K21 is exact through degree 31 and its G10 estimator through degree 19,
so at the same estimate a panel may be about twice as wide as under the
15-point rule.  The integrand is called once on the 21 nodes of every first
panel, then once per sweep on the 21 nodes of every piece of the panels
the sweep splits.  A G10 panel's error falls like h^21, so a sweep splits
each panel it picks into q = 2, 4 or 8 equal pieces, the fewest whose
q^21 covers the ratio of the total error to the goal: an error far above
the goal takes one deep sweep, not several bisections.
Panels come back as three numpy arrays (K21 values, errors, resabs), and
each row is bit-identical to evaluating that panel alone: the rows are
reduced by an elementwise product and a per-row sum (a matrix product
rounds differently), and the panel error takes ``np.hypot`` of K21 - G10,
which gives the bits of Python's ``abs`` of a complex (``np.abs`` differs
in the last bit).  A first pass that meets its goal returns at once, with
the Python sums of those arrays in edge order; only a sweep builds the list
of live panels.

The quadrature stops at a roundoff floor of 16 eps times the first panels'
summed resabs (the integral of |f|), as ``dqagse`` stops at its roundoff
limit.  Each panel's error already charges 4 eps times its resabs, and the
K21 - G10 difference adds roundoff noise on top, so a tolerance below
binary64's reach stalls at about 1.06-1.3 times an 8 eps floor and would
run to max_panels.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

import numpy as np

# QUADPACK dqk21 nodes and weights.
_XGK_POS = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK_POS = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525452578,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG_POS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

_XGK = np.array([-x for x in _XGK_POS[:-1]] + [0.0] + [x for x in reversed(_XGK_POS[:-1])])
_WGK = np.array(list(_WGK_POS) + list(reversed(_WGK_POS[:-1])))
# Gauss-10 nodes sit at the odd Kronrod positions 1,3,...,19.
_WG = np.array(list(_WG_POS) + list(reversed(_WG_POS)))

_EPS = 2.220446049250313e-16
_BY_ERROR = operator.itemgetter(0)  # a live panel is (error, lo, hi, value, resabs)

Integrand = Callable[[np.ndarray], np.ndarray]


def _panels(f: Integrand, lo: Sequence[float], hi: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K21 values, errors and resabs of the panels [lo[i], hi[i]], from one call of f."""
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid[:, None] + half[:, None] * _XGK), dtype=np.complex128)
    k21 = half * (_WGK * y).sum(axis=1)
    d = k21 - half * (_WG * y[:, 1::2]).sum(axis=1)
    resabs = half * (_WGK * np.abs(y)).sum(axis=1)
    return k21, np.hypot(d.real, d.imag) + 4.0 * _EPS * resabs, resabs


def integrate(
    f: Integrand,
    edges: Sequence[float],
    tol: float,
    max_panels: int = 1500,
) -> tuple[complex, float, int]:
    """Integrate f over [edges[0], edges[-1]] adaptively; returns (value, err_estimate, n_panels).

    The first sweep evaluates every panel between consecutive edges in one
    call of f.  Each later sweep orders the live panels by error and picks
    the fewest worst ones whose errors sum to at least the excess over the
    goal max(tol, floor), skipping panels narrower than min_width or with
    errors at most twice their own 4 eps resabs charge, and taking at most
    half the panels left in max_panels (at least one); with none to pick it
    stops.  It splits every picked panel into q equal pieces by repeated bisection, all in one
    call of f, where q is the smallest of 2, 4, 8 with q^21 >= total error /
    goal (8 if none is), lowered while q times the picked panels exceeds the panels left,
    down to 2; so n_panels passes max_panels by at most one, unless the
    first panels alone do.  The floor is at least 16 eps times the first panels'
    summed resabs, and at least that of the pieces of any one split panel.
    n_panels counts every panel evaluated; the value is the sum over the
    live panels at the end.
    """
    lo, hi = edges[0], edges[-1]
    if hi == lo:
        return 0j, 0.0, 0
    first = np.array(edges, dtype=float)
    values, errs, resabs = _panels(f, first[:-1], first[1:])
    errs = errs.tolist()
    total_err = sum(errs)
    floor = 16.0 * _EPS * sum(resabs.tolist())
    n = len(errs)
    if not (total_err > max(tol, floor) and n < max_panels):  # the loop's own exit test, before any sweep
        return sum(values.tolist()), max(total_err, floor), n
    live = list(zip(errs, first[:-1].tolist(), first[1:].tolist(), values.tolist(), resabs.tolist()))
    min_width = 1e-14 * (abs(hi - lo) + 1.0)
    while total_err > max(tol, floor) and n < max_panels:
        live.sort(key=_BY_ERROR, reverse=True)
        goal = max(tol, floor)
        excess = total_err - goal
        cap = max(1, (max_panels - n) // 2)
        picked, kept = [], []
        for i, p in enumerate(live):
            if not (excess > 0.0 and len(picked) < cap):  # the pick is complete: the rest stay, in order
                kept += live[i:]
                break
            if p[2] - p[1] >= min_width and p[0] > 8.0 * _EPS * p[4]:
                picked.append(p)
                excess -= p[0]
            else:
                kept.append(p)
        if not picked:  # every panel that would count is too narrow to refine, or on its roundoff floor
            break
        # a panel's error falls like h^21: split deep enough to meet the goal in one sweep
        ratio = total_err / goal
        q = 2 if ratio <= 2.0**21 else 4 if ratio <= 2.0**42 else 8
        while q > 2 and q * len(picked) > max_panels - n:
            q //= 2
        cuts = _split(np.array([p[1] for p in picked]), np.array([p[2] for p in picked]), q)
        los, his = cuts[:, :-1].ravel().tolist(), cuts[:, 1:].ravel().tolist()
        values, errs, resabs = _panels(f, los, his)
        kept += zip(errs.tolist(), los, his, values.tolist(), resabs.tolist())
        # each split panel's pieces' resabs summed left to right, as Python's sum adds them; fmax passes over a NaN
        pieces = resabs.reshape(-1, q)
        summed = pieces[:, 0]
        for j in range(1, q):
            summed = summed + pieces[:, j]
        floor = max(floor, 16.0 * _EPS * float(np.fmax.reduce(summed)))
        live = kept
        total_err = sum(p[0] for p in live)
        n += len(los)
    return sum(p[3] for p in live), max(total_err, floor), n


def _split(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Row i: the edges of q = 2, 4 or 8 equal pieces of [a[i], b[i]] by repeated bisection, each midpoint
    0.5 * (lo + hi) as in Python floats; q = 2 gives [a, (a+b)/2, b]."""
    cuts = np.stack([a, b], axis=1)
    while cuts.shape[1] <= q:
        finer = np.empty((len(cuts), 2 * cuts.shape[1] - 1))
        finer[:, ::2] = cuts
        finer[:, 1::2] = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
        cuts = finer
    return cuts
