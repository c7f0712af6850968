"""Adaptive Gauss-Kronrod (G7/K15) panels for complex-valued integrands.

Integrands map a real-parameter numpy array, of any shape, elementwise to a
complex array; contour pieces are handled by the callers via
parameterization.  The returned error is the accumulated |K15 - G7| panel
estimate plus a roundoff floor, intended as an upper-bound style estimate,
not a proof.

The caller chooses the first panels, matched to its integrand (QUADPACK's
``dqagpe`` starts from user breakpoints at known trouble spots the same
way); a single panel over the whole interval needs several sweeps before
the panels fit.  The integrand is called once on the 15 nodes of every
first panel, then once per sweep on the 15 nodes of every piece of the
panels the sweep splits.  A G7 panel's error falls like h^15, so a sweep
splits each panel it picks into q = 2, 4 or 8 equal pieces, the fewest
whose q^15 covers the ratio of the total error to the goal: an error far
above the goal takes one deep sweep, not several bisections.
Panels come back as three numpy arrays (K15 values, errors, resabs), and
each row is bit-identical to evaluating that panel alone: the rows are
reduced by an elementwise product and a per-row sum (a matrix product
rounds differently), and the panel error takes ``np.hypot`` of K15 - G7,
which gives the bits of Python's ``abs`` of a complex (``np.abs`` differs
in the last bit).  A first pass that meets its goal returns at once, with
the Python sums of those arrays in edge order; only a sweep builds the list
of live panels.

The quadrature stops at a roundoff floor of 16 eps times the first panels'
summed resabs (the integral of |f|), as ``dqagse`` stops at its roundoff
limit.  Each panel's error already charges 4 eps times its resabs, and the
K15 - G7 difference adds roundoff noise on top, so a tolerance below
binary64's reach stalls at about 1.06-1.3 times an 8 eps floor and would
run to max_panels.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# QUADPACK dqk15 nodes and weights.
_XGK_POS = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK_POS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_POS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_XGK = np.array([-x for x in _XGK_POS[:-1]] + [0.0] + [x for x in reversed(_XGK_POS[:-1])])
_WGK = np.array(list(_WGK_POS[:-1]) + [_WGK_POS[-1]] + list(reversed(_WGK_POS[:-1])))
# Gauss-7 nodes sit at the odd Kronrod positions 1,3,...,13.
_WG = np.array(
    [_WG_POS[0], _WG_POS[1], _WG_POS[2], _WG_POS[3], _WG_POS[2], _WG_POS[1], _WG_POS[0]]
)

_EPS = 2.220446049250313e-16

Integrand = Callable[[np.ndarray], np.ndarray]


def _panels(f: Integrand, lo: list[float], hi: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K15 values, errors and resabs of the panels [lo[i], hi[i]], from one call of f."""
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid[:, None] + half[:, None] * _XGK), dtype=np.complex128)
    k15 = half * (_WGK * y).sum(axis=1)
    d = k15 - half * (_WG * y[:, 1::2]).sum(axis=1)
    resabs = half * (_WGK * np.abs(y)).sum(axis=1)
    return k15, np.hypot(d.real, d.imag) + 4.0 * _EPS * resabs, resabs


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
    call of f, where q is the smallest of 2, 4, 8 with q^15 >= total error /
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
    los, his = list(edges[:-1]), list(edges[1:])
    values, errs, resabs = _panels(f, los, his)
    errs = errs.tolist()
    total_err = sum(errs)
    floor = 16.0 * _EPS * sum(resabs.tolist())
    n = len(errs)
    if not (total_err > max(tol, floor) and n < max_panels):  # the loop's own exit test, before any sweep
        return sum(values.tolist()), max(total_err, floor), n
    live = list(zip(errs, los, his, values.tolist(), resabs.tolist()))
    min_width = 1e-14 * (abs(hi - lo) + 1.0)
    while total_err > max(tol, floor) and n < max_panels:
        live.sort(key=lambda p: p[0], reverse=True)
        goal = max(tol, floor)
        excess = total_err - goal
        cap = max(1, (max_panels - n) // 2)
        picked, kept = [], []
        for p in live:
            if excess > 0.0 and len(picked) < cap and p[2] - p[1] >= min_width and p[0] > 8.0 * _EPS * p[4]:
                picked.append(p)
                excess -= p[0]
            else:
                kept.append(p)
        if not picked:  # every panel that would count is too narrow to refine, or on its roundoff floor
            break
        # a panel's error falls like h^15: split deep enough to meet the goal in one sweep
        ratio = total_err / goal
        q = 2 if ratio <= 2.0**15 else 4 if ratio <= 2.0**30 else 8
        while q > 2 and q * len(picked) > max_panels - n:
            q //= 2
        los, his = [], []
        for _, a, b, _, _ in picked:
            cuts = _split(a, b, q)
            los += cuts[:-1]
            his += cuts[1:]
        values, errs, resabs = _panels(f, los, his)
        resabs = resabs.tolist()
        kept += zip(errs.tolist(), los, his, values.tolist(), resabs)
        for i in range(0, len(resabs), q):
            floor = max(floor, 16.0 * _EPS * sum(resabs[i : i + q]))
        live = kept
        total_err = sum(p[0] for p in live)
        n += len(resabs)
    return sum(p[3] for p in live), max(total_err, floor), n


def _split(a: float, b: float, q: int) -> list[float]:
    """Edges of q = 2, 4 or 8 equal pieces of [a, b] by repeated bisection; q = 2 gives [a, (a+b)/2, b]."""
    cuts = [a, b]
    while len(cuts) <= q:
        cuts = [x for lo, hi in zip(cuts, cuts[1:]) for x in (lo, 0.5 * (lo + hi))] + [b]
    return cuts
