"""Adaptive Gauss-Kronrod (G7/K15) panels for complex-valued integrands.

Integrands map a real-parameter numpy array, of any shape, elementwise to a
complex array; contour pieces are handled by the callers via
parameterization.  The returned error is the accumulated |K15 - G7| panel
estimate plus a roundoff floor, intended as an upper-bound style estimate,
not a proof.

The caller chooses the first panels, matched to its integrand (QUADPACK's
``dqagpe`` starts from user breakpoints the same way); a single panel over
the whole interval needs several sweeps before the panels fit.  The
integrand is called once on the 15 nodes of every first panel, then once
per sweep on the 15 nodes of both halves of every panel the sweep bisects.
Each panel's value, error and roundoff scale are bit-identical to
evaluating it alone: the rows are reduced by an elementwise product and a
per-row sum (a matrix product rounds differently), and the panel error
takes Python's ``abs`` of a Python complex (``np.abs`` differs in the last
bit).

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


def _panels(f: Integrand, lo: list[float], hi: list[float]) -> list[tuple[complex, float, float]]:
    """(K15 value, error, resabs) of each panel [lo[i], hi[i]], from one call of f."""
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid[:, None] + half[:, None] * _XGK), dtype=np.complex128)
    k15 = half * (_WGK * y).sum(axis=1)
    g7 = half * (_WG * y[:, 1::2]).sum(axis=1)
    resabs = half * (_WGK * np.abs(y)).sum(axis=1)
    return [(v, abs(v - g) + 4.0 * _EPS * r, r) for v, g, r in zip(k15.tolist(), g7.tolist(), resabs.tolist())]


def integrate(
    f: Integrand,
    edges: Sequence[float],
    tol: float,
    max_panels: int = 1500,
) -> tuple[complex, float, int]:
    """Integrate f over [edges[0], edges[-1]] adaptively; returns (value, err_estimate, n_panels).

    The first sweep evaluates every panel between consecutive edges in one
    call of f.  Each later sweep orders the live panels by error and bisects
    the fewest worst ones whose errors sum to at least the excess over
    max(tol, floor), skipping panels narrower than min_width and taking at
    most half the panels left in max_panels (at least one).  The floor is
    at least 16 eps times the first panels' summed resabs.  n_panels counts
    every panel evaluated; the value is the sum over the live panels at the
    end.
    """
    lo, hi = edges[0], edges[-1]
    if hi == lo:
        return 0j, 0.0, 0
    los, his = list(edges[:-1]), list(edges[1:])
    first = _panels(f, los, his)
    live = [(e, a, b, v) for (v, e, _), a, b in zip(first, los, his)]
    total_err = sum(p[0] for p in live)
    floor = 16.0 * _EPS * sum(r for _, _, r in first)
    n = len(first)
    min_width = 1e-14 * (abs(hi - lo) + 1.0)
    while total_err > max(tol, floor) and n < max_panels:
        live.sort(key=lambda p: p[0], reverse=True)
        excess = total_err - max(tol, floor)
        cap = max(1, (max_panels - n) // 2)
        picked, kept = [], []
        for p in live:
            if excess > 0.0 and len(picked) < cap and p[2] - p[1] >= min_width:
                picked.append(p)
                excess -= p[0]
            else:
                kept.append(p)
        if not picked:  # every panel that would count is too narrow to refine
            break
        los, his = [], []
        for _, a, b, _ in picked:
            m = 0.5 * (a + b)
            los += [a, m]
            his += [m, b]
        halves = _panels(f, los, his)
        for i in range(0, len(halves), 2):
            (v1, e1, r1), (v2, e2, r2) = halves[i], halves[i + 1]
            kept += [(e1, los[i], his[i], v1), (e2, los[i + 1], his[i + 1], v2)]
            floor = max(floor, 16.0 * _EPS * (r1 + r2))
        live = kept
        total_err = sum(p[0] for p in live)
        n += len(halves)
    return sum(p[3] for p in live), max(total_err, floor), n
