"""The functional equations and their residual checks, each written once.

The two-term combinations L± pair the value at (s,a,c) with the reflected
point (s,1-a,1-c); times the archimedean factor pi^{-(s+k)/2} Gamma((s+k)/2)
(k = 0 for PLUS, 1 for MINUS) they satisfy reflection identities relating s
to 1-s, which the monodromy satisfies too.  Near (or at) a pole of the factor
the residuals switch to a normalized form so the checks remain meaningful.
The three-term formula is checked as the dispatch runs it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .branching import complex_gamma, is_nonpositive_integer
from .continuation import evaluate_principal, transform_eval
from .domain import Point3, SymKind
from .errors import NonConvergence
from .monodromy import monodromy_of_word
from .words import Word

_OVERFLOW_SCALE = 1e8
_POLE_MARGIN = 0.05


def l_pm(kind: SymKind | str, s: complex, a: complex, c: complex, target_abs_err: float = 1e-11) -> complex:
    """zeta(s,a,c) +/- e^{-2*pi*i*a} zeta(s,1-a,1-c), both terms on the principal sheet."""
    kind = SymKind(kind)
    s, a, c = complex(s), complex(a), complex(c)
    sign = 1.0 if kind is SymKind.PLUS else -1.0
    coef = cmath.exp(-2j * math.pi * a)
    v1 = evaluate_principal(s, a, c, 0.5 * target_abs_err)
    v2 = evaluate_principal(s, 1.0 - a, 1.0 - c, 0.5 * target_abs_err / max(abs(coef), 1e-300))
    return v1.value + sign * coef * v2.value


@dataclass(frozen=True)
class CompletedL:
    """A symmetrized value multiplied by its archimedean factor.

    scale_overflow is set when |factor| is so large that absolute residuals
    against this value are meaningless and callers should compare relatively.
    """

    kind: SymKind
    value: complex
    factor: complex
    scale_overflow: bool


def archimedean_factor(kind: SymKind | str, s: complex) -> complex:
    """pi^{-(s+k)/2} Gamma((s+k)/2); poles at s+k in {0, -2, -4, ...}.  Raises NonConvergence where it overflows."""
    k = SymKind(kind).k
    half = 0.5 * (complex(s) + k)
    try:
        return cmath.exp(-half * math.log(math.pi)) * complex_gamma(half)
    except OverflowError as exc:
        raise NonConvergence(f"archimedean factor overflows at s = {s!r}") from exc


def completed_l(kind: SymKind | str, s: complex, a: complex, c: complex, target_abs_err: float = 1e-11) -> CompletedL:
    """The completed combination: archimedean factor times l_pm."""
    kind = SymKind(kind)
    factor = archimedean_factor(kind, s)
    raw = l_pm(kind, s, a, c, target_abs_err / max(abs(factor), 1.0))
    return CompletedL(kind, factor * raw, factor, abs(factor) > _OVERFLOW_SCALE)


def _near_pole(half: complex) -> bool:
    n = round(half.real)
    return n <= 0 and abs(half - n) < _POLE_MARGIN


def fe_residual(kind: SymKind | str, s: complex, a: complex, c: complex, target_abs_err: float = 1e-10) -> float:
    """Residual of the reflection identity sending (s,a,c) to (1-s,1-c,a).

    Absolute in the generic case; relative when either archimedean factor is
    within 0.05 of a pole; at an exact pole the identity is divided by the
    singular factor (whose reciprocal is exactly zero), which reduces the
    check to the vanishing of the surviving side.
    """
    kind = SymKind(kind)
    s, a, c = complex(s), complex(a), complex(c)
    return _reflection_residual(kind, _reflection_phase(kind, a, c), s, a, c, (1.0 - c, a), 0.5 * target_abs_err)


def _reflection_phase(kind: SymKind, a: complex, c: complex) -> complex:
    """i^k e^{-2 pi i a c}: the phase of the reflection sending (s,a,c) to (1-s,1-c,a)."""
    return (1j**kind.k) * cmath.exp(-2j * math.pi * a * c)


def _surviving_side(kind: SymKind, s: complex) -> tuple[int, complex] | None:
    """At an exact pole of either archimedean factor: (surviving side, pi^{-half} of that side), else None.

    Divided by the singular factor (whose reciprocal is exactly zero), the reflection identity reduces to
    pi^{-half} L = 0 on the other side: 0 for the left, at s, and 1 for the right, at 1 - s, where the
    identity's phase stays in front.
    """
    half_l = 0.5 * (s + kind.k)
    if is_nonpositive_integer(half_l):
        return 0, cmath.exp(-half_l * math.log(math.pi))
    half_r = 0.5 * (1.0 - s + kind.k)
    if is_nonpositive_integer(half_r):
        return 1, cmath.exp(-half_r * math.log(math.pi))
    return None


def _reflection_residual(
    kind: SymKind,
    phase: complex,
    s: complex,
    a: complex,
    c: complex,
    ac_r: tuple[complex, complex],
    tgt: float,
) -> float:
    """Residual of completed L(s, a, c) = phase * completed L(1-s, *ac_r), in the forms fe_residual describes."""
    pole = _surviving_side(kind, s)
    if pole is not None:
        side, scale = pole
        if side == 0:
            return abs(scale * l_pm(kind, s, a, c, tgt))
        return abs(phase * scale * l_pm(kind, 1.0 - s, *ac_r, tgt))

    half_l = 0.5 * (s + kind.k)
    half_r = 0.5 * (1.0 - s + kind.k)
    left = completed_l(kind, s, a, c, tgt)
    right_val = phase * completed_l(kind, 1.0 - s, *ac_r, tgt).value
    resid = abs(left.value - right_val)
    if left.scale_overflow or _near_pole(half_l) or _near_pole(half_r):
        return resid / max(1.0, abs(left.value), abs(right_val))
    return resid


class IteratedVariant(str, Enum):
    A_REFLECT = "a_reflect"
    QUARTER_TURN = "quarter_turn"


def fe_iterated_residual(
    kind: SymKind | str,
    variant: IteratedVariant | str,
    s: complex,
    a: complex,
    c: complex,
    target_abs_err: float = 1e-10,
) -> float:
    """Residuals of the iterated reflections.

    A_REFLECT relates (s,a,c) to (s,1-a,1-c) with factor (-1)^k e^{-2*pi*i*a}
    (same archimedean factor on both sides, so it is checked in divided
    form at and near the factor's poles).  QUARTER_TURN relates (s,a,c) to
    (1-s,c,1-a) with factor (-i)^k e^{-2*pi*i*a*c + 2*pi*i*c}.
    """
    kind = SymKind(kind)
    variant = IteratedVariant(variant)
    s, a, c = complex(s), complex(a), complex(c)
    k = kind.k
    tgt = 0.5 * target_abs_err

    if variant is IteratedVariant.A_REFLECT:
        phase = ((-1.0) ** k) * cmath.exp(-2j * math.pi * a)
        n1 = l_pm(kind, s, a, c, tgt)
        n2 = l_pm(kind, s, 1.0 - a, 1.0 - c, tgt)
        half = 0.5 * (s + k)
        if is_nonpositive_integer(half):
            return abs(n1 - phase * n2)
        factor = archimedean_factor(kind, s)
        resid = abs(factor) * abs(n1 - phase * n2)
        if abs(factor) > _OVERFLOW_SCALE or _near_pole(half):
            return resid / max(1.0, abs(factor * n1), abs(factor * n2))
        return resid

    phase = ((-1j) ** k) * cmath.exp(-2j * math.pi * a * c + 2j * math.pi * c)
    return _reflection_residual(kind, phase, s, a, c, (c, 1.0 - a), tgt)


def three_term_residual(sp: complex, a: complex, c: complex, target_abs_err: float = 1e-10) -> float:
    """Residual of the asymmetric three-term transformation at s = 1 - sp.

    Compares the dispatched value at (s, a, c) against the dispatch's own transform_eval,
    (2*pi)^{-sp} Gamma(sp) [ e^{i*pi*sp/2} e^{-2*pi*i*a*c} zeta(sp, 1-c, a)
    + e^{-i*pi*sp/2} e^{2*pi*i*c*(1-a)} zeta(sp, c, 1-a) ].
    Raises InvalidRegion unless Re sp > 0 and (a, c) lie in the open unit strips.
    """
    s = 1.0 - complex(sp)
    rhs = transform_eval(Point3(s, a, c), target_abs_err).value
    return abs(evaluate_principal(s, a, c, 0.5 * target_abs_err).value - rhs)


def fe_monodromy_residual(kind: SymKind | str, w: Word, s: complex, a: complex, c: complex) -> float:
    """Residual of fe_residual's reflection identity with monodromy in place of zeta.

    The four monodromy values enter at the quarter-turn images of the point:
    (s,a,c), (1-s,1-c,a), (s,1-a,1-c), (1-s,c,1-a), with the words mapped by
    the order-4 automorphism.  At an exact pole of either archimedean factor
    the identity is divided by the singular factor, as in fe_residual, which
    reduces the check to the vanishing of the surviving side.
    """
    kind = SymKind(kind)
    s, a, c = complex(s), complex(a), complex(c)
    sign = 1.0 if kind is SymKind.PLUS else -1.0
    m0 = monodromy_of_word(w, s, a, c)
    m1 = monodromy_of_word(w.theta(1), 1.0 - s, 1.0 - c, a)
    m2 = monodromy_of_word(w.theta(2), s, 1.0 - a, 1.0 - c)
    m3 = monodromy_of_word(w.theta(3), 1.0 - s, c, 1.0 - a)
    left = m0 + sign * cmath.exp(-2j * math.pi * a) * m2
    right = m1 + sign * cmath.exp(2j * math.pi * c) * m3
    pole = _surviving_side(kind, s)
    if pole is not None:
        side, scale = pole
        if side == 0:
            return abs(scale * left)
        return abs(_reflection_phase(kind, a, c) * scale * right)
    lhs = archimedean_factor(kind, s) * left
    rhs = archimedean_factor(kind, 1.0 - s) * right
    return abs(lhs - _reflection_phase(kind, a, c) * rhs)
