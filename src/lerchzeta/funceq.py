"""The functional equations and their residual checks, each written once.

The two-term combinations L± pair the value at (s,a,c) with the one at
(s,1-a,1-c).  Times the archimedean factor pi^{-(s+k)/2} Gamma((s+k)/2)
(k = 0 for PLUS, 1 for MINUS) they lie on the orbit of one map of order 4,
theta: (s,a,c) -> (1-s,1-c,a), whose images are (1-s,1-c,a), (s,1-a,1-c)
and (1-s,c,1-a):

    completed L(p) = i^{jk} phase_j completed L(theta^j p),  j = 1, 2, 3,

with phase_1 = e^{-2 pi i a c}, phase_2 = e^{-2 pi i a} and
phase_3 = e^{-2 pi i a c + 2 pi i c}.  fe_residual is j = 1, the iterated
A_REFLECT j = 2 and QUARTER_TURN j = 3, and fe_monodromy_residual is j = 1
with monodromies in place of zeta.  :func:`_relation` checks each in one of
three forms:

- at an exact pole of one side's factor, the identity divided by that
  factor (whose reciprocal is exactly zero) says pi^{-h} L = 0 on that
  side, and only that side is evaluated;
- where both sides share the singular factor (j = 2), the undivided
  combinations are compared;
- otherwise the completed values are compared, each L at the target over
  max(|factor|, 1); relative to max(1, |left|, |right|) within 0.05 of a
  pole of either factor or where the left factor passes 1e8.

The three-term formula is checked as the dispatch runs it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .branching import is_nonpositive_integer, log_gamma
from .continuation import evaluate_principal, transform_eval
from .domain import Point3, SymKind
from .errors import NonConvergence
from .evaluator import _target_over
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
    v2 = evaluate_principal(s, 1.0 - a, 1.0 - c, _target_over(0.5 * target_abs_err, 2.0 * math.pi * a.imag))
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
    """pi^{-(s+k)/2} Gamma((s+k)/2) as one exp; poles at s+k in {0, -2, -4, ...}; NonConvergence where it overflows."""
    k = SymKind(kind).k
    half = 0.5 * (complex(s) + k)
    try:
        return cmath.exp(log_gamma(half) - half * math.log(math.pi))
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


def _relation(
    kind: SymKind, j: int, s: complex, a: complex, c: complex, tgt: float, sides: tuple[complex, complex] | None = None
) -> float:
    """Residual of completed L(p) = phase completed L(theta^j p), p = (s, a, c), in the forms the module describes.

    Each L is l_pm at its side's target, or, where sides is given, the combination sides holds for p and for
    theta^j p.  The image is written in closed form, not by iterating theta, so that no bit is lost on the way.
    """
    if j == 1:
        img, phase = (1.0 - s, 1.0 - c, a), cmath.exp(-2j * math.pi * a * c)
    elif j == 2:
        img, phase = (s, 1.0 - a, 1.0 - c), cmath.exp(-2j * math.pi * a)
    else:
        img, phase = (1.0 - s, c, 1.0 - a), cmath.exp(-2j * math.pi * a * c + 2j * math.pi * c)
    k = kind.k
    phase *= (1j**j) ** k
    h_l, h_r = 0.5 * (s + k), 0.5 * (img[0] + k)
    pole_l, pole_r = is_nonpositive_integer(h_l), is_nonpositive_integer(h_r)
    if pole_l and pole_r:  # j = 2 at a pole: the undivided combinations
        f_l = f_r = 1.0
    elif pole_l or pole_r:  # the side whose factor stays finite is multiplied by an exact zero
        f_l = cmath.exp(-h_l * math.log(math.pi)) if pole_l else 0.0
        f_r = cmath.exp(-h_r * math.log(math.pi)) if pole_r else 0.0
    else:
        f_l, f_r = archimedean_factor(kind, s), archimedean_factor(kind, img[0])
    if sides is None:
        sides = [l_pm(kind, *p, tgt / max(abs(f), 1.0)) if f else 0j for f, p in ((f_l, (s, a, c)), (f_r, img))]
    left, right = f_l * sides[0], phase * (f_r * sides[1])
    resid = abs(left - right)
    if not (pole_l or pole_r) and (abs(f_l) > _OVERFLOW_SCALE or _near_pole(h_l) or _near_pole(h_r)):
        return resid / max(1.0, abs(left), abs(right))
    return resid


def fe_residual(kind: SymKind | str, s: complex, a: complex, c: complex, target_abs_err: float = 1e-10) -> float:
    """Residual of the reflection identity sending (s,a,c) to (1-s,1-c,a), theta itself, in the module's forms."""
    return _relation(SymKind(kind), 1, complex(s), complex(a), complex(c), 0.5 * target_abs_err)


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
    """Residuals of the iterated reflections, in the module's forms.

    A_REFLECT is theta^2, relating (s,a,c) to (s,1-a,1-c) with phase (-1)^k e^{-2*pi*i*a}; both sides share
    one archimedean factor.  QUARTER_TURN is theta^3, relating (s,a,c) to (1-s,c,1-a) with phase
    (-i)^k e^{-2*pi*i*a*c + 2*pi*i*c}.
    """
    j = 2 if IteratedVariant(variant) is IteratedVariant.A_REFLECT else 3
    return _relation(SymKind(kind), j, complex(s), complex(a), complex(c), 0.5 * target_abs_err)


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
    """Residual of fe_residual's reflection identity with monodromy in place of zeta, in the module's forms.

    The four monodromy values enter at the orbit of the point under theta:
    (s,a,c), (1-s,1-c,a), (s,1-a,1-c), (1-s,c,1-a), with the words mapped by
    the order-4 automorphism, and make up L at (s,a,c) and at (1-s,1-c,a).
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
    return _relation(kind, 1, s, a, c, 0.0, (left, right))
