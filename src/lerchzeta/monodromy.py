"""Closed-form monodromy of the analytically continued zeta.

Circling a = n (generator X_n) adds a multiple of the kernel
(a-n)^{s-1} e^{-2*pi*i*c*(a-n)}; circling c = n with n <= 0 (generator Y_n)
adds a multiple of e^{-2*pi*i*n*a} (c-n)^{-s}; Y_n with n >= 1 adds nothing.
All powers use the package branch convention (cut down the negative
imaginary axis), which pins the formulas to the principal sheet.  The value
attached to a word depends only on its abelianization; monodromy vanishes
identically on the commutator subgroup and at s = 0, -1, -2, ... (exactly,
by construction).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .branching import log_gamma, principal_log
from .domain import finite_coordinates, is_real_integer
from .errors import NonConvergence
from .words import BranchState, Generator, Word, abelianize, generator_of

_TWO_PI = 2.0 * math.pi
_EPS = 2.220446049250313e-16
_LOG_2PI_I = complex(math.log(_TWO_PI), 0.5 * math.pi)


def _cexp_minus_one(s: complex, sign: int, k: int = 1) -> complex:
    """exp(sign * 2*pi*i*s*k) - 1, exactly zero whenever s*k is a real integer."""
    sk = complex(s) * k
    if is_real_integer(sk):
        return 0j
    return cmath.exp(sign * 2j * math.pi * sk) - 1.0


def _geometric_ratio(k: int, s: complex, sign: int, lam_m1: complex | None, scale: float = 0.0) -> complex:
    """(lambda^k - 1)/(lambda - 1) e^{-scale} for lambda = exp(sign*2*pi*i*s), nonzero k and non-integer s.

    Up to 64 loops it is the sum of powers sum_{j} lambda^j e^{-scale}, which leaves lam_m1 unread; beyond, it
    is the closed ratio over lam_m1 = lambda - 1, unless lambda is within 1e-8 of 1, where the sum is exact.
    """
    w = sign * 2j * math.pi * s
    if abs(k) <= 64 or abs(lam_m1) < 1e-8:
        if k > 0:
            return sum(cmath.exp(w * j - scale) for j in range(k))
        # (lambda^{-m} - 1)/(lambda - 1) = -sum_{j=1..m} lambda^{-j}
        return -sum(cmath.exp(-w * j - scale) for j in range(1, -k + 1))
    return (_cexp_minus_one(s, sign, k) if scale == 0.0 else cmath.exp(w * k - scale) - math.exp(-scale)) / lam_m1


def _overflow(what: str, s: complex, a: complex, c: complex) -> NonConvergence:
    return NonConvergence(f"{what} overflows at s = {s!r}, a = {a!r}, c = {c!r}")


def monodromy_terms(b: BranchState, s: complex, a: complex, c: complex) -> list[tuple[Generator, int, complex]]:
    """[(generator, count, monodromy of generator^count)] for the nonzero counts of b, X before Y, in index order.

    The one closed form: X_n^k adds pref_X (a-n)^{s-1} e^{-2*pi*i*c*(a-n)} and Y_n^k, n <= 0, adds
    pref_Y e^{-2*pi*i*n*a} (c-n)^{-s}, each times (lambda^k - 1)/(lambda - 1), with lambda = e^{2*pi*i*s}
    for X and e^{-2*pi*i*s} for Y; Y_n with n >= 1 adds nothing.  pref_X = -(2*pi)^s e^{i*pi*s/2} / Gamma(s)
    is exactly 0 at s = 0, -1, -2, ...; pref_Y = e^{-2*pi*i*s} - 1 is Y's lambda - 1.  A term is one exp of its
    logs (log Gamma(s) among X's) and of the log modulus of its geometric factor's largest power, so it leaves
    binary64 only where it does itself or pref_Y does.  A call tests s for an integer once (there the geometric
    factor is k); each axis forms its prefactor once, Y's only when some n <= 0 and s is no integer, and X its
    lambda - 1 only past 64 loops.  Raises InvalidPoint for a non-finite s, a or c, and NonConvergence where a
    factor overflows or a term is not finite (a complex product overflows without raising).
    """
    s, a, c = finite_coordinates(s, a, c)
    terms = []
    if not (b.kx or b.ky):
        return terms
    finite = True
    try:  # a term, pref_Y or lambda - 1 may overflow
        integer_s = bool(b.kx or b.ky[0][0] < 1) and is_real_integer(s)  # a Y part of n >= 1 alone forms no factor
        for axis, sign, pairs in (("X", 1, b.kx), ("Y", -1, b.ky)):
            if not pairs:
                continue
            if axis == "X":  # the log of -pref_X, None where pref_X is exactly 0
                log_pref = None if integer_s and s.real <= 0.0 else s * _LOG_2PI_I - log_gamma(s)
                lam_m1 = None
            else:
                lam_m1 = 0j if integer_s or pairs[0][0] >= 1 else _cexp_minus_one(s, -1)
                log_pref = cmath.log(lam_m1) if lam_m1 else None
            for n, k in pairs:
                # one exp of the sum of the term's logs and the log modulus of its geometric factor's largest power
                scale = 0.0 if integer_s else max(0.0, -sign * _TWO_PI * s.imag * (k - 1 if k > 0 else k))
                if log_pref is None or axis == "Y" and n >= 1:
                    term = 0j
                elif axis == "X":
                    term = -cmath.exp(log_pref + (s - 1.0) * principal_log(a - n) - 2j * math.pi * c * (a - n) + scale)
                else:
                    term = cmath.exp(log_pref - 2j * math.pi * n * a - s * principal_log(c - n) + scale)
                if term == 0:
                    term = 0j
                elif integer_s:
                    term = complex(k) * term
                else:
                    if lam_m1 is None and abs(k) > 64:
                        lam_m1 = _cexp_minus_one(s, sign)
                    term = _geometric_ratio(k, s, sign, lam_m1, scale) * term
                finite = finite and cmath.isfinite(term)
                terms.append((generator_of(axis, n), k, term))
    except OverflowError as exc:
        raise _overflow(f"monodromy of {b!r}", s, a, c) from exc
    if not finite:
        raise _overflow(f"monodromy of {b!r}", s, a, c)
    return terms


def monodromy_power(g: Generator, k: int, s: complex, a: complex, c: complex) -> complex:
    """Monodromy of g^k for any integer k: the one term of :func:`monodromy_terms` for that winding."""
    one = ((g.index, k),)
    terms = monodromy_terms(BranchState(one) if g.axis == "X" else BranchState(ky=one), s, a, c)
    return terms[0][2] if terms else 0j


def monodromy_generator(g: Generator, s: complex, a: complex, c: complex) -> complex:
    """Monodromy added by one positive loop of generator g, on the principal sheet."""
    return monodromy_power(g, 1, s, a, c)


def monodromy_of_branch(b: BranchState, s: complex, a: complex, c: complex) -> complex:
    """Total monodromy for a winding vector: the sum of its :func:`monodromy_terms`, in order."""
    total = 0j
    for _, _, term in monodromy_terms(b, s, a, c):
        total += term
    return total


def branch_monodromy(b: BranchState, s: complex, a: complex, c: complex) -> tuple[complex, float]:
    """(monodromy_of_branch, its roundoff: the sum of 4 eps |term| (1 + size of the exponents the term passes to exp)).

    One pass over :func:`monodromy_terms`, summed and charged term by term, so the charge is finite where the terms
    are.  X_n passes (s-1) log(a-n), s log(2 pi i) and 2 pi i c (a-n) (and -log Gamma(s), uncharged here); Y_n
    passes 2 pi i s, 2 pi i n a and s log(c-n); k loops of either pass at most 2 pi i s k.
    """
    s, a, c = complex(s), complex(a), complex(c)
    total, roundoff = 0j, 0.0
    for g, k, term in monodromy_terms(b, s, a, c):
        total += term
        if term:
            n = g.index
            if g.axis == "X":
                phase = abs((s - 1.0) * principal_log(a - n)) + abs(s * _LOG_2PI_I) + _TWO_PI * abs(c * (a - n))
            else:
                phase = _TWO_PI * (abs(s) + abs(n * a)) + abs(s * principal_log(c - n))
            roundoff += 4.0 * _EPS * abs(term) * (1.0 + phase + _TWO_PI * abs(s * k))
    return total, roundoff


def monodromy_of_word(w: Word, s: complex, a: complex, c: complex) -> complex:
    """Monodromy attached to a loop word; depends only on its abelianization."""
    return monodromy_of_branch(abelianize(w), s, a, c)


def word_fold_monodromy(w: Word, s: complex, a: complex, c: complex) -> complex:
    """Letter-by-letter accumulation via the composition law, kept per kernel.

    Appending one letter g^e to a word with accumulated kernel coefficients
    multiplies the matching kernel's coefficient by lambda_g^e and adds the
    single-letter contribution; distinct kernels never mix.  Each of the four
    (axis, direction) factors is formed once; the single loops come from one
    :func:`monodromy_terms` call with every winding 1.  Raises InvalidPoint for
    a non-finite s, a or c, and NonConvergence where a factor overflows or the
    total is not finite.
    """
    s, a, c = finite_coordinates(s, a, c)
    coeffs: dict[Generator, complex] = {}
    try:
        integer_s = is_real_integer(s)
        steps: dict[tuple[int, int], tuple[complex, complex]] = {}
        for gen, exp in w:
            key = (1 if gen.axis == "X" else -1, 1 if exp > 0 else -1)
            if key not in steps:
                sign, step = key
                phi = complex(step) if integer_s else _geometric_ratio(step, s, sign, None)
                steps[key] = (1.0 + _cexp_minus_one(s, sign * step), phi)
            lam_pow, phi = steps[key]
            for _ in range(abs(exp)):
                coeffs[gen] = coeffs.get(gen, 0j) * lam_pow + phi
    except OverflowError as exc:
        raise _overflow(f"monodromy of {w!r}", s, a, c) from exc
    ones = [{g.index: 1 for g in coeffs if g.axis == axis} for axis in "XY"]
    loops = {(g.axis, g.index): loop for g, _, loop in monodromy_terms(BranchState.from_dicts(*ones), s, a, c)}
    total = 0j
    for gen, coef in coeffs.items():
        total += coef * loops[gen.axis, int(gen.index)]  # an index that is no int is truncated, as abelianize does
    if not cmath.isfinite(total):
        raise _overflow(f"monodromy of {w!r}", s, a, c)
    return total


def compose_check(w1: Word, w2: Word, s: complex, a: complex, c: complex) -> float:
    """Residual of the composition law M(w1 w2) = M(w1) + M(w2) + M(w2)(M(w1)).

    The nested term is evaluated from the closed forms: applying w2 to a
    kernel multiplies it by lambda^{k2} where k2 is w2's winding around that
    kernel's generator; distinct generators contribute nothing.  Raises
    NonConvergence where lambda^{k2} overflows.
    """
    m12 = monodromy_of_word(w1 * w2, s, a, c)
    m1 = monodromy_of_word(w1, s, a, c)
    m2 = monodromy_of_word(w2, s, a, c)
    b1, b2 = abelianize(w1), abelianize(w2)
    nested = 0j
    try:
        for gen, _, part in monodromy_terms(b1, s, a, c):
            k2 = b2.winding(gen)
            if k2:
                nested += part * _cexp_minus_one(s, 1 if gen.axis == "X" else -1, k2)
    except OverflowError as exc:
        raise _overflow(f"composition of {w1!r} and {w2!r}", s, a, c) from exc
    return abs(m12 - (m1 + m2 + nested))


@dataclass(frozen=True)
class MonodromySpaceBasis:
    """Symbolic description of a basis of the monodromy span at fixed s.

    Index sets are symbolic because they are infinite: x_indices is "all n"
    or "none"; y_indices is "n <= 0" or "none".
    """

    s: complex
    dimension: str  # "1" or "infinite"
    x_indices: str
    y_indices: str
    includes_base_function: bool = True


def monodromy_space_basis(s: complex) -> MonodromySpaceBasis:
    """Basis of the span of the continued function and its monodromies at fixed s; a non-finite s raises InvalidPoint."""
    s, _, _ = finite_coordinates(s, 0j, 0j)
    if is_real_integer(s):
        if s.real <= 0:
            return MonodromySpaceBasis(s, "1", "none", "none")
        return MonodromySpaceBasis(s, "infinite", "all n", "none")
    return MonodromySpaceBasis(s, "infinite", "all n", "n <= 0")
