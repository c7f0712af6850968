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

from .branching import branched_pow, principal_log, reciprocal_gamma
from .domain import is_real_integer
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


def _geometric_factor(k: int, s: complex, sign: int) -> complex:
    """(lambda^k - 1)/(lambda - 1) for lambda = exp(sign*2*pi*i*s), any integer k.

    At integer s the ratio is the removable-singularity limit k; elsewhere it is :func:`_geometric_ratio`.
    """
    if k == 0:
        return 0j
    if is_real_integer(s):
        return complex(k)
    return _geometric_ratio(k, s, sign, _cexp_minus_one(s, sign))


def _geometric_ratio(k: int, s: complex, sign: int, lam_m1: complex) -> complex:
    """(lambda^k - 1)/(lambda - 1) for nonzero k at non-integer s, given lam_m1 = :func:`_cexp_minus_one`(s, sign).

    Near-integer s falls back to the polynomial form sum_{j} lambda^j, which is exact there.
    """
    if abs(k) <= 64 or abs(lam_m1) < 1e-8:
        w = sign * 2j * math.pi * s
        if k > 0:
            return sum(cmath.exp(w * j) for j in range(k))
        # (lambda^{-m} - 1)/(lambda - 1) = -sum_{j=1..m} lambda^{-j}
        return -sum(cmath.exp(-w * j) for j in range(1, -k + 1))
    return _cexp_minus_one(s, sign, k) / lam_m1


def _prefactor(axis: str, lowest: int, s: complex) -> complex:
    """The factor that depends on s alone, shared by the generators of one axis; lowest is their lowest index.

    X: -(2*pi)^s e^{i*pi*s/2} / Gamma(s), exactly 0 at s = 0, -1, -2, ...; Y: e^{-2*pi*i*s} - 1.
    Y_n with n >= 1 adds nothing, so a Y part whose lowest index is >= 1 forms none.
    """
    if axis == "X":
        rg = reciprocal_gamma(s)
        if rg == 0:
            return 0j
        return -cmath.exp(s * math.log(_TWO_PI) + 0.5j * math.pi * s) * rg
    if lowest >= 1:
        return 0j
    return _cexp_minus_one(s, -1)


class _AxisFactors:
    """The factors of one axis that depend on s alone, for a call that has tested s for an integer once.

    pref is :func:`_prefactor`'s; Y's, e^{-2*pi*i*s} - 1, is exactly 0 at integer s and then not formed.
    lam_m1 is lambda - 1 for the axis' loop multiplier lambda = exp(sign*2*pi*i*s): Y's prefactor, and
    for X formed by the first nonzero term at non-integer s (it may overflow where no term needs it).
    """

    __slots__ = ("sign", "integer_s", "pref", "lam_m1")

    def __init__(self, axis: str, lowest: int, s: complex, integer_s: bool) -> None:
        self.sign = _loop_multiplier_sign(axis)
        self.integer_s = integer_s
        self.pref = 0j if axis == "Y" and integer_s else _prefactor(axis, lowest, s)
        self.lam_m1 = self.pref if axis == "Y" else None


def _loop(g: Generator, pref: complex, s: complex, a: complex, c: complex) -> complex:
    """Monodromy of one positive loop of g, given the prefactor of g's axis: the one kernel formula per axis."""
    n = g.index
    if g.axis == "X":
        return pref * (branched_pow(a - n, s - 1.0) * cmath.exp(-2j * math.pi * c * (a - n)))
    if n >= 1 or pref == 0:
        return 0j
    return pref * cmath.exp(-2j * math.pi * n * a) * branched_pow(c - n, -s)


def _power(g: Generator, k: int, f: _AxisFactors, s: complex, a: complex, c: complex) -> complex:
    """Monodromy of g^k for k != 0, given the factors of g's axis: the geometric multiple of :func:`_loop`'s."""
    base = _loop(g, f.pref, s, a, c)
    if base == 0:
        return 0j
    if f.integer_s:
        return complex(k) * base
    if f.lam_m1 is None:
        f.lam_m1 = _cexp_minus_one(s, f.sign)
    return _geometric_ratio(k, s, f.sign, f.lam_m1) * base


def monodromy_generator(g: Generator, s: complex, a: complex, c: complex) -> complex:
    """Monodromy added by one positive loop of generator g, on the principal sheet."""
    s, a, c = complex(s), complex(a), complex(c)
    return _loop(g, _prefactor(g.axis, g.index, s), s, a, c)


def _loop_multiplier_sign(axis: str) -> int:
    # one positive loop of a generator of this axis multiplies its own kernel by exp(sign*2*pi*i*s)
    return 1 if axis == "X" else -1


def monodromy_power(g: Generator, k: int, s: complex, a: complex, c: complex) -> complex:
    """Monodromy of g^k for any integer k: the geometric multiple of the generator's."""
    k = int(k)
    if k == 0:
        return 0j
    s, a, c = complex(s), complex(a), complex(c)
    integer_s = (g.axis == "X" or g.index < 1) and is_real_integer(s)  # Y_n with n >= 1 forms no factor
    return _power(g, k, _AxisFactors(g.axis, g.index, s, integer_s), s, a, c)


def _overflow(what: str, s: complex, a: complex, c: complex) -> NonConvergence:
    return NonConvergence(f"{what} overflows at s = {s!r}, a = {a!r}, c = {c!r}")


def monodromy_terms(b: BranchState, s: complex, a: complex, c: complex) -> list[tuple[Generator, int, complex]]:
    """[(generator, count, monodromy of generator^count)] for the nonzero counts of b, X before Y, in index order.

    Each call tests s for an integer once, and each axis forms its factors once (:class:`_AxisFactors`),
    from its first pair, the lowest index.  Raises NonConvergence where a factor overflows or a term is
    not finite (a complex product overflows without raising).
    """
    s, a, c = complex(s), complex(a), complex(c)
    terms = []
    if not (b.kx or b.ky):
        return terms
    finite = True
    try:  # 1/Gamma(s), (2 pi)^s, a kernel or a geometric factor may overflow
        integer_s = bool(b.kx or b.ky[0][0] < 1) and is_real_integer(s)  # a Y part of n >= 1 alone forms no factor
        for axis, pairs in (("X", b.kx), ("Y", b.ky)):
            if not pairs:
                continue
            factors = _AxisFactors(axis, pairs[0][0], s, integer_s)
            for n, k in pairs:
                g = generator_of(axis, n)
                term = _power(g, k, factors, s, a, c)
                finite = finite and cmath.isfinite(term)
                terms.append((g, k, term))
    except OverflowError as exc:
        raise _overflow(f"monodromy of {b!r}", s, a, c) from exc
    if not finite:
        raise _overflow(f"monodromy of {b!r}", s, a, c)
    return terms


def monodromy_of_branch(b: BranchState, s: complex, a: complex, c: complex) -> complex:
    """Total monodromy for a winding vector: the sum of its :func:`monodromy_terms`, in order."""
    total = 0j
    for _, _, term in monodromy_terms(b, s, a, c):
        total += term
    return total


def branch_monodromy(b: BranchState, s: complex, a: complex, c: complex) -> tuple[complex, float]:
    """(monodromy_of_branch, its roundoff 4 eps sum |term| (1 + size of the exponents the term passes to exp)).

    One pass over :func:`monodromy_terms`, summed in order.  X_n passes (s-1) log(a-n), s log(2 pi i) and
    2 pi i c (a-n); Y_n passes 2 pi i s, 2 pi i n a and s log(c-n); k loops of either pass at most 2 pi i s k.
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
            roundoff += abs(term) * (1.0 + phase + _TWO_PI * abs(s * k))
    return total, 4.0 * _EPS * roundoff


def monodromy_of_word(w: Word, s: complex, a: complex, c: complex) -> complex:
    """Monodromy attached to a loop word; depends only on its abelianization."""
    return monodromy_of_branch(abelianize(w), s, a, c)


def word_fold_monodromy(w: Word, s: complex, a: complex, c: complex) -> complex:
    """Letter-by-letter accumulation via the composition law, kept per kernel.

    Appending one letter g^e to a word with accumulated kernel coefficients
    multiplies the matching kernel's coefficient by lambda_g^e and adds the
    single-letter contribution; distinct kernels never mix.  Each of the four
    (axis, direction) factors is formed once, and each axis' prefactor once,
    from its lowest index.  Raises NonConvergence where a factor overflows or
    the total is not finite.
    """
    s, a, c = complex(s), complex(a), complex(c)
    try:
        coeffs: dict[Generator, complex] = {}
        steps: dict[tuple[int, int], tuple[complex, complex]] = {}
        for gen, exp in w:
            key = (_loop_multiplier_sign(gen.axis), 1 if exp > 0 else -1)
            if key not in steps:
                sign, step = key
                steps[key] = (1.0 + _cexp_minus_one(s, sign * step), _geometric_factor(step, s, sign))
            lam_pow, phi = steps[key]
            for _ in range(abs(exp)):
                coeffs[gen] = coeffs.get(gen, 0j) * lam_pow + phi
        lowest: dict[str, int] = {}
        for gen in coeffs:
            lowest[gen.axis] = min(gen.index, lowest.get(gen.axis, gen.index))
        prefs = {axis: _prefactor(axis, n, s) for axis, n in lowest.items()}
        total = 0j
        for gen, coef in coeffs.items():
            total += coef * _loop(gen, prefs[gen.axis], s, a, c)
    except OverflowError as exc:
        raise _overflow(f"monodromy of {w!r}", s, a, c) from exc
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
        for axis, items in (("X", b1.kx), ("Y", b1.ky)):
            for n, k1 in items:
                gen = generator_of(axis, n)
                k2 = b2.winding(gen)
                if k2 == 0:
                    continue
                part = monodromy_power(gen, k1, s, a, c)
                nested += part * _cexp_minus_one(s, _loop_multiplier_sign(axis), k2)
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
    """Basis of the span of the continued function and its monodromies at fixed s."""
    s = complex(s)
    if is_real_integer(s):
        if s.real <= 0:
            return MonodromySpaceBasis(s, "1", "none", "none")
        return MonodromySpaceBasis(s, "infinite", "all n", "none")
    return MonodromySpaceBasis(s, "infinite", "all n", "n <= 0")
