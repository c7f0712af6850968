"""Branch-aware complex primitives.

Every multivalued power in this package is anchored to one logarithm
convention: the branch cut runs along the closed negative imaginary axis,
arg(z) lies in (-pi/2, 3*pi/2), and the logarithm is real on the positive
real axis, so log(-x) = log(x) + i*pi for real x > 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutViolation, PoleAtNonpositiveInteger

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class PrincipalLogConvention:
    """Stateless marker documenting the argument range of :func:`principal_log`."""

    arg_min: float = -_HALF_PI
    arg_max: float = 3.0 * _HALF_PI

    def admits(self, z: complex) -> bool:
        """True if z is off the cut (and nonzero), i.e. principal_log(z) exists."""
        z = complex(z)
        return not (z.real == 0.0 and z.imag <= 0.0)


PRINCIPAL_LOG = PrincipalLogConvention()


def principal_log(z: complex) -> complex:
    """Logarithm with cut along the negative imaginary axis.

    Satisfies exp(principal_log(z)) = z with Im in (-pi/2, 3*pi/2); real for
    real z > 0 and equal to log|z| + i*pi for real z < 0.  Inputs exactly on
    the closed ray {-i*t : t >= 0} (zero included) raise CutViolation.
    """
    z = complex(z)
    if z.real == 0.0 and z.imag <= 0.0:
        raise CutViolation(f"{z!r} lies on the branch cut {{-i*t : t >= 0}}")
    theta = math.atan2(z.imag, z.real)
    # atan2 may round to exactly -pi/2 on either side of the cut; the sign of
    # Re z decides which side the point is on
    if theta < -_HALF_PI or (theta == -_HALF_PI and z.real < 0.0):
        theta += _TWO_PI
    return complex(math.log(abs(z)), theta)


def _principal_log_array(j: np.ndarray, c: complex) -> np.ndarray:
    """principal_log of each j + c, j a nonempty increasing run of integers: numpy's log (its arg is atan2's), moved
    by 2 pi i where Im c < 0 and Re(j + c) < 0.  CutViolation if a j + c lies on the cut; both tests read the ends."""
    if c.imag <= 0.0 and c.real == math.floor(c.real) and j[0] <= -c.real <= j[-1]:
        raise CutViolation(f"{complex(0.0, c.imag)!r} lies on the branch cut {{-i*t : t >= 0}}")
    lg = np.log(j + c)
    if c.imag < 0.0 and j[0] + c.real < 0.0:
        lg[j + c.real < 0.0] += 1j * _TWO_PI
    return lg


def branched_pow(base: complex, exponent: complex, extra_winding: int = 0) -> complex:
    """base**exponent on the branch offset from principal by extra_winding turns.

    Equals exp(exponent * (principal_log(base) + 2*pi*i*extra_winding));
    extra_winding = 0 reproduces the principal branch.
    """
    log_b = principal_log(base)
    if extra_winding:
        log_b = complex(log_b.real, log_b.imag + _TWO_PI * extra_winding)
    return cmath.exp(complex(exponent) * log_b)


def is_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


# Lanczos approximation, g = 7, 9 coefficients, in log form for Re s >= 1/2; the reflection covers Re s < 1/2
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LANCZOS_TERMS = tuple(enumerate(_LANCZOS_COEFFS[1:], 1))
_LOG_SQRT_TWO_PI, _LOG_PI = 0.5 * math.log(2.0 * math.pi), math.log(math.pi)


def _log_sin_pi(s: complex) -> complex:
    """A logarithm of sin(pi s) = (-1)^n sin(pi u), u = s - n exact for n = round(Re s), so no rounding of pi s
    shifts the zeros at the integers.  Past |Im u| = 1 it is that of +-(i/2) e^{-+i pi u} (1 - e^{+-2 pi i u}),
    which stays in range where sin(pi u) overflows (|Im s| > 226)."""
    n = round(s.real)
    u, sign = s - n, math.copysign(1.0, s.imag)
    if abs(u.imag) <= 1.0:
        return cmath.log(cmath.sin(math.pi * u)) + 1j * math.pi * n
    w = 1j * math.pi * sign * u  # Re w = -pi |Im s|
    return complex(-math.log(2.0), math.pi * (0.5 * sign + n)) - w + cmath.log(1.0 - cmath.exp(2.0 * w))


def log_gamma(s: complex) -> complex:
    """A logarithm of Gamma(s), the one place Gamma is computed (its imaginary part is not reduced to the
    principal branch): the Lanczos sum in log form for Re s >= 1/2, else the reflection log pi - log sin(pi s)
    - log Gamma(1 - s).  Finite at every finite s, so a factor formed as one exp of a sum of logs leaves
    binary64 only where it does.  Raises PoleAtNonpositiveInteger at s = 0, -1, -2, ...
    """
    s = complex(s)
    if s.real < 0.5:
        if is_nonpositive_integer(s):
            raise PoleAtNonpositiveInteger(f"Gamma pole at s = {s!r}")
        return _LOG_PI - _log_sin_pi(s) - log_gamma(1.0 - s)
    z = s - 1.0
    x = complex(_LANCZOS_COEFFS[0])
    for i, coef in _LANCZOS_TERMS:
        x += coef / (z + i)
    t = z + (_LANCZOS_G + 0.5)
    return _LOG_SQRT_TWO_PI + (z + 0.5) * cmath.log(t) - t + cmath.log(x)


def complex_gamma(s: complex) -> complex:
    """Gamma(s) = exp(log_gamma(s)): PoleAtNonpositiveInteger at s = 0, -1, -2, ..., OverflowError past binary64."""
    return cmath.exp(log_gamma(s))


def reciprocal_gamma(s: complex) -> complex:
    """1/Gamma(s) = exp(-log_gamma(s)), entire: exactly 0 at s = 0, -1, -2, ..., OverflowError past binary64."""
    return 0j if is_nonpositive_integer(s) else cmath.exp(-log_gamma(s))
