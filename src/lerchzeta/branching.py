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


def _principal_log_array(x: np.ndarray, y: float) -> np.ndarray:
    """principal_log of each x + iy, for real x and one imaginary part y; CutViolation if one lies on the cut."""
    if y <= 0.0 and (x == 0.0).any():
        raise CutViolation(f"{complex(0.0, y)!r} lies on the branch cut {{-i*t : t >= 0}}")
    theta = np.arctan2(y, x)
    theta += _TWO_PI * ((theta < -_HALF_PI) | ((theta == -_HALF_PI) & (x < 0.0)))  # as in principal_log
    return np.log(np.hypot(x, y)) + 1j * theta


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


# Lanczos approximation, g = 7, 9 coefficients.  Relative error stays below
# ~1e-13 for Re s >= 0.5 in the tested box; the reflection formula covers the
# left half-plane.
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
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _sin_pi(s: complex) -> complex:
    """sin(pi s) = (-1)^n sin(pi (s - n)), n = round(Re s): s - n is exact, so no rounding of pi s
    shifts the zeros at the integers (it would cost eps |n| / |s - n| relative next to s = n)."""
    n = round(s.real)
    v = cmath.sin(math.pi * (s - n))
    return -v if n % 2 else v


def complex_gamma(s: complex) -> complex:
    """Gamma function for complex s, poles at the nonpositive integers.

    The left half-plane Re s < 1/2 takes the reflection formula with the reduced sine of
    :func:`_sin_pi`, so Gamma keeps its relative accuracy next to the poles.  Raises
    PoleAtNonpositiveInteger at s = 0, -1, -2, ...
    """
    s = complex(s)
    if is_nonpositive_integer(s):
        raise PoleAtNonpositiveInteger(f"Gamma pole at s = {s!r}")
    if s.real < 0.5:
        return math.pi / (_sin_pi(s) * complex_gamma(1.0 - s))
    z = s - 1.0
    x = complex(_LANCZOS_COEFFS[0])
    for i in range(1, len(_LANCZOS_COEFFS)):
        x += _LANCZOS_COEFFS[i] / (z + i)
    t = z + (_LANCZOS_G + 0.5)
    return _SQRT_TWO_PI * t ** (z + 0.5) * cmath.exp(-t) * x


def reciprocal_gamma(s: complex) -> complex:
    """1/Gamma(s), entire; exactly 0 at s = 0, -1, -2, ...

    Implemented directly rather than as 1/complex_gamma so the zeros at the
    nonpositive integers are exact, not rounded.  Raises OverflowError where
    Gamma(s) underflows to 0, as complex_gamma does where Gamma(s) overflows.
    """
    s = complex(s)
    if is_nonpositive_integer(s):
        return 0j
    if s.real < 0.5:
        return _sin_pi(s) * complex_gamma(1.0 - s) / math.pi
    gam = complex_gamma(s)
    if gam == 0:
        raise OverflowError(f"1/Gamma(s) overflows at s = {s!r}, where Gamma(s) underflows to 0")
    return 1.0 / gam
