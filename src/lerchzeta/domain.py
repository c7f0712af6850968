"""Points, regions, and contour specifications.

The punctured domain keeps a off the integers and c off the nonpositive
integers; positive integer c is allowed (those punctures are removable).
Downward rays {n - i*t : t >= 0} below the punctures play the role of cuts
anchoring the principal sheet.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

from .branching import is_nonpositive_integer
from .errors import InvalidPoint


class SymKind(str, Enum):
    """Sign selector shared by the symmetrized combinations (k = 0 resp. 1)."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def k(self) -> int:
        return 0 if self is SymKind.PLUS else 1


def is_real_integer(z: complex) -> bool:
    z = complex(z)
    return z.imag == 0.0 and z.real == round(z.real)


def finite_coordinates(s: complex, a: complex, c: complex) -> tuple[complex, complex, complex]:
    """(s, a, c) as complex numbers; raises InvalidPoint if one is NaN or infinite."""
    s, a, c = complex(s), complex(a), complex(c)
    if not (cmath.isfinite(s) and cmath.isfinite(a) and cmath.isfinite(c)):
        name, z = next((name, z) for name, z in zip("sac", (s, a, c)) if not cmath.isfinite(z))
        raise InvalidPoint(f"{name} = {z!r} is not finite")
    return s, a, c


def checked_point(s: complex, a: complex, c: complex) -> tuple[complex, complex, complex]:
    """(s, a, c) as complex numbers, if they make a point of the punctured domain (see :class:`Point3`, which
    validates by it); else InvalidPoint."""
    s, a, c = finite_coordinates(s, a, c)
    if is_real_integer(a):
        raise InvalidPoint(f"a = {a!r} is an integer puncture")
    if is_nonpositive_integer(c):
        raise InvalidPoint(f"c = {c!r} is a nonpositive integer puncture")
    return s, a, c


def checked_target(target: float, shown: str | None = None) -> float:
    """target, if it is a finite nonnegative number; else InvalidPoint, naming it as shown (by default
    "target_abs_err = " and its repr)."""
    if not 0.0 <= target < math.inf:
        shown = shown or f"target_abs_err = {target!r}"
        raise InvalidPoint(f"{shown} is not a finite nonnegative number")
    return target


def on_a_cut_ray(a: complex) -> bool:
    """True if a lies on a downward ray {n - i*t : t >= 0} below some integer n."""
    a = complex(a)
    return a.imag <= 0.0 and a.real == round(a.real)


def on_c_cut_ray(c: complex) -> bool:
    """True if c lies on a downward ray below some nonpositive integer."""
    c = complex(c)
    return c.imag <= 0.0 and c.real <= 0.0 and c.real == round(c.real)


def cut_distances(z: complex, plane: str) -> tuple[float, float]:
    """(cut-ray clearance, puncture distance) of z in the "a"-plane (punctures at the integers) or "c"-plane (at n <= 0)."""
    z = complex(z)
    n = round(z.real)
    if plane == "c":
        n = min(0, n)
        near = (n - 1, n, min(0, n + 1))
    else:
        near = (n - 1, n, n + 1)
    rays = min(abs(z.real - m) if z.imag <= 0.0 else math.hypot(z.real - m, z.imag) for m in near)
    return rays, min(abs(z - m) for m in near)


@dataclass(frozen=True)
class Point3:
    """A point (s, a, c) in the punctured three-variable domain.

    Raises InvalidPoint if a coordinate is NaN or infinite, a is an integer
    or c is a nonpositive integer.
    """

    s: complex
    a: complex
    c: complex

    def __post_init__(self) -> None:
        for name, z in zip("sac", checked_point(self.s, self.a, self.c)):
            object.__setattr__(self, name, z)


@dataclass(frozen=True)
class ContourSpec:
    """Integration path for the real-axis integral: straight, or detoured.

    The detour replaces [u - epsilon, u + epsilon] with a clockwise semicircle
    of radius epsilon over the top of u; requires 0 < epsilon < min(u, 1/2).
    """

    u: float | None = None
    epsilon: float | None = None

    STRAIGHT: ClassVar["ContourSpec"]

    def __post_init__(self) -> None:
        if (self.u is None) != (self.epsilon is None):
            raise ValueError("give both u and epsilon, or neither")
        if self.u is not None:
            u, eps = float(self.u), float(self.epsilon)
            if not u > 0.0:
                raise ValueError("detour center u must be positive")
            if not 0.0 < eps < min(u, 0.5):
                raise ValueError("need 0 < epsilon < min(u, 1/2)")
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "epsilon", eps)

    @property
    def is_straight(self) -> bool:
        return self.u is None


ContourSpec.STRAIGHT = ContourSpec()
