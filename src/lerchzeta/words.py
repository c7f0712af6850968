"""Free-group loop words and their abelianization.

Loops around the punctures are generated by X_n (a small counterclockwise
loop around a = n reached through the upper half a-plane) and Y_n (the same
around c = n).  Words are stored in reduced syllable form, the unique normal
form in a free group, so equality of words is literal equality.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import WordParseError

_TOKEN_RE = re.compile(r"^([XY])(-?\d+)(?:\^(-?\d+))?$", re.ASCII)
_ASSIGN_RE = re.compile(r"^k([xy])\[(-?\d+)\]=(-?\d+)$", re.ASCII)
_GENERATORS = 4096  # distinct generators kept by generator_of(); hot words use a few dozen


@dataclass(frozen=True, order=True)
class Generator:
    """One free-group generator: axis "X" (a-plane) or "Y" (c-plane), integer index."""

    axis: str
    index: int

    def __post_init__(self) -> None:
        if self.axis not in ("X", "Y"):
            raise ValueError(f"axis must be 'X' or 'Y', got {self.axis!r}")

    def theta(self, power: int = 1) -> "Generator":
        """Order-4 automorphism on generators, applied `power` times: X_n -> Y_n -> X_{1-n} -> Y_{1-n} -> X_n."""
        q = (power + (self.axis == "Y")) % 4  # the step of that cycle the image lands on, X_n at step 0
        return generator_of("Y" if q % 2 else "X", self.index if q < 2 else 1 - self.index)

    def __str__(self) -> str:
        return f"{self.axis}{self.index}"


@functools.lru_cache(maxsize=_GENERATORS, typed=True)
def generator_of(axis: str, index: int) -> Generator:
    """The one shared Generator(axis, index): built, and its axis checked, on the first request only.

    Generators are immutable, so parsing, theta and the monodromy terms share one object per generator
    instead of building one per letter; typed, so index 1 and 1.0 stay the distinct objects they print as.
    """
    return Generator(axis, index)


Syllable = tuple[Generator, int]


def _reduce(syllables: Iterable[Syllable]) -> tuple[Syllable, ...]:
    stack: list[Syllable] = []
    for gen, exp in syllables:
        exp = int(exp)
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            g, e = stack.pop()
            if e + exp:
                stack.append((g, e + exp))
        else:
            stack.append((gen, exp))
    return tuple(stack)


class Word:
    """A reduced word in the free group on {X_n} u {Y_n}; immutable and hashable."""

    __slots__ = ("_syllables",)

    def __init__(self, syllables: Iterable[Syllable] = ()) -> None:
        object.__setattr__(self, "_syllables", _reduce(syllables))

    @classmethod
    def generator(cls, axis: str, index: int, exponent: int = 1) -> "Word":
        return cls([(generator_of(axis, index), exponent)])

    @property
    def is_identity(self) -> bool:
        return not self._syllables

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self._syllables)

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self._syllables)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self._syllables + other._syllables)

    def inverse(self) -> "Word":
        return Word([(g, -e) for g, e in reversed(self._syllables)])

    def commutator(self, other: "Word") -> "Word":
        return self.inverse() * other.inverse() * self * other

    def theta(self, power: int = 1) -> "Word":
        """Image under the order-4 automorphism, applied `power` times.

        theta permutes the generators, so the image of a reduced word is reduced as it stands.
        """
        w = object.__new__(Word)
        object.__setattr__(w, "_syllables", tuple((g.theta(power), e) for g, e in self._syllables))
        return w

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self._syllables == other._syllables

    def __hash__(self) -> int:
        return hash(self._syllables)

    def __str__(self) -> str:
        if not self._syllables:
            return ""
        return " ".join(f"{g}" if e == 1 else f"{g}^{e}" for g, e in self._syllables)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse the CLI grammar: whitespace-separated `X<n>`/`Y<n>` with optional `^k`, n and k ASCII integers.

        Round-trips exactly with str() on reduced words.
        """
        syllables: list[Syllable] = []
        for token in text.split():
            m = _TOKEN_RE.match(token)
            if m is None:
                raise WordParseError(f"bad word token {token!r}")
            axis, index, exp = m.groups()
            e = 1 if exp is None else int(exp)
            if e == 0 and exp is not None:
                raise WordParseError(f"zero exponent in token {token!r}")
            syllables.append((generator_of(axis, int(index)), e))
        return cls(syllables)


def rep_apply(sigma: Word, tau: Word) -> Word:
    """Word-level action of the monodromy representation: tau -> sigma^{-1} tau."""
    return sigma.inverse() * tau


@dataclass(frozen=True)
class BranchState:
    """Finitely supported winding vector: one integer per generator.

    Addresses a sheet of the maximal abelian cover.  Entries ky[n] with n >= 1
    are accepted but contribute no monodromy (those punctures are removable).
    Stored as sorted (index, count) tuples with zero counts dropped.
    """

    kx: tuple[tuple[int, int], ...] = ()
    ky: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kx", _canonical(self.kx))
        object.__setattr__(self, "ky", _canonical(self.ky))

    @classmethod
    def _from_counts(cls, kx: Mapping[int, int], ky: Mapping[int, int]) -> "BranchState":
        """From int counts already summed per int index: the canonical form without __post_init__'s sum."""
        b = object.__new__(cls)
        object.__setattr__(b, "kx", _sorted_nonzero(kx))
        object.__setattr__(b, "ky", _sorted_nonzero(ky))
        return b

    @classmethod
    def zero(cls) -> "BranchState":
        return cls()

    @classmethod
    def from_dicts(cls, kx: Mapping[int, int] | None = None, ky: Mapping[int, int] | None = None) -> "BranchState":
        return cls(tuple((kx or {}).items()), tuple((ky or {}).items()))

    @property
    def kx_dict(self) -> dict[int, int]:
        return dict(self.kx)

    @property
    def ky_dict(self) -> dict[int, int]:
        return dict(self.ky)

    @property
    def is_zero(self) -> bool:
        return not self.kx and not self.ky

    def winding(self, gen: Generator) -> int:
        table = self.kx_dict if gen.axis == "X" else self.ky_dict
        return table.get(gen.index, 0)

    def theta(self, power: int = 1) -> "BranchState":
        """Image under the order-4 automorphism, applied `power` times: X_n -> Y_n, Y_n -> X_{1-n}.

        Equals the abelianization of the theta image of any word that winds self.
        """
        kx, ky = self.kx, self.ky
        for _ in range(power % 4):
            kx, ky = tuple((1 - n, k) for n, k in ky), kx
        return BranchState(kx, ky)

    def __add__(self, other: "BranchState") -> "BranchState":
        return BranchState(self.kx + other.kx, self.ky + other.ky)


def _canonical(items: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for n, k in items:
        n = int(n)
        acc[n] = acc.get(n, 0) + int(k)
    return _sorted_nonzero(acc)


def _sorted_nonzero(counts: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    """The canonical form of summed int counts per index: sorted by index, zero counts dropped."""
    return tuple(sorted([(n, k) for n, k in counts.items() if k]))


def abelianize(word: Word) -> BranchState:
    """Signed letter counts per generator (the image in the abelianization).

    One pass sums the syllables per int index into the two axis tables, which are already the summed
    counts that BranchState canonicalizes.
    """
    counts: dict[str, dict[int, int]] = {"X": {}, "Y": {}}
    for g, e in word._syllables:
        table = counts[g.axis]
        n = int(g.index)
        table[n] = table.get(n, 0) + e
    return BranchState._from_counts(counts["X"], counts["Y"])


def parse_branch(text: str) -> BranchState:
    """Parse a CLI branch argument: either a loop word or kx/ky assignments.

    Assignment grammar: whitespace/comma-separated `kx[<n>]=<k>` / `ky[<n>]=<k>`.
    """
    text = text.strip()
    if not text:
        return BranchState.zero()
    if "=" not in text:
        return abelianize(Word.parse(text))
    kx: dict[int, int] = {}
    ky: dict[int, int] = {}
    for token in re.split(r"[\s,]+", text):
        if not token:
            continue
        m = _ASSIGN_RE.match(token)
        if m is None:
            raise WordParseError(f"bad branch token {token!r}")
        table = kx if m.group(1) == "x" else ky
        n = int(m.group(2))
        table[n] = table.get(n, 0) + int(m.group(3))
    return BranchState.from_dicts(kx, ky)
