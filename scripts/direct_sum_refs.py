"""Print one of tests/conftest.py's frozen sweep blocks: 40 seeded points, each with its 30-digit reference.

    python3 scripts/direct_sum_refs.py                    # Z_DIRECT_SUM
    python3 scripts/direct_sum_refs.py Z_INT_RE_C_SWEEP
    python3 scripts/direct_sum_refs.py Z_STRIP_SWEEP
    python3 scripts/direct_sum_refs.py Z_TAIL_SWEEP

Each block draws its points from the rng fixture's seed in the order and
with the ranges that its test once drew them, and evaluates mpmath
``lerchphi`` at 30 digits at each (``zeta(s, c)`` where a is a real integer),
so the test compares against constants and makes no mpmath call:
Z_DIRECT_SUM for tests/test_evaluator_series.py's test_seeded_direct_sum_sweep,
Z_INT_RE_C_SWEEP for tests/test_continuation.py's
TestRouting.test_seeded_integer_re_c_sweep, Z_STRIP_SWEEP for
tests/test_evaluator_integral.py's TestIntegralOracle.test_seeded_strip_sweep,
Z_TAIL_SWEEP for tests/test_evaluator_series.py's TestTailOracle.test_seeded_tail_sweep.
"""

from __future__ import annotations

import argparse
import random
from typing import Iterator

import mpmath

_SEED = 20260810  # tests/conftest.py's rng fixture


def direct_sum_points(rng: random.Random, n: int = 40) -> Iterator[tuple[complex, complex, complex]]:
    """Im a >= 0.05, so the geometric tail bound serves at every point."""
    for _ in range(n):
        s = complex(rng.uniform(-3.0, 3.0), rng.uniform(-25.0, 25.0))
        a = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.05, 0.6))
        c = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
        yield s, a, c


def integer_re_c_points(rng: random.Random, n: int = 40) -> Iterator[tuple[complex, complex, complex]]:
    """Re c in {1, 2, 3}, real c at every fourth point and real a at every fifth from the third on."""
    for k in range(n):
        s = complex(rng.uniform(-1.5, 0.0), rng.uniform(-8.0, 8.0))
        a = complex(rng.uniform(0.15, 0.85) + rng.randint(-1, 1), 0.0 if k % 5 == 2 else rng.uniform(-0.25, -0.02))
        c = complex(rng.randint(1, 3), 0.0 if k % 4 == 0 else rng.uniform(-0.5, 0.5))
        yield s, a, c


def strip_points(rng: random.Random, n: int = 40) -> Iterator[tuple[complex, complex, complex]]:
    """The integral's strip -4 < Re s <= 0, every fourth s 1e-9 to 1e-3 from s = -k; c real where Im a < 0."""
    for k in range(n):
        s = complex(rng.uniform(-4.0, 0.0), rng.uniform(-6.0, 6.0))
        if k % 4 == 0:
            s = complex(-rng.randint(0, 3) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -3.0), 0.0)
        a = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.4, 0.4))
        c = complex(rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0) if a.imag >= 0.0 else 0.0)
        yield s, a, c


def tail_points(rng: random.Random, n: int = 40) -> Iterator[tuple[complex, complex, complex]]:
    """Points where the series takes its Abel-Plana tail: real a (k % 5 = 0, 1) with Re s > 0, integer a
    (k % 5 = 2) with Re s > 1, and 0 < Im a <= 1e-6 (k % 5 = 3, 4)."""
    for k in range(n):
        kind = k % 5
        s = complex(rng.uniform(1.1 if kind == 2 else 0.1, 3.0), rng.uniform(-15.0, 15.0))
        if kind == 2:
            a = complex(rng.randint(-1, 2), 0.0)
        else:
            a = complex(rng.uniform(-1.0, 2.0), 0.0 if kind < 2 else 10 ** rng.uniform(-9.0, -6.0))
        c = complex(rng.uniform(0.1, 2.0), rng.uniform(-0.5, 0.5))
        yield s, a, c


BLOCKS = {"Z_DIRECT_SUM": direct_sum_points, "Z_INT_RE_C_SWEEP": integer_re_c_points, "Z_STRIP_SWEEP": strip_points,
          "Z_TAIL_SWEEP": tail_points}


def refs(block: str) -> list[tuple[tuple[complex, complex, complex], mpmath.mpc]]:
    out = []
    for s, a, c in BLOCKS[block](random.Random(_SEED)):
        with mpmath.workdps(30):
            if a.imag == 0.0 and a.real == round(a.real):
                want = mpmath.zeta(mpmath.mpc(s), mpmath.mpc(c))
            else:
                want = mpmath.lerchphi(mpmath.exp(2j * mpmath.pi * mpmath.mpc(a)), mpmath.mpc(s), mpmath.mpc(c))
        out.append(((s, a, c), want))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("block", nargs="?", choices=tuple(BLOCKS), default="Z_DIRECT_SUM")
    block = ap.parse_args(argv).block
    print(f"{block} = [")
    for (s, a, c), want in refs(block):
        print(f"    (({s!r}, {a!r},")
        print(f"      {c!r}),")
        print(f"     complex({mpmath.nstr(want.real, 30)}, {mpmath.nstr(want.imag, 30)})),")
    print("]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
