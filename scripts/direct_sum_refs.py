"""Print tests/conftest.py's Z_DIRECT_SUM block: the direct partial sum sweep's 40 frozen references.

    python3 scripts/direct_sum_refs.py

It draws the points from the rng fixture's seed in the order and with the
ranges that tests/test_evaluator_series.py's test_seeded_direct_sum_sweep
once drew them, and evaluates mpmath ``lerchphi`` at 30 digits at each, so
the test compares against constants and makes no mpmath call.
"""

from __future__ import annotations

import random

import mpmath

_SEED = 20260810  # tests/conftest.py's rng fixture


def direct_sum_refs(n: int = 40) -> list[tuple[tuple[complex, complex, complex], mpmath.mpc]]:
    """Im a >= 0.05, so the geometric tail bound serves at every point."""
    rng = random.Random(_SEED)
    refs = []
    for _ in range(n):
        s = complex(rng.uniform(-3.0, 3.0), rng.uniform(-25.0, 25.0))
        a = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.05, 0.6))
        c = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
        with mpmath.workdps(30):
            want = mpmath.lerchphi(mpmath.exp(2j * mpmath.pi * mpmath.mpc(a)), mpmath.mpc(s), mpmath.mpc(c))
        refs.append(((s, a, c), want))
    return refs


def main() -> int:
    print("Z_DIRECT_SUM = [")
    for (s, a, c), want in direct_sum_refs():
        print(f"    (({s!r}, {a!r},")
        print(f"      {c!r}),")
        print(f"     complex({mpmath.nstr(want.real, 30)}, {mpmath.nstr(want.imag, 30)})),")
    print("]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
