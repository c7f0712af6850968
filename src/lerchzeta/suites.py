"""Seeded verification suites behind the `verify` CLI command.

Each suite samples deterministically from a seed, evaluates one family of
identities, and reports the worst residual against its tolerance.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

from . import funceq, monodromy
from .continuation import dde_lower_residual, dde_raise_residual, pde_residual
from .domain import Point3, SymKind
from .errors import LerchError
from .evaluator import residue_discrepancy
from .monodromy import monodromy_generator
from .words import BranchState, Generator, Word

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    samples: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name} max_residual={self.max_residual:.3e} "
            f"tol={self.tolerance:.1e} n={self.samples}"
        )


def _sample_s(rng: random.Random) -> complex:
    while True:
        s = complex(rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        if abs(s.real - round(s.real)) > 0.12 or abs(s.imag) > 0.12:
            return s


def _sample_polycylinder(rng: random.Random) -> tuple[complex, complex, complex]:
    s = _sample_s(rng)
    a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4))
    c = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4))
    return s, a, c


def _sample_cover_point(rng: random.Random) -> Point3:
    """Cover points at moderate scale.

    Monodromy kernels carry exp(2*pi*Im(c*(a-n))) and exp(2*pi*|Im s|*|k|)
    factors; absolute residual tolerances are only meaningful while those
    stay within a few orders of magnitude of 1.
    """
    s = complex(rng.uniform(-1.5, 2.2), rng.uniform(-0.2, 0.2))
    a = complex(rng.uniform(0.15, 0.85) + rng.choice((0, 1)), rng.uniform(-0.2, 0.35))
    c = complex(rng.uniform(0.15, 0.85) + rng.choice((0, 1)), rng.uniform(-0.12, 0.12))
    return Point3(s, a, c)


def _sample_branch(rng: random.Random) -> BranchState:
    kx: dict[int, int] = {}
    ky: dict[int, int] = {}
    for _ in range(rng.randint(0, 2)):
        kx[rng.randint(0, 1)] = rng.randint(-2, 2)
    for _ in range(rng.randint(0, 2)):
        ky[rng.randint(-1, 1)] = rng.randint(-2, 2)
    return BranchState.from_dicts(kx, ky)


def _random_word(rng: random.Random, max_len: int = 8) -> Word:
    w = Word()
    for _ in range(rng.randint(1, max_len)):
        axis = rng.choice(("X", "Y"))
        w = w * Word.generator(axis, rng.randint(-2, 2), rng.choice((-1, 1)))
    return w


def _sample_algebra_point(rng: random.Random) -> tuple[complex, complex, complex]:
    """Moderate-scale points for exact-algebra residuals.

    |e^{2*pi*i*s*k}| and the kernel exponentials grow like e^{2*pi*|Im|*k};
    absolute tolerances of 1e-12 only make sense where those scales stay O(1),
    so s is kept near the real axis and (a, c) near the real polycylinder.
    """
    while True:
        s = complex(rng.uniform(-1.5, 2.5), rng.uniform(-0.05, 0.05))
        if abs(s.real - round(s.real)) > 0.15:
            break
    a = complex(rng.uniform(0.15, 0.85), rng.uniform(-0.02, 0.02))
    c = complex(rng.uniform(0.15, 0.85), rng.uniform(-0.02, 0.02))
    return s, a, c


def funceq_suite(samples: int, seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    tol = 1e-9
    worst = {"plus": 0.0, "minus": 0.0, "a_reflect": 0.0, "quarter_turn": 0.0, "three_term": 0.0}
    for _ in range(samples):
        s, a, c = _sample_polycylinder(rng)
        worst["plus"] = max(worst["plus"], funceq.fe_residual(SymKind.PLUS, s, a, c, 1e-10))
        worst["minus"] = max(worst["minus"], funceq.fe_residual(SymKind.MINUS, s, a, c, 1e-10))
        worst["a_reflect"] = max(
            worst["a_reflect"],
            funceq.fe_iterated_residual(SymKind.PLUS, "a_reflect", s, a, c, 1e-10),
            funceq.fe_iterated_residual(SymKind.MINUS, "a_reflect", s, a, c, 1e-10),
        )
        worst["quarter_turn"] = max(
            worst["quarter_turn"],
            funceq.fe_iterated_residual(SymKind.PLUS, "quarter_turn", s, a, c, 1e-10),
            funceq.fe_iterated_residual(SymKind.MINUS, "quarter_turn", s, a, c, 1e-10),
        )
        sp = complex(rng.uniform(0.1, 0.9), rng.uniform(-2.0, 2.0))
        worst["three_term"] = max(worst["three_term"], funceq.three_term_residual(sp, a, c, 1e-10))
    return [CheckResult(f"funceq.{k}", v < tol, v, tol, samples) for k, v in worst.items()]


def _worst_on_cover(
    rng: random.Random, samples: int, residuals: tuple[Callable[[Point3, BranchState], float], ...]
) -> list[float]:
    """Worst of each residual(p, b), in order, over samples cover draws; a LerchError redraws, keeping earlier worsts."""
    worst = [0.0] * len(residuals)
    n = 0
    while n < samples:
        p = _sample_cover_point(rng)
        b = _sample_branch(rng)
        try:
            for i, residual in enumerate(residuals):
                worst[i] = max(worst[i], residual(p, b))
        except LerchError:
            continue
        n += 1
    return worst


def dde_suite(samples: int, seed: int) -> list[CheckResult]:
    tol = 1e-8
    worst_lower, worst_raise = _worst_on_cover(random.Random(seed), samples, (dde_lower_residual, dde_raise_residual))
    return [
        CheckResult("dde.lowering", worst_lower < tol, worst_lower, tol, samples),
        CheckResult("dde.raising", worst_raise < tol, worst_raise, tol, samples),
    ]


def pde_suite(samples: int, seed: int) -> list[CheckResult]:
    tol = 1e-8
    (worst,) = _worst_on_cover(random.Random(seed), samples, (pde_residual,))
    return [CheckResult("pde.mixed_relation", worst < tol, worst, tol, samples)]


def monodromy_suite(samples: int, seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []

    worst = 0.0
    exact_ok = True
    for _ in range(samples):
        s, a, c = _sample_algebra_point(rng)
        w1, w2 = _random_word(rng), _random_word(rng)
        worst = max(worst, monodromy.compose_check(w1, w2, s, a, c))
        comm = w1.commutator(w2)
        exact_ok = exact_ok and monodromy.monodromy_of_word(comm, s, a, c) == 0
    results.append(CheckResult("monodromy.composition", worst < 1e-12, worst, 1e-12, samples))
    results.append(
        CheckResult("monodromy.commutator_vanishing", exact_ok, 0.0 if exact_ok else 1.0, 0.0, samples)
    )

    special_ok = True
    for _ in range(samples):
        _, a, c = _sample_algebra_point(rng)
        w = _random_word(rng)
        for m in range(6):
            special_ok = special_ok and monodromy.monodromy_of_word(w, complex(-m), a, c) == 0
    results.append(
        CheckResult("monodromy.special_value_vanishing", special_ok, 0.0 if special_ok else 1.0, 0.0, samples)
    )

    worst_fe = 0.0
    for _ in range(samples):
        s, a, c = _sample_algebra_point(rng)
        w = _random_word(rng, max_len=4)
        worst_fe = max(
            worst_fe,
            funceq.fe_monodromy_residual(SymKind.PLUS, w, s, a, c),
            funceq.fe_monodromy_residual(SymKind.MINUS, w, s, a, c),
        )
    results.append(CheckResult("monodromy.reflection_relations", worst_fe < 1e-10, worst_fe, 1e-10, samples))
    return results


def sample_residue_config(rng: random.Random) -> tuple[complex, complex, complex, int, float, float]:
    """An admissible (s, a, c, n, u, eps): the detour encloses exactly the n-th pole."""
    s = complex(rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0))
    c = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.3, 0.3))
    n = rng.randint(-1, 2)
    u = rng.uniform(0.3, 1.2)
    eps = rng.uniform(0.4, 0.9) * min(u, 0.5)
    rad = rng.uniform(0.2, 0.6) * eps / _TWO_PI
    ang = rng.uniform(-1.0, 1.0)
    a = (n - 1j * u / _TWO_PI) + rad * cmath.exp(1j * ang)
    return s, a, c, n, u, eps


def residue_suite(samples: int, seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    tol = 1e-7
    worst = 0.0
    for _ in range(samples):
        s, a, c, n, u, eps = sample_residue_config(rng)
        got = residue_discrepancy(s, a, c, n, u, eps, 1e-9)
        want = monodromy_generator(Generator("X", n), s, a, c)
        worst = max(worst, abs(got - want))
    return [CheckResult("residue.quadrature_vs_closed_form", worst < tol, worst, tol, samples)]


_SUITES = {
    "funceq": funceq_suite,
    "dde": dde_suite,
    "pde": pde_suite,
    "monodromy": monodromy_suite,
    "residue": residue_suite,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, samples: int, seed: int) -> list[CheckResult]:
    if name == "all":
        return [r for suite in _SUITES.values() for r in suite(samples, seed)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name](samples, seed)
