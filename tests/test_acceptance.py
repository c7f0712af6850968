"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured runtimes.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time

from lerchzeta import (
    ContourSpec,
    LerchError,
    Point3,
    SymKind,
    Word,
    dde_shift,
    dirichlet_series,
    evaluate_principal,
    fe_iterated_residual,
    fe_monodromy_residual,
    fe_residual,
    integral_eval,
    monodromy_generator,
    monodromy_of_word,
    monodromy_power,
    residue_discrepancy,
    series_eval,
    three_term_residual,
    transform_eval,
    word_fold_monodromy,
)
from lerchzeta.continuation import dde_lower_residual, dde_raise_residual, pde_residual
from lerchzeta.suites import (
    _sample_algebra_point,
    _sample_branch,
    _sample_cover_point,
    sample_residue_config,
)
from lerchzeta.words import Generator
from conftest import PI2_6, PI2_12


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def random_word(rng, max_len=16, index_range=(-2, 2)):
    w = Word()
    for _ in range(rng.randint(1, max_len)):
        w = w * Word.generator(rng.choice(("X", "Y")), rng.randint(*index_range), rng.choice((-1, 1)))
    return w


def test_criterion_1_cross_method_agreement():
    """Two applicable strategies agree within summed error estimates; < 1e-9."""
    rng = random.Random(101)
    tol_each = 2e-10
    t0 = time.monotonic()
    max_disc = 0.0
    within_estimates = True
    n_pairs = 0

    def record(v1, e1, v2, e2):
        nonlocal max_disc, within_estimates, n_pairs
        d = abs(v1 - v2)
        max_disc = max(max_disc, d)
        within_estimates = within_estimates and d <= e1 + e2
        n_pairs += 1

    for _ in range(100):  # series vs integral on the common region
        p = Point3(
            complex(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0)),
            complex(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.9)),
            complex(rng.uniform(0.3, 1.5), rng.uniform(-0.3, 0.3)),
        )
        vs = series_eval(p, tol_each)
        vi = integral_eval(p, ContourSpec.STRAIGHT, tol_each)
        record(vs.value, vs.abs_err_estimate, vi.value, vi.abs_err_estimate)

    for _ in range(50):  # integral vs transformation formula in the polycylinder
        p = Point3(
            complex(rng.uniform(0.1, 0.9), rng.uniform(-2.0, 2.0)),
            complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3)),
        )
        vi = integral_eval(p, ContourSpec.STRAIGHT, tol_each)
        vt = transform_eval(p, tol_each)
        record(vi.value, vi.abs_err_estimate, vt.value, vt.abs_err_estimate)

    for _ in range(40):  # series vs transformation formula
        p = Point3(
            complex(rng.uniform(0.1, 0.9), rng.uniform(-2.0, 2.0)),
            complex(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.6)),
            complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3)),
        )
        vs = series_eval(p, tol_each)
        vt = transform_eval(p, tol_each)
        record(vs.value, vs.abs_err_estimate, vt.value, vt.abs_err_estimate)

    for _ in range(40):  # lowering step vs direct evaluation one unit down
        s = complex(rng.uniform(0.2, 1.8), rng.uniform(-1.0, 1.0))
        a = complex(rng.uniform(0.15, 0.85), rng.uniform(0.05, 0.6))
        c = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.2, 0.2))
        vd = dde_shift(Point3(s + 1, a, c), "lower", tol_each)
        ve = evaluate_principal(s, a, c, tol_each)
        record(vd.value, vd.abs_err_estimate, ve.value, ve.abs_err_estimate)

    runtime = time.monotonic() - t0
    report(
        1,
        n_pairs >= 200 and within_estimates and max_disc < 1e-9 and runtime < 60.0,
        f"{n_pairs} pairs, max discrepancy {max_disc:.3e} (< 1e-09), "
        f"estimates honored: {within_estimates}, runtime {runtime:.1f}s (< 60s)",
    )


def test_criterion_2_functional_equations():
    """Reflection, iterated, and three-term identities < 1e-9 on 100 points, |s| <= 5."""
    rng = random.Random(202)
    t0 = time.monotonic()
    worst = 0.0
    n_points = 0
    while n_points < 100:
        s = complex(rng.uniform(-3.0, 3.0), rng.uniform(-4.0, 4.0))
        if abs(s) > 5.0 or (abs(s.real - round(s.real)) < 0.12 and abs(s.imag) < 0.12):
            continue
        a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4))
        c = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4))
        worst = max(
            worst,
            fe_residual(SymKind.PLUS, s, a, c, 1e-10),
            fe_residual(SymKind.MINUS, s, a, c, 1e-10),
            fe_iterated_residual(SymKind.PLUS, "a_reflect", s, a, c, 1e-10),
            fe_iterated_residual(SymKind.MINUS, "a_reflect", s, a, c, 1e-10),
            fe_iterated_residual(SymKind.PLUS, "quarter_turn", s, a, c, 1e-10),
            fe_iterated_residual(SymKind.MINUS, "quarter_turn", s, a, c, 1e-10),
            three_term_residual(complex(rng.uniform(0.05, 0.95), s.imag / 2), a, c, 1e-10),
        )
        n_points += 1
    runtime = time.monotonic() - t0
    report(
        2,
        worst < 1e-9 and runtime < 60.0,
        f"100 polycylinder points, max residual {worst:.3e} (< 1e-09), runtime {runtime:.1f}s (< 60s)",
    )


def test_criterion_3_residue_ground_truth():
    """Contour-deformation discrepancy matches the closed form to < 1e-7."""
    rng = random.Random(303)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(10):
        s, a, c, n, u, eps = sample_residue_config(rng)
        got = residue_discrepancy(s, a, c, n, u, eps, 1e-9)
        want = monodromy_generator(Generator("X", n), s, a, c)
        worst = max(worst, abs(got - want))
    runtime = time.monotonic() - t0
    report(
        3,
        worst < 1e-7 and runtime < 120.0,
        f"10 admissible configurations, max |quadrature - closed form| {worst:.3e} (< 1e-07), "
        f"runtime {runtime:.1f}s (< 120s)",
    )


def test_criterion_4_monodromy_algebra():
    """Commutators vanish exactly; word sum law and power laws < 1e-12."""
    rng = random.Random(404)
    commutators_exact = True
    worst_word = 0.0
    for _ in range(100):
        s, a, c = _sample_algebra_point(rng)
        w1 = random_word(rng, 8)
        w2 = random_word(rng, 8)
        comm = w1.commutator(w2)
        commutators_exact = commutators_exact and monodromy_of_word(comm, s, a, c) == 0j
        w = random_word(rng, 16)
        worst_word = max(worst_word, abs(word_fold_monodromy(w, s, a, c) - monodromy_of_word(w, s, a, c)))

    worst_power = 0.0
    for axis, sgn in (("X", 1), ("Y", -1)):
        g = Generator(axis, 0)
        for _ in range(25):
            s, a, c = _sample_algebra_point(rng)
            lam = (1 if s.imag == 0 and s.real == round(s.real) else None)
            import cmath

            for k in range(-5, 6):
                base = monodromy_generator(g, s, a, c)
                got = monodromy_power(g, k, s, a, c)
                if k == 0:
                    want = 0j
                else:
                    lam_val = cmath.exp(sgn * 2j * math.pi * s)
                    want = (lam_val**k - 1.0) / (lam_val - 1.0) * base
                worst_power = max(worst_power, abs(got - want))
    report(
        4,
        commutators_exact and worst_word < 1e-12 and worst_power < 1e-12,
        f"commutators exact: {commutators_exact}, word-law residual {worst_word:.3e} (< 1e-12), "
        f"power-law residual {worst_power:.3e} (< 1e-12)",
    )


def test_criterion_5_special_values():
    """All monodromy vanishes exactly at s in {0,...,-5}; Y_n trivial for n >= 1."""
    rng = random.Random(505)
    all_exact = True
    for _ in range(50):
        w = random_word(rng, 16)
        a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
        c = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
        for m in range(6):
            all_exact = all_exact and monodromy_of_word(w, complex(-m), a, c) == 0j
    y_trivial = True
    for n in range(1, 21):
        s, a, c = _sample_algebra_point(rng)
        y_trivial = y_trivial and monodromy_power(Generator("Y", n), rng.randint(1, 5), s, a, c) == 0j
    report(
        5,
        all_exact and y_trivial,
        f"vanishing at s in {{0..-5}} exact: {all_exact}; positive-index Y loops exactly zero: {y_trivial}",
    )


def test_criterion_6_dde_pde_residuals():
    """Lowering/raising/second-order residuals < 1e-8 at 50 cover points."""
    rng = random.Random(606)
    t0 = time.monotonic()
    worst_lower = worst_raise = worst_pde = 0.0
    n_points = 0
    n_branched = 0
    while n_points < 50:
        p = _sample_cover_point(rng)
        b = _sample_branch(rng)
        try:
            worst_lower = max(worst_lower, dde_lower_residual(p, b))
            worst_raise = max(worst_raise, dde_raise_residual(p, b))
            worst_pde = max(worst_pde, pde_residual(p, b))
        except LerchError:
            continue
        n_points += 1
        n_branched += 0 if b.is_zero else 1
    runtime = time.monotonic() - t0
    worst = max(worst_lower, worst_raise, worst_pde)
    report(
        6,
        worst < 1e-8 and n_branched >= 10,
        f"50 cover points ({n_branched} with nonzero winding): lowering {worst_lower:.3e}, "
        f"raising {worst_raise:.3e}, second-order {worst_pde:.3e} (all < 1e-08), runtime {runtime:.0f}s",
    )


def test_criterion_7_reflection_monodromy_relations():
    """Linear relations among monodromies at theta-image points < 1e-10."""
    rng = random.Random(707)
    # the worked single-loop instance first
    worst = fe_monodromy_residual(SymKind.PLUS, Word.parse("X0"), 0.3, 0.4, 0.6)
    n_samples = 1
    while n_samples < 20:
        s, a, c = _sample_algebra_point(rng)
        w = random_word(rng, 4)
        worst = max(
            worst,
            fe_monodromy_residual(SymKind.PLUS, w, s, a, c),
            fe_monodromy_residual(SymKind.MINUS, w, s, a, c),
        )
        n_samples += 1
    report(7, worst < 1e-10, f"20 (word, point) samples, max residual {worst:.3e} (< 1e-10)")


def test_criterion_8_known_constants():
    """Series route reproduces pi^2/12 and pi^2/6 to 1e-12."""
    v_half = dirichlet_series(2.0, 0.5, 1.0, 1e-13)
    v_one = dirichlet_series(2.0, 1.0, 1.0, 1e-13)
    e1 = abs(v_half.value - PI2_12)
    e2 = abs(v_one.value - PI2_6)
    report(8, e1 < 1e-12 and e2 < 1e-12, f"|zeta(2,1/2,1) - pi^2/12| = {e1:.3e}, |zeta(2,1,1) - pi^2/6| = {e2:.3e} (< 1e-12)")


def test_criterion_9_removable_punctures():
    """Positive integer c evaluates directly and agrees with the c -> n limit."""
    cases = [
        (0.7, 0.3 + 0.4j, 2.0),
        (1.4 - 0.6j, 0.45 + 0.25j, 1.0),
        (-0.8, 0.35 + 0.3j, 3.0),
    ]
    ok = True
    details = []
    for s, a, c_int in cases:
        base = evaluate_principal(s, a, c_int, 1e-12).value
        errs = []
        for delta in (1e-3, 1e-4, 1e-5):
            errs.append(abs(evaluate_principal(s, a, c_int + delta, 1e-12).value - base))
        # consistent first-order convergence: each decade shrinks the gap ~10x
        orders = [math.log10(errs[i] / errs[i + 1]) for i in range(2)]
        consistent = all(0.7 < o < 1.3 for o in orders)
        ok = ok and consistent
        details.append(f"c={c_int}: orders {orders[0]:.2f},{orders[1]:.2f}")
    report(9, ok, "Richardson orders consistent at removable punctures: " + "; ".join(details))
