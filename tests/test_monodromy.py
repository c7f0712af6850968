import cmath
import math

import mpmath
import pytest

from lerchzeta import (
    CutViolation,
    SymKind,
    Word,
    compose_check,
    fe_monodromy_residual,
    monodromy_generator,
    monodromy_of_branch,
    monodromy_of_word,
    monodromy_power,
    monodromy_space_basis,
    word_fold_monodromy,
)
from lerchzeta import monodromy
from lerchzeta.words import BranchState, Generator, abelianize


def random_word(rng, max_len=16, index_range=(-2, 2)):
    w = Word()
    for _ in range(rng.randint(1, max_len)):
        w = w * Word.generator(
            rng.choice(("X", "Y")), rng.randint(*index_range), rng.choice((-1, 1))
        )
    return w


class TestGenerators:
    def test_positive_c_loops_are_trivial(self):
        for n in (1, 2, 5, 17):
            assert monodromy_power(Generator("Y", n), 3, 0.5, 0.3, 0.7) == 0j

    def test_exact_zero_at_nonpositive_integer_s(self):
        assert monodromy_generator(Generator("X", 0), -2.0, 0.4, 0.6) == 0j
        assert monodromy_generator(Generator("Y", 0), -1.0, 0.4, 0.6) == 0j

    def test_hand_value_at_base_point(self):
        # (e^{-pi i} - 1) * (1/2)^{-1/2} = -2 sqrt(2)
        got = monodromy_generator(Generator("Y", 0), 0.5, 0.5, 0.5)
        assert got == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-14)

    def test_cut_precondition(self):
        with pytest.raises(CutViolation):
            monodromy_generator(Generator("X", 1), 0.5, 1.0 - 0.5j, 0.5)
        with pytest.raises(CutViolation):
            monodromy_generator(Generator("Y", 0), 0.5, 0.5, -0.0j + 0.0 - 1.0j + 0.0)


class TestPowerLaws:
    s, a, c = 0.3, 0.4, 0.6

    def test_unit_power_matches_generator(self):
        g = Generator("X", 0)
        assert monodromy_power(g, 1, self.s, self.a, self.c) == monodromy_generator(
            g, self.s, self.a, self.c
        )

    def test_zero_power_vanishes(self):
        assert monodromy_power(Generator("X", 0), 0, self.s, self.a, self.c) == 0j

    def test_square_law(self):
        g = Generator("X", 0)
        base = monodromy_generator(g, self.s, self.a, self.c)
        got = monodromy_power(g, 2, self.s, self.a, self.c)
        assert got == pytest.approx((cmath.exp(2j * math.pi * self.s) + 1) * base, rel=1e-14)

    def test_inverse_laws(self):
        gx, gy = Generator("X", 0), Generator("Y", 0)
        mx = monodromy_generator(gx, self.s, self.a, self.c)
        my = monodromy_generator(gy, self.s, self.a, self.c)
        assert monodromy_power(gx, -1, self.s, self.a, self.c) == pytest.approx(
            -cmath.exp(-2j * math.pi * self.s) * mx, rel=1e-14
        )
        assert monodromy_power(gy, -1, self.s, self.a, self.c) == pytest.approx(
            -cmath.exp(2j * math.pi * self.s) * my, rel=1e-14
        )

    def test_integer_s_uses_limit_k(self):
        # geometric ratio degenerates to k at integer s; value stays finite
        g = Generator("X", 0)
        base = monodromy_generator(g, 2.0, self.a, self.c)
        got = monodromy_power(g, 3, 2.0, self.a, self.c)
        assert got == pytest.approx(3.0 * base, rel=1e-14)

    @pytest.mark.parametrize("k", [65, -65, 200, -130])
    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_closed_ratio_beyond_64_loops(self, axis, k):
        # |k| > 64 loops take (lambda^k - 1)/(lambda - 1) in closed form, not the sum of powers
        g = Generator(axis, 0)
        s = 0.3137 + 0.002j  # s k is no integer
        with mpmath.workdps(30):
            lam = mpmath.exp((1 if axis == "X" else -1) * 2j * mpmath.pi * mpmath.mpc(s))
            ratio = complex((lam**k - 1) / (lam - 1))
        want = ratio * monodromy_generator(g, s, self.a, self.c)
        assert abs(monodromy_power(g, k, s, self.a, self.c) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_closed_ratio_is_exactly_zero_at_integer_s_k(self, axis):
        # lambda^200 = 1 at s = 1/2
        g = Generator(axis, 0)
        assert monodromy._geometric_factor(200, 0.5, 1 if axis == "X" else -1) == 0
        assert monodromy_power(g, 200, 0.5, self.a, self.c) == 0

    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_telescoping(self, axis, rng):
        # M(g^{j+k}) = lambda^k M(g^j) + M(g^k) with lambda the loop multiplier
        g = Generator(axis, 0)
        sgn = 1 if axis == "X" else -1
        for _ in range(10):
            s = complex(rng.uniform(-1.5, 2.5), rng.uniform(-0.1, 0.1))
            j, k = rng.randint(-5, 5), rng.randint(-5, 5)
            lam_k = cmath.exp(sgn * 2j * math.pi * s * k)
            lhs = monodromy_power(g, j + k, s, self.a, self.c)
            rhs = lam_k * monodromy_power(g, j, s, self.a, self.c) + monodromy_power(
                g, k, s, self.a, self.c
            )
            assert abs(lhs - rhs) < 1e-12


class TestWords:
    def test_commutator_vanishes_exactly(self):
        w = Word.parse("X0").commutator(Word.parse("Y0"))
        assert monodromy_of_word(w, 0.3, 0.4, 0.6) == 0j

    def test_cross_terms_vanish(self):
        s, a, c = 0.3, 0.4, 0.6
        got = monodromy_of_word(Word.parse("X0 Y0"), s, a, c)
        want = monodromy_generator(Generator("X", 0), s, a, c) + monodromy_generator(
            Generator("Y", 0), s, a, c
        )
        assert got == pytest.approx(want, rel=1e-14)

    def test_repeated_letter_matches_power(self):
        s, a, c = 0.3, 0.4, 0.6
        got = monodromy_of_word(Word.parse("X0 X0"), s, a, c)
        assert got == pytest.approx(monodromy_power(Generator("X", 0), 2, s, a, c), rel=1e-14)

    def test_word_value_invariant_under_free_reduction(self, rng):
        for _ in range(20):
            w = random_word(rng, 10)
            garbage = Word.parse("X1 X1^-1 Y0 Y0^-1")
            assert monodromy_of_word(w * garbage, 0.35, 0.45, 0.55) == monodromy_of_word(
                w, 0.35, 0.45, 0.55
            )

    def test_fold_matches_abelianized_sum(self, rng):
        for _ in range(50):
            w = random_word(rng, 12)
            s = complex(rng.uniform(-1.5, 2.5), rng.uniform(-0.05, 0.05))
            if abs(s.real - round(s.real)) < 0.1:
                continue
            a, c = rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85)
            assert abs(word_fold_monodromy(w, s, a, c) - monodromy_of_word(w, s, a, c)) < 1e-12

    def test_branch_state_entry_points(self):
        b = BranchState.from_dicts({0: 2}, {1: 7})
        s, a, c = 0.3, 0.4, 0.6
        assert monodromy_of_branch(b, s, a, c) == monodromy_power(Generator("X", 0), 2, s, a, c)

    def test_branch_monodromy_is_one_pass(self, rng, monkeypatch):
        # the value is monodromy_of_branch's to the bit, and each term is computed once
        calls = 0
        power = monodromy.monodromy_power

        def counted(*args):
            nonlocal calls
            calls += 1
            return power(*args)

        monkeypatch.setattr(monodromy, "monodromy_power", counted)
        for _ in range(30):
            b = abelianize(random_word(rng, 8))
            s = complex(rng.uniform(-1.5, 2.5), rng.uniform(-3.0, 3.0))
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
            c = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
            want = monodromy_of_branch(b, s, a, c)
            calls = 0
            value, roundoff = monodromy.branch_monodromy(b, s, a, c)
            assert value == want
            assert calls == len(b.kx) + len(b.ky)
            assert roundoff >= 4.0 * 2.220446049250313e-16 * abs(value)


class TestComposition:
    def test_inverse_pair(self):
        assert compose_check(Word.parse("X0"), Word.parse("X0^-1"), 0.25, 0.5, 0.5) < 1e-14

    def test_disjoint_generators(self):
        assert compose_check(Word.parse("X2"), Word.parse("Y0"), 0.25, 0.5, 0.5) < 1e-14

    def test_same_generator(self):
        assert compose_check(Word.parse("X0"), Word.parse("X0"), 0.25, 0.5, 0.5) < 1e-12

    def test_random_words(self, rng):
        for _ in range(50):
            w1, w2 = random_word(rng, 8), random_word(rng, 8)
            s = rng.uniform(-1.4, 2.4)
            if abs(s - round(s)) < 0.1:
                continue
            assert compose_check(w1, w2, s, rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)) < 1e-12


class TestSpecialValues:
    def test_all_monodromy_vanishes_at_nonpositive_integers(self, rng):
        for _ in range(50):
            w = random_word(rng, 16)
            a, c = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            for m in range(6):
                assert monodromy_of_word(w, complex(-m, 0.0), a, c) == 0j


class TestCommutatorSubgroup:
    def test_nested_commutators_vanish_exactly(self, rng):
        # random nested commutators: [[w1,w2],w3], [w1,[w2,w3]], ... up to length 16
        for _ in range(40):
            words = [random_word(rng, 2) for _ in range(3)]
            comm = words[0].commutator(words[1])
            if rng.random() < 0.5:
                comm = comm.commutator(words[2])
            else:
                comm = words[2].commutator(comm)
            if len(comm) > 16 or comm.is_identity:
                continue
            s = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
            c = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
            assert monodromy_of_word(comm, s, a, c) == 0j


class TestReflectionRelations:
    def test_worked_single_loop_instance(self):
        # the plus-relation at tau = X0 reduces to a Gamma-function identity
        assert fe_monodromy_residual(SymKind.PLUS, Word.parse("X0"), 0.3, 0.4, 0.6) < 1e-10

    def test_minus_relation_single_loop(self):
        assert fe_monodromy_residual(SymKind.MINUS, Word.parse("X0"), 0.3, 0.4, 0.6) < 1e-10

    def test_commutator_trivially_satisfied(self):
        w = Word.parse("X0").commutator(Word.parse("Y1"))
        assert fe_monodromy_residual(SymKind.PLUS, w, 0.3, 0.4, 0.6) == 0.0

    def test_trivial_y_loop_maps_to_x_loop(self):
        # Y5 contributes nothing, but theta(Y5) = X-4 does; both sides stay consistent
        assert fe_monodromy_residual(SymKind.PLUS, Word.parse("Y5"), 0.3, 0.4, 0.6) < 1e-10

    def test_random_words_and_points(self, rng):
        for _ in range(20):
            w = random_word(rng, 4, index_range=(-2, 2))
            s = rng.uniform(-1.4, 2.4)
            if abs(s - round(s)) < 0.15:
                continue
            a, c = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
            assert fe_monodromy_residual(SymKind.PLUS, w, s, a, c) < 1e-10
            assert fe_monodromy_residual(SymKind.MINUS, w, s, a, c) < 1e-10


class TestBasisDescriptors:
    def test_nonpositive_integer(self):
        b = monodromy_space_basis(-2.0)
        assert b.dimension == "1"
        assert b.x_indices == "none" and b.y_indices == "none"

    def test_positive_integer_excludes_y(self):
        b = monodromy_space_basis(3.0)
        assert b.dimension == "infinite"
        assert b.x_indices == "all n" and b.y_indices == "none"

    def test_generic_s_includes_nonpositive_y(self):
        b = monodromy_space_basis(0.5)
        assert b.dimension == "infinite"
        assert b.x_indices == "all n" and b.y_indices == "n <= 0"
