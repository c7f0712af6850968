import cmath
import json
import math
import random
import warnings

import mpmath
import pytest

from lerchzeta import (
    CutViolation,
    InvalidPoint,
    LerchError,
    NonConvergence,
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
from lerchzeta.cli import main
from lerchzeta.words import BranchState, Generator, abelianize, generator_of
from conftest import M_X0_500


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
        # lambda^200 = 1 at s = 1/2: the kernel's term of 200 loops is exactly 0, though one loop's is not
        g = Generator(axis, 0)
        b = BranchState(((0, 200),)) if axis == "X" else BranchState(ky=((0, 200),))
        assert [term for _, _, term in monodromy.monodromy_terms(b, 0.5, self.a, self.c)] == [0]
        assert monodromy_generator(g, 0.5, self.a, self.c) != 0
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

    def test_fold_truncates_an_index_that_is_no_int(self):
        # as abelianize does: X_1.5 is X_1
        w = Word([(Generator("X", 1.5), 1)])
        assert word_fold_monodromy(w, 0.3, 0.4, 0.6) == pytest.approx(monodromy_of_word(w, 0.3, 0.4, 0.6), rel=1e-15)

    def test_branch_state_entry_points(self):
        b = BranchState.from_dicts({0: 2}, {1: 7})
        s, a, c = 0.3, 0.4, 0.6
        assert monodromy_of_branch(b, s, a, c) == monodromy_power(Generator("X", 0), 2, s, a, c)

    def test_branch_monodromy_is_one_pass(self, rng, monkeypatch):
        # the value is monodromy_of_branch's to the bit, and each term is computed once: one kernel call
        calls = []
        terms = monodromy.monodromy_terms

        def counted(*args):
            calls.append(terms(*args))
            return calls[-1]

        monkeypatch.setattr(monodromy, "monodromy_terms", counted)
        for _ in range(30):
            b = abelianize(random_word(rng, 8))
            s = complex(rng.uniform(-1.5, 2.5), rng.uniform(-3.0, 3.0))
            a = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
            c = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
            want = monodromy_of_branch(b, s, a, c)
            calls.clear()
            value, roundoff = monodromy.branch_monodromy(b, s, a, c)
            assert value == want
            assert [len(t) for t in calls] == [len(b.kx) + len(b.ky)]
            assert roundoff >= 4.0 * 2.220446049250313e-16 * abs(value)


class TestPerCallFactors:
    def test_positive_y_part_forms_no_prefactor(self):
        # e^{-2 pi i s} - 1 overflows at s = 0.5 + 500i, but Y_n with n >= 1 never needs it
        b = BranchState.from_dicts(ky={1: 2, 3: -1})
        assert monodromy_of_branch(b, 0.5 + 500j, 0.3, 0.4) == 0
        assert [term for _, _, term in monodromy.monodromy_terms(b, 0.5 + 500j, 0.3, 0.4)] == [0, 0]
        with pytest.raises(NonConvergence):
            monodromy_of_branch(BranchState.from_dicts(ky={0: 1, 1: 2}), 0.5 + 500j, 0.3, 0.4)

    def test_lambda_minus_one_at_most_once_per_axis(self, rng, monkeypatch):
        # lambda - 1 = e^{+-2 pi i s} - 1 is formed once per axis and kernel call, and never for an axis whose
        # terms are all 0 (Y_n with n >= 1 only, or s = 0, -1, -2, ...); k > 64 loops add e^{+-2 pi i s k} - 1
        formed = []
        cexp_minus_one = monodromy._cexp_minus_one

        def counted(s, sign, k=1):
            if k == 1:
                formed.append(sign)
            return cexp_minus_one(s, sign, k)

        monkeypatch.setattr(monodromy, "_cexp_minus_one", counted)
        for _ in range(200):
            kx = {rng.randint(-3, 3): rng.choice((-70, -2, -1, 1, 3, 65)) for _ in range(rng.randint(0, 4))}
            ky = {rng.randint(-3, 3): rng.choice((-70, -2, -1, 1, 3, 65)) for _ in range(rng.randint(0, 4))}
            s = complex(rng.uniform(-3, 3), rng.uniform(-0.5, 0.5))  # |lambda^70| stays below e^{220}
            a = complex(rng.uniform(-2, 2), rng.uniform(0.01, 1))
            c = complex(rng.uniform(-3, 3), rng.uniform(0.01, 1))
            formed.clear()
            monodromy.monodromy_terms(BranchState.from_dicts(kx, ky), s, a, c)
            assert formed.count(1) <= 1 and formed.count(-1) <= 1
        formed.clear()
        assert monodromy_of_branch(BranchState.from_dicts(ky={1: 2, 3: -1}), 0.5 + 0.3j, 0.3, 0.4) == 0
        assert formed == []
        both = BranchState.from_dicts({-1: 2, 0: 1, 2: -3}, {-2: 1, 0: 3, 1: 1})
        for s in (0.0, -1.0, -4.0):
            assert monodromy_of_branch(both, s, 0.3 + 0.2j, 0.4 - 0.1j) == 0
        assert formed == []
        # X forms its lambda - 1 = e^{2 pi i s} - 1, which overflows at s = 0.3 - 150i, only for more than 64 loops
        for kx, answers in (({0: 1}, True), ({0: -2}, True), ({0: 65}, False)):
            b = BranchState.from_dicts(kx)
            if answers:
                assert cmath.isfinite(monodromy_of_branch(b, 0.3 - 150j, 0.3 + 0.01j, 0.4))
            else:
                with pytest.raises(NonConvergence):
                    monodromy_of_branch(b, 0.3 - 150j, 0.3 + 0.01j, 0.4)

    def test_terms_match_powers_bit_for_bit(self, rng):
        for i in range(200):
            kx = {rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}
            ky = {rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}
            b = BranchState.from_dicts(kx, ky)
            s = complex(-rng.randint(0, 5)) if i % 4 == 0 else complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            a = complex(rng.uniform(-2, 2), rng.uniform(0.01, 1))
            c = complex(rng.uniform(-3, 3), rng.uniform(0.01, 1))
            terms = monodromy.monodromy_terms(b, s, a, c)
            assert [(g, k) for g, k, _ in terms] == [(Generator("X", n), k) for n, k in b.kx] + [
                (Generator("Y", n), k) for n, k in b.ky
            ]
            for g, k, term in terms:
                assert g is generator_of(g.axis, g.index)  # the one shared object per generator
                assert term == monodromy_power(g, k, s, a, c)


class TestOverflowRule:
    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_generator_and_power_raise_nonconvergence(self, axis):
        # X's prefactor (2 pi)^s e^{i pi s/2} / Gamma(s) is about e^{1269} at s = -400.5, and Y's
        # e^{-2 pi i s} - 1 overflows at s = 0.5 + 500i
        g, s = Generator(axis, 0), -400.5 if axis == "X" else 0.5 + 500j
        for f in (lambda: monodromy_generator(g, s, 0.3, 0.4), lambda: monodromy_power(g, 3, s, 0.3, 0.4)):
            with pytest.raises(NonConvergence, match="overflows"):
                f()

    def test_fold_overflow_raises_nonconvergence(self):
        # X_0's prefactor overflows at s = -400.5
        with pytest.raises(NonConvergence, match="overflows"):
            word_fold_monodromy(Word.parse("X0"), -400.5, 0.3, 0.4)
        with pytest.raises(NonConvergence, match="overflows"):
            monodromy_of_word(Word.parse("X0"), -400.5, 0.3, 0.4)

    def test_x_prefactor_in_log_scale(self):
        # at s = 0.5 + 500i, 1/Gamma(s) (about e^{784}) passes binary64's range while the prefactor (about 0.9)
        # does not: it is one exp of s log(2 pi i) - log Gamma(s).  The error is log Gamma(s)'s rounding,
        # eps |log Gamma(s)| = 5.8e-13 relative
        g, s = Generator("X", 0), 0.5 + 500j
        for v in (monodromy_generator(g, s, 0.3, 0.4), monodromy_power(g, 3, s, 0.3, 0.4),
                  word_fold_monodromy(Word.parse("X0"), s, 0.3, 0.4), monodromy_of_word(Word.parse("X0"), s, 0.3, 0.4)):
            assert abs(v - M_X0_500) <= 1e-12 * abs(M_X0_500)

    @pytest.mark.parametrize(
        "g, k, s, a, c, want",
        [
            # extreme record #976 of scripts/parent_diff.py: X_1's prefactor and kernel are about e^{-1132},
            # lambda^{-1} and lambda^{-2} about e^{792} and e^{1583}
            (Generator("X", 1), k, 140.48554182376523 + 125.98858468455485j, 1.0482124469961844 + 0.16694792017262125j,
             -271.2152674721703 - 1.0351743535476747j, want)
            for k, want in ((-1, complex(-4.0323833350515158104e-149, -3.817132074159456187e-149)),
                            (-2, complex(2.271407865149807882e195, 2.5795050205888838428e195)))
        ] + [
            # records #1409 and #212: (c - n)^{-s} is about e^{-989} and e^{-720}, lambda^{-1} about e^{1549} and e^{143}
            (Generator("Y", 0), -1, 24.18154761312573 - 246.47791175070884j, 1.5677902506206012 + 0.1254969336430195j,
             -7104.0801383884445 + 1.4381950602796145j, complex(1.4879913254023081e243, -1.5301091103639538e242)),
            (Generator("Y", 0), -1, 100.09084044960917 - 22.7735893714568j, 1.699010540332465 - 0.012092833615646633j,
             1331.1699317103019 - 2.3239028353618227j, complex(9.9863174319336496e-252, 2.6601620272937585e-251)),
        ],
    )
    def test_term_in_log_scale(self, g, k, s, a, c, want):
        # a term is one exp of its logs and of the log modulus of its geometric factor's largest power, so it is no
        # product of an underflow and an overflow (0 for the first three) and keeps more than a subnormal kernel's
        # digits (#212).  References: the closed form in mpmath at 50 and 60 digits
        assert abs(monodromy_power(g, k, s, a, c) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("s, what", [(0.5 - 80j, "monodromy of"), (0.5 - 60j, "composition of")])
    def test_compose_nested_overflow_raises_nonconvergence(self, s, what):
        # at Im s = -80 the monodromy of X0^2 overflows first; at Im s = -60 every monodromy is finite
        # and the nested term's e^{2 pi i s k2} - 1 overflows for k2 = 2
        with pytest.raises(NonConvergence, match=f"^{what} .* overflows"):
            compose_check(Word.parse("X0^-1"), Word.parse("X0^2"), s, 0.3, 0.4)

    def test_non_finite_term_raises_nonconvergence(self):
        # the Y_-1^3 term overflows to inf + nan j in a complex product, which raises nothing itself
        w = Word.parse("Y-1^2 X-3 Y-1")
        s = 59.07131841728972 + 47.953892785364815j
        a = -1.0617544967082417 + 0.5344863371278934j
        c = 0.4472378374730761 - 0.9170495795344269j
        for f in (monodromy_of_word, word_fold_monodromy):
            with pytest.raises(NonConvergence, match="overflows"):
                f(w, s, a, c)

    @pytest.mark.parametrize("f", [monodromy_of_word, word_fold_monodromy])
    def test_extreme_sweep_is_finite_or_raises_lerch_errors(self, f):
        # each call returns a finite number or raises a LerchError, and nothing warns
        rng = random.Random(150)
        raised = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(150):
                w = random_word(rng, 6, index_range=(-3, 3))
                s = complex(rng.uniform(-300, 300), rng.uniform(-500, 500))
                a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                c = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
                try:
                    value = f(w, s, a, c)
                except LerchError:
                    raised += 1
                else:
                    assert cmath.isfinite(value)
        assert 0 < raised < 150


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

    @pytest.mark.parametrize(
        "kind, s",
        [(SymKind.PLUS, 0.0), (SymKind.PLUS, -2.0), (SymKind.PLUS, 1.0), (SymKind.PLUS, 3.0),
         (SymKind.MINUS, -1.0), (SymKind.MINUS, 2.0)],
    )
    def test_at_exact_factor_poles(self, kind, s):
        # one archimedean factor has a pole: the divided identity checks the surviving side
        w = Word.parse("X0 Y-1^2 X1^-1 Y0")
        a, c = 0.3 + 0.1j, 0.4 - 0.2j
        m = monodromy_of_word(w, s, a, c)
        assert fe_monodromy_residual(kind, w, s, a, c) <= 1e-12 * max(1.0, abs(m))

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


_ENTRIES = {
    "monodromy_of_word": lambda s, a, c: monodromy_of_word(Word.parse("X0 Y-1"), s, a, c),
    "monodromy_of_branch": lambda s, a, c: monodromy_of_branch(BranchState.from_dicts({0: 1}, {-1: 2}), s, a, c),
    "monodromy_power": lambda s, a, c: monodromy_power(Generator("Y", 1), 2, s, a, c),
    "monodromy_generator": lambda s, a, c: monodromy_generator(Generator("X", 0), s, a, c),
    "word_fold_monodromy": lambda s, a, c: word_fold_monodromy(Word.parse("X0 Y-1"), s, a, c),
    "compose_check": lambda s, a, c: compose_check(Word(), Word(), s, a, c),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    @pytest.mark.parametrize(
        "s, a, c",
        [(math.nan, 0.3, 0.4), (math.inf, 0.3, 0.4), (-math.inf, 0.3 + 0.1j, 0.4), (complex(0.5, math.nan), 0.3, 0.4),
         (0.5, math.nan, 0.4), (0.5, complex(0.3, math.inf), 0.4), (0.5, 0.3, -math.inf), (0.5, 0.3, complex(0.4, math.nan))],
    )
    def test_entries_raise_invalid_point(self, entry, s, a, c):
        # every algebra entry refuses NaN or +-inf in s, a or c, also where no term would read it
        with pytest.raises(InvalidPoint, match="is not finite"):
            _ENTRIES[entry](s, a, c)

    @pytest.mark.parametrize(
        "word, flag", [("Y0", "--s=nan,0"), ("Y1 Y3", "--s=inf,0"), ("X0", "--a=0.3,-inf"), ("X0 X0^-1", "--c=nan")]
    )
    def test_cli_exits_2_with_one_record(self, capsys, word, flag):
        argv = ["monodromy", "--word", word, "--s=0.5", "--a=0.3", "--c=0.4", flag]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        rec = json.loads(err)
        assert rec["error"] == "InvalidPoint" and "not finite" in rec["message"]
