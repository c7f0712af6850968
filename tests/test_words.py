import pytest
from hypothesis import given, strategies as st

from lerchzeta import Generator, Word, WordParseError, abelianize, parse_branch, rep_apply
from lerchzeta.words import BranchState, generator_of

gen_st = st.builds(Generator, st.sampled_from(["X", "Y"]), st.integers(-5, 5))
letters_st = st.lists(st.tuples(gen_st, st.integers(-3, 3).filter(bool)), max_size=10)
word_st = st.builds(lambda letters: Word([(g, e) for g, e in letters]), letters_st)
# u v u^-1 and u u^-1 v: the letters of u cancel in the abelianization, and in the word where they meet
cancelling_letters_st = st.builds(
    lambda u, v, conjugate: u + v + [(g, -e) for g, e in reversed(u)] if conjugate
    else u + [(g, -e) for g, e in reversed(u)] + v,
    letters_st, letters_st, st.booleans(),
)


class TestReduction:
    def test_empty_is_identity(self):
        assert Word().is_identity
        assert abelianize(Word()).is_zero

    def test_adjacent_inverses_cancel(self):
        w = Word.parse("X0 X0^-1")
        assert w.is_identity

    def test_nested_cancellation(self):
        w = Word.parse("X1 Y0 Y0^-1 X1^-1")
        assert w.is_identity

    def test_syllable_merge(self):
        w = Word.parse("X0 X0 X0^-3")
        assert w == Word.parse("X0^-1")
        # a zero exponent drops its syllable, so its neighbours merge
        x0, y1 = Generator("X", 0), Generator("Y", 1)
        assert Word([(x0, 1), (y1, 0), (x0, 2)]) == Word.parse("X0^3")
        assert hash(w) == hash(Word.parse("X0^-1")) and len({w, Word.parse("X0^-1"), Word()}) == 2

    def test_product_with_a_non_word_is_a_type_error(self):
        with pytest.raises(TypeError):
            Word.parse("X0") * 2

    @given(word_st)
    def test_word_times_inverse_is_identity(self, w):
        assert (w * w.inverse()).is_identity
        assert (w.inverse() * w).is_identity

    @given(word_st, word_st)
    def test_abelianize_is_additive(self, w1, w2):
        assert abelianize(w1 * w2) == abelianize(w1) + abelianize(w2)


class TestAbelianize:
    def test_counts(self):
        w = Word.parse("X1 X1 Y0^-1 X1^-1")
        b = abelianize(w)
        assert b.kx_dict == {1: 1}
        assert b.ky_dict == {0: -1}

    def test_commutator_maps_to_zero(self):
        w1, w2 = Word.parse("X0"), Word.parse("Y0")
        assert abelianize(w1.commutator(w2)).is_zero

    def test_branch_state_addition(self):
        b1 = BranchState.from_dicts({0: 1}, {2: -1})
        b2 = BranchState.from_dicts({0: -1, 1: 3}, {})
        assert (b1 + b2).kx_dict == {1: 3}
        assert (b1 + b2).ky_dict == {2: -1}


class TestOnePassAbelianize:
    @staticmethod
    def counted(letters):
        # the definition: one signed count per letter, summed per generator by BranchState itself
        return BranchState(
            tuple((g.index, e) for g, e in letters if g.axis == "X"),
            tuple((g.index, e) for g, e in letters if g.axis == "Y"),
        )

    @given(st.one_of(letters_st, cancelling_letters_st))
    def test_equals_per_letter_counts(self, letters):
        got, want = abelianize(Word(letters)), self.counted(letters)
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)

    def test_index_that_is_no_int_is_truncated(self):
        letters = [(Generator("X", 1.5), 2), (Generator("Y", True), 1), (Generator("X", 1), -1)]
        got = abelianize(Word(letters))
        assert repr(got) == repr(self.counted(letters)) == "BranchState(kx=((1, 1),), ky=((1, 1),))"


class TestInternedGenerators:
    def test_one_object_per_generator(self):
        w = Word.parse("X1 Y0 X1^-2 Y-3")
        assert w.theta(4) == w
        assert all(g is h for (g, _), (h, _) in zip(w, w.theta(4)))
        assert generator_of("X", 1) is next(iter(w))[0] is next(iter(Word.parse("Y1^5").theta(3)))[0]

    def test_axis_checked_on_a_miss(self):
        with pytest.raises(ValueError, match="axis must be 'X' or 'Y'"):
            generator_of("Z", 12345)

    def test_typed_indices_stay_distinct(self):
        assert str(generator_of("X", 1)) == "X1" and str(generator_of("X", 1.0)) == "X1.0"


class TestGrammar:
    def test_parse_example(self):
        w = Word.parse("X0 Y-2^-1 X0^3")
        assert str(w) == "X0 Y-2^-1 X0^3"

    def test_rejects_garbage(self):
        for bad in ("Z0", "X", "X0^0", "X0^"):
            with pytest.raises(WordParseError):
                Word.parse(bad)

    @pytest.mark.parametrize(
        "token, message",
        [("X", "bad word token 'X'"), ("Z1", "bad word token 'Z1'"), ("x1", "bad word token 'x1'"),
         ("X1^", "bad word token 'X1^'"), ("X1^0", "zero exponent in token 'X1^0'"),
         ("X1.5", "bad word token 'X1.5'"), ("X\u0661", "bad word token 'X\u0661'"),
         ("kx[\u0661]=1", "bad branch token 'kx[\u0661]=1'")],
    )
    def test_error_messages(self, token, message):
        # digits are ASCII digits; a kx/ky assignment takes the branch grammar
        with pytest.raises(WordParseError) as info:
            if "=" in token:
                parse_branch("ky[0]=1 " + token + " kx[2]=1")
            else:
                Word.parse("Y0 " + token + " X2")
        assert str(info.value) == message

    @given(st.one_of(word_st, cancelling_letters_st.map(Word)))
    def test_roundtrip_on_reduced_words(self, w):
        assert Word.parse(str(w)) == w

    @pytest.mark.parametrize("text", ["kx[0]=1, ky[-2]=-3", "kx[0]=1, ky[-2]=-3,"])
    def test_branch_spec_assignments(self, text):
        # a trailing separator leaves an empty token, which is skipped
        b = parse_branch(text)
        assert b.kx_dict == {0: 1}
        assert b.ky_dict == {-2: -3}

    def test_branch_spec_word(self):
        assert parse_branch("X0 Y0 X0^-1 Y0^-1").is_zero


class TestTheta:
    def test_generator_images(self):
        assert Generator("X", 3).theta() == Generator("Y", 3)
        assert Generator("Y", 0).theta() == Generator("X", 1)

    @given(gen_st, st.integers(-8, 8))
    def test_generator_power_is_repeated_application(self, g, power):
        h = g
        for _ in range(power % 4):
            h = h.theta()
        assert g.theta(power) == h

    @given(word_st, st.integers(0, 4))
    def test_word_image_is_reduced(self, w, power):
        # theta permutes the generators, so its image needs no reduction
        image = w.theta(power)
        assert list(Word(list(image))) == list(image)
        assert image == Word([(g.theta(power), e) for g, e in w])

    def test_double_application(self):
        # Y2 -> X-1 -> Y-1
        w = Word.parse("Y2").theta(2)
        assert w == Word.parse("Y-1")

    @given(word_st)
    def test_order_four(self, w):
        assert w.theta(4) == w

    @given(word_st)
    def test_theta_is_homomorphism(self, w):
        assert w.theta(1).inverse() == w.inverse().theta(1)

    @given(word_st)
    def test_abelianization_commutes_with_index_map(self, w):
        b = abelianize(w)
        bt = abelianize(w.theta(1))
        want_kx = {1 - n: k for n, k in b.ky}
        want_ky = dict(b.kx)
        assert bt.kx_dict == want_kx
        assert bt.ky_dict == want_ky

    @given(word_st)
    def test_branch_state_theta_is_the_abelianized_word_theta(self, w):
        b = abelianize(w)
        for k in range(5):
            assert abelianize(w.theta(k)) == b.theta(k)


class TestRepApply:
    def test_identity(self):
        tau = Word.parse("X0 Y1")
        assert rep_apply(Word(), tau) == tau

    def test_self_action_gives_identity(self):
        sigma = Word.parse("X0 Y1^2")
        assert rep_apply(sigma, sigma).is_identity

    def test_composition_order(self):
        # acting by sigma1 then sigma2 equals acting by sigma1*sigma2 in one step
        sigma1, sigma2 = Word.parse("X0"), Word.parse("Y1^-1")
        tau = Word.parse("X0 Y1")
        two_step = rep_apply(sigma2, rep_apply(sigma1, tau))
        assert two_step == rep_apply(sigma1 * sigma2, tau)
        assert two_step == Word.parse("Y1^2")

    @given(word_st, word_st, word_st)
    def test_composition_law_random(self, s1, s2, tau):
        assert rep_apply(s2, rep_apply(s1, tau)) == rep_apply(s1 * s2, tau)
