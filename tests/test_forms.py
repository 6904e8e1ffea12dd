"""Linear forms: characters, half-shuffle products, exponentials, logarithms."""

from fractions import Fraction as F

import pytest

from cumulants.errors import IncompleteTableError, InvalidFormError
from cumulants.forms import (
    COUNIT,
    CharacterFromWords,
    InfinitesimalFromWords,
    char_inverse,
    conv,
    exp_left,
    exp_right,
    exp_star,
    half_left,
    half_right,
    log_left,
    log_right,
    log_star,
)
from cumulants.words import UNIT, BarWord, Word, all_barwords, all_words, lift

A = Word((0,))
AA = Word((0, 0))
AAA = Word((0, 0, 0))


def univariate_table(degree, values):
    return {Word((0,) * n): F(v) for n, v in zip(range(1, degree + 1), values)}


@pytest.fixture
def kappa():
    # k1=2, k2=3, k3=5, k4=7: primes keep products recognizable
    return InfinitesimalFromWords(univariate_table(4, (2, 3, 5, 7)))


def test_counit_values():
    assert COUNIT.eval(UNIT) == 1
    assert COUNIT.eval(lift(A)) == 0
    assert COUNIT.eval(BarWord((A, A))) == 0


def test_character_is_multiplicative_and_strict():
    phi = CharacterFromWords({A: F(2), AA: F(3)})
    assert phi.eval(UNIT) == 1
    assert phi.eval(BarWord((A, AA, A))) == 2 * 3 * 2
    with pytest.raises(IncompleteTableError):
        phi.eval(lift(AAA))


def test_infinitesimal_kills_unit_and_products(kappa):
    assert kappa.eval(UNIT) == 0
    assert kappa.eval(BarWord((A, A))) == 0
    assert kappa.eval(lift(AA)) == 3


def test_counit_is_neutral_for_convolution(kappa):
    lhs = conv(kappa, COUNIT)
    rhs = conv(COUNIT, kappa)
    for u in all_barwords(1, 4, include_unit=True):
        assert lhs.eval(u) == kappa.eval(u)
        assert rhs.eval(u) == kappa.eval(u)


def test_half_products_against_counit(kappa):
    # f < e keeps f, e < f vanishes; mirrored on the right
    for u in all_barwords(1, 4, include_unit=True):
        assert half_left(kappa, COUNIT).eval(u) == kappa.eval(u)
        assert half_left(COUNIT, kappa).eval(u) == 0
        assert half_right(COUNIT, kappa).eval(u) == kappa.eval(u)
        assert half_right(kappa, COUNIT).eval(u) == 0


def test_half_products_sum_to_convolution(kappa):
    beta = InfinitesimalFromWords(univariate_table(4, (1, -2, 4, 3)))
    whole = conv(kappa, beta)
    split = half_left(kappa, beta) + half_right(kappa, beta)
    for u in all_barwords(1, 4):
        assert whole.eval(u) == split.eval(u)


def test_half_shuffle_cube_values(kappa):
    # frozen by hand: three ways to leave a letter on the left leg of aaa,
    # two ways on the right
    assert half_left(kappa, kappa).eval_word(AAA) == 3 * 2 * 3
    assert half_right(kappa, kappa).eval_word(AAA) == 2 * 2 * 3


def test_exp_star_low_degrees(kappa):
    x = exp_star(kappa)
    assert x.eval(UNIT) == 1
    assert x.eval_word(A) == 2
    assert x.eval_word(AA) == 3 + 2 * 2  # k2 + k1^2
    # k3 + (5/2) k1 k2 + k1^3: five subset splittings of aaa hit k1 x k2
    assert x.eval_word(AAA) == 5 + F(5, 2) * (2 * 3) + 2 ** 3


def test_exp_left_solves_its_fixed_point(kappa):
    x = exp_left(kappa)
    for u in all_barwords(1, 4):
        assert x.eval(u) == COUNIT.eval(u) + half_left(kappa, x).eval(u)


def test_exp_right_solves_its_fixed_point(kappa):
    z = exp_right(kappa)
    for u in all_barwords(1, 4):
        assert z.eval(u) == COUNIT.eval(u) + half_right(z, kappa).eval(u)


def test_exponentials_are_characters(kappa):
    for build in (exp_left, exp_right, exp_star):
        phi = build(kappa)
        for u in all_barwords(1, 4, include_unit=True):
            product = F(1)
            for w in u:
                product *= phi.eval(lift(w))
            assert phi.eval(u) == product


def test_char_inverse_is_two_sided(kappa):
    phi = exp_left(kappa)
    inv = char_inverse(phi)
    for u in all_barwords(1, 4, include_unit=True):
        assert conv(phi, inv).eval(u) == COUNIT.eval(u)
        assert conv(inv, phi).eval(u) == COUNIT.eval(u)


def test_log_round_trips(kappa):
    words = list(all_words(1, 4))
    for build, unbuild in (
        (exp_left, log_left),
        (exp_right, log_right),
        (exp_star, log_star),
    ):
        recovered = unbuild(build(kappa))
        for w in words:
            assert recovered.eval_word(w) == kappa.eval_word(w)


def test_log_left_of_character_on_two_letters():
    # by hand: kappa(ab) = m(ab) - m(a) m(b) for the left logarithm
    phi = CharacterFromWords(
        {
            Word((0,)): F(2),
            Word((1,)): F(3),
            Word((0, 1)): F(11),
            Word((1, 0)): F(13),
            Word((0, 0)): F(5),
            Word((1, 1)): F(7),
        }
    )
    got = log_left(phi).eval_word(Word((0, 1)))
    assert got == 11 - 2 * 3


def test_exponentials_reject_unital_input():
    with pytest.raises(InvalidFormError):
        exp_star(COUNIT)
    with pytest.raises(InvalidFormError):
        exp_left(COUNIT)
    with pytest.raises(InvalidFormError):
        exp_right(COUNIT)


def test_logarithms_reject_infinitesimal_input(kappa):
    with pytest.raises(InvalidFormError):
        log_star(kappa)
    with pytest.raises(InvalidFormError):
        log_left(kappa)
    with pytest.raises(InvalidFormError):
        log_right(kappa)
    with pytest.raises(InvalidFormError):
        char_inverse(kappa)


def test_incomplete_tables_surface_from_deep_evaluation():
    alpha = InfinitesimalFromWords({A: F(1)})
    with pytest.raises(IncompleteTableError):
        exp_star(alpha).eval_word(AA)
