"""Linear forms: characters, half-shuffle products, exponentials, logarithms."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumulants.coproducts import coproduct, coproduct_left, coproduct_right
from cumulants.errors import IncompleteTableError, InvalidFormError
from cumulants.forms import (
    CONV,
    COUNIT,
    LEFT,
    RIGHT,
    CharacterFromWords,
    Conv,
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


# The per-term Fraction sum from the definition: the oracle for the integer
# sum in `Conv._eval`.

SPLITTERS = {CONV: coproduct, LEFT: coproduct_left, RIGHT: coproduct_right}


def reference_conv(kind, f, g, u):
    if u.is_unit:
        if kind == CONV:
            return f.eval(u) * g.eval(u)
        if kind == LEFT:
            return f.eval(u) if g is COUNIT else F(0)
        return g.eval(u) if f is COUNIT else F(0)
    total = F(0)
    for (x, y), c in SPLITTERS[kind](u).items():
        fx = f.eval(x)
        if fx:
            gy = g.eval(y)
            if gy:
                total += c * fx * gy
    return total


TWO_LETTER_WORDS = list(all_words(2, 4))
TWO_LETTER_BARWORDS = list(all_barwords(2, 4, include_unit=True))


@st.composite
def word_tables(draw):
    """Values drawn with signs from a small pool: zeros, negatives, large
    denominators, and magnitudes that repeat, so that terms sharing a
    denominator product cancel."""
    pool = draw(
        st.lists(
            st.one_of(st.just(F(0)), st.fractions(max_denominator=10**6)),
            min_size=1,
            max_size=3,
        )
    )
    magnitude = st.sampled_from(pool)
    sign = st.sampled_from((1, -1))
    return {w: draw(magnitude) * draw(sign) for w in TWO_LETTER_WORDS}


def assert_conv_matches_reference(f, g):
    for kind in (CONV, LEFT, RIGHT):
        product = Conv(kind, f, g)
        for u in TWO_LETTER_BARWORDS:
            value = product.eval(u)
            assert type(value) is F, (kind, u, value)
            assert value == reference_conv(kind, f, g, u), (kind, u)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(word_tables(), word_tables())
def test_conv_matches_the_per_term_fraction_sum(left_table, right_table):
    phi = CharacterFromWords(left_table)
    alpha = InfinitesimalFromWords(right_table)
    for f, g in (
        (phi, alpha),
        (alpha, phi),
        (phi, phi),
        (phi - COUNIT, conv(alpha, phi)),
        (alpha, COUNIT),
        (COUNIT, alpha),
    ):
        assert_conv_matches_reference(f, g)


def test_conv_cancelling_groups_and_vanishing_terms_give_fractions():
    # on ab, f(a) g(b) and f(b) g(a) share the denominator 6 and cancel;
    # f(ab) g(unit) is then the whole value, 0 or alone in its group
    ab = Word((0, 1))
    g = CharacterFromWords({A: F(1, 3), Word((1,)): F(-1, 3)})
    for f_ab in (F(0), F(1, 5)):
        f = InfinitesimalFromWords({A: F(1, 2), Word((1,)): F(1, 2), ab: f_ab})
        assert reference_conv(CONV, f, g, lift(ab)) == f_ab
        value = Conv(CONV, f, g).eval(lift(ab))
        assert value == f_ab and type(value) is F
    # the groups of f(a) g(b) = 1/6 (denominator product 6) and
    # f(b) g(a) = -2/12 (12) cancel each other over their lcm
    g = CharacterFromWords({A: F(-2, 3), Word((1,)): F(1, 3)})
    f = InfinitesimalFromWords({A: F(1, 2), Word((1,)): F(1, 4), ab: F(0)})
    assert reference_conv(CONV, f, g, lift(ab)) == 0
    value = Conv(CONV, f, g).eval(lift(ab))
    assert value == 0 and type(value) is F
    # every term vanishes: each leg pair has a unit leg on alpha * alpha
    alpha = InfinitesimalFromWords(univariate_table(1, (5,)))
    for kind in (CONV, LEFT, RIGHT):
        for u in (UNIT, lift(A)):
            value = Conv(kind, alpha, alpha).eval(u)
            assert value == 0 and type(value) is F
    # log_star(exp_star(alpha)) is alpha, which vanishes on bar products:
    # there the series' non-zero terms cancel
    alpha = InfinitesimalFromWords({A: F(1, 2), Word((1,)): F(-1, 3), ab: F(1, 5)})
    phi = exp_star(alpha)
    log = log_star(phi)
    a_b = BarWord((A, Word((1,))))
    terms = reference_series_terms(phi - COUNIT, log_coefficient, a_b)
    assert any(terms) and sum(terms) == 0
    for u in (a_b, BarWord((A, ab)), BarWord((ab, A, A))):
        value = log.eval(u)
        assert value == 0 and type(value) is F
    assert log.eval(lift(ab)) == F(1, 5)


# The per-term Fraction sums of the power series in a base form: the oracle
# for the integer sum in `_PowerSeries._eval`.


def exp_coefficient(j):
    return F(1, factorial(j))


def log_coefficient(j):
    return F((-1) ** (j - 1), j) if j else F(0)


def reference_series_terms(base, coefficient, u):
    """coefficient(j) * base^{*j}(u) for j = 0..degree(u), each power built
    from the per-term reference convolution."""
    powers = [COUNIT]
    for _ in range(u.degree):
        powers.append(conv(base, powers[-1]))
    return [coefficient(j) * power.eval(u) for j, power in enumerate(powers)]


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(word_tables(), word_tables())
def test_power_series_match_the_per_term_fraction_sum(left_table, right_table):
    phi = CharacterFromWords(left_table)
    alpha = InfinitesimalFromWords(right_table)
    phi_minus_e = phi - COUNIT
    for series, base, coefficient in (
        (exp_star(alpha), alpha, exp_coefficient),
        (exp_star(phi_minus_e), phi_minus_e, exp_coefficient),
        (log_star(phi), phi_minus_e, log_coefficient),
        (log_star(exp_star(alpha)), exp_star(alpha) - COUNIT, log_coefficient),
    ):
        for u in TWO_LETTER_BARWORDS:
            value = series.eval(u)
            assert type(value) is F, (u, value)
            assert value == sum(reference_series_terms(base, coefficient, u)), u
