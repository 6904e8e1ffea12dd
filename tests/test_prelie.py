import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumulants import forms
from cumulants.errors import IncompleteTableError
from cumulants.prelie import (
    InfChar,
    bernoulli,
    exp_left_table,
    exp_right_table,
    exp_star_table,
    magnus,
    triangle,
    w_map,
)
from cumulants.words import Word, all_words


def univariate(degree, values):
    return InfChar(1, degree, {Word((0,) * n): F(v) for n, v in zip(range(1, degree + 1), values)})


def add(a, b):
    """a + b, word by word, on one truncation."""
    assert (a.n_letters, a.max_degree) == (b.n_letters, b.max_degree)
    return InfChar(a.n_letters, a.max_degree, {w: a.table[w] + b.table[w] for w in a.table})


def sub(a, b):
    return add(a, -b)


def scaled(c, a):
    """c a, word by word."""
    return InfChar(a.n_letters, a.max_degree, {w: c * v for w, v in a.table.items()})


def zero(n_letters, max_degree):
    return InfChar(n_letters, max_degree, dict.fromkeys(all_words(n_letters, max_degree), F(0)))


def form_triangle(a, b):
    """a > b - b < a over the full half coproducts, from forms."""
    fa, fb = forms.InfinitesimalFromWords(a.table), forms.InfinitesimalFromWords(b.table)
    form = forms.half_right(fa, fb) - forms.half_left(fb, fa)
    return InfChar(a.n_letters, a.max_degree, {w: form.eval_word(w) for w in a.table})


def fixed_point_magnus(a):
    """Omega by whole passes of  om <- sum_m (B_m/m!) L_{om|>}^m(a)  until the
    table repeats; the degree-n slice is final after n passes."""
    om = a
    for _ in range(a.max_degree + 1):
        iterate = a
        new = scaled(bernoulli(0), a)
        for m in range(1, a.max_degree):
            iterate = form_triangle(om, iterate)
            b_m = bernoulli(m)
            if b_m:
                new = add(new, scaled(b_m / factorial(m), iterate))
        if new == om:
            return om
        om = new
    raise AssertionError("the fixed-point iteration did not stabilize")


# derandomize keeps the examples the same from run to run.
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=10)


@st.composite
def tables(draw, n_letters, degree, zeros=0.2):
    """A random InfChar, about a `zeros` share of its values zero, and zero
    below a drawn degree so that the product's skipped low degrees are
    exercised too."""
    lowest = draw(st.integers(1, degree + 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    values = {}
    for w in all_words(n_letters, degree):
        zero = w.degree < lowest or rng.random() < zeros
        values[w] = F(0) if zero else F(rng.randint(-6, 6), rng.randint(1, 4))
    return InfChar(n_letters, degree, values)


def test_bernoulli_prefix():
    expect = [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)]
    assert [bernoulli(m) for m in range(7)] == expect


def test_infchar_requires_total_tables():
    with pytest.raises(IncompleteTableError):
        InfChar(1, 3, {Word((0,)): F(1), Word((0, 0)): F(2)})
    with pytest.raises(ValueError):
        InfChar(1, 1, {Word((0,)): F(1), Word((0, 0)): F(2)})


def test_infchar_arithmetic():
    a = univariate(2, (1, 2))
    assert (-a).table[Word((0,))] == -1
    assert -(-a) == a
    assert scaled(F(1, 2), a).table[Word((0, 0))] == 1


def test_triangle_cube_value():
    # frozen: (a > a) - (a < a) on aaa is 2 k1 k2 - 3 k1 k2 = -k1 k2
    a = univariate(3, (2, 3, 5))
    assert triangle(a, a).table[Word((0, 0, 0))] == -(2 * 3)


def test_triangle_degree_one_vanishes():
    a = univariate(3, (2, 3, 5))
    assert triangle(a, a).table[Word((0,))] == 0


def test_magnus_cube_value():
    # frozen: Omega(kappa)(a^3) = k3 + k1 k2 / 2
    a = univariate(3, (2, 3, 5))
    assert magnus(a).table[Word((0, 0, 0))] == F(5) + F(2 * 3, 2)


def test_w_cube_value():
    # frozen: W(rho)(a^3) = h3 - h1 h2 / 2
    a = univariate(3, (2, 3, 5))
    assert w_map(a).table[Word((0, 0, 0))] == F(5) - F(2 * 3, 2)


def test_magnus_and_w_are_mutually_inverse():
    a = InfChar(
        2,
        4,
        {w: F(hash(w) % 7 - 3, 2) for w in all_words(2, 4)},
    )
    assert w_map(magnus(a)) == a
    assert magnus(w_map(a)) == a


def test_magnus_w_inverse_univariate_deeper():
    a = univariate(6, (1, -2, 3, -4, 5, -6))
    assert w_map(magnus(a)) == a
    assert magnus(w_map(a)) == a


def test_prelie_left_identity():
    a = univariate(4, (1, 2, -1, 3))
    b = univariate(4, (2, -3, 1, 0))
    c = univariate(4, (-1, 1, 4, -2))
    lhs = sub(triangle(triangle(a, b), c), triangle(a, triangle(b, c)))
    rhs = sub(triangle(triangle(b, a), c), triangle(b, triangle(a, c)))
    assert lhs == rhs


def test_magnus_of_zero_is_zero():
    z = zero(1, 3)
    assert magnus(z) == z
    assert w_map(z) == z


# A table of the largest degree holds every lower degree too.
@pytest.mark.parametrize("n_letters, degree", [(1, 6), (2, 6), (3, 5)])
@_PROPERTY
@given(data=st.data())
def test_triangle_equals_the_product_over_full_half_coproducts(n_letters, degree, data):
    a = data.draw(tables(n_letters, degree))
    b = data.draw(tables(n_letters, degree))
    assert triangle(a, b) == form_triangle(a, b)


@pytest.mark.parametrize("n_letters, degree", [(1, 6), (2, 6), (3, 4)])
@settings(_PROPERTY, max_examples=5)
@given(data=st.data())
def test_graded_magnus_equals_the_fixed_point_iteration(n_letters, degree, data):
    a = data.draw(tables(n_letters, degree))
    assert magnus(a) == fixed_point_magnus(a)


EXPONENTIALS = [
    (exp_left_table, forms.exp_left),
    (exp_right_table, forms.exp_right),
    (exp_star_table, forms.exp_star),
]


# A table of the largest degree holds every lower degree too; the bound
# shrinks with the alphabet to keep the forms' reference quick.
@pytest.mark.parametrize("kernel, exponential", EXPONENTIALS)
@pytest.mark.parametrize("n_letters, degree", [(1, 7), (2, 6), (3, 4)])
@_PROPERTY
@given(zeros=st.sampled_from([0.2, 0.8]), data=st.data())
def test_exponential_tables_equal_the_forms(kernel, exponential, n_letters, degree, zeros, data):
    a = data.draw(tables(n_letters, degree, zeros=zeros))
    form = exponential(forms.InfinitesimalFromWords(a.table))
    got = kernel(a.table)
    assert list(got) == list(a.table)
    assert got == {w: form.eval_word(w) for w in a.table}


def test_exponential_tables_of_the_semicircle():
    # Cumulant 1 at aa alone: as a free cumulant it gives the Catalan numbers
    # (semicircle law), as a boolean one 1 (symmetric Bernoulli law), and as a
    # monotone one binom(2k, k) / 2^k at degree 2k (arcsine law).
    a = univariate(6, (0, 1, 0, 0, 0, 0)).table
    w = [Word((0,) * n) for n in range(1, 7)]
    assert [exp_left_table(a)[v] for v in w] == [0, 1, 0, 2, 0, 5]
    assert [exp_right_table(a)[v] for v in w] == [0, 1, 0, 1, 0, 1]
    assert [exp_star_table(a)[v] for v in w] == [0, 1, 0, F(3, 2), 0, F(5, 2)]
