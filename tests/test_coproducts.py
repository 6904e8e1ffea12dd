"""The coproduct family on the double tensor algebra.

Small cases are written out by hand and frozen; structural laws are then
checked exhaustively over low degrees.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumulants.coproducts import (
    coproduct,
    coproduct_left,
    coproduct_left_reduced,
    coproduct_reduced,
    coproduct_right,
    coproduct_right_reduced,
    iterated_reduced_left,
    reduced_linearised,
    split_product,
)
from cumulants.lincomb import LinComb
from cumulants.words import UNIT, BarWord, Word, all_barwords, lift

A = Word((0,))
B = Word((1,))
AA = Word((0, 0))
AB = Word((0, 1))
AAA = Word((0, 0, 0))


def bw(*words):
    return BarWord(tuple(words))


def test_coproduct_of_unit_is_grouplike():
    assert coproduct(UNIT) == LinComb.term((UNIT, UNIT), Fraction(1))


def test_coproduct_single_letter():
    assert coproduct(lift(A)) == LinComb(
        {(lift(A), UNIT): Fraction(1), (UNIT, lift(A)): Fraction(1)}
    )


def test_coproduct_two_letters_by_hand():
    # subsets of positions {1,2} of ab: {} , {1}, {2}, {1,2}
    expect = LinComb(
        {
            (UNIT, lift(AB)): Fraction(1),
            (lift(A), lift(B)): Fraction(1),
            (lift(B), lift(A)): Fraction(1),
            (lift(AB), UNIT): Fraction(1),
        }
    )
    assert coproduct(lift(AB)) == expect


def test_coproduct_middle_extraction_leaves_two_components():
    # extracting the middle letter of aba leaves a|a on the right leg
    terms = coproduct(lift(Word((0, 1, 0))))
    assert terms.coefficient((lift(B), bw(A, A))) == 1


def test_coproduct_is_multiplicative_over_bars():
    # each map splits the first factor its own way, then multiplies by the
    # full coproduct of every later factor, from left to right
    for split_first in (coproduct, coproduct_left, coproduct_right):
        for u in all_barwords(2, 4):
            first, *rest = u
            expect = split_first(lift(first))
            for w in rest:
                expect = split_product(expect, coproduct(lift(w)))
            assert split_first(u) == expect, (split_first.__name__, u)


def test_half_coproducts_partition_the_full_one():
    for u in all_barwords(2, 4):
        assert coproduct_left(u) + coproduct_right(u) == coproduct(u)


def test_half_coproducts_reject_the_unit():
    with pytest.raises(ValueError):
        coproduct_left(UNIT)
    with pytest.raises(ValueError):
        coproduct_right(UNIT)


def test_left_half_always_keeps_first_letter():
    for u in all_barwords(2, 4):
        first = u[0][0]
        for (x, y), _ in coproduct_left(u).items():
            assert not x.is_unit
            assert x[0][0] == first


def test_right_half_never_extracts_first_letter():
    for u in all_barwords(2, 4):
        first_factor = u[0]
        for (x, y), _ in coproduct_right(u).items():
            assert not y.is_unit
            # the first factor's leading letter stays on the right leg
            assert y[0][0] == first_factor[0]


def test_reduced_variants_drop_unit_legs():
    for u in all_barwords(2, 3):
        both = coproduct_reduced(u)
        assert all(not x.is_unit and not y.is_unit for (x, y) in both.keys())
        full = both + LinComb(
            {(u, UNIT): Fraction(1), (UNIT, u): Fraction(1)}
        )
        assert full == coproduct(u)


def test_reduced_linearised_cube_by_hand():
    # interval splittings of aaa with non-trivial middle: the outer part
    # keeps its letters in place, so the coefficients are 3 and 2
    expect = LinComb({(AA, A): Fraction(3), (A, AA): Fraction(2)})
    assert reduced_linearised(AAA) == expect


def test_reduced_linearised_mixed_letters():
    got = reduced_linearised(Word((0, 1, 2)))
    expect = LinComb(
        {
            (Word((1, 2)), A): Fraction(1),
            (Word((0, 2)), B): Fraction(1),
            (Word((0, 1)), Word((2,))): Fraction(1),
            (Word((2,)), AB): Fraction(1),
            (A, Word((1, 2))): Fraction(1),
        }
    )
    assert got == expect


def test_iterated_reduced_left_full_depth_is_factorial():
    for n in range(1, 7):
        got = iterated_reduced_left(Word((0,) * n), n)
        assert got == LinComb.term((A,) * n, Fraction(factorial(n)))


def test_iterated_reduced_left_is_identity_at_depth_one():
    w = Word((0, 1, 0))
    assert iterated_reduced_left(w, 1) == LinComb.term((w,), Fraction(1))


def test_iterated_reduced_left_rejects_bad_depth():
    with pytest.raises(ValueError):
        iterated_reduced_left(AAA, 0)
    with pytest.raises(ValueError):
        iterated_reduced_left(AAA, 4)


def assert_coassociative(u):
    left = {}
    right = {}
    for (x, y), c in coproduct(u).items():
        for (p, q), d in coproduct(x).items():
            key = (p, q, y)
            left[key] = left.get(key, 0) + c * d
        for (p, q), d in coproduct(y).items():
            key = (x, p, q)
            right[key] = right.get(key, 0) + c * d
    assert {k: v for k, v in left.items() if v} == {
        k: v for k, v in right.items() if v
    }


def test_coassociativity_low_degrees():
    for u in all_barwords(2, 3, include_unit=True):
        assert_coassociative(u)


@st.composite
def barwords(draw, n_letters=3, max_degree=6):
    """A non-unit bar-word: random letters cut at random positions."""
    letters = draw(
        st.lists(st.integers(0, n_letters - 1), min_size=1, max_size=max_degree)
    )
    n = len(letters)
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    factors = [[letters[0]]]
    for letter, cut in zip(letters[1:], cuts):
        if cut:
            factors.append([])
        factors[-1].append(letter)
    return BarWord(Word(f) for f in factors)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(barwords())
def test_coproduct_laws_beyond_the_exhaustive_range(u):
    assert_coassociative(u)
    assert coproduct_left(u) + coproduct_right(u) == coproduct(u)
