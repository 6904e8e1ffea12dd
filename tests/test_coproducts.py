"""The coproduct family on the double tensor algebra.

Small cases are written out by hand and frozen; structural laws are then
checked exhaustively over low degrees.
"""

import contextlib
import itertools
from math import factorial

import coproducts_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumulants import coproducts
from cumulants.coproducts import (
    BARWORDS,
    bar_id,
    coproduct_left_terms,
    coproduct_right_terms,
    coproduct_terms,
    iterated_reduced_left,
)
from cumulants.transforms import CONVERT_DEGREE_CAP, verify_suite
from cumulants.words import UNIT, BarWord, Word, all_barwords, all_words, bar_concat, lift

A = Word((0,))
B = Word((1,))
AA = Word((0, 0))
AB = Word((0, 1))
AAA = Word((0, 0, 0))


def bw(*words):
    return BarWord(tuple(words))


def added(*parts):
    """The sum of count dicts, key by key."""
    total = {}
    for part in parts:
        for key, c in part.items():
            total[key] = total.get(key, 0) + c
    return total


HALVES = (coproduct_left_terms, coproduct_right_terms)
MAPS = (coproduct_terms, *HALVES)


def test_coproduct_of_unit_is_grouplike():
    assert coproduct_terms(bar_id(UNIT)) == ((0, 0, 1),)
    assert reference.read_back(coproduct_terms(0)) == {(UNIT, UNIT): 1}


def test_coproduct_single_letter():
    got = reference.read_back(coproduct_terms(bar_id(lift(A))))
    assert got == {(lift(A), UNIT): 1, (UNIT, lift(A)): 1}


def test_coproduct_two_letters_by_hand():
    # subsets of positions {1,2} of ab: {} , {1}, {2}, {1,2}
    expect = {
        (UNIT, lift(AB)): 1,
        (lift(A), lift(B)): 1,
        (lift(B), lift(A)): 1,
        (lift(AB), UNIT): 1,
    }
    assert reference.read_back(coproduct_terms(bar_id(lift(AB)))) == expect


def test_coproduct_middle_extraction_leaves_two_components():
    # extracting the middle letter of aba leaves a|a on the right leg
    got = reference.read_back(coproduct_terms(bar_id(lift(Word((0, 1, 0))))))
    assert got[(lift(B), bw(A, A))] == 1


def test_coproduct_is_multiplicative_over_bars():
    # each map splits the first factor its own way, then multiplies by the
    # full coproduct of every later factor, from left to right
    for terms_of_id in MAPS:
        for u in all_barwords(2, 4):
            first, *rest = u
            expect = reference.read_back(terms_of_id(bar_id(lift(first))))
            for w in rest:
                later = reference.read_back(coproduct_terms(bar_id(lift(w))))
                expect = bar_product(expect, later)
            got = reference.read_back(terms_of_id(bar_id(u)))
            assert got == expect, (terms_of_id.__name__, u)


def test_coproduct_coefficients_are_positive_ints():
    # forms.Conv sums c * f(x) * g(y) in integers, which needs int c; and
    # since no sum of positive counts cancels, no map needs to prune zeros
    for u in all_barwords(2, 4, include_unit=True):
        for terms_of_id in MAPS if u else (coproduct_terms,):
            for x, y, c in terms_of_id(bar_id(u)):
                assert type(c) is int and c > 0, (terms_of_id.__name__, u, x, y, c)
    for w in all_words(2, 6):
        for q in range(1, w.degree + 1):
            for key, c in iterated_reduced_left(w, q).items():
                assert type(c) is int and c > 0, (q, w, key, c)


def test_half_coproducts_partition_the_full_one():
    for u in all_barwords(2, 4):
        i = bar_id(u)
        halves = [reference.read_back(terms_of_id(i)) for terms_of_id in HALVES]
        assert added(*halves) == reference.read_back(coproduct_terms(i))


def test_half_coproducts_reject_the_unit():
    for terms_of_id in HALVES:
        with pytest.raises(ValueError):
            terms_of_id(bar_id(UNIT))


def test_left_half_always_keeps_first_letter():
    for u in all_barwords(2, 4):
        first = u[0][0]
        for x, _, _ in coproduct_left_terms(bar_id(u)):
            assert x
            assert BARWORDS[x][0][0] == first


def test_right_half_never_extracts_first_letter():
    for u in all_barwords(2, 4):
        first_factor = u[0]
        for _, y, _ in coproduct_right_terms(bar_id(u)):
            assert y
            # the first factor's leading letter stays on the right leg
            assert BARWORDS[y][0][0] == first_factor[0]


def test_reduced_variants_drop_unit_legs():
    # the terms that verify's reduced maps skip: u (x) unit and unit (x) u
    # in the full coproduct, each once, and one of them in each half
    for u in all_barwords(2, 3):
        u_unit, unit_u = {(u, UNIT): 1}, {(UNIT, u): 1}
        for terms_of_id, ends in (
            (coproduct_terms, (u_unit, unit_u)),
            (coproduct_left_terms, (u_unit,)),
            (coproduct_right_terms, (unit_u,)),
        ):
            terms = terms_of_id(bar_id(u))
            both = reference.read_back(term for term in terms if term[0] and term[1])
            assert added(both, *ends) == reference.read_back(terms), (terms_of_id.__name__, u)


# The reduced linearised coproduct is the q = 2 iteration.


def test_reduced_linearised_cube_by_hand():
    # interval splittings of aaa with non-trivial middle: the outer part
    # keeps its letters in place, so the coefficients are 3 and 2
    expect = {(AA, A): 3, (A, AA): 2}
    assert iterated_reduced_left(AAA, 2) == expect


def test_reduced_linearised_mixed_letters():
    got = iterated_reduced_left(Word((0, 1, 2)), 2)
    expect = {
        (Word((1, 2)), A): 1,
        (Word((0, 2)), B): 1,
        (Word((0, 1)), Word((2,))): 1,
        (Word((2,)), AB): 1,
        (A, Word((1, 2))): 1,
    }
    assert got == expect


def test_iterated_reduced_left_matches_the_interval_loop():
    # the terms read off the full coproduct against the interval loop of
    # tests/coproducts_reference.py, at q = 2 and at every depth
    for w in [*all_words(2, 6), *(Word(range(n)) for n in range(1, 8))]:
        if w.degree > 1:
            assert iterated_reduced_left(w, 2) == reference.reduced_linearised(w), w
        for q in range(1, w.degree + 1):
            assert iterated_reduced_left(w, q) == reference.iterated_reduced_left(w, q), (w, q)


def test_iterated_reduced_left_full_depth_is_factorial():
    for n in range(1, 7):
        got = iterated_reduced_left(Word((0,) * n), n)
        assert got == {(A,) * n: factorial(n)}


def test_iterated_reduced_left_is_identity_at_depth_one():
    w = Word((0, 1, 0))
    assert iterated_reduced_left(w, 1) == {(w,): 1}


def test_iterated_reduced_left_rejects_bad_depth():
    with pytest.raises(ValueError):
        iterated_reduced_left(AAA, 0)
    with pytest.raises(ValueError):
        iterated_reduced_left(AAA, 4)


def assert_coassociative(u):
    # (delta (x) id) delta = (id (x) delta) delta, on id triples
    left = {}
    right = {}
    for x, y, c in coproduct_terms(bar_id(u)):
        for p, q, d in coproduct_terms(x):
            key = (p, q, y)
            left[key] = left.get(key, 0) + c * d
        for p, q, d in coproduct_terms(y):
            key = (x, p, q)
            right[key] = right.get(key, 0) + c * d
    assert left == right


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
    i = bar_id(u)
    halves = [reference.read_back(terms_of_id(i)) for terms_of_id in HALVES]
    assert added(*halves) == reference.read_back(coproduct_terms(i))


# The split from its definition, by 1-based position sets: the oracle for
# the mask walk in `coproducts`.


def subword(w, positions):
    """Letters of w at the given 1-based positions, in increasing order."""
    taken = sorted(set(positions))
    n = len(w)
    if taken and not (1 <= taken[0] and taken[-1] <= n):
        raise ValueError(f"positions {taken} out of range for a degree-{n} word")
    return Word(w[p - 1] for p in taken)


def complement_components(w, positions):
    """The bar-word of maximal runs of w left when `positions` are removed."""
    taken = set(positions)
    n = len(w)
    if taken and not all(1 <= p <= n for p in taken):
        raise ValueError(f"positions {sorted(taken)} out of range for a degree-{n} word")
    runs = []
    current = []
    for p in range(1, n + 1):
        if p in taken:
            if current:
                runs.append(Word(current))
                current = []
        else:
            current.append(w[p - 1])
    if current:
        runs.append(Word(current))
    return BarWord(runs)


def split_by_position_sets(w, keep):
    """One (subword, complement runs) term per position set S with keep(S)."""
    n = len(w)
    terms = []
    for size in range(n + 1):
        for positions in itertools.combinations(range(1, n + 1), size):
            if keep(positions):
                key = (lift(subword(w, positions)), complement_components(w, positions))
                terms.append({key: 1})
    return added(*terms)


one_factor_words = st.integers(1, 3).flatmap(
    lambda n_letters: st.lists(st.integers(0, n_letters - 1), min_size=1, max_size=7)
).map(Word)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(one_factor_words)
def test_one_factor_splits_match_the_position_set_definition(w):
    i = bar_id(lift(w))
    for terms_of_id, keep in ID_TERM_MAPS:
        got = reference.read_back(terms_of_id(i))
        assert got == split_by_position_sets(w, keep), terms_of_id.__name__


# The bar-word registry and the id terms the three maps cache.


def bar_product(s, t):
    """Componentwise bar-concatenation of two leg-pair count dicts, written
    on bar-words: the oracle for the product on ids."""
    total = {}
    for (x1, y1), c1 in s.items():
        for (x2, y2), c2 in t.items():
            key = (bar_concat(x1, x2), bar_concat(y1, y2))
            total[key] = total.get(key, 0) + c1 * c2
    return total


def slice_formula(u, keep_first):
    """A map on u from the position-set definition: the first factor split
    by the sets that keep_first admits, every later factor by all sets."""
    first, *rest = u
    out = split_by_position_sets(first, keep_first)
    for w in rest:
        out = bar_product(out, split_by_position_sets(w, lambda s: True))
    return out


ID_TERM_MAPS = (
    (coproduct_terms, lambda s: True),
    (coproduct_left_terms, lambda s: 1 in s),
    (coproduct_right_terms, lambda s: 1 not in s),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(barwords(), barwords())
def test_registry_ids_and_id_terms_match_the_slice_formula(u, v):
    assert bar_id(UNIT) == 0 and BARWORDS[0] == UNIT
    # equal bar-words share an id, and an id names one bar-word, so
    # distinct bar-words get distinct ids
    assert bar_id(BarWord(list(u))) == bar_id(u)
    assert BARWORDS[bar_id(u)] == u and BARWORDS[bar_id(v)] == v
    assert (bar_id(u) == bar_id(v)) == (u == v)
    for terms_of_id, keep_first in ID_TERM_MAPS:
        read_back = {}
        for x, y, c in terms_of_id(bar_id(u)):
            assert (BARWORDS[x], BARWORDS[y]) not in read_back
            read_back[BARWORDS[x], BARWORDS[y]] = c
        assert read_back == slice_formula(u, keep_first), (terms_of_id.__name__, u)


def test_the_registry_refuses_a_word():
    with pytest.raises(TypeError):
        bar_id(Word((0, 1)))


def test_verify_caches_int_triples_and_registers_each_bar_word_once():
    for terms_of_id, _ in ID_TERM_MAPS:
        terms_of_id.cache_clear()
    assert verify_suite(4, 2).ok
    sizes = [terms_of_id.cache_info().currsize for terms_of_id, _ in ID_TERM_MAPS]
    # every bar-word that verify reaches is probed; the probes add no entry,
    # so each was cached, and as many were probed as are cached
    bars = list(all_barwords(2, 4, include_unit=True))
    probed = []
    for terms_of_id, _ in ID_TERM_MAPS:
        ids = [bar_id(u) for u in bars if u or terms_of_id is coproduct_terms]
        probed.append(len(ids))
        for i in ids:
            for term in terms_of_id(i):
                assert type(term) is tuple and len(term) == 3, term
                assert all(type(n) is int for n in term), term
    assert [terms_of_id.cache_info().currsize for terms_of_id, _ in ID_TERM_MAPS] == sizes
    assert probed == sizes
    assert all(type(u) is BarWord for u in BARWORDS)
    assert len(set(BARWORDS)) == len(BARWORDS)
    assert [bar_id(u) for u in BARWORDS] == list(range(len(BARWORDS)))


# The id terms against the bit-by-bit mask walk of tests/coproducts_reference.py.

REFERENCE_MAPS = (
    (coproduct_terms, reference.coproduct_terms),
    (coproduct_left_terms, reference.coproduct_left_terms),
    (coproduct_right_terms, reference.coproduct_right_terms),
)


def assert_terms_match_the_mask_walk(u):
    i = bar_id(u)
    for terms_of_id, walked in REFERENCE_MAPS:
        if i or terms_of_id is coproduct_terms:
            # the same terms in the same order: ids are registered in the
            # order the masks meet them
            assert terms_of_id(i) == walked(i), (terms_of_id.__name__, u)


@pytest.mark.parametrize("n_letters, max_degree", [(2, 5), (1, 8), (3, 4)])
def test_id_terms_match_the_mask_walk_on_every_bar_word(n_letters, max_degree):
    # the sizes of the benchmark's verify jobs
    for u in all_barwords(n_letters, max_degree, include_unit=True):
        assert_terms_match_the_mask_walk(u)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(barwords(n_letters=3, max_degree=10))
def test_id_terms_match_the_mask_walk_up_to_degree_10(u):
    assert_terms_match_the_mask_walk(u)


@pytest.mark.parametrize("degree", [11, 12])
@pytest.mark.parametrize("letters", [(0,), (0, 1)], ids=["one-letter", "two-alternating"])
def test_id_terms_match_the_mask_walk_at_the_top_convert_degrees(letters, degree):
    # `convert` splits words up to degree 12, past the sampled range above
    w = Word(tuple(letters[i % len(letters)] for i in range(degree)))
    assert_terms_match_the_mask_walk(lift(w))


@contextlib.contextmanager
def cold_registry():
    """The registry as a fresh process starts it, holding the unit alone,
    with the id-term caches and the concatenation table empty; the
    package's own come back afterwards, and the caches, which would name
    the ids given here, are emptied again."""
    saved = list(BARWORDS), dict(coproducts._IDS), dict(coproducts._CONCATS)
    tables = (BARWORDS, coproducts._IDS, coproducts._CONCATS)

    def refill(barwords, ids, concats):
        for terms_of_id, _ in REFERENCE_MAPS:
            terms_of_id.cache_clear()
        for table in tables:
            table.clear()
        BARWORDS.extend(barwords)
        coproducts._IDS.update(ids)
        coproducts._CONCATS.update(concats)

    refill([UNIT], {UNIT: 0}, {})
    try:
        yield
    finally:
        refill(*saved)


def assert_the_registry_holds_bar_words_of_words():
    assert all(type(u) is BarWord for u in BARWORDS)
    assert all(type(w) is Word for u in BARWORDS for w in u)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.lists(st.integers(0, 2), min_size=2, max_size=9).filter(
        lambda letters: len(set(letters)) < len(letters)
    )
)
def test_split_looks_legs_up_from_a_cold_and_a_warm_registry(letters):
    # a word with a repeated letter meets equal legs at several masks
    u = lift(Word(letters))
    for terms_of_id, walked in REFERENCE_MAPS:
        # cold: every leg is built and registered the first time it is met
        with cold_registry():
            i = bar_id(u)
            assert terms_of_id(i) == walked(i), (terms_of_id.__name__, u)
            assert_the_registry_holds_bar_words_of_words()
        # warm: the mask walk has registered every leg, so each is found
        i = bar_id(u)
        expected = walked(i)
        count = len(BARWORDS)
        terms_of_id.cache_clear()
        assert terms_of_id(i) == expected, (terms_of_id.__name__, u)
        assert len(BARWORDS) == count
    assert_the_registry_holds_bar_words_of_words()


def test_mask_shapes_spell_the_extracted_positions_and_runs():
    # every degree that `convert` splits
    for n in range(CONVERT_DEGREE_CAP + 1):
        taken, runs = coproducts._mask_shapes(n)
        assert len(taken) == len(runs) == 1 << n
        for mask, (positions, gaps) in enumerate(zip(taken, runs)):
            kept = [i for i in range(n) if not mask >> i & 1]
            assert list(positions) == [i for i in range(n) if mask >> i & 1]
            assert [i for a, b in zip(gaps[::2], gaps[1::2]) for i in range(a, b)] == kept
            # maximal runs: none is empty, and none ends where the next begins
            assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_concatenation_ids_are_the_ids_of_the_concatenations():
    assert verify_suite(4, 2).ok  # fills the concatenation table
    assert coproducts._CONCATS
    for (a, b), i in coproducts._CONCATS.items():
        assert a and b
        assert i == bar_id(bar_concat(BARWORDS[a], BARWORDS[b])) == reference.concat(a, b)
    bars = [bar_id(u) for u in all_barwords(2, 3, include_unit=True)]
    for a in bars:
        for b in bars:
            assert coproducts._concat(a, b) == reference.concat(a, b), (a, b)
