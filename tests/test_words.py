import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from cumulants.coproducts import coproduct, coproduct_left
from cumulants.words import (
    EMPTY_WORD,
    UNIT,
    BarWord,
    Word,
    all_barwords,
    all_words,
    bar_concat,
    barword_str,
    lift,
    word_str,
)


def test_word_basics():
    w = Word((0, 1, 0))
    assert w.degree == 3
    assert w == (0, 1, 0)
    assert Word(()) == EMPTY_WORD
    assert EMPTY_WORD.degree == 0


def test_word_ordering_is_degree_then_lex():
    # degree dominates: 'b' < 'aa' even though lexicographically it would not
    assert Word((1,)) < Word((0, 0))
    assert Word((0, 1)) < Word((1, 0))
    ws = sorted([Word((1, 0)), Word((0,)), Word((0, 0)), Word((1,))])
    assert ws == [Word((0,)), Word((1,)), Word((0, 0)), Word((1, 0))]
    # the reflected comparisons are degree first too, not the tuple's order
    assert Word((0, 0)) > Word((1,)) and Word((0, 0)) >= Word((1,))
    assert max([Word((1,)), Word((0, 0))]) == Word((0, 0))


def test_barword_drops_empty_factors():
    u = BarWord((Word((0,)), EMPTY_WORD, Word((1, 1))))
    assert u == (Word((0,)), Word((1, 1)))
    assert u.degree == 3
    assert BarWord((EMPTY_WORD, EMPTY_WORD)) == UNIT
    assert UNIT.is_unit and not u.is_unit


def test_bar_concat_is_associative_with_unit():
    a = lift(Word((0,)))
    b = lift(Word((1, 0)))
    assert bar_concat(a, UNIT) == a
    assert bar_concat(UNIT, b) == b
    assert bar_concat(bar_concat(a, b), a) == bar_concat(a, bar_concat(b, a))


def test_subword_uses_one_based_positions():
    # the coproduct extracts the subword at each set of the 1-based
    # positions 1..4 onto its left leg, once per set
    w = Word((0, 1, 2, 3))
    terms = dict(coproduct(lift(w)).items())
    assert terms[(lift(Word((0, 2))), BarWord((Word((1,)), Word((3,)))))] == 1
    assert terms[(lift(Word((3,))), lift(Word((0, 1, 2))))] == 1
    # positions are a set, {3, 1, 3} = {1, 3}, and none lies outside 1..4
    # (no 0 or 5): the left legs are the 2^4 subsequences of w, each once
    subsequences = {
        lift(Word(c)) for k in range(5) for c in itertools.combinations(w, k)
    }
    assert sorted(x for x, _ in terms) == sorted(subsequences)
    assert set(terms.values()) == {1}


def test_complement_components_splits_into_runs():
    w = Word((0, 1, 2, 3, 4))
    # extracting positions 1 and 4 leaves the runs 23 and 5 on the right leg;
    # position 1 is extracted, so the term lies in the left half
    key = (lift(Word((0, 3))), BarWord((Word((1, 2)), Word((4,)))))
    terms = dict(coproduct(lift(w)).items())
    assert terms[key] == 1
    assert dict(coproduct_left(lift(w)).items())[key] == 1
    # extracting every position leaves the unit, extracting none leaves w
    assert terms[(lift(w), UNIT)] == 1
    assert terms[(UNIT, lift(w))] == 1


def test_all_words_counts_and_order():
    ws = list(all_words(2, 3))
    assert len(ws) == 2 + 4 + 8
    assert ws[0] == Word((0,))
    assert ws == sorted(ws)
    assert [w.degree for w in ws] == sorted(w.degree for w in ws)


def test_all_barwords_counts():
    # compositions of n into k parts give 2**(n-1) barwords per degree n,
    # times the letter choices
    bars = list(all_barwords(1, 3))
    assert len(bars) == 1 + 2 + 4
    assert list(all_barwords(1, 3, include_unit=True))[0] == UNIT


def test_display_forms():
    assert word_str(Word((0, 1, 0))) == "aba"
    assert barword_str(BarWord((Word((0,)), Word((1, 1))))) == "a|bb"
    assert barword_str(UNIT) == "1"
    assert word_str(Word((0, 1)), names=("x1", "x2")) == "x1.x2"


# derandomize keeps the examples the same from run to run.
_PROPERTY = settings(derandomize=True, database=None, max_examples=60)

words = st.lists(st.integers(0, 2), max_size=4).map(Word)
barwords = st.lists(words, max_size=4).map(BarWord)


def degree_first(u):
    """The canonical order, written out: degree, then the factor count and
    the factors of a bar-word, or the letters of a word."""
    if isinstance(u, BarWord):
        return (u.degree, len(u), tuple(degree_first(w) for w in u))
    return (len(u), tuple(u))


@_PROPERTY
@given(st.lists(words, min_size=1, max_size=8) | st.lists(barwords, min_size=1, max_size=8))
def test_every_comparison_follows_the_degree_first_order(items):
    for a in items:
        for b in items:
            ka, kb = degree_first(a), degree_first(b)
            assert (a < b, a > b, a <= b, a >= b) == (ka < kb, ka > kb, ka <= kb, ka >= kb)
    assert sorted(items) == sorted(items, key=degree_first)
    assert min(items) == min(items, key=degree_first)
    assert max(items) == max(items, key=degree_first)


@_PROPERTY
@given(words, barwords)
def test_equality_and_hash_are_the_plain_tuples(w, u):
    assert w == tuple(w) and hash(w) == hash(tuple(w))
    plain = tuple(tuple(x) for x in u)
    assert u == plain and hash(u) == hash(plain)
    assert {w: 1}[tuple(w)] == 1


@_PROPERTY
@given(st.lists(words, max_size=6))
def test_empty_factors_are_dropped(ws):
    u = BarWord(ws)
    assert u == BarWord(w for w in ws if w)
    assert EMPTY_WORD not in u
    assert u.degree == sum(w.degree for w in ws)
    assert u.is_unit == (u == UNIT)


@_PROPERTY
@given(words.filter(len))
def test_a_lifted_word_is_not_the_word(w):
    assert lift(w) != w
    assert lift(w) == (w,)


def test_the_empty_word_the_unit_and_the_empty_tuple_are_equal():
    # which is why words and bar-words never share a container
    assert EMPTY_WORD == UNIT == () == lift(EMPTY_WORD)
