"""Words over an integer alphabet and bar-words.

Letters are plain non-negative ints.  A Word is a finite sequence of letters;
a BarWord w1|w2|...|wk is a sequence of non-empty words, with the empty
sequence acting as the unit.  Both are tuples, a Word of its letters and a
BarWord of its words, and they equal and hash like the plain tuples; only
their order differs (degree first).  So EMPTY_WORD == UNIT == (), and a
one-factor bar-word equals the 1-tuple of its word: keep words, bar-words
and tuples of words in separate containers.  Everything here is immutable
and safe to share between threads.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .errors import IncompleteTableError

_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


class _Graded(tuple):
    """A tuple ordered by its class's `_key`, degree first, instead of
    lexicographically.  All four comparisons read the same key, so they
    agree with each other; equality and hashing stay the tuple's."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return self._key() < other._key()

    def __le__(self, other) -> bool:
        return self._key() <= other._key()

    def __gt__(self, other) -> bool:
        return self._key() > other._key()

    def __ge__(self, other) -> bool:
        return self._key() >= other._key()


class Word(_Graded):
    """A word a_{i1} a_{i2} ... a_{in}: the tuple of its letters.

    It equals and hashes like that plain tuple, so a letter slice looks up
    a word-keyed table directly.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self)

    def _key(self):
        # Degree first, then letter sequence: the canonical output order.
        return (len(self), tuple(self))

    def __repr__(self) -> str:
        return f"Word({word_str(self)})"


class BarWord(_Graded):
    """w1|...|wk, the tuple of its non-empty words.

    Empty factors are dropped on construction, so w1|1|w2 and w1|w2 denote
    the same value; the empty factor sequence is the algebra unit.
    """

    __slots__ = ()

    def __new__(cls, factors: Iterable[Word] = ()):
        return super().__new__(cls, [w for w in factors if w])

    @property
    def degree(self) -> int:
        return sum(map(len, self))

    @property
    def is_unit(self) -> bool:
        return not self

    def _key(self):
        return (self.degree, len(self), tuple(w._key() for w in self))

    def __repr__(self) -> str:
        return f"BarWord({barword_str(self)})"


EMPTY_WORD = Word()
UNIT = BarWord()


def lift(w: Word) -> BarWord:
    """The single-factor bar-word |w| (the unit if w is empty)."""
    return BarWord((w,))


def bar_concat(a: BarWord, b: BarWord) -> BarWord:
    """Concatenation of factor sequences, the product of the bar algebra."""
    # Neither side holds an empty factor, so there is nothing to drop.
    return tuple.__new__(BarWord, a + b)


def all_words(n_letters: int, max_degree: int) -> Iterator[Word]:
    """All words over letters 0..n_letters-1, by degree then lexicographic."""
    if n_letters < 1:
        raise ValueError("alphabet must have at least one letter")
    for degree in range(1, max_degree + 1):
        for letters in itertools.product(range(n_letters), repeat=degree):
            yield Word(letters)


def total_table(
    values, n_letters: int, max_degree: int, missing: Callable[[Word], str]
) -> dict[Word, Fraction]:
    """`values` as Fractions on every word up to the bound, and on no other key.

    The first absent word, in degree order, raises IncompleteTableError with
    the message missing(word).  Any other key raises ValueError naming one
    of them: the least when all are Words, else the first given.
    """
    given = dict(values)
    table: dict[Word, Fraction] = {}
    for w in all_words(n_letters, max_degree):
        try:
            v = given.pop(w)
        except KeyError:
            raise IncompleteTableError(missing(w), word=w) from None
        table[w] = v if type(v) is Fraction else Fraction(v)
    if given:
        stray = list(given)
        bad = min(stray) if all(isinstance(k, Word) for k in stray) else stray[0]
        raise ValueError(f"table entry {bad!r} is outside the alphabet or bound")
    return table


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Ordered sequences of positive parts summing to n (2^(n-1) of them)."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def all_barwords(
    n_letters: int, max_degree: int, include_unit: bool = False
) -> Iterator[BarWord]:
    """All bar-words of degree 1..max_degree, optionally preceded by the unit."""
    if include_unit:
        yield UNIT
    for degree in range(1, max_degree + 1):
        for parts in compositions(degree):
            for letters in itertools.product(range(n_letters), repeat=degree):
                factors = []
                at = 0
                for part in parts:
                    factors.append(Word(letters[at : at + part]))
                    at += part
                yield BarWord(factors)


def word_str(w: Word, names: Iterable[str] = _DEFAULT_NAMES) -> str:
    """Human-readable form of a word; the empty word prints as 1."""
    names = tuple(names)
    if not w:
        return "1"
    if all(i < len(names) for i in w) and all(len(n) == 1 for n in names):
        return "".join(names[i] for i in w)
    return ".".join(names[i] if i < len(names) else f"<{i}>" for i in w)


def barword_str(u: BarWord, names: Iterable[str] = _DEFAULT_NAMES) -> str:
    """Human-readable form of a bar-word; the unit prints as 1."""
    if u.is_unit:
        return "1"
    names = tuple(names)
    return "|".join(word_str(w, names) for w in u)
