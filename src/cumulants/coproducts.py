"""Subset-extraction coproducts on words and bar-words.

The coproduct of a word a_1...a_n extracts the subword at a position set S
on the left and leaves the bar-word of maximal unextracted runs on the
right, one term per subset (2^n in total).  S is read as a mask whose bit
i - 1 is set when position i is extracted.  The masks of n positions
depend only on n, so each degree's mask shapes are built once, from those
of degree n - 1, and kept: the extracted positions and the (start, stop)
bounds of the unextracted runs of every mask, one bytes object each, in
mask order.  A word of
degree n is read through them, its left leg by mapping its letter lookup
over the positions and its right leg by slicing it at the runs, with no
loop over its letters.  On bar-words the coproduct extends multiplicatively,
multiplying legs by bar-concatenation, with the unit grouplike.  The half
variants split the terms by whether position 1 is extracted, which is the
mask's lowest bit:

    left half   keeps the odd masks, 1 in S (so the left leg never
                vanishes; includes the w (x) unit term),
    right half  keeps the even masks, 1 not in S (includes unit (x) w).

On multi-factor bar-words each map splits the first factor its own way and
multiplies by the full coproduct of the rest.  Both halves are undefined on
the unit.

Each distinct bar-word gets one dense int id the first time it is seen,
and `BARWORDS[i]` is the bar-word with id i.  The unit is id 0, so a leg
id is falsy exactly when the leg is the unit.  Only `BarWord` instances
are registered, since a word or a plain tuple may equal a bar-word
(EMPTY_WORD == UNIT); registering anything else raises TypeError.  Looking
one up is another matter: a word's splits probe the registry with the
plain tuples their legs equal, and build a `BarWord` of `Word`s only for
a leg that has no id yet.  The
full coproduct and its two halves are computed and cached on ids, as
`coproduct_terms`, `coproduct_left_terms` and `coproduct_right_terms`: a
tuple of (x id, y id, count) terms per bar-word id, each key once.  A
multi-factor product is composed on ids: the id of the concatenation of
two non-unit legs is kept per id pair, so a pair's legs are concatenated
and hashed only the first time it is met.  `forms.Conv` walks the id
terms and relies on the int counts to sum a product of forms over them in
integers.

The registry, the caches, the concatenation table and the mask shapes are
plain dicts and lists or `functools.cache`s that never shrink, which is
safe because inputs are degree-bounded in every pipeline.  On Python 3.11
the mask shapes of every degree up to 12 hold 0.45 MB (tracemalloc), and
the concatenation table holds 3044 pairs, 0.37 MB, after `verify` at
degree 6 on two letters, and 12 932 pairs, 1.5 MB, at degree 7.

The id terms are this module's only representation of the coproducts:
callers read a leg id back through `BARWORDS` themselves.  A count
numbers the masks that give its (x, y) pair, so no zero is ever stored and
equal pair-count dicts are equal sums.  `iterated_reduced_left` reads the
reduced linearised coproduct off the full one, as the terms whose legs
are both non-unit and whose right leg is one word, so `_split` is the
only code here that splits a word.  The cached results are shared, so
callers must treat them as read-only.
"""

from __future__ import annotations

import threading
from functools import cache

from .words import UNIT, BarWord, Word, bar_concat, lift

BARWORDS: list[BarWord] = [UNIT]  # id -> bar-word; read-only for callers
_IDS: dict[BarWord, int] = {UNIT: 0}  # bar-word -> id
_REGISTERING = threading.Lock()
# (a, b) -> the id of the bar-concatenation of the bar-words a and b, for
# non-unit a and b
_CONCATS: dict = {}


# Degree n -> the shapes of the masks of n positions, as a pair
# (taken, runs) of lists of 2^n bytes in mask order: mask m extracts the
# 0-based positions taken[m] and leaves the maximal unextracted runs
# runs[m], read as start, stop, start, stop, ...  Bytes, not tuples: up to
# degree 12 they hold 0.45 MB, where a tuple of positions and one of run
# slices per mask would hold 0.77 MB and raise the CLI's peak RSS by
# 2.6 MB on a degree-12 table.  A position below 256 is no limit, since
# 2^256 masks could never be listed.  Degree n is built from degree n - 1
# the first time it is read.
_MASKS: list = [([b""], [b""])]


def _mask_shapes(n: int) -> tuple:
    """The extracted positions and unextracted runs of every mask of n
    positions, in mask order.

    Degree last + 1 comes from degree last: mask m < 2^last keeps position
    last, extending its last run to it when it keeps last - 1 too (m below
    2^(last - 1)) and opening a run there otherwise, and mask m + 2^last
    keeps the runs of m and extracts last after the positions of m."""
    if len(_MASKS) <= n:
        with _REGISTERING:
            while len(_MASKS) <= n:
                last = len(_MASKS) - 1
                taken, runs = _MASKS[-1]
                quarter = (1 << last) >> 1
                extracted = bytes((last,))
                extended = bytes((last + 1,))
                opened = bytes((last, last + 1))
                _MASKS.append(
                    (
                        taken + [t + extracted for t in taken],
                        [r[:-1] + extended for r in runs[:quarter]]
                        + [r + opened for r in runs[quarter:]]
                        + runs,
                    )
                )
    return _MASKS[n]


def bar_id(u: BarWord) -> int:
    """The id of u, registering u on first sight; the unit is 0."""
    i = _IDS.get(u)
    if i is None:
        if type(u) is not BarWord:
            raise TypeError(f"only bar-words have ids, got {u!r}")
        i = _register(u)
    return i


def _register(u: BarWord) -> int:
    """The id of the bar-word u, given the next free id unless a racing
    thread has just registered it."""
    with _REGISTERING:
        i = _IDS.get(u)
        if i is None:
            i = _IDS[u] = len(BARWORDS)
            BARWORDS.append(u)
    return i


def _as_terms(counts: dict) -> tuple:
    """A dict from (x id, y id) to counts as (x id, y id, count) terms."""
    return tuple((x, y, c) for (x, y), c in counts.items())


def _concat(a: int, b: int) -> int:
    """The id of the bar-concatenation of the bar-words with ids a and b."""
    if not a:
        return b
    if not b:
        return a
    key = (a, b)
    i = _CONCATS.get(key)
    if i is None:
        i = _CONCATS[key] = bar_id(bar_concat(BARWORDS[a], BARWORDS[b]))
    return i


def _product(s, t) -> tuple:
    """Componentwise bar-concatenation of two id-term sequences."""
    acc: dict = {}
    for x1, y1, c1 in s:
        for x2, y2, c2 in t:
            key = (_concat(x1, x2), _concat(y1, y2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return _as_terms(acc)


def _split(uid: int, split_first, first_mask: int, step: int) -> tuple:
    """split_first on the first factor of bar-word uid times the coproduct
    of the rest, as id terms.

    On a one-factor bar-word this is one (extracted letters, unextracted
    runs) pair per mask in range(first_mask, 2^n, step), each read from the
    word through the mask's shape.  A bar-word equals the plain tuple of
    its words' letter tuples, so each leg is looked up in the registry as
    that tuple, and a `BarWord` of `Word`s is built only for a leg that has
    no id yet.
    """
    w, *rest = BARWORDS[uid]
    if rest:
        return _product(
            split_first(bar_id(lift(w))), coproduct_terms(bar_id(BarWord(rest)))
        )
    taken, runs = _mask_shapes(len(w))
    new = tuple.__new__
    ids = _IDS.get
    letter = w.__getitem__
    acc: dict = {}
    for positions, bounds in zip(taken[first_mask::step], runs[first_mask::step]):
        # only mask 0 extracts nothing, and its left leg is the unit.  The
        # probes are built through a list, which sizes a tuple exactly:
        # tuple() of an iterator makes 10 slots and shrinks them, so each
        # probe would be freed onto another size's free list, where up to
        # 2000 a size stay held (0.55 MB of left splits at one letter,
        # degree 12)
        if positions:
            letters = (*map(letter, positions),)
            x = ids((letters,))
            if x is None:
                x = _register(new(BarWord, (new(Word, letters),)))
        else:
            x = 0
        cuts = iter(bounds)
        factors = (*map(letter, map(slice, cuts, cuts)),)
        y = ids(factors)
        if y is None:
            y = _register(new(BarWord, [new(Word, f) for f in factors]))
        key = (x, y)
        acc[key] = acc.get(key, 0) + 1
    return _as_terms(acc)


@cache
def coproduct_terms(i: int) -> tuple:
    """The full coproduct of bar-word i as id terms; grouplike on the unit,
    multiplicative on factors."""
    if not i:
        return ((0, 0, 1),)
    return _split(i, coproduct_terms, 0, 1)


@cache
def coproduct_left_terms(i: int) -> tuple:
    """Left half-coproduct of bar-word i as id terms: first factor split
    with position 1 extracted."""
    if not i:
        raise ValueError("the half-coproducts are undefined on the unit bar-word")
    # Position 1 extracted: odd masks only.
    return _split(i, coproduct_left_terms, 1, 2)


@cache
def coproduct_right_terms(i: int) -> tuple:
    """Right half-coproduct of bar-word i as id terms: first factor split
    with position 1 kept."""
    if not i:
        raise ValueError("the half-coproducts are undefined on the unit bar-word")
    # Position 1 kept: even masks, the empty set included.
    return _split(i, coproduct_right_terms, 0, 2)


@cache
def iterated_reduced_left(w: Word, q: int) -> dict:
    """(q-1)-fold left iteration of the reduced linearised coproduct.

    The reduced linearised coproduct of w is the part of its coproduct
    whose legs are both non-unit and whose right leg is one word: a middle
    interval of w, with the outer letters, in place, on the left.  Keys
    are q-tuples of non-empty words; the interval extracted last sits in
    the final slot.  Defined for 1 <= q <= degree(w).
    """
    n = len(w)
    if not 1 <= q <= n:
        raise ValueError(f"q must be between 1 and the degree {n}, got {q}")
    if q == 1:
        return {(w,): 1}
    acc: dict = {}
    for x, y, c in coproduct_terms(bar_id(lift(w))):
        if not x or len(BARWORDS[y]) != 1:
            continue  # the unit (x) w term has a one-word right leg too
        rest, extracted = BARWORDS[x][0], BARWORDS[y][0]
        if rest.degree < q - 1:
            continue
        for head, d in iterated_reduced_left(rest, q - 1).items():
            key = head + (extracted,)
            acc[key] = acc.get(key, 0) + c * d
    return acc
