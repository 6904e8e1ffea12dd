"""Subset-extraction coproducts on words and bar-words.

The coproduct of a word a_1...a_n extracts the subword at a position set S
on the left and leaves the bar-word of maximal unextracted runs on the
right, one term per subset (2^n in total).  S is read as a mask whose bit
i - 1 is set when position i is extracted, and one walk over the letters
builds both legs.  On bar-words the coproduct extends multiplicatively,
multiplying legs by bar-concatenation, with the unit grouplike.  The half
variants split the terms by whether position 1 is extracted, which is the
mask's lowest bit:

    left half   keeps the odd masks, 1 in S (so the left leg never
                vanishes; includes the w (x) unit term),
    right half  keeps the even masks, 1 not in S (includes unit (x) w).

On multi-factor bar-words each map splits the first factor its own way and
multiplies by the full coproduct of the rest.  Both halves are undefined on
the unit.

All maps return shared, memoized LinComb values over pairs of bar-words
(pairs of plain words for the reduced linearised variant), so callers must
treat results as immutable.  The caches are unbounded, which is safe
because inputs are degree-bounded in every pipeline.

Every coefficient of coproduct, coproduct_left and coproduct_right is a
positive int (a count of masks), the unit's included; `forms.Conv` relies on
this to sum a product of forms over them in integers.
"""

from __future__ import annotations

from functools import cache

from .lincomb import LinComb
from .words import UNIT, BarWord, Word, bar_concat, lift


def split_product(s: LinComb, t: LinComb) -> LinComb:
    """Componentwise bar-concatenation of two leg-pair combinations.

    The factors must have positive coefficients, as the coproducts and their
    halves do, so no sum cancels and no zero needs pruning.
    """
    acc: dict = {}
    for (x1, y1), c1 in s.items():
        for (x2, y2), c2 in t.items():
            key = (bar_concat(x1, x2), bar_concat(y1, y2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return LinComb._raw(acc)


def _split(u: BarWord, split_first, first_mask: int, step: int) -> LinComb:
    """split_first on the first factor of u times the coproduct of the rest.

    On a one-factor bar-word this is one (extracted letters, unextracted
    runs) pair per mask in range(first_mask, 2^n, step), each built in one
    walk over the letters.
    """
    w, *rest = u
    if rest:
        return split_product(split_first(lift(w)), coproduct(BarWord(rest)))
    n = len(w)
    acc: dict = {}
    for mask in range(first_mask, 1 << n, step):
        taken = []
        runs = []
        start = 0  # where the current unextracted run began
        for i, letter in enumerate(w):
            if mask >> i & 1:
                taken.append(letter)
                if start < i:
                    runs.append(Word(w[start:i]))
                start = i + 1
        if start < n:
            runs.append(Word(w[start:]))
        key = (lift(Word(taken)), BarWord(runs))
        acc[key] = acc.get(key, 0) + 1
    return LinComb._raw(acc)


@cache
def coproduct(u: BarWord) -> LinComb:
    """The full coproduct; grouplike on the unit, multiplicative on factors."""
    if u.is_unit:
        return LinComb.term((UNIT, UNIT), 1)
    return _split(u, coproduct, 0, 1)


@cache
def coproduct_left(u: BarWord) -> LinComb:
    """Left half-coproduct: first factor split with position 1 extracted."""
    if u.is_unit:
        raise ValueError("the half-coproducts are undefined on the unit bar-word")
    # Position 1 extracted: odd masks only.
    return _split(u, coproduct_left, 1, 2)


@cache
def coproduct_right(u: BarWord) -> LinComb:
    """Right half-coproduct: first factor split with position 1 kept."""
    if u.is_unit:
        raise ValueError("the half-coproducts are undefined on the unit bar-word")
    # Position 1 kept: even masks, the empty set included.
    return _split(u, coproduct_right, 0, 2)


def coproduct_reduced(u: BarWord) -> LinComb:
    """Coproduct with both unit-leg terms removed; undefined on the unit."""
    if u.is_unit:
        raise ValueError("the reduced coproduct is undefined on the unit bar-word")
    return coproduct(u) - LinComb([((u, UNIT), 1), ((UNIT, u), 1)])


def coproduct_left_reduced(u: BarWord) -> LinComb:
    """Left half with the u (x) unit term removed."""
    return coproduct_left(u) - LinComb.term((u, UNIT))


def coproduct_right_reduced(u: BarWord) -> LinComb:
    """Right half with the unit (x) u term removed."""
    return coproduct_right(u) - LinComb.term((UNIT, u))


@cache
def reduced_linearised(w: Word) -> LinComb:
    """Middle-interval extraction with single-word legs.

    Splits [1..n] into consecutive intervals I1, I2, I3 with I2 non-empty
    and I1 u I3 non-empty; each split contributes the pair (word on I1 then
    I3, word on I2).  Keys are (Word, Word) pairs.
    """
    n = len(w)
    acc: dict = {}
    for i in range(n + 1):  # I1 = positions 1..i
        for j in range(i + 1, n + 1):  # I2 = positions i+1..j
            if i == 0 and j == n:
                continue
            key = (Word(w[:i] + w[j:]), Word(w[i:j]))
            acc[key] = acc.get(key, 0) + 1
    return LinComb._raw(acc)


@cache
def iterated_reduced_left(w: Word, q: int) -> LinComb:
    """(q-1)-fold left iteration of the reduced linearised coproduct.

    Keys are q-tuples of non-empty words; the interval extracted last sits
    in the final slot.  Defined for 1 <= q <= degree(w).
    """
    n = len(w)
    if not 1 <= q <= n:
        raise ValueError(f"q must be between 1 and the degree {n}, got {q}")
    if q == 1:
        return LinComb.term((w,))
    acc: dict = {}
    for (rest, extracted), c in reduced_linearised(w).items():
        if rest.degree < q - 1:
            continue
        for head, d in iterated_reduced_left(rest, q - 1).items():
            key = head + (extracted,)
            value = acc.get(key, 0) + c * d
            if value:
                acc[key] = value
            elif key in acc:
                del acc[key]
    return LinComb._raw(acc)
