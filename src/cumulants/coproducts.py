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

All maps return plain dicts from a key to its positive int count: pairs of
bar-words, pairs of plain words for the reduced linearised variant, and
tuples of words for its iteration.  A count numbers the masks (or interval
splits) that give the key, so no zero is ever stored and dict equality is
equality of the sums.  The memoized maps return shared dicts, so callers
must treat results as read-only.  The caches are unbounded, which is safe
because inputs are degree-bounded in every pipeline.  `forms.Conv` relies
on the int counts to sum a product of forms over them in integers.
"""

from __future__ import annotations

from functools import cache

from .words import UNIT, BarWord, Word, bar_concat, lift


def split_product(s: dict, t: dict) -> dict:
    """Componentwise bar-concatenation of two leg-pair count dicts."""
    acc: dict = {}
    for (x1, y1), c1 in s.items():
        for (x2, y2), c2 in t.items():
            key = (bar_concat(x1, x2), bar_concat(y1, y2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def _split(u: BarWord, split_first, first_mask: int, step: int) -> dict:
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
    return acc


@cache
def coproduct(u: BarWord) -> dict:
    """The full coproduct; grouplike on the unit, multiplicative on factors."""
    if u.is_unit:
        return {(UNIT, UNIT): 1}
    return _split(u, coproduct, 0, 1)


@cache
def coproduct_left(u: BarWord) -> dict:
    """Left half-coproduct: first factor split with position 1 extracted."""
    if u.is_unit:
        raise ValueError("the half-coproducts are undefined on the unit bar-word")
    # Position 1 extracted: odd masks only.
    return _split(u, coproduct_left, 1, 2)


@cache
def coproduct_right(u: BarWord) -> dict:
    """Right half-coproduct: first factor split with position 1 kept."""
    if u.is_unit:
        raise ValueError("the half-coproducts are undefined on the unit bar-word")
    # Position 1 kept: even masks, the empty set included.
    return _split(u, coproduct_right, 0, 2)


def _without_unit_legs(pairs: dict) -> dict:
    """The pairs whose legs are both non-unit: on a non-unit u the dropped
    ones are u (x) unit and unit (x) u, each counted once."""
    return {(x, y): c for (x, y), c in pairs.items() if x and y}


def coproduct_reduced(u: BarWord) -> dict:
    """Coproduct with both unit-leg terms removed; undefined on the unit."""
    if u.is_unit:
        raise ValueError("the reduced coproduct is undefined on the unit bar-word")
    return _without_unit_legs(coproduct(u))


def coproduct_left_reduced(u: BarWord) -> dict:
    """Left half with the u (x) unit term removed."""
    return _without_unit_legs(coproduct_left(u))


def coproduct_right_reduced(u: BarWord) -> dict:
    """Right half with the unit (x) u term removed."""
    return _without_unit_legs(coproduct_right(u))


@cache
def reduced_linearised(w: Word) -> dict:
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
    return acc


@cache
def iterated_reduced_left(w: Word, q: int) -> dict:
    """(q-1)-fold left iteration of the reduced linearised coproduct.

    Keys are q-tuples of non-empty words; the interval extracted last sits
    in the final slot.  Defined for 1 <= q <= degree(w).
    """
    n = len(w)
    if not 1 <= q <= n:
        raise ValueError(f"q must be between 1 and the degree {n}, got {q}")
    if q == 1:
        return {(w,): 1}
    acc: dict = {}
    for (rest, extracted), c in reduced_linearised(w).items():
        if rest.degree < q - 1:
            continue
        for head, d in iterated_reduced_left(rest, q - 1).items():
            key = head + (extracted,)
            acc[key] = acc.get(key, 0) + c * d
    return acc
