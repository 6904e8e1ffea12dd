"""Subset-extraction coproducts on words and bar-words.

The coproduct of a word a_1...a_n extracts the subword at a position set S
on the left and leaves the bar-word of maximal unextracted runs on the
right, one term per subset (2^n in total).  S is read as a mask whose bit
i - 1 is set when position i is extracted.  The masks of n positions
depend only on n, so each degree's mask shapes are built once, from those
of degree n - 1, and kept: the extracted positions and the (start, stop)
bounds of the unextracted runs of every mask in mask order.  A word of
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
the mask shapes of every degree up to 12 hold 0.17 MB (tracemalloc), and
the concatenation table holds 3044 pairs, 0.37 MB, after `verify` at
degree 6 on two letters, and 12 932 pairs, 1.5 MB, at degree 7.

The bar-word maps `coproduct`, `coproduct_left`, `coproduct_right` and
their reduced variants read the id terms back into a fresh dict from a
pair of bar-words to its positive int count; the reduced linearised
variant returns pairs of plain words, and its iteration tuples of words.
A count numbers the masks (or interval splits) that give the key, so no
zero is ever stored and dict equality is equality of the sums.  The
word-level maps are memoized and return shared dicts, so callers must
treat those results as read-only.
"""

from __future__ import annotations

import struct
import sys
import threading
from functools import cache

from .words import UNIT, BarWord, Word, bar_concat, lift

BARWORDS: list[BarWord] = [UNIT]  # id -> bar-word; read-only for callers
_IDS: dict[BarWord, int] = {UNIT: 0}  # bar-word -> id
_REGISTERING = threading.Lock()
# (a, b) -> the id of the bar-concatenation of the bar-words a and b, for
# non-unit a and b
_CONCATS: dict = {}


_UINT = struct.Struct("I")  # an offset: a native unsigned int, as memoryview "I"


def _uints(data: bytes) -> memoryview:
    """Packed offsets read as unsigned ints."""
    return memoryview(data).cast("I")


def _repeated(value: int, count: int) -> bytes:
    """count offsets, each value."""
    return _UINT.pack(value) * count


def _added(*buffers) -> bytes:
    """The elementwise sum of equally long buffers of offsets, as the sum
    of the integers that their bytes spell: no element of the sum reaches
    2^32, so no carry crosses into the next element.  No int is made per
    element, so a degree's offsets are added with no loop in Python."""
    total = sum(int.from_bytes(b, sys.byteorder) for b in buffers)
    return total.to_bytes(memoryview(buffers[0]).nbytes, sys.byteorder)


def _ramp(count: int) -> bytes:
    """The offsets 1, 2, ..., count."""
    ramp = _repeated(1, 1)
    while len(ramp) < count * _UINT.size:
        done = len(ramp) // _UINT.size
        ramp += _added(ramp, _repeated(done, done))
    return ramp[: count * _UINT.size]


# Degree n -> the shapes of the masks of n positions, packed as
# (taken, taken_at, runs, runs_at): mask m extracts the 0-based positions
# taken[taken_at[m]:taken_at[m + 1]] and leaves the maximal unextracted
# runs runs[runs_at[m]:runs_at[m + 1]], read as start, stop, start, stop,
# ...  Each is one bytes buffer and one buffer of unsigned int offsets
# per degree, read through a memoryview rather than an array.array, whose
# extension module would add to every start-up: up to degree 12 they hold
# 0.17 MB, where a tuple of positions and one of run slices per mask would
# hold 0.77 MB.  A position below 256 is no limit, since 2^256 masks could
# never be listed.  Degree n is built from degree n - 1 the first time it
# is read (see `_grown`).
_MASKS: list = [(b"", _uints(_repeated(0, 2)), b"", _uints(_repeated(0, 2)))]


def _grown(last: int, taken, taken_at, runs, runs_at) -> tuple:
    """The mask shapes of last + 1 positions from those of last positions,
    with no loop over the masks: mask m < 2^last keeps position last,
    extending its last run to it or opening a run there, and mask
    m + 2^last keeps the runs of m and extracts last after the positions
    of m.  Each step rewrites a block of masks whose last byte is a
    position that no other byte of theirs names, with one replace."""
    half = 1 << last
    quarter = half >> 1  # the masks below it keep last - 1
    # masks m + half: the masks from 2^j to 2^(j + 1) extract j last
    extracted = [bytes((last,))]  # mask 0 extracts nothing
    for j in range(last):
        block = taken[taken_at[1 << j] : taken_at[2 << j]]
        extracted.append(block.replace(bytes((j,)), bytes((j, last))))
    new_taken = b"".join((taken, *extracted))
    # the masks from half on follow the len(taken) bytes below half, each
    # one byte longer than its mask m
    extracted_at = _added(taken_at[1:], _ramp(half), _repeated(len(taken), half))
    new_taken_at = _uints(b"".join((taken_at, extracted_at)))
    # masks m < quarter: the last run stops at last, which becomes last + 1
    kept = [runs[: runs_at[quarter]].replace(bytes((last,)), bytes((last + 1,)))]
    # masks quarter to half open the run (last, last + 1) after the runs of
    # a mask of last - 1 positions, whose highest kept position h closes its
    # last run with the byte h + 1
    opened = bytes((last, last + 1))
    for h in reversed(range(last - 1)):
        block = runs[runs_at[half - (2 << h)] : runs_at[half - (1 << h)]]
        kept.append(block.replace(bytes((h + 1,)), bytes((h + 1, *opened))))
    kept.append(opened)  # the mask that extracts every position
    kept = b"".join(kept)
    # from quarter on, each mask is two bytes longer than its mask m
    ramp = _ramp(half - quarter)
    opened_at = _added(runs_at[quarter + 1 :], ramp, ramp)
    # masks m + half: the runs of m, one buffer copy after the kept runs
    copied_at = _added(runs_at[1:], _repeated(len(kept), half))
    new_runs_at = _uints(b"".join((runs_at[: quarter + 1], opened_at, copied_at)))
    return new_taken, new_taken_at, kept + runs, new_runs_at


def _mask_shapes(n: int) -> tuple:
    """The packed extracted positions and unextracted runs of every mask
    of n positions, in mask order."""
    if len(_MASKS) <= n:
        with _REGISTERING:
            while len(_MASKS) <= n:
                _MASKS.append(_grown(len(_MASKS) - 1, *_MASKS[-1]))
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


def terms_of(pairs: dict) -> tuple:
    """A dict from bar-word pairs to counts as (x id, y id, count) terms."""
    return tuple((bar_id(x), bar_id(y), c) for (x, y), c in pairs.items())


def _as_terms(counts: dict) -> tuple:
    """A dict from (x id, y id) to counts as (x id, y id, count) terms."""
    return tuple((x, y, c) for (x, y), c in counts.items())


def _pairs(terms) -> dict:
    """Id terms read back as a dict from bar-word pairs to counts."""
    bars = BARWORDS
    return {(bars[x], bars[y]): c for x, y, c in terms}


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


def split_product(s: dict, t: dict) -> dict:
    """Componentwise bar-concatenation of two leg-pair count dicts."""
    return _pairs(_product(terms_of(s), terms_of(t)))


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
    taken, taken_at, runs, runs_at = _mask_shapes(len(w))
    new = tuple.__new__
    ids = _IDS.get
    letter = w.__getitem__
    acc: dict = {}
    for a, b, c, d in zip(
        taken_at[first_mask::step],
        taken_at[first_mask + 1 :: step],
        runs_at[first_mask::step],
        runs_at[first_mask + 1 :: step],
    ):
        # only mask 0 extracts nothing, and its left leg is the unit.  The
        # probes are built through a list, which sizes a tuple exactly:
        # tuple() of an iterator makes 10 slots and shrinks them, so each
        # probe would be freed onto another size's free list, where up to
        # 2000 a size stay held (0.55 MB of left splits at one letter,
        # degree 12)
        if a < b:
            letters = (*map(letter, taken[a:b]),)
            x = ids((letters,))
            if x is None:
                x = _register(new(BarWord, (new(Word, letters),)))
        else:
            x = 0
        bounds = iter(runs[c:d])
        factors = (*map(letter, map(slice, bounds, bounds)),)
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


def coproduct(u: BarWord) -> dict:
    """The full coproduct; grouplike on the unit, multiplicative on factors."""
    return _pairs(coproduct_terms(bar_id(u)))


def coproduct_left(u: BarWord) -> dict:
    """Left half-coproduct: first factor split with position 1 extracted."""
    return _pairs(coproduct_left_terms(bar_id(u)))


def coproduct_right(u: BarWord) -> dict:
    """Right half-coproduct: first factor split with position 1 kept."""
    return _pairs(coproduct_right_terms(bar_id(u)))


def _without_unit_legs(terms) -> dict:
    """The pairs whose legs are both non-unit: on a non-unit u the dropped
    ones are u (x) unit and unit (x) u, each counted once."""
    return _pairs(term for term in terms if term[0] and term[1])


def coproduct_reduced(u: BarWord) -> dict:
    """Coproduct with both unit-leg terms removed; undefined on the unit."""
    if u.is_unit:
        raise ValueError("the reduced coproduct is undefined on the unit bar-word")
    return _without_unit_legs(coproduct_terms(bar_id(u)))


def coproduct_left_reduced(u: BarWord) -> dict:
    """Left half with the u (x) unit term removed."""
    return _without_unit_legs(coproduct_left_terms(bar_id(u)))


def coproduct_right_reduced(u: BarWord) -> dict:
    """Right half with the unit (x) u term removed."""
    return _without_unit_legs(coproduct_right_terms(bar_id(u)))


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
