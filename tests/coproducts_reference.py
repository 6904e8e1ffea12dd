"""The coproduct maps as the package computed them before it built each
degree's mask shapes: `split` walks every mask bit by bit over the letters
of a one-factor bar-word, and `concat` builds and hashes the concatenated
bar-word for every pair of legs.  The three maps below recurse on `split`
alone, uncached, and register their bar-words in the package's registry,
so their id terms compare with the package's directly; tests/
test_coproducts.py compares them exactly, values and term order.

`reduced_linearised` is the interval loop that the package ran for the
reduced linearised coproduct before it read those terms off the full
coproduct, and `iterated_reduced_left` its left iteration on that loop.
`read_back` spells id terms as a dict from bar-word pairs to counts."""

from __future__ import annotations

from cumulants.coproducts import BARWORDS, bar_id
from cumulants.words import BarWord, Word, bar_concat, lift


def read_back(terms) -> dict:
    """Id terms as a dict from (x, y) bar-word pairs to counts."""
    return {(BARWORDS[x], BARWORDS[y]): c for x, y, c in terms}


def concat(a: int, b: int) -> int:
    """The id of the bar-concatenation of the bar-words with ids a and b."""
    if not a:
        return b
    if not b:
        return a
    return bar_id(bar_concat(BARWORDS[a], BARWORDS[b]))


def product(s, t) -> tuple:
    """Componentwise bar-concatenation of two id-term sequences."""
    acc: dict = {}
    for x1, y1, c1 in s:
        for x2, y2, c2 in t:
            key = (concat(x1, x2), concat(y1, y2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return tuple((x, y, c) for (x, y), c in acc.items())


def split(uid: int, first_mask: int, step: int) -> tuple:
    """The first factor of bar-word uid split by the masks in
    range(first_mask, 2^n, step), times the full coproduct of the rest."""
    w, *rest = BARWORDS[uid]
    if rest:
        return product(split(bar_id(lift(w)), first_mask, step), split(bar_id(BarWord(rest)), 0, 1))
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
        key = (bar_id(lift(Word(taken))), bar_id(BarWord(runs)))
        acc[key] = acc.get(key, 0) + 1
    return tuple((x, y, c) for (x, y), c in acc.items())


def coproduct_terms(i: int) -> tuple:
    return split(i, 0, 1) if i else ((0, 0, 1),)


def coproduct_left_terms(i: int) -> tuple:
    return split(i, 1, 2)  # position 1 extracted: odd masks


def coproduct_right_terms(i: int) -> tuple:
    return split(i, 0, 2)  # position 1 kept: even masks


def reduced_linearised(w: Word) -> dict:
    """Splits [1..n] into consecutive intervals I1, I2, I3 with I2 non-empty
    and I1 u I3 non-empty; each split counts once for the pair (word on I1
    then I3, word on I2)."""
    n = len(w)
    acc: dict = {}
    for i in range(n + 1):  # I1 = positions 1..i
        for j in range(i + 1, n + 1):  # I2 = positions i+1..j
            if i == 0 and j == n:
                continue
            key = (Word(w[:i] + w[j:]), Word(w[i:j]))
            acc[key] = acc.get(key, 0) + 1
    return acc


def iterated_reduced_left(w: Word, q: int) -> dict:
    """The (q-1)-fold left iteration of `reduced_linearised`, 1 <= q <= n."""
    if q == 1:
        return {(w,): 1}
    acc: dict = {}
    for (rest, extracted), c in reduced_linearised(w).items():
        if rest.degree >= q - 1:
            for head, d in iterated_reduced_left(rest, q - 1).items():
                key = head + (extracted,)
                acc[key] = acc.get(key, 0) + c * d
    return acc
