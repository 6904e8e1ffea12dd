"""Infinitesimal characters as word tables, the pre-Lie product, and the
Magnus expansion with its inverse.

An InfChar stores the values of an infinitesimal character on every word up
to a degree bound; off the single-word part the character is zero by
definition.

The pre-Lie product a |> b = a > b - b < a pairs its operands over the half
coproducts, 2^(n-1) extractions per word of degree n.  Both operands vanish
on the unit and on every bar product of two or more words, so an extraction
contributes only when its complement is a single word.  For w = w_1...w_n:

    (a > b)(w) = sum over 1 <= j < n          of a(w_{j+1..n}) b(w_{1..j})
    (b < a)(w) = sum over 2 <= i <= j <= n    of b(w without w_{i..j}) a(w_{i..j})

a prefix complement in the first sum (n - 1 terms), one inner interval in
the second (n(n-1)/2 terms).  `triangle` sums exactly these terms on the
tables, so the product of two infinitesimal characters is one again and
stays exact.  verify_suite keeps the product built from forms over the full
half coproducts as the independent check: prelie-closure confirms on it that
nothing else survives, and magnus-fixed-point and interchange compare
`magnus` and `w_map` with the exponentials of forms.

Every term reads its operands below degree n, and vanishes unless each
operand is read at or above its lowest non-zero degree.  So `magnus` solves
its fixed point one degree at a time, and `triangle` skips the degrees below
the sum of its operands' lowest non-zero degrees.

Bernoulli numbers follow the convention B_1 = -1/2, which is the one under
which the Magnus expansion reads  a - (1/2) a|>a + ...  The Magnus map and
its inverse direction W are mutually inverse on the graded truncation, and
nothing is computed beyond the table bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .forms import InfinitesimalFromWords
from .words import Word, total_table

_ZERO = Fraction(0)

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2; computed by the standard binomial recurrence."""
    if m < 0:
        raise ValueError("Bernoulli numbers are indexed by m >= 0")
    while len(_BERNOULLI) <= m:
        k = len(_BERNOULLI)
        acc = Fraction(0)
        for j in range(k):
            acc += comb(k + 1, j) * _BERNOULLI[j]
        _BERNOULLI.append(-acc / (k + 1))
    return _BERNOULLI[m]


class InfChar:
    """Values of an infinitesimal character on all words up to a bound."""

    __slots__ = ("n_letters", "max_degree", "table")

    def __init__(self, n_letters: int, max_degree: int, table):
        if n_letters < 1:
            raise ValueError("alphabet must have at least one letter")
        if max_degree < 1:
            raise ValueError("the degree bound must be at least 1")
        self.n_letters = n_letters
        self.max_degree = max_degree
        self.table = total_table(
            table,
            n_letters,
            max_degree,
            lambda w: f"infinitesimal character table is missing {w!r}",
        )

    def value(self, w: Word) -> Fraction:
        return self.table[w]

    def as_form(self) -> InfinitesimalFromWords:
        return InfinitesimalFromWords(self.table)

    def scale(self, c) -> "InfChar":
        c = Fraction(c)
        return InfChar(
            self.n_letters, self.max_degree, {w: c * v for w, v in self.table.items()}
        )

    def __neg__(self) -> "InfChar":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InfChar)
            and self.n_letters == other.n_letters
            and self.max_degree == other.max_degree
            and self.table == other.table
        )

    def __repr__(self) -> str:
        return f"InfChar(letters={self.n_letters}, max_degree={self.max_degree})"


def _lowest_degree(c: InfChar) -> int:
    """The lowest degree with a non-zero value; past the bound if none."""
    return min((w.degree for w, v in c.table.items() if v), default=c.max_degree + 1)


def _triangle_at(a, b, letters: tuple[int, ...]) -> Fraction:
    """(a > b - b < a)(w) at w = letters, from the word tables of a and b.

    Reads a and b only below the degree of w (see the module docstring);
    the letter slices look the words up directly.
    """
    n = len(letters)
    total = _ZERO
    for j in range(1, n):  # a > b: the complement is the prefix w_1..w_j
        x = a[letters[j:]]
        if x:
            y = b[letters[:j]]
            if y:
                total += x * y
    for i in range(1, n):  # b < a: the complement is w_{i+1..j}, 0-based i:j
        head = letters[:i]
        for j in range(i + 1, n + 1):
            x = a[letters[i:j]]
            if x:
                y = b[head + letters[j:]]
                if y:
                    total -= y * x
    return total


def triangle(a: InfChar, b: InfChar) -> InfChar:
    """The pre-Lie product a > b - b < a, tabulated on words.

    Sums the O(n^2) extractions that survive on infinitesimal operands, and
    writes zero without summing below the degree lowest(a) + lowest(b).
    """
    if (a.n_letters, a.max_degree) != (b.n_letters, b.max_degree):
        raise ValueError("infinitesimal characters live on different truncations")
    low = _lowest_degree(a) + _lowest_degree(b)
    ta, tb = a.table, b.table
    return InfChar(
        a.n_letters,
        a.max_degree,
        {w: _triangle_at(ta, tb, w) if w.degree >= low else _ZERO for w in ta},
    )


def w_map(a: InfChar) -> InfChar:
    """Sum over k of L_{a|>}^k(a) / (k+1)!, truncated by the table bound.

    The k-th iterate vanishes on degrees <= k + 1 (a |> a vanishes at every
    w1 w2, and each product raises that degree by one), so k stops at the
    bound - 2; `triangle` finds from the values which low degrees vanish.
    """
    total = dict(a.table)  # the k = 0 term has coefficient 1/1! = 1
    iterate = a
    for k in range(1, a.max_degree - 1):
        iterate = triangle(a, iterate)
        c = Fraction(1, factorial(k + 1))
        for w, v in iterate.table.items():
            if v:
                total[w] += c * v
    return InfChar(a.n_letters, a.max_degree, total)


def magnus(a: InfChar) -> InfChar:
    """The inverse of w_map on the truncation, solved degree by degree.

    Omega is the fixed point  Omega = sum_m (B_m/m!) L^m  with L^0 = a and
    L^m = Omega |> L^(m-1).  At a word of degree n, L^m reads Omega and
    L^(m-1) only below n.  It vanishes when n <= m + 1: at w = w1 w2,
    L^1 = Omega(w2) a(w1) - a(w1) Omega(w2) = 0, and each L raises the
    vanishing degree by one.  So walking the words by ascending degree, each
    value of each iterate is computed once, from values already final.
    """
    d = a.max_degree
    coeffs = [bernoulli(m) / factorial(m) for m in range(d)]
    om: dict[Word, Fraction] = {}
    iterates = [a.table] + [{} for _ in range(2, d)]  # L^0 .. L^(d-2)
    for w in a.table:  # ascending degree
        value = coeffs[0] * iterates[0][w]
        for m in range(1, d - 1):
            if m + 1 < w.degree:
                v = _triangle_at(om, iterates[m - 1], w)
                if coeffs[m]:
                    value += coeffs[m] * v
            else:
                v = _ZERO
            iterates[m][w] = v
        om[w] = value
    return InfChar(a.n_letters, d, om)
