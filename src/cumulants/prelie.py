"""Infinitesimal characters as word tables, the pre-Lie product, and the
Magnus expansion with its inverse.

An InfChar stores the values of an infinitesimal character on every word up
to a degree bound, as the dict `table`; off the single-word part the
character is zero by definition.  The module imports only `words`, so the
forms that check it share none of its code: verify_suite and the tests wrap
`table` in `forms.InfinitesimalFromWords`.

The pre-Lie product a |> b = a > b - b < a pairs its operands over the half
coproducts, 2^(n-1) extractions per word of degree n.  Both operands vanish
on the unit and on every bar product of two or more words, so an extraction
contributes only when its complement is a single word.  For w = w_1...w_n:

    (a > b)(w) = sum over 1 <= j < n          of a(w_{j+1..n}) b(w_{1..j})
    (b < a)(w) = sum over 2 <= i <= j <= n    of b(w without w_{i..j}) a(w_{i..j})

a prefix complement in the first sum (n - 1 terms), one inner interval in
the second (n(n-1)/2 terms).  The terms of the second sum whose interval
ends the word, j = n, are the terms of the first with j there i - 1 here:
a suffix read by a, the prefix before it by b.  They cancel, and

    (a |> b)(w) = - sum over 2 <= i <= j <= n-1  of a(w_{i..j}) b(w without w_{i..j}),

one term per interval that touches neither end of w, (n-1)(n-2)/2 in all.
`triangle` sums exactly these terms on the tables, so the product of two
infinitesimal characters is one again and stays exact; it vanishes on
every word of degree 2 or less.  verify_suite keeps the product built from
forms over the full half coproducts as the independent check:
prelie-closure confirms on it that nothing else survives, and
magnus-fixed-point and interchange compare `magnus` and `w_map` with the
exponentials of forms.

Every term reads its operands below degree n, and vanishes unless each
operand is read at or above its lowest non-zero degree.  So `magnus` solves
its fixed point one degree at a time, and `triangle` skips the degrees below
the sum of its operands' lowest non-zero degrees.  Both sum in integers over
the operands' common denominators: with L_a and L_b the least common
denominators of the two tables, L_a a and L_b b are integer tables, and each
word's value is one int sum over L_a L_b.  `magnus` rescales Omega and each
iterate once per degree, when every value that degree reads is final.

The words a product reads are found once per word set, not once per pass.
`_subwords` numbers the words up to the bound in `all_words` order, the
order of every table, and gives each word two tuples of word numbers: its
interior intervals and their complements.  The kernels take the operands
as integer lists indexed by word number and sum products through those
tuples, with no slicing and no hashing of subwords.  The tuples of each
(alphabet, bound) stay in the module dict `_SUBWORDS` for the rest of the
process: with the word list, 1.5 MB at (2 letters, degree 10) and at
(3, 7).

Bernoulli numbers follow the convention B_1 = -1/2, which is the one under
which the Magnus expansion reads  a - (1/2) a|>a + ...  The Magnus map and
its inverse direction W are mutually inverse on the graded truncation, and
nothing is computed beyond the table bound.

The three exponentials that carry cumulants to moments are tabulated here
the same way, on plain word tables, for an infinitesimal operand a.  The
moment table is a character, so its value on a bar-word is the product over
the factors, and only the terms below survive of each exponential's sum
over a coproduct:

    exp_left   X = e + a < X    X(w) = sum over S containing position 1
                                       of a(w_S) X(gap_1) ... X(gap_r),
                                the gaps being the maximal runs of the
                                complement of S, 2^(n-1) subsets per word;
    exp_right  Z = e + Z > a    Z(w) = sum over 1 <= j <= n
                                       of a(w_{1..j}) Z(w_{j+1..n});
    exp_star   Phi = sum_k a^{*k} / k!, where a^{*k} = a^{*(k-1)} * a reads
                                a only on a single interval I of w:
                                a^{*k}(w) = sum over I of a^{*(k-1)}(w - I) a(w_I),
                                O(n^3) per word.

The last is the monotone time evolution dPhi_t/dt = Phi_t * a at t = 1,
coefficient by coefficient: a^{*k}(w) / k! is the t^k coefficient of Phi_t(w).
Each value reads the moments, or the powers, only below the degree of its
word, so walking the words by ascending degree computes each once.  The
sums run in integers over the table's least common denominator L: at a word
of degree n, L^n X(w), L^n Z(w) and L^k a^{*k}(w) are integers, and each
word builds one Fraction.  The forms of `forms` stay the independent
reference for these tables in verify_suite and in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import comb, factorial, lcm
from operator import add, mul

from .words import Word, all_words, total_table

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

    @classmethod
    def _trusted(cls, n_letters: int, max_degree: int, table) -> "InfChar":
        """For a table already built or checked: a Fraction on every word up to
        the bound, in ascending degree.  It is kept as is, and not checked."""
        c = cls.__new__(cls)
        c.n_letters = n_letters
        c.max_degree = max_degree
        c.table = table
        return c

    def __neg__(self) -> "InfChar":
        return InfChar._trusted(
            self.n_letters, self.max_degree, {w: -v for w, v in self.table.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InfChar)
            and self.n_letters == other.n_letters
            and self.max_degree == other.max_degree
            and self.table == other.table
        )

    def __repr__(self) -> str:
        return f"InfChar(letters={self.n_letters}, max_degree={self.max_degree})"


def _lowest_degree(words: list[Word], values: list) -> int:
    """The lowest degree with a non-zero value, for the values of the words
    in ascending degree; past the last word's degree if none."""
    return next((len(w) for w, v in zip(words, values) if v), len(words[-1]) + 1)


def _scaled(values) -> tuple[int, list[int]]:
    """The least common denominator L of the Fractions, and L * v for each
    of them, in order."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _numerators(a: dict[Word, Fraction]) -> tuple[int, dict[Word, int]]:
    """The least common denominator L of the table, and L * a(w) on each word."""
    scale, nums = _scaled(a.values())
    return scale, dict(zip(a, nums))


def _fraction(sums: dict[int, int]) -> Fraction:
    """The sum of n / d over the groups d -> n, as one Fraction over their
    lcm."""
    den = lcm(*sums)
    return Fraction(sum(n * (den // d) for d, n in sums.items()), den)


# (n_letters, max_degree) -> what `_subwords` returns for that word set
_SUBWORDS: dict = {}


def _subwords(n_letters: int, max_degree: int):
    """The words up to the bound in `all_words` order, and for each the word
    numbers (positions in that order) that the pre-Lie product reads.

    For w = w_1...w_n the entry is two parallel tuples: the numbers of the
    interior intervals w_{i..j}, 2 <= i <= j <= n-1, and of their
    complements.  Built on the first call for a word set and kept in
    `_SUBWORDS`.

    The words of degree n are numbered in the order of the base-L numbers
    their letters spell, so a subword's number is read off the digits of
    its word's: each tuple entry is built for all words of a degree at
    once, as a column, and the columns are then cut into rows.  Every
    entry refers to one shared int object per word number, so a tuple
    holds 8 bytes per entry.
    """
    key = (n_letters, max_degree)
    found = _SUBWORDS.get(key)
    if found is not None:
        return found
    base = n_letters
    first = [0, 0]  # first[n]: the number of the first word of degree n
    for n in range(2, max_degree + 2):
        first.append(first[-1] + base ** (n - 1))
    # every tuple refers to these int objects, one per word number
    numbers = list(range(first[-1]))

    def field(n, lo, hi, start, step=1):
        # start + step x for each word of degree n in order, where x is the
        # base-L number that its 0-based letters lo:hi spell
        x = numbers[start : start + step * base ** (hi - lo) : step]
        run = base ** (n - hi)
        if run > 1:
            x = list(chain.from_iterable(map(repeat, x, repeat(run))))
        return x * base**lo

    def joined(n, lo, hi):
        # the number of the head [:lo] joined to the tail [hi:], for each
        # word of degree n in order
        head = field(n, 0, lo, first[n - hi + lo], base ** (n - hi))
        return list(map(numbers.__getitem__, map(add, head, field(n, hi, n, 0))))

    pairs: list = []
    for n in range(1, max_degree + 1):
        # the interior intervals as 0-based slices lo:hi
        spans = [(lo, hi) for lo in range(1, n - 1) for hi in range(lo + 1, n)]
        if not spans:  # n <= 2
            pairs += [((), ())] * base**n
            continue
        pairs += zip(
            zip(*[field(n, lo, hi, first[hi - lo]) for lo, hi in spans]),
            zip(*[joined(n, lo, hi) for lo, hi in spans]),
        )
    found = _SUBWORDS[key] = (list(all_words(n_letters, max_degree)), pairs)
    return found


def _triangle_at(a: list[int], b: list[int], pairs, den: int) -> Fraction:
    """(a > b - b < a) at one word, from the integer lists of L_a a and L_b b
    by word number, with den = L_a L_b and `pairs` the word's entry from
    `_subwords`: minus the sum over its interior intervals (see the module
    docstring).

    Reads a and b only below the degree of the word.  The terms are summed
    as one int, and one Fraction is built at the end.
    """
    intervals, complements = pairs
    total = sum(map(mul, map(a.__getitem__, intervals), map(b.__getitem__, complements)))
    return Fraction(-total, den)


def triangle(a: InfChar, b: InfChar) -> InfChar:
    """The pre-Lie product a > b - b < a, tabulated on words.

    Sums over the (n-1)(n-2)/2 interior intervals of each word, which is
    what survives of the extractions on infinitesimal operands, and writes
    zero without summing below the degree lowest(a) + lowest(b).
    """
    if (a.n_letters, a.max_degree) != (b.n_letters, b.max_degree):
        raise ValueError("infinitesimal characters live on different truncations")
    words, pairs = _subwords(a.n_letters, a.max_degree)
    scale_a, num_a = _scaled(list(map(a.table.__getitem__, words)))
    scale_b, num_b = _scaled(list(map(b.table.__getitem__, words)))
    low = _lowest_degree(words, num_a) + _lowest_degree(words, num_b)
    den = scale_a * scale_b
    return InfChar._trusted(
        a.n_letters,
        a.max_degree,
        {
            w: _triangle_at(num_a, num_b, at, den) if len(w) >= low else _ZERO
            for w, at in zip(words, pairs)
        },
    )


def w_map(a: InfChar) -> InfChar:
    """Sum over k of L_{a|>}^k(a) / (k+1)!, truncated by the table bound.

    The k-th iterate vanishes on degrees <= k + 1 (a |> a vanishes at every
    w1 w2, and each product raises that degree by one), so k stops at the
    bound - 2; `triangle` finds from the values which low degrees vanish.
    Each word sums its iterate values in integers, one numerator sum per
    denominator, and builds one Fraction at the end.
    """
    # the k = 0 term has coefficient 1/1! = 1
    groups = {w: {v.denominator: v.numerator} for w, v in a.table.items()}
    iterate = a
    for k in range(1, a.max_degree - 1):
        iterate = triangle(a, iterate)
        f = factorial(k + 1)
        for w, v in iterate.table.items():
            p, q = v.as_integer_ratio()
            if p:
                sums, d = groups[w], q * f
                sums[d] = sums.get(d, 0) + p
    total = {w: _fraction(sums) for w, sums in groups.items()}
    return InfChar._trusted(a.n_letters, a.max_degree, total)


def magnus(a: InfChar) -> InfChar:
    """The inverse of w_map on the truncation, solved degree by degree.

    Omega is the fixed point  Omega = sum_m (B_m/m!) L^m  with L^0 = a and
    L^m = Omega |> L^(m-1).  At a word of degree n, L^m reads Omega and
    L^(m-1) only below n.  It vanishes when n <= m + 1: at w = w1 w2,
    L^1 = Omega(w2) a(w1) - a(w1) Omega(w2) = 0, and each L raises the
    vanishing degree by one.  So walking the words by ascending degree, each
    value of each iterate is computed once, from values already final.  Each
    word sums its terms (B_m/m!) L^m(w) in integers, one numerator sum per
    denominator, and builds one Fraction at the end.
    """
    d = a.max_degree
    words, pairs = _subwords(a.n_letters, d)
    # B_m/m! as integer pairs; B_0/0! = 1
    coeffs = [(bernoulli(m) / factorial(m)).as_integer_ratio() for m in range(d)]
    om: list[Fraction] = []  # by word number, as far as computed
    # L^0 .. L^(d-2), by word number
    iterates = [list(map(a.table.__getitem__, words))] + [[] for _ in range(2, d)]
    degree = 0
    for k, (w, at) in enumerate(zip(words, pairs)):  # ascending degree
        if len(w) != degree:
            # every value read at this degree is final: take them in integers
            degree = len(w)
            om_scale, om_num = _scaled(om)
            scaled = [_scaled(it) for it in iterates[: max(degree - 2, 0)]]
        p, q = iterates[0][k].as_integer_ratio()
        sums = {q: p}
        for m in range(1, d - 1):
            if m + 1 < degree:
                it_scale, it_num = scaled[m - 1]
                v = _triangle_at(om_num, it_num, at, om_scale * it_scale)
                c, e = coeffs[m]
                if c:
                    p, q = v.as_integer_ratio()
                    if p:
                        sums[e * q] = sums.get(e * q, 0) + c * p
            else:
                v = _ZERO
            iterates[m].append(v)
        om.append(_fraction(sums))
    return InfChar._trusted(a.n_letters, d, dict(zip(words, om)))


# ---------------------------------------------------------------------------
# exponentials on word tables
# ---------------------------------------------------------------------------


def exp_left_table(a: dict[Word, Fraction]) -> dict[Word, Fraction]:
    """exp_left(a), X = e + a < X, on every word of the table a.

    `a` holds the values of an infinitesimal character on every word up to
    a bound, in ascending degree, as `words.total_table` builds it; the
    result holds X on the same words.  With a the free cumulants, X is the
    moments.
    """
    scale, num = _numerators(a)
    x: dict = {(): 1}  # L^n X(w), an integer
    out: dict[Word, Fraction] = {}
    for w in a:
        n = len(w)
        total = 0
        # The subsets S that contain the first position, grown one position
        # at a time: the letters w_S so far, the last position taken, and
        # L^(|S| - 1) times the product of x over the gaps closed so far.
        # A zero product closes no further gap.
        stack = [(w[:1], 0, 1)]
        while stack:
            chosen, last, gaps = stack.pop()
            value = num[chosen]
            if value:
                tail = x[w[last + 1 :]]
                if tail:
                    total += value * gaps * tail
            for p in range(last + 1, n):
                gap = x[w[last + 1 : p]]
                if gap:
                    stack.append((chosen + w[p : p + 1], p, gaps * gap * scale))
        x[w] = total
        out[w] = Fraction(total, scale**n)
    return out


def exp_right_table(a: dict[Word, Fraction]) -> dict[Word, Fraction]:
    """exp_right(a), Z = e + Z > a, on every word of the table a.

    Only the prefix extractions survive: Z(w) = sum over j of
    a(w_{1..j}) Z(w_{j+1..n}).  The table is read as in `exp_left_table`;
    with a the boolean cumulants, Z is the moments.
    """
    scale, num = _numerators(a)
    z: dict = {(): 1}  # L^n Z(w), an integer
    out: dict[Word, Fraction] = {}
    for w in a:
        n = len(w)
        total = 0
        for j in range(1, n + 1):
            head = num[w[:j]]
            if head:
                rest = z[w[j:]]
                if rest:
                    total += head * scale ** (j - 1) * rest
        z[w] = total
        out[w] = Fraction(total, scale**n)
    return out


def exp_star_table(a: dict[Word, Fraction]) -> dict[Word, Fraction]:
    """exp_star(a) = sum_k a^{*k} / k! on every word of the table a.

    a^{*k}(w) sums a^{*(k-1)}(w - I) a(w_I) over the intervals I of w, and
    vanishes for k > n; each word keeps its powers for the longer words
    that read them.  The table is read as in `exp_left_table`; with a the
    monotone cumulants, the result is the moments.
    """
    scale, num = _numerators(a)
    powers: dict = {(): (1,)}  # L^k a^{*k}(w), integers; a^{*0} = e
    out: dict[Word, Fraction] = {}
    for w in a:
        n = len(w)
        acc = [0] * (n + 1)  # acc[0] = e(w) = 0
        for i in range(n):
            head = w[:i]
            for j in range(i + 1, n + 1):
                x = num[w[i:j]]
                if x:
                    for k, y in enumerate(powers[head + w[j:]], 1):
                        if y:
                            acc[k] += y * x
        powers[w] = acc
        # sum over k of acc[k] / (L^k k!), over the denominator L^n n!
        total = sum(
            v * scale ** (n - k) * (factorial(n) // factorial(k))
            for k, v in enumerate(acc)
            if v
        )
        out[w] = Fraction(total, scale**n * factorial(n))
    return out
