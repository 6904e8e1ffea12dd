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
the second (n(n-1)/2 terms).  `triangle` sums exactly these terms on the
tables, so the product of two infinitesimal characters is one again and
stays exact.  verify_suite keeps the product built from forms over the full
half coproducts as the independent check: prelie-closure confirms on it that
nothing else survives, and magnus-fixed-point and interchange compare
`magnus` and `w_map` with the exponentials of forms.

Every term reads its operands below degree n, and vanishes unless each
operand is read at or above its lowest non-zero degree.  So `magnus` solves
its fixed point one degree at a time, and `triangle` skips the degrees below
the sum of its operands' lowest non-zero degrees.  Both sum in integers over
the operands' common denominators: with L_a and L_b the least common
denominators of the two tables, L_a a and L_b b are integer tables, and each
word's value is one int sum over L_a L_b.  `magnus` rescales Omega and each
iterate once per degree, when every value that degree reads is final.

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
from math import comb, factorial, lcm

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


def _lowest_degree(c: InfChar) -> int:
    """The lowest degree with a non-zero value; past the bound if none."""
    return min((w.degree for w, v in c.table.items() if v), default=c.max_degree + 1)


def _numerators(a: dict[Word, Fraction]) -> tuple[int, dict[Word, int]]:
    """The least common denominator L of the table, and L * a(w) on each word."""
    scale = lcm(*(v.denominator for v in a.values()))
    return scale, {w: v.numerator * (scale // v.denominator) for w, v in a.items()}


def _fraction(sums: dict[int, int]) -> Fraction:
    """The sum of n / d over the groups d -> n, as one Fraction over their
    lcm."""
    den = lcm(*sums)
    return Fraction(sum(n * (den // d) for d, n in sums.items()), den)


def _triangle_at(a, b, letters: tuple[int, ...], den: int) -> Fraction:
    """(a > b - b < a)(w) at w = letters, from the integer word tables of
    L_a a and L_b b, with den = L_a L_b.

    Reads a and b only below the degree of w (see the module docstring);
    the letter slices look the words up directly.  The terms are summed as
    one int, and one Fraction is built at the end.
    """
    n = len(letters)
    total = 0
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
    return Fraction(total, den)


def triangle(a: InfChar, b: InfChar) -> InfChar:
    """The pre-Lie product a > b - b < a, tabulated on words.

    Sums the O(n^2) extractions that survive on infinitesimal operands, and
    writes zero without summing below the degree lowest(a) + lowest(b).
    """
    if (a.n_letters, a.max_degree) != (b.n_letters, b.max_degree):
        raise ValueError("infinitesimal characters live on different truncations")
    low = _lowest_degree(a) + _lowest_degree(b)
    scale_a, num_a = _numerators(a.table)
    scale_b, num_b = _numerators(b.table)
    den = scale_a * scale_b
    return InfChar._trusted(
        a.n_letters,
        a.max_degree,
        {
            w: _triangle_at(num_a, num_b, w, den) if w.degree >= low else _ZERO
            for w in a.table
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
    # B_m/m! as integer pairs; B_0/0! = 1
    coeffs = [(bernoulli(m) / factorial(m)).as_integer_ratio() for m in range(d)]
    om: dict[Word, Fraction] = {}
    iterates = [a.table] + [{} for _ in range(2, d)]  # L^0 .. L^(d-2)
    degree = 0
    for w in a.table:  # ascending degree
        if w.degree != degree:
            # every value read at this degree is final: take them in integers
            degree = w.degree
            om_scale, om_num = _numerators(om)
            scaled = [_numerators(it) for it in iterates[: max(degree - 2, 0)]]
        p, q = iterates[0][w].as_integer_ratio()
        sums = {q: p}
        for m in range(1, d - 1):
            if m + 1 < degree:
                it_scale, it_num = scaled[m - 1]
                v = _triangle_at(om_num, it_num, w, om_scale * it_scale)
                c, e = coeffs[m]
                if c:
                    p, q = v.as_integer_ratio()
                    if p:
                        sums[e * q] = sums.get(e * q, 0) + c * p
            else:
                v = _ZERO
            iterates[m][w] = v
        om[w] = _fraction(sums)
    return InfChar._trusted(a.n_letters, d, om)


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
