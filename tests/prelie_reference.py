"""The pre-Lie kernels as the package computed them before it numbered the
subwords of each word set: `triangle_at` slices each word's letters on
every pass and looks the subwords up by key.  `triangle`, `magnus` and
`w_map` are built on it as they were, and tests/test_prelie.py compares the
package's kernels with them exactly."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from cumulants.prelie import InfChar, bernoulli

_ZERO = Fraction(0)


def _lowest_degree(c: InfChar) -> int:
    """The lowest degree with a non-zero value; past the bound if none."""
    return min((w.degree for w, v in c.table.items() if v), default=c.max_degree + 1)


def _numerators(a):
    """The least common denominator L of the table, and L * a(w) on each word."""
    scale = lcm(*(v.denominator for v in a.values()))
    return scale, {w: v.numerator * (scale // v.denominator) for w, v in a.items()}


def _fraction(sums: dict[int, int]) -> Fraction:
    den = lcm(*sums)
    return Fraction(sum(n * (den // d) for d, n in sums.items()), den)


def triangle_at(a, b, letters: tuple[int, ...], den: int) -> Fraction:
    """(a > b - b < a)(w) at w = letters, from the integer word tables of
    L_a a and L_b b, with den = L_a L_b; the letter slices look the words
    up directly."""
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
    low = _lowest_degree(a) + _lowest_degree(b)
    scale_a, num_a = _numerators(a.table)
    scale_b, num_b = _numerators(b.table)
    den = scale_a * scale_b
    return InfChar(
        a.n_letters,
        a.max_degree,
        {
            w: triangle_at(num_a, num_b, w, den) if w.degree >= low else _ZERO
            for w in a.table
        },
    )


def w_map(a: InfChar) -> InfChar:
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
    return InfChar(a.n_letters, a.max_degree, {w: _fraction(s) for w, s in groups.items()})


def magnus(a: InfChar) -> InfChar:
    d = a.max_degree
    coeffs = [(bernoulli(m) / factorial(m)).as_integer_ratio() for m in range(d)]
    om: dict = {}
    iterates = [a.table] + [{} for _ in range(2, d)]  # L^0 .. L^(d-2)
    degree = 0
    for w in a.table:  # ascending degree
        if w.degree != degree:
            degree = w.degree
            om_scale, om_num = _numerators(om)
            scaled = [_numerators(it) for it in iterates[: max(degree - 2, 0)]]
        p, q = iterates[0][w].as_integer_ratio()
        sums = {q: p}
        for m in range(1, d - 1):
            if m + 1 < degree:
                it_scale, it_num = scaled[m - 1]
                v = triangle_at(om_num, it_num, w, om_scale * it_scale)
                c, e = coeffs[m]
                if c:
                    p, q = v.as_integer_ratio()
                    if p:
                        sums[e * q] = sums.get(e * q, 0) + c * p
            else:
                v = _ZERO
            iterates[m][w] = v
        om[w] = _fraction(sums)
    return InfChar(a.n_letters, d, om)
