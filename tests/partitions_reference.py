"""`partition_sum` as the package computed it before each shape held a
reader per block: the shape keeps each block as its 0-based position
tuple, a sum slices every block into a new tuple, and reads each value's
`denominator` and `numerator` properties.  The enumerators and the weights
are the package's own; tests/test_partitions.py compares the package's sums
with these exactly, result type and errors included."""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from cumulants.errors import IncompleteTableError
from cumulants.partitions import _FAMILIES, WEIGHTS
from cumulants.words import Word

_SHAPES: dict = {}


def shapes(n: int, family: str, weight: str) -> tuple:
    """(blocks, scale, groups): the block table as 0-based position tuples,
    the lcm of the weights' denominators, and one (k, c * scale, members)
    per block count k and weight c."""
    key = (n, family, weight)
    if key not in _SHAPES:
        weigh = WEIGHTS[weight]
        groups: dict = {}
        found = _FAMILIES[family](n)
        table = found[0]._table
        for p in found:
            groups.setdefault((len(p._ids), *weigh(p)), []).append(p._ids)
        scale = lcm(*(den for _, _, den in groups))
        _SHAPES[key] = (
            tuple(tuple(x - 1 for x in b) for b in table),
            scale,
            tuple(
                (k, num * (scale // den), tuple(members))
                for (k, num, den), members in groups.items()
            ),
        )
    return _SHAPES[key]


def partition_sum(values, w: Word, family: str, weight: str = "one") -> Fraction:
    n = w.degree
    blocks, scale, groups = shapes(n, family, weight)
    letter = w.__getitem__
    block_values = []
    for block in blocks:
        piece = tuple(map(letter, block))
        try:
            block_values.append(values[piece])
        except KeyError:
            piece = Word(piece)
            raise IncompleteTableError(
                f"no table value for the word {piece!r}", word=piece
            ) from None
    common = lcm(*(v.denominator for v in block_values))
    numerators = [v.numerator * (common // v.denominator) for v in block_values]
    at = numerators.__getitem__
    total = 0
    for k, scaled, members in groups:
        total += scaled * sum(prod(map(at, p)) for p in members) * common ** (n - k)
    return Fraction(total, scale * common**n)
