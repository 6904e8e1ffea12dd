"""Sparse linear combinations with exact rational coefficients.

Keys can be anything hashable and mutually orderable (words, bar-words,
tuples of either).  Zero coefficients are never stored, so structural
equality of the underlying dicts is equality of linear combinations.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from fractions import Fraction

Scalar = Fraction


class LinComb:
    """A finite formal sum of basis keys with Fraction coefficients."""

    __slots__ = ("_data",)

    def __init__(self, data: Mapping | Iterable[tuple[Hashable, Scalar]] = ()):
        items = data.items() if isinstance(data, Mapping) else data
        acc: dict = {}
        for key, coeff in items:
            value = acc.get(key, 0) + coeff
            if value:
                acc[key] = value
            elif key in acc:
                del acc[key]
        self._data = acc

    @classmethod
    def _raw(cls, data: dict) -> "LinComb":
        """Wrap a trusted dict without copying; zeros must be pruned already."""
        out = object.__new__(cls)
        out._data = data
        return out

    @classmethod
    def term(cls, key, coeff: Scalar = Fraction(1)) -> "LinComb":
        return cls._raw({key: coeff} if coeff else {})

    def items(self):
        return self._data.items()

    def sorted_items(self):
        return sorted(self._data.items(), key=lambda kv: kv[0])

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self._data == other._data

    def __add__(self, other: "LinComb") -> "LinComb":
        acc = dict(self._data)
        for key, coeff in other._data.items():
            value = acc.get(key, 0) + coeff
            if value:
                acc[key] = value
            elif key in acc:
                del acc[key]
        return LinComb._raw(acc)

    def __sub__(self, other: "LinComb") -> "LinComb":
        acc = dict(self._data)
        for key, coeff in other._data.items():
            value = acc.get(key, 0) - coeff
            if value:
                acc[key] = value
            elif key in acc:
                del acc[key]
        return LinComb._raw(acc)

    def __repr__(self) -> str:
        if not self._data:
            return "LinComb(0)"
        bits = [f"{coeff}*{key!r}" for key, coeff in self.sorted_items()]
        return "LinComb(" + " + ".join(bits) + ")"
