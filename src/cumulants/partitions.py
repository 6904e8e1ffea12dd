"""Set partitions of [n]: non-crossing, irreducible, interval, and monotone
families, nesting forests, tree factorials, and weighted partition sums.

Blocks are tuples of 1-based positions; a SetPartition keeps its blocks
sorted internally and ordered by minimum, which makes equality and hashing
structural.  Enumerations are deterministic and bounded (n <= 12 for the
non-crossing families, which is far beyond what the conversion pipelines
ever request).

`partition_sum` enumerates and weighs each family once per (degree, family,
weight) and keeps the result as a shape: the distinct blocks as 0-based
position tuples, and the partitions as tuples of block indices, grouped by
block count and weight, with the weights scaled to integers.  The shapes
are bounded by MAX_N and hold no table values.  A sum over one word is then
one lookup per distinct block and exact integer arithmetic over one common
denominator, with a single Fraction built at the end.  The four
cumulant-cumulant weights over irreducible non-crossing partitions are
those of Arizmendi, Hasebe, Lehner & Vargas, "Relations between cumulants
in noncommutative probability" (Adv. Math. 282, 2015, arXiv:1408.2977).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod

from .errors import IncompleteTableError
from .lincomb import LinComb
from .words import Word, subword

MAX_N = 12


class SetPartition:
    """A partition of {1..n} into disjoint non-empty blocks."""

    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n: int, blocks):
        cleaned = tuple(sorted(tuple(sorted(b)) for b in blocks))
        seen: list[int] = []
        for block in cleaned:
            if not block:
                raise ValueError("blocks must be non-empty")
            seen.extend(block)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition 1..{n}: {cleaned}")
        self.n = n
        self.blocks = cleaned
        self._hash = hash((n, cleaned))

    @classmethod
    def _trusted(cls, n: int, blocks: tuple) -> "SetPartition":
        """The enumerators' constructor: `blocks` must already be sorted
        tuples that partition 1..n, ordered by minimum; nothing is checked."""
        p = cls.__new__(cls)
        p.n = n
        p.blocks = blocks
        p._hash = hash((n, blocks))
        return p

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "SetPartition") -> bool:
        return (self.n, len(self.blocks), self.blocks) < (
            other.n,
            len(other.blocks),
            other.blocks,
        )

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition({self.n}, {self})"


def _nesting_parents(p: SetPartition):
    """Index in p.blocks of each block's parent in the nesting forest (-1
    for a root), or None when p is crossing.

    One scan over the positions with a stack of the blocks opened and not
    yet closed.  Blocks cross exactly when a block is revisited while a
    block opened after it is still open; otherwise the open blocks are
    nested, and the innermost one is the parent of a block that opens.
    """
    owner = [0] * (p.n + 1)
    for i, block in enumerate(p.blocks):
        for x in block:
            owner[x] = i
    parents: list[int] = []
    stack: list[int] = []
    for x in range(1, p.n + 1):
        i = owner[x]
        block = p.blocks[i]
        if x == block[0]:
            parents.append(stack[-1] if stack else -1)
            if x != block[-1]:
                stack.append(i)
        elif stack[-1] != i:
            return None
        elif x == block[-1]:
            stack.pop()
    return parents


def _forest(p: SetPartition) -> list[int]:
    parents = _nesting_parents(p)
    if parents is None:
        raise ValueError(f"partition {p} is crossing; nesting needs non-crossing input")
    return parents


def is_noncrossing(p: SetPartition) -> bool:
    return _nesting_parents(p) is not None


def is_interval(p: SetPartition) -> bool:
    return all(b[-1] - b[0] + 1 == len(b) for b in p.blocks)


def is_irreducible(p: SetPartition) -> bool:
    """1 and n sit in the same block (and the partition is non-crossing)."""
    return p.n in p.blocks[0] and is_noncrossing(p)


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be between 1 and {MAX_N}, got {n}")


def _nc_blocks(n: int, closed: bool = False):
    """Non-crossing partitions of [n], as tuples of sorted blocks ordered by
    minimum.

    Decomposes on the block of the smallest element: the rest of that block
    is any subset of the remaining positions, and the leftover positions
    fall into gaps between consecutive block members, each partitioned
    independently (nothing may cross the block).  With `closed` the block
    of 1 also holds n, which gives the irreducible partitions without
    building the others.  Every gap is an interval, so each one is
    partitioned once per call and its list shared by the partitions around
    it.
    """
    gaps: dict = {}

    def gap(lo: int, hi: int) -> list:
        key = (lo, hi)
        parts = gaps.get(key)
        if parts is None:
            parts = gaps[key] = list(grow(lo, hi, False))
        return parts

    def grow(first: int, stop: int, closed: bool):
        # the partitions of first..stop-1
        if first >= stop:
            yield ()
            return
        rest = range(first + 1, stop)
        free, forced = (rest[:-1], (stop - 1,)) if closed and rest else (rest, ())
        for r in range(len(free) + 1):
            for chosen in itertools.combinations(free, r):
                block = (first,) + chosen + forced
                ends = block[1:] + (stop,)
                gap_parts = [gap(lo + 1, hi) for lo, hi in zip(block, ends)]
                for combo in itertools.product(*gap_parts):
                    yield (block,) + tuple(itertools.chain.from_iterable(combo))

    return grow(1, n + 1, closed)


def enumerate_nc(n: int) -> list[SetPartition]:
    """All non-crossing partitions of [n] (Catalan many)."""
    _check_n(n)
    return [SetPartition._trusted(n, blocks) for blocks in _nc_blocks(n)]


def enumerate_irreducible_nc(n: int) -> list[SetPartition]:
    """Non-crossing partitions whose block of 1 also contains n."""
    _check_n(n)
    return [SetPartition._trusted(n, blocks) for blocks in _nc_blocks(n, closed=True)]


def enumerate_interval(n: int) -> list[SetPartition]:
    """Partitions into consecutive blocks, one per composition of n."""
    _check_n(n)
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        blocks = []
        start = 1
        for k, cut in enumerate(cuts, start=2):
            if cut:
                blocks.append(tuple(range(start, k)))
                start = k
        blocks.append(tuple(range(start, n + 1)))
        out.append(SetPartition._trusted(n, tuple(blocks)))
    return out


def nesting_children(p: SetPartition) -> dict:
    """Children lists of the nesting forest of a non-crossing partition.

    V is a child of W when W is the innermost block with
    min W < min V and max V < max W.  Keys are blocks, plus None for the
    roots.  Crossing input is rejected.
    """
    parents = _forest(p)
    children: dict = {None: []}
    for b in p.blocks:
        children[b] = []
    for b, i in zip(p.blocks, parents):
        children[p.blocks[i] if i >= 0 else None].append(b)
    return children


def tree_factorial(p: SetPartition) -> int:
    """Product over blocks of the size of the nesting subtree below them."""
    parents = _forest(p)
    sizes = [1] * len(parents)
    # A parent opens before its children, so it has the smaller index.
    for i in range(len(parents) - 1, 0, -1):
        if parents[i] >= 0:
            sizes[parents[i]] += sizes[i]
    return prod(sizes)


def monotone_labelling_count(p: SetPartition) -> int:
    """Number of monotone labellings, by the forest hook formula s!/tau!."""
    count, remainder = divmod(factorial(p.num_blocks), tree_factorial(p))
    if remainder:
        raise RuntimeError(f"hook formula failed on {p}; this is a bug")
    return count


def linear_extensions(p: SetPartition):
    """All outer-first block orders: every parent before all its children.

    Yields tuples of blocks; labels increase inward, so the last block is
    always one of the innermost (an interval).
    """
    children = nesting_children(p)
    parent = {c: b for b in children for c in children[b]}
    placed: list = []
    available = sorted(children[None])

    def grow():
        if len(placed) == p.num_blocks:
            yield tuple(placed)
            return
        for i, block in enumerate(list(available)):
            available.pop(i)
            placed.append(block)
            added = sorted(children[block])
            available.extend(added)
            yield from grow()
            for _ in added:
                available.pop()
            placed.pop()
            available.insert(i, block)

    yield from grow()


def enumerate_monotone(n: int, q: int) -> list[tuple[SetPartition, tuple]]:
    """Monotone partitions of [n] with q blocks: a non-crossing partition
    together with an outer-first total order on its blocks."""
    _check_n(n)
    if not 1 <= q <= n:
        raise ValueError(f"q must be between 1 and {n}, got {q}")
    out = []
    for p in enumerate_nc(n):
        if p.num_blocks == q:
            for order in linear_extensions(p):
                out.append((p, order))
    return out


_FAMILIES = {
    "nc": enumerate_nc,
    "irr-nc": enumerate_irreducible_nc,
    "interval": enumerate_interval,
}


def _weight_one(p: SetPartition) -> Fraction:
    return Fraction(1)


def _weight_inv_tau(p: SetPartition) -> Fraction:
    return Fraction(1, tree_factorial(p))


def _weight_sign(p: SetPartition) -> Fraction:
    return Fraction((-1) ** (p.num_blocks - 1))


def _weight_sign_inv_tau(p: SetPartition) -> Fraction:
    return Fraction((-1) ** (p.num_blocks - 1), tree_factorial(p))


def _weight_labelling(p: SetPartition) -> Fraction:
    # Counts the outer-first block orders directly, not by the hook formula,
    # so the tau-factorial route stays independent: orders(placed) is the
    # number of ways to place the blocks outside the bitmask `placed`, and a
    # block may be placed once its parent is.
    parents = _forest(p)
    k = len(parents)
    full = (1 << k) - 1

    @cache
    def orders(placed: int) -> int:
        if placed == full:
            return 1
        return sum(
            orders(placed | 1 << i)
            for i, parent in enumerate(parents)
            if not placed >> i & 1 and (parent < 0 or placed >> parent & 1)
        )

    return Fraction(orders(0), factorial(k))


WEIGHTS = {
    "one": _weight_one,
    "inv_tau": _weight_inv_tau,
    "sign": _weight_sign,
    "sign_inv_tau": _weight_sign_inv_tau,
    "labelling": _weight_labelling,
}


# (n, family, weight) -> (blocks, scale, groups) over the family's
# partitions of [n]:
# - blocks: the distinct blocks as 0-based position tuples, in order of
#   first use;
# - scale: the lcm of the weights' denominators;
# - groups: one (k, c * scale, partitions) per block count k and weight c,
#   each partition a tuple of indices into blocks.
# At most MAX_N * len(_FAMILIES) * len(WEIGHTS) keys; the largest, NC(12)
# with 208 012 partitions, holds about 21 MB.
_SHAPES: dict = {}


def _shapes(n: int, family: str, weight: str) -> tuple:
    key = (n, family, weight)
    shapes = _SHAPES.get(key)
    if shapes is None:
        weigh = WEIGHTS[weight]
        index: dict = {}
        groups: dict = {}
        found = _FAMILIES[family](n)
        # Popped from the end, each partition is freed once it is read, so
        # the finished shape never sits beside the whole list.
        found.reverse()
        while found:
            p = found.pop()
            members = groups.setdefault((len(p.blocks), weigh(p)), [])
            members.append(tuple(index.setdefault(b, len(index)) for b in p.blocks))
        scale = lcm(*(c.denominator for _, c in groups))
        blocks = tuple(tuple(x - 1 for x in b) for b in index)
        shapes = _SHAPES[key] = (
            blocks,
            scale,
            tuple(
                (k, c.numerator * (scale // c.denominator), tuple(members))
                for (k, c), members in groups.items()
            ),
        )
    return shapes


def partition_sum(values, w: Word, family: str, weight: str = "one") -> Fraction:
    """Sum over the family of weight(p) times the product of block values.

    `values` maps words to rationals (Fraction or int); each block
    contributes the value of the subword of w at the block's positions.
    Every block's entry is looked up, and a missing one raises
    IncompleteTableError rather than defaulting, even where another block's
    value is zero.

    The sum is exact and in integers: with L the lcm of the block values'
    denominators and N(B) = value(B) * L, a partition with k blocks
    contributes c * scale * prod N(B) * L^(n-k) over scale * L^n, so one
    Fraction is built at the end.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick from {sorted(_FAMILIES)}")
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; pick from {sorted(WEIGHTS)}")
    n = w.degree
    blocks, scale, groups = _shapes(n, family, weight)
    letter = w.__getitem__
    # Every distinct block, in order of first use, before any product: a
    # missing entry raises even where another block's value is zero.
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


def monotone_tuple_lincomb(n: int, q: int, w: Word) -> LinComb:
    """The formal sum of q-tuples of block subwords over monotone partitions.

    The j-th slot carries the subword at the block labelled j.  Used to
    cross-check the left-iterated reduced coproduct.
    """
    acc: dict = {}
    for _, order in enumerate_monotone(n, q):
        key = tuple(subword(w, block) for block in order)
        acc[key] = acc.get(key, 0) + 1
    return LinComb(acc.items())

