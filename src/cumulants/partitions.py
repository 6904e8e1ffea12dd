"""Set partitions of [n]: non-crossing, irreducible, interval, and monotone
families, nesting forests, tree factorials, and weighted partition sums.

Blocks are tuples of 1-based positions; a SetPartition keeps its blocks
sorted internally and ordered by minimum, which makes equality and hashing
structural.  Enumerations are deterministic and bounded by MAX_N = 12 for
the non-crossing families.  `transforms.CONVERT_DEGREE_CAP` is MAX_N, so
`convert` requests degree 12 itself: NC(12) holds 208 012 partitions.

The nesting forest of a non-crossing partition is one parent list, the
index in `blocks` of each block's parent (-1 for a root), from one scan
over the positions (`_forest`); `tree_factorial`, the labelling weight and
`linear_extensions` all read it.

The non-crossing enumerators build each partition from the block of 1 and
the partitions of the gaps around it, and the same recursion gives its tree
factorial tau!, which the enumerated SetPartition carries; an interval
partition has tau! = 1.  The 1/tau! weights read that value, so no
partition is scanned again for its nesting forest; `tree_factorial` stays
the forest scan, the independent definition, and weighs a partition built
by hand.

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
from collections import defaultdict
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod

from .errors import IncompleteTableError
from .words import Word

MAX_N = 12


class SetPartition:
    """A partition of {1..n} into disjoint non-empty blocks.

    `tau` is the tree factorial when an enumerator built the partition, and
    None when it was built by hand; it takes no part in comparisons.
    """

    __slots__ = ("n", "blocks", "tau")

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
        self.tau = None

    @classmethod
    def _trusted(cls, n: int, blocks: tuple, tau: int) -> "SetPartition":
        """The enumerators' constructor: `blocks` must already be sorted
        tuples that partition 1..n, ordered by minimum, and `tau` their tree
        factorial; nothing is checked."""
        p = cls.__new__(cls)
        p.n = n
        p.blocks = blocks
        p.tau = tau
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
        return hash((self.n, self.blocks))

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


def _forest(p: SetPartition) -> list[int]:
    """Index in p.blocks of each block's parent in the nesting forest (-1
    for a root); crossing input is rejected.

    V is a child of W when W is the innermost block with min W < min V and
    max V < max W.  One scan over the positions with a stack of the blocks
    opened and not yet closed.  Blocks cross exactly when a block is
    revisited while a block opened after it is still open; otherwise the
    open blocks are nested, and the innermost one is the parent of a block
    that opens.
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
            raise ValueError(
                f"partition {p} is crossing; nesting needs non-crossing input"
            )
        elif x == block[-1]:
            stack.pop()
    return parents


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be between 1 and {MAX_N}, got {n}")


def _nc_blocks(n: int, closed: bool = False):
    """Non-crossing partitions of [n], as (blocks, tau) records: the blocks
    as sorted tuples ordered by minimum, and tau the tree factorial of the
    partition's nesting forest.

    Decomposes on the block B of the smallest element: the rest of B is any
    subset of the remaining positions, and the leftover positions fall into
    gaps, each partitioned independently (nothing may cross B).  The blocks
    of the inner gaps, between consecutive members of B, make up B's
    subtree of the nesting forest, and those of the trailing gap, after B's
    last member, are its siblings and their subtrees.  So
    tau = (1 + k_inner) * prod(tau of the inner gaps) * tau(trailing gap),
    where k_inner counts the blocks of the inner gaps.  With `closed` the
    block of 1 also holds n, which gives the irreducible partitions without
    building the others.  Every gap is an interval, so each one is
    partitioned once per call and its records shared by the partitions
    around it; they are dropped when the enumeration ends.
    """
    gaps: dict = {}

    def gap(lo: int, hi: int) -> tuple:
        # the records of lo..hi-1 as two parallel tuples, blocks and tau: a
        # pair per record would hold about 5 MB more at n = 12
        key = (lo, hi)
        parts = gaps.get(key)
        if parts is None:
            parts = gaps[key] = tuple(zip(*grow(lo, hi, False)))
        return parts

    def grow(first: int, stop: int, closed: bool):
        # the records of first..stop-1
        if first >= stop:
            yield (), 1
            return
        rest = range(first + 1, stop)
        free, forced = (rest[:-1], (stop - 1,)) if closed and rest else (rest, ())
        for r in range(len(free) + 1):
            for chosen in itertools.combinations(free, r):
                block = (first,) + chosen + forced
                # block with each choice of its subtree, as (blocks, product
                # of the inner gaps' tau) while the inner gaps are filled in,
                # then as (blocks, tau of the subtree)
                trees = [((block,), 1)]
                for lo, hi in zip(block, block[1:]):
                    if hi > lo + 1:
                        trees = [
                            (below + inner, tau * inner_tau)
                            for below, tau in trees
                            for inner, inner_tau in zip(*gap(lo + 1, hi))
                        ]
                trees = [(below, len(below) * tau) for below, tau in trees]
                trailing = gap(block[-1] + 1, stop)
                for below, tau in trees:
                    for after, after_tau in zip(*trailing):
                        yield below + after, tau * after_tau

    # The two closures refer to each other, so without the clear the records
    # would outlive the enumeration until the cyclic collector runs.
    try:
        yield from grow(1, n + 1, closed)
    finally:
        gaps.clear()


def enumerate_nc(n: int) -> list[SetPartition]:
    """All non-crossing partitions of [n] (Catalan many)."""
    _check_n(n)
    return [SetPartition._trusted(n, blocks, tau) for blocks, tau in _nc_blocks(n)]


def enumerate_irreducible_nc(n: int) -> list[SetPartition]:
    """Non-crossing partitions whose block of 1 also contains n."""
    _check_n(n)
    return [SetPartition._trusted(n, b, tau) for b, tau in _nc_blocks(n, closed=True)]


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
        # no block nests in another, so the tree factorial is 1
        out.append(SetPartition._trusted(n, tuple(blocks), 1))
    return out


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
    blocks = p.blocks
    # Children as block indices, in index order, which is the order of the
    # blocks themselves: they are sorted by minimum.
    roots: list[int] = []
    children: list[list[int]] = [[] for _ in blocks]
    for i, parent in enumerate(_forest(p)):
        (children[parent] if parent >= 0 else roots).append(i)
    placed: list = []
    available = roots

    def grow():
        if len(placed) == len(blocks):
            yield tuple(placed)
            return
        for k, i in enumerate(list(available)):
            available.pop(k)
            placed.append(blocks[i])
            added = children[i]
            available.extend(added)
            yield from grow()
            for _ in added:
                available.pop()
            placed.pop()
            available.insert(k, i)

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


_ONE = Fraction(1)


def _weight_one(p: SetPartition) -> Fraction:
    return _ONE


def _tau(p: SetPartition) -> int:
    """The tree factorial the enumerator recorded, else the forest scan."""
    return tree_factorial(p) if p.tau is None else p.tau


def _weight_inv_tau(p: SetPartition) -> Fraction:
    return Fraction(1, _tau(p))


def _weight_sign(p: SetPartition) -> Fraction:
    return Fraction((-1) ** (p.num_blocks - 1))


def _weight_sign_inv_tau(p: SetPartition) -> Fraction:
    return Fraction((-1) ** (p.num_blocks - 1), _tau(p))


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
# Each partition is weighed once, through WEIGHTS, and grouped on the
# integers (k, numerator, denominator) of its weight; the block count is
# len(p.blocks), and the 1/tau! weights read the tau! the enumerator found.
# At most MAX_N * len(_FAMILIES) * len(WEIGHTS) keys; the largest, NC(12)
# with 208 012 partitions, holds about 21 MB.
_SHAPES: dict = {}


def _shapes(n: int, family: str, weight: str) -> tuple:
    key = (n, family, weight)
    shapes = _SHAPES.get(key)
    if shapes is None:
        weigh = WEIGHTS[weight]
        # a block's index is the number of blocks seen before it
        index: defaultdict = defaultdict()
        index.default_factory = index.__len__
        at = index.__getitem__
        groups: dict = {}
        found = _FAMILIES[family](n)
        # Popped from the end, each partition is freed once it is read, so
        # the finished shape never sits beside the whole list.
        found.reverse()
        while found:
            p = found.pop()
            c = weigh(p)
            members = groups.setdefault((len(p.blocks), c.numerator, c.denominator), [])
            members.append(tuple(map(at, p.blocks)))
        scale = lcm(*(den for _, _, den in groups))
        blocks = tuple(tuple(x - 1 for x in b) for b in index)
        shapes = _SHAPES[key] = (
            blocks,
            scale,
            tuple(
                (k, num * (scale // den), tuple(members))
                for (k, num, den), members in groups.items()
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


def monotone_tuple_counts(n: int, q: int, w: Word) -> dict:
    """The formal sum of q-tuples of block subwords over monotone partitions,
    as a dict from each tuple to its count.

    The j-th slot carries the subword at the block labelled j.  Used to
    cross-check the left-iterated reduced coproduct.
    """
    acc: dict = {}
    for _, order in enumerate_monotone(n, q):
        key = tuple(Word(w[p - 1] for p in block) for block in order)
        acc[key] = acc.get(key, 0) + 1
    return acc

