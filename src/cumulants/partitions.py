"""Set partitions of [n]: non-crossing, irreducible, interval, and monotone
families, nesting forests, tree factorials, and weighted partition sums.

Blocks are tuples of 1-based positions; a SetPartition keeps its blocks
sorted internally and ordered by minimum, which makes equality and hashing
structural.  Enumerations are deterministic and bounded (n <= 12 for the
non-crossing families, which is far beyond what the conversion pipelines
ever request).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

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


def _runs(merged) -> int:
    runs = 0
    last = None
    for _, label in merged:
        if label != last:
            runs += 1
            last = label
    return runs


def _blocks_cross(a, b) -> bool:
    # Two blocks cross exactly when their merged position sequence
    # alternates at least A B A B (four runs).
    merged = sorted([(x, 0) for x in a] + [(y, 1) for y in b])
    return _runs(merged) >= 4


def is_noncrossing(p: SetPartition) -> bool:
    return not any(
        _blocks_cross(a, b) for a, b in itertools.combinations(p.blocks, 2)
    )


def is_interval(p: SetPartition) -> bool:
    return all(b[-1] - b[0] + 1 == len(b) for b in p.blocks)


def is_irreducible(p: SetPartition) -> bool:
    """1 and n sit in the same block (and the partition is non-crossing)."""
    first = next(b for b in p.blocks if 1 in b)
    return p.n in first and is_noncrossing(p)


def _check_n(n: int, bound: int = MAX_N) -> None:
    if not 1 <= n <= bound:
        raise ValueError(f"n must be between 1 and {bound}, got {n}")


def enumerate_all_partitions(n: int):
    """Every set partition of [n]; the brute-force oracle for the others."""
    _check_n(n, bound=10)
    partial: list[list[int]] = []

    def grow(k: int):
        if k > n:
            yield SetPartition(n, [tuple(b) for b in partial])
            return
        for block in partial:
            block.append(k)
            yield from grow(k + 1)
            block.pop()
        partial.append([k])
        yield from grow(k + 1)
        partial.pop()

    return list(grow(1))


def _nc_blocks(elements: tuple[int, ...]):
    """Non-crossing partitions of an arbitrary finite position set.

    Decomposes on the block of the smallest element: the rest of that block
    is any subset of the remaining positions, and the leftover positions
    fall into gaps between consecutive block members, each partitioned
    independently (nothing may cross the block).
    """
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for r in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, r):
            block = (first,) + chosen
            gaps: list[list[int]] = [[] for _ in range(len(block))]
            for x in rest:
                if x in chosen:
                    continue
                # index of the gap: after block[i] and before block[i+1]
                i = 0
                while i + 1 < len(block) and x > block[i + 1]:
                    i += 1
                gaps[i].append(x)
            gap_parts = [list(_nc_blocks(tuple(g))) for g in gaps]
            for combo in itertools.product(*gap_parts):
                yield (block,) + tuple(itertools.chain.from_iterable(combo))


def enumerate_nc(n: int) -> list[SetPartition]:
    """All non-crossing partitions of [n] (Catalan many)."""
    _check_n(n)
    return [SetPartition(n, blocks) for blocks in _nc_blocks(tuple(range(1, n + 1)))]


def enumerate_irreducible_nc(n: int) -> list[SetPartition]:
    """Non-crossing partitions whose block of 1 also contains n."""
    _check_n(n)
    return [p for p in enumerate_nc(n) if p.n in next(b for b in p.blocks if 1 in b)]


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
        out.append(SetPartition(n, blocks))
    return out


def nesting_children(p: SetPartition) -> dict:
    """Children lists of the nesting forest of a non-crossing partition.

    V is a child of W when W is the innermost block with
    min W < min V and max V < max W.  Keys are blocks, plus None for the
    roots.  Crossing input is rejected.
    """
    if not is_noncrossing(p):
        raise ValueError(f"partition {p} is crossing; nesting needs non-crossing input")
    parent: dict = {}
    for v in p.blocks:
        best = None
        for w in p.blocks:
            if w is v:
                continue
            if w[0] < v[0] and v[-1] < w[-1]:
                if best is None or w[0] > best[0]:
                    best = w
        parent[v] = best
    children: dict = {None: []}
    for b in p.blocks:
        children[b] = []
    for v in p.blocks:
        children[parent[v]].append(v)
    return children


def tree_factorial(p: SetPartition) -> int:
    """Product over blocks of the size of the nesting subtree below them."""
    children = nesting_children(p)
    sizes: dict = {}

    def size(block) -> int:
        total = 1 + sum(size(c) for c in children[block])
        sizes[block] = total
        return total

    for root in children[None]:
        size(root)
    out = 1
    for b in p.blocks:
        out *= sizes[b]
    return out


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
    # Counts extensions directly so the tau-factorial route stays independent.
    count = sum(1 for _ in linear_extensions(p))
    return Fraction(count, factorial(p.num_blocks))


WEIGHTS = {
    "one": _weight_one,
    "inv_tau": _weight_inv_tau,
    "sign": _weight_sign,
    "sign_inv_tau": _weight_sign_inv_tau,
    "labelling": _weight_labelling,
}


def partition_sum(values, w: Word, family: str, weight: str = "one") -> Fraction:
    """Sum over the family of weight(p) times the product of block values.

    `values` maps words to scalars; each block contributes the value of the
    subword of w at the block's positions.  Missing entries raise
    IncompleteTableError rather than defaulting.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick from {sorted(_FAMILIES)}")
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}; pick from {sorted(WEIGHTS)}")
    weigh = WEIGHTS[weight]
    total = Fraction(0)
    for p in _FAMILIES[family](w.degree):
        product = weigh(p)
        for block in p.blocks:
            if not product:
                break
            piece = subword(w, block)
            try:
                product *= values[piece]
            except KeyError:
                raise IncompleteTableError(
                    f"no table value for the word {piece!r}", word=piece
                ) from None
        total += product
    return total


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

