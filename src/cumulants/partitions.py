"""Set partitions of [n]: non-crossing, irreducible, interval, and monotone
families, nesting forests, tree factorials, and weighted partition sums.

Blocks are tuples of 1-based positions; a SetPartition's blocks are sorted
internally and ordered by minimum, which makes equality, hashing, ordering
and printing structural.  Enumerations are deterministic and bounded by
MAX_N = 12 for the non-crossing families.  `transforms.CONVERT_DEGREE_CAP`
is MAX_N, so `convert` requests degree 12 itself: NC(12) holds 208 012
partitions.

The nesting forest of a non-crossing partition is one parent list, the
index in `blocks` of each block's parent (-1 for a root), from one scan
over the positions (`_forest`); `tree_factorial`, the labelling weight and
`linear_extensions` all read it.  The labelling weight is counted once per
distinct forest and kept in `_LABELLINGS`.

The non-crossing enumerators build each partition from the block of 1 and
the partitions of the gaps around it, and the same recursion gives its tree
factorial tau!, which the enumerated SetPartition carries.  The recursion
is two module-level functions, `_grow` and `_gap`, that share one memo dict
per enumeration: every gap is an interval, partitioned once and read by
every partition around it.  They give each distinct block an integer id
when it is first made, once per (gap, choice), and the ids number the
enumeration's block table in order of first use.  Each returns a gap's
records as two parallel lists, the tuples of block ids and the tau!, built
by list comprehensions; the memo goes when the outermost `_grow` returns,
before the SetPartitions are built.  Interval partitions are built one per
composition of n, from `words.compositions`, and have tau! = 1.  An
enumerated SetPartition holds its ids, the shared table and its tau!, and
spells `blocks` out only when it is first read: its block count, its tau!
and the weights that need no more never spell it.  The 1/tau! weights read
the recorded value, so no partition is scanned again for its nesting
forest; `tree_factorial` stays the forest scan, the independent definition,
and weighs a partition built by hand.

`partition_sum` enumerates and weighs each family once per (degree, family,
weight) and keeps the result as a shape: one reader per block of the
enumeration's block table, and the partitions grouped by block count k
and weight, each group's members one flat tuple of block ids, k per
partition, with the weights scaled to integers; no block is hashed again.
A reader takes a block's letters off a word in one C-level call: a slice
for consecutive positions, which covers every singleton and every
interval block, else an itemgetter over the positions.  Every weight in
WEIGHTS is an exact (numerator, denominator) pair of ints in lowest terms,
which the shape groups on as it is; no Fraction is kept per tau!.  The
shapes are bounded by MAX_N and hold no table values.  A sum over one word
then reads each distinct block once, one lookup and one
`as_integer_ratio()` per block, and does exact integer arithmetic over one
common denominator, with a single Fraction built at the end; the products
over each group's k-id runs are taken at C level.

The enumerators and the building of a shape run with the cyclic collector
paused (`_paused`).  Their records, partitions and shapes are tuples,
lists and dicts of ints that never refer back to themselves, and nothing
they call leaves a cycle behind, so the collector's passes over them found
nothing and only cost time: building the NC(12) shape took 779 passes and
148 ms by gc.callbacks, against one deferred pass of 9.5-14 ms after the
pause (Python 3.11).  That pass walks each flat tuple once, finds it holds
only ints and stops tracking it; a tuple per partition would make it 26 ms.
The pause puts the collector back as it found it, and a nested or
concurrent caller that finds it off leaves it off, so a concurrent caller
can only end a pause early.

The four cumulant-cumulant weights over irreducible non-crossing
partitions are those of Arizmendi, Hasebe, Lehner & Vargas, "Relations
between cumulants in noncommutative probability" (Adv. Math. 282, 2015,
arXiv:1408.2977).
"""

from __future__ import annotations

import gc
import itertools
from fractions import Fraction
from functools import wraps
from math import factorial, lcm, prod
from operator import itemgetter

from .errors import IncompleteTableError
from .words import Word, compositions

MAX_N = 12


def block_str(block) -> str:
    """A block as its positions in braces: {1,3}."""
    return "{" + ",".join(map(str, block)) + "}"


class SetPartition:
    """A partition of {1..n} into disjoint non-empty blocks.

    `tau` is the tree factorial when an enumerator built the partition, and
    None when it was built by hand; it takes no part in comparisons.  An
    enumerated partition holds its blocks as ids, indices into the block
    table that its whole enumeration shares, and spells `blocks` out on
    first read; a hand-built one is its own table, its ids 0..k-1.
    """

    __slots__ = ("n", "tau", "_ids", "_table", "_blocks")

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
        self.tau = None
        self._ids = range(len(cleaned))
        self._table = self._blocks = cleaned

    @property
    def blocks(self) -> tuple:
        """The blocks as sorted position tuples, ordered by minimum."""
        blocks = self._blocks
        if blocks is None:
            blocks = self._blocks = tuple(map(self._table.__getitem__, self._ids))
        return blocks

    @property
    def num_blocks(self) -> int:
        return len(self._ids)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __lt__(self, other: "SetPartition") -> bool:
        return (self.n, len(self._ids), self.blocks) < (
            other.n,
            len(other._ids),
            other.blocks,
        )

    def __str__(self) -> str:
        return "".join(map(block_str, self.blocks))

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
    blocks = p.blocks
    owner = [0] * (p.n + 1)
    for i, block in enumerate(blocks):
        for x in block:
            owner[x] = i
    parents: list[int] = []
    stack: list[int] = []
    for x in range(1, p.n + 1):
        i = owner[x]
        block = blocks[i]
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


def _paused(build):
    """`build`, run with the cyclic collector paused if it was enabled and
    enabled again on the way out, exceptions included; a caller that finds
    it off leaves it off.  The module docstring says why this is safe."""

    @wraps(build)
    def paused(*args):
        if not gc.isenabled():
            return build(*args)
        gc.disable()
        try:
            return build(*args)
        finally:
            gc.enable()

    return paused


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be between 1 and {MAX_N}, got {n}")


def _gap(gaps: dict, ids: dict, lo: int, hi: int) -> tuple[list, list]:
    """The records of lo..hi-1, kept in the memo, as parallel lists of
    block ids and of tau: a pair per record would hold about 5 MB more at
    n = 12."""
    found = gaps.get((lo, hi))
    if found is None:
        found = gaps[lo, hi] = _grow(gaps, ids, lo, hi, False)
    return found


def _grow(gaps: dict, ids: dict, first: int, stop: int, closed: bool) -> tuple[list, list]:
    """Non-crossing partitions of first..stop-1 (first < stop), as (blocks,
    tau) records in two parallel lists: the blocks as a tuple of block ids,
    ordered by the blocks' minima, and tau the tree factorial of the
    partition's nesting forest.

    `ids` numbers the distinct blocks of the enumeration, each a sorted
    position tuple, in the order they are first made; a block is made once
    per (gap, choice), so no record hashes a block.  The first partition of
    a gap is its singletons and the recursion makes a gap's inner blocks
    before the other blocks of its first position, so the numbering is also
    the order of first use in the enumerated list.

    Decomposes on the block B of `first`: the rest of B is any subset of the
    remaining positions, and the leftover positions fall into gaps, each
    partitioned independently (nothing may cross B) and read through `_gap`.
    The blocks of the inner gaps, between consecutive members of B, make up
    B's subtree of the nesting forest, and those of the trailing gap, after
    B's last member, are its siblings and their subtrees.  So
    tau = (1 + k_inner) * prod(tau of the inner gaps) * tau(trailing gap),
    where k_inner counts the blocks of the inner gaps.  With `closed` the
    block of `first` also holds stop-1, which gives the irreducible
    partitions without building the others; their trailing gap is empty.
    """
    rest = range(first + 1, stop)
    free, forced = (rest[:-1], (stop - 1,)) if closed and rest else (rest, ())
    found, found_taus = [], []
    for r in range(len(free) + 1):
        for chosen in itertools.combinations(free, r):
            block = (first,) + chosen + forced
            # block with each choice of its subtree, with the product of the
            # inner gaps' tau while the inner gaps are filled in, then with
            # the tau of the subtree
            trees, taus = [(ids.setdefault(block, len(ids)),)], [1]
            for lo, hi in zip(block, block[1:]):
                if hi > lo + 1:
                    inner, inner_taus = _gap(gaps, ids, lo + 1, hi)
                    trees = [below + b for below in trees for b in inner]
                    taus = [tau * t for tau in taus for t in inner_taus]
            taus = [len(below) * tau for below, tau in zip(trees, taus)]
            if block[-1] + 1 == stop:
                found += trees
                found_taus += taus
            else:
                after, after_taus = _gap(gaps, ids, block[-1] + 1, stop)
                found += [below + b for below in trees for b in after]
                found_taus += [tau * t for tau in taus for t in after_taus]
    return found, found_taus


def _built(n: int, table: list, found: list, taus: list) -> list[SetPartition]:
    """The enumerators' SetPartitions, in `found` itself: each record must
    already be a tuple of indices into `table`, whose blocks partition 1..n
    as sorted tuples ordered by minimum, with its tree factorial in `taus`;
    nothing is checked.  `taus` is emptied."""
    new = SetPartition.__new__
    # Each record is replaced by its partition in place, and `taus` shrinks
    # as it is read: at NC(12) the enumeration's peak would otherwise hold
    # a second list and the whole of `taus`, 3.3 MB more.
    for i in range(len(found) - 1, -1, -1):
        p = new(SetPartition)
        p.n = n
        p.tau = taus.pop()
        p._ids = found[i]
        p._table = table
        p._blocks = None
        found[i] = p
    return found


@_paused
def _nc(n: int, closed: bool) -> list[SetPartition]:
    """NC(n), or its irreducible partitions when `closed`."""
    _check_n(n)
    ids: dict = {}
    # the gap memo goes when _grow returns, before the SetPartitions are built
    found, taus = _grow({}, ids, 1, n + 1, closed)
    return _built(n, list(ids), found, taus)


def enumerate_nc(n: int) -> list[SetPartition]:
    """All non-crossing partitions of [n] (Catalan many)."""
    return _nc(n, False)


def enumerate_irreducible_nc(n: int) -> list[SetPartition]:
    """Non-crossing partitions whose block of 1 also contains n."""
    return _nc(n, True)


@_paused
def enumerate_interval(n: int) -> list[SetPartition]:
    """Partitions into consecutive blocks, one per composition of n."""
    _check_n(n)
    ids: dict = {}  # (a, b) -> the id of the block a+1..b
    found = []
    for parts in compositions(n):
        cuts = (0, *itertools.accumulate(parts))
        found.append(tuple(ids.setdefault(cut, len(ids)) for cut in zip(cuts, cuts[1:])))
    table = [tuple(range(a + 1, b + 1)) for a, b in ids]
    # no block nests in another, so the tree factorial is 1
    return _built(n, table, found, [1] * len(found))


def tree_factorial(p: SetPartition) -> int:
    """Product over blocks of the size of the nesting subtree below them."""
    parents = _forest(p)
    sizes = [1] * len(parents)
    # A parent opens before its children, so it has the smaller index.
    for i in range(len(parents) - 1, 0, -1):
        if parents[i] >= 0:
            sizes[parents[i]] += sizes[i]
    return prod(sizes)


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
    yield from _extend(blocks, children, roots, ())


def _extend(blocks: tuple, children: list, available: list, placed: tuple):
    """The orders of `linear_extensions` that begin with `placed`: each
    available block next, its children joining the rest after it."""
    if not available:
        yield placed
    for k, i in enumerate(available):
        rest = available[:k] + available[k + 1 :] + children[i]
        yield from _extend(blocks, children, rest, placed + (blocks[i],))


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


def _weight_one(p: SetPartition) -> tuple[int, int]:
    return 1, 1


def _tau(p: SetPartition) -> int:
    """The tree factorial the enumerator recorded, else the forest scan."""
    return tree_factorial(p) if p.tau is None else p.tau


def _weight_inv_tau(p: SetPartition) -> tuple[int, int]:
    return 1, _tau(p)


def _weight_sign(p: SetPartition) -> tuple[int, int]:
    return (-1) ** (p.num_blocks - 1), 1


def _weight_sign_inv_tau(p: SetPartition) -> tuple[int, int]:
    return (-1) ** (p.num_blocks - 1), _tau(p)


# nesting forest, as the tuple of `_forest` -> its labelling weight.  NC(n <= 8)
# has 2055 partitions but only 152 distinct forests, and NC(n <= MAX_N) 4021.
_LABELLINGS: dict = {}


def _weight_labelling(p: SetPartition) -> tuple[int, int]:
    parents = tuple(_forest(p))
    weight = _LABELLINGS.get(parents)
    if weight is None:
        weight = _LABELLINGS[parents] = _count_labellings(parents)
    return weight


def _count_labellings(parents: tuple) -> tuple[int, int]:
    # Counts the outer-first block orders directly, not by the hook formula,
    # so the tau-factorial route stays independent: a block may be placed
    # once its parent is.  The memo is a plain dict handed down, so a call
    # leaves no cycle behind (a self-naming cached closure would).
    k = len(parents)
    memo = {(1 << k) - 1: 1}
    return Fraction(_orders(parents, memo, 0), factorial(k)).as_integer_ratio()


def _orders(parents: tuple, memo: dict, placed: int) -> int:
    """The number of ways to place the blocks outside the bitmask `placed`,
    kept in `memo`, which starts with 1 for the full mask."""
    found = memo.get(placed)
    if found is None:
        found = memo[placed] = sum(
            _orders(parents, memo, placed | 1 << i)
            for i, parent in enumerate(parents)
            if not placed >> i & 1 and (parent < 0 or placed >> parent & 1)
        )
    return found


# name -> the weight of a partition, as (numerator, denominator) in lowest terms
WEIGHTS = {
    "one": _weight_one,
    "inv_tau": _weight_inv_tau,
    "sign": _weight_sign,
    "sign_inv_tau": _weight_sign_inv_tau,
    "labelling": _weight_labelling,
}


# (n, family, weight) -> (readers, scale, groups) over the family's
# partitions of [n]:
# - readers: one per block of the enumeration's block table, in order of
#   first use, each an itemgetter that reads the block's letters off a word
#   as a tuple: itemgetter(slice(lo, hi + 1)) when the block is the
#   consecutive positions lo..hi (every singleton and every interval
#   block), itemgetter(*positions) otherwise, 0-based;
# - scale: the lcm of the weights' denominators;
# - groups: one (k, c * scale, members) per block count k and weight c,
#   members one flat tuple of block ids, indices into readers, k per
#   partition and the partitions in enumeration order.
# Each partition is weighed once, through WEIGHTS, and grouped on the
# integers (k, numerator, denominator) of its weight; the block count is
# the length of its ids, and the 1/tau! weights read the tau! the
# enumerator found, so only the labelling weight spells any blocks.  A
# shape is built with the cyclic collector paused (see the module
# docstring); it is then a few objects per group, not one per partition.
# At most MAX_N * len(_FAMILIES) * len(WEIGHTS) keys; the largest, NC(12)
# with 208 012 partitions and 4095 blocks, holds 11.6 MB under the weight
# one and 12.4 MB under labelling, as traced by tracemalloc on Python 3.11;
# a tuple per partition would take 21.6 and 22.4 MB.
_SHAPES: dict = {}


def _reader(block: tuple):
    """Reads a block's letters off a word as a plain tuple: one slice for
    consecutive positions (every singleton and interval block), else one
    item per position; `block` holds 1-based positions."""
    lo, hi = block[0] - 1, block[-1]
    if hi - lo == len(block):
        return itemgetter(slice(lo, hi))
    return itemgetter(*(x - 1 for x in block))


def _shapes(n: int, family: str, weight: str) -> tuple:
    key = (n, family, weight)
    shapes = _SHAPES.get(key)
    if shapes is None:
        shapes = _SHAPES[key] = _shape(n, family, weight)
    return shapes


@_paused
def _shape(n: int, family: str, weight: str) -> tuple:
    """The entry of _SHAPES for (n, family, weight), built from one
    enumeration."""
    weigh = WEIGHTS[weight]
    groups: dict = {}
    group = groups.get
    found = _FAMILIES[family](n)
    table = found[0]._table  # one table per enumeration
    # Popped from the end, each partition is freed once it is read, and
    # only its ids stay, in its group.
    found.reverse()
    while found:
        p = found.pop()
        ids = p._ids
        kind = (len(ids), *weigh(p))
        members = group(kind)
        if members is None:
            members = groups[kind] = []
        members.append(ids)
    # Flattened largest group first, each group's tuples freed once read:
    # in enumeration order, free -> moment at one generator, degree 10,
    # peaked 0.25 MB higher in resident memory (Python 3.11, glibc).
    flat = dict.fromkeys(groups)
    for kind in sorted(groups, key=lambda kind: -len(groups[kind])):
        flat[kind] = tuple(itertools.chain.from_iterable(groups.pop(kind)))
    scale = lcm(*(den for _, _, den in flat))
    return (
        tuple(map(_reader, table)),
        scale,
        tuple(
            (k, num * (scale // den), members)
            for (k, num, den), members in flat.items()
        ),
    )


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
    readers, scale, groups = _shapes(n, family, weight)
    # Every distinct block, in order of first use, before any product: a
    # missing entry raises even where another block's value is zero.
    try:
        ratios = [values[read(w)].as_integer_ratio() for read in readers]
    except KeyError:
        piece = Word(next(read(w) for read in readers if read(w) not in values))
        raise IncompleteTableError(
            f"no table value for the word {piece!r}", word=piece
        ) from None
    common = lcm(*[den for _, den in ratios])
    at = [num * (common // den) for num, den in ratios].__getitem__
    total = 0
    for k, scaled, members in groups:
        # k consecutive members make one partition
        total += scaled * sum(map(prod, zip(*[map(at, members)] * k))) * common ** (n - k)
    return Fraction(total, scale * common**n)


def monotone_tuple_counts(n: int, q: int, w: Word) -> dict:
    """The formal sum of q-tuples of block subwords over monotone partitions,
    as a dict from each tuple to its count.

    The j-th slot carries the subword at the block labelled j.  Used to
    cross-check the left-iterated reduced coproduct.
    """
    acc: dict = {}
    subwords: dict = {}  # block -> the subword at it, built once per call
    for _, order in enumerate_monotone(n, q):
        for block in order:
            if block not in subwords:
                subwords[block] = Word(w[p - 1] for p in block)
        key = tuple(map(subwords.__getitem__, order))
        acc[key] = acc.get(key, 0) + 1
    return acc

