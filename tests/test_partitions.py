"""Set partition families, nesting forests, and lattice sums."""

import functools
import gc
import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction as F
from math import comb, factorial, lcm, prod

import partitions_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumulants import partitions
from cumulants.cli import main
from cumulants.errors import IncompleteTableError
from cumulants.partitions import (
    SetPartition,
    enumerate_interval,
    enumerate_irreducible_nc,
    enumerate_monotone,
    enumerate_nc,
    linear_extensions,
    partition_sum,
    tree_factorial,
)
from cumulants.words import Word, all_words


def subword(w, block):
    """Letters of w at a block's 1-based positions, in the block's order."""
    return Word(w[p - 1] for p in block)


def part(n, *blocks):
    return SetPartition(n, blocks)


def enumerate_all_partitions(n):
    """Every set partition of [n]; the brute-force oracle for the families."""
    partial = []

    def grow(k):
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


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def bell(n):
    total = 0
    for k in range(n):
        total = total + comb(n - 1, k) * BELL[k]
    return total


BELL = [1]
for _ in range(10):
    BELL.append(bell(len(BELL)))


def test_partition_validation():
    with pytest.raises(ValueError):
        part(3, (1, 2))  # 3 missing
    with pytest.raises(ValueError):
        part(3, (1, 2), (2, 3))  # 2 covered twice
    with pytest.raises(ValueError):
        part(2, (1, 2, 3))  # out of range


def test_partition_str_sorts_blocks_by_minimum():
    assert str(part(4, (2, 3), (1, 4))) == "{1,4}{2,3}"


def test_crossing_detection():
    assert is_noncrossing(part(4, (1, 3), (2, 4))) is False
    assert is_noncrossing(part(4, (1, 4), (2, 3))) is True
    assert is_noncrossing(part(6, (1, 4), (2, 6), (3,), (5,))) is False


def test_family_predicates():
    nested = part(4, (1, 4), (2, 3))
    assert is_noncrossing(nested) and not is_interval(nested)
    assert is_irreducible(nested)
    chain = part(4, (1, 2), (3, 4))
    assert is_interval(chain) and not is_irreducible(chain)


def test_enumerate_all_matches_bell_numbers():
    for n in range(1, 8):
        assert len(enumerate_all_partitions(n)) == BELL[n]


def test_enumerate_nc_matches_catalan():
    for n in range(1, 9):
        ps = enumerate_nc(n)
        assert len(ps) == catalan(n)
        assert len(set(ps)) == len(ps)
        assert all(is_noncrossing(p) for p in ps)


def test_enumerate_nc_agrees_with_filtering_all():
    for n in range(1, 7):
        brute = {p for p in enumerate_all_partitions(n) if is_noncrossing(p)}
        assert set(enumerate_nc(n)) == brute


def test_enumerate_irreducible_matches_shifted_catalan():
    for n in range(2, 9):
        ps = enumerate_irreducible_nc(n)
        assert len(ps) == catalan(n - 1)
        assert all(is_irreducible(p) and is_noncrossing(p) for p in ps)
    assert len(enumerate_irreducible_nc(1)) == 1


def test_enumerate_interval_is_a_power_of_two():
    for n in range(1, 9):
        ps = enumerate_interval(n)
        assert len(ps) == 2 ** (n - 1)
        assert all(is_interval(p) for p in ps)


def test_interval_partitions_are_noncrossing():
    for n in range(1, 8):
        assert all(is_noncrossing(p) for p in enumerate_interval(n))


def test_nesting_children_example():
    # {1,6}{2,3}{4,5} nests two siblings under the spanning block
    p = part(6, (1, 6), (2, 3), (4, 5))
    kids = nesting_children(p)
    assert kids[None] == [(1, 6)]
    assert kids[(1, 6)] == [(2, 3), (4, 5)]
    assert kids[(2, 3)] == []


def test_nesting_children_rejects_crossings():
    with pytest.raises(ValueError):
        nesting_children(part(4, (1, 3), (2, 4)))


def test_tree_factorial_examples():
    assert tree_factorial(part(3, (1, 2, 3))) == 1
    # chain of depth three: sizes 3, 2, 1
    p = part(6, (1, 6), (2, 5), (3, 4))
    assert tree_factorial(p) == 6
    # two siblings under one root: sizes 3, 1, 1
    q = part(6, (1, 6), (2, 3), (4, 5))
    assert tree_factorial(q) == 3


@pytest.mark.parametrize("family", ["nc", "irr-nc", "interval"])
def test_enumerated_tau_is_the_forest_scan(family):
    # the enumerators' tau comes from the recursion, tree_factorial from
    # scanning the nesting forest
    for n in range(1, 10):
        for p in partitions._FAMILIES[family](n):
            assert p.tau == tree_factorial(p), p


def test_a_hand_built_partition_weighs_as_the_enumerated_one():
    for n in range(1, 8):
        for p in enumerate_nc(n):
            q = SetPartition(n, p.blocks)
            assert q.tau is None and q == p and hash(q) == hash(p)
            for weight in ("inv_tau", "sign_inv_tau"):
                assert partitions.WEIGHTS[weight](q) == partitions.WEIGHTS[weight](p)


@pytest.mark.parametrize(
    "enumerate_family,count",
    [(enumerate_nc, catalan(10)), (enumerate_irreducible_nc, catalan(9))],
    ids=["nc", "irr-nc"],
)
def test_enumeration_holds_no_gap_records_once_done(enumerate_family, count):
    # With the cyclic collector off, whatever the enumeration keeps alive
    # after it returns stays among the tracked objects.  (Traced bytes would
    # also count the small tuples the interpreter keeps for reuse, which
    # move by 0.1-0.2 MB between runs.)  The irr-nc case runs the closed
    # path, where every block of 1 ends at n and skips the trailing gap.
    gc.disable()
    try:
        enumerate_family(10)
        before = {id(o) for o in gc.get_objects()}
        assert len(enumerate_family(10)) == count
        kept = [o for o in gc.get_objects() if id(o) not in before and o is not before]
    finally:
        gc.enable()
    assert sum(map(sys.getsizeof, kept)) < 100_000


def test_labelling_count_is_hook_quotient():
    # The hook formula counts labellings as s!/tau!, so tau! divides s!.
    for n in range(1, 8):
        for p in enumerate_nc(n):
            assert factorial(p.num_blocks) % tree_factorial(p) == 0, p


def test_labelling_count_matches_brute_force_extensions(capsys):
    # `partitions --stats` prints m = s!/tau! from the recorded tau!.
    for family, enumerate_family in (
        ("nc", enumerate_nc),
        ("irr-nc", enumerate_irreducible_nc),
    ):
        for n in range(1, 8):
            argv = ["partitions", "--n", str(n), "--family", family, "--stats"]
            assert main([*argv, "--format", "json"]) == 0
            items = json.loads(capsys.readouterr().out)["items"]
            ps = sorted(enumerate_family(n))
            assert [item["partition"] for item in items] == [str(p) for p in ps]
            for item, p in zip(items, ps):
                listed = sum(1 for _ in linear_extensions(p))
                assert item["labellings"] == listed, p
                assert item["tree_factorial"] == tree_factorial(p), p


def test_labelling_weight_is_the_share_of_listed_extensions():
    for n in range(1, 9):
        for p in enumerate_nc(n) + enumerate_interval(n):
            listed = sum(1 for _ in linear_extensions(p))
            weight = F(*partitions.WEIGHTS["labelling"](p))
            assert weight == F(listed, factorial(p.num_blocks))


def test_linear_extensions_put_parents_first():
    p = part(6, (1, 6), (2, 5), (3, 4))
    exts = list(linear_extensions(p))
    assert exts == [((1, 6), (2, 5), (3, 4))]
    # the sequence too: siblings by minimum, a placed block's children
    # after the blocks already available
    siblings = part(6, (1, 6), (2, 3), (4, 5))
    assert list(linear_extensions(siblings)) == [
        ((1, 6), (2, 3), (4, 5)),
        ((1, 6), (4, 5), (2, 3)),
    ]
    roots = part(5, (1, 4), (2, 3), (5,))
    assert list(linear_extensions(roots)) == [
        ((1, 4), (5,), (2, 3)),
        ((1, 4), (2, 3), (5,)),
        ((5,), (1, 4), (2, 3)),
    ]


def test_linear_extensions_are_the_outer_first_permutations_once_each():
    # The brute force reads nesting off the blocks' ends, not the forest
    # scan: W encloses V when min W < min V and max V < max W.
    for n in range(1, 7):
        for p in enumerate_nc(n):
            listed = list(linear_extensions(p))
            outer_first = {
                order
                for order in itertools.permutations(p.blocks)
                if all(
                    not (v[0] < w[0] and w[-1] < v[-1])
                    for i, w in enumerate(order)
                    for v in order[i + 1 :]
                )
            }
            assert len(listed) == len(set(listed)), p
            assert set(listed) == outer_first, p


def test_enumerate_monotone_total_counts():
    totals = []
    for n in range(1, 7):
        totals.append(
            sum(len(enumerate_monotone(n, q)) for q in range(1, n + 1))
        )
    # n=2: the pair partition once, the singletons in both orders
    assert totals[:3] == [1, 3, 12]
    assert totals == [
        sum(factorial(p.num_blocks) // p.tau for p in enumerate_nc(n))
        for n in range(1, 7)
    ]


def test_partition_sum_free_two_letters():
    values = {
        Word((0,)): F(2),
        Word((1,)): F(3),
        Word((0, 0)): F(5),
        Word((0, 1)): F(7),
        Word((1, 0)): F(11),
        Word((1, 1)): F(13),
    }
    # NC(2) = {12}, {1}{2}
    got = partition_sum(values, Word((0, 1)), "nc", "one")
    assert got == 7 + 2 * 3


def test_partition_sum_blocks_use_subwords():
    values = {
        Word((0,)): F(2),
        Word((1,)): F(3),
        Word((0, 0)): F(5),
        Word((0, 1)): F(7),
        Word((1, 0)): F(11),
        Word((1, 1)): F(13),
        Word((0, 1, 0)): F(17),
        Word((0, 0, 1)): F(19),
        Word((0, 0, 0)): F(23),
        Word((1, 0, 0)): F(29),
        Word((0, 1, 1)): F(31),
        Word((1, 0, 1)): F(37),
        Word((1, 1, 0)): F(41),
        Word((1, 1, 1)): F(43),
    }
    # NC(3): {123}, {1}{23}, {12}{3}, {13}{2}, {1}{2}{3} on the word aba;
    # the block {1,3} reads the subword aa
    got = partition_sum(values, Word((0, 1, 0)), "nc", "one")
    assert got == 17 + 2 * 11 + 7 * 2 + 5 * 3 + 2 * 3 * 2


def test_partition_sum_weights():
    values = {Word((0,) * n): F(v) for n, v in ((1, 2), (2, 3), (3, 5))}
    w = Word((0, 0, 0))
    # irreducible NC(3): {123} and {13}{2} with tau! = 2
    assert partition_sum(values, w, "irr-nc", "one") == 5 + 2 * 3
    assert partition_sum(values, w, "irr-nc", "sign") == 5 - 2 * 3
    assert partition_sum(values, w, "irr-nc", "inv_tau") == 5 + F(2 * 3, 2)
    assert partition_sum(values, w, "irr-nc", "sign_inv_tau") == 5 - F(2 * 3, 2)


def test_partition_sum_labelling_weight_matches_inv_tau():
    values = {Word((0,) * n): F(v) for n, v in ((1, 2), (2, -3), (3, 5), (4, 7))}
    w = Word((0, 0, 0, 0))
    assert partition_sum(values, w, "nc", "labelling") == partition_sum(
        values, w, "nc", "inv_tau"
    )


def test_partition_sum_rejects_unknowns():
    values = {Word((0,)): F(1)}
    with pytest.raises(ValueError):
        partition_sum(values, Word((0,)), "crossing", "one")
    with pytest.raises(ValueError):
        partition_sum(values, Word((0,)), "nc", "heavy")
    with pytest.raises(IncompleteTableError):
        partition_sum(values, Word((0, 0)), "nc", "one")


def test_partition_sum_looks_up_blocks_behind_a_zero_factor():
    a, b = 0, 1
    values = {Word((b,)): F(0), Word((a,)): F(2), Word((b, a)): F(1), Word((b, a, a)): F(5)}
    # {1}{2,3} on baa reads b and the missing aa; b's zero must not hide it
    with pytest.raises(IncompleteTableError) as info:
        partition_sum(values, Word((b, a, a)), "nc", "one")
    assert info.value.word == Word((a, a))


def _crossing_pair(a, b):
    return any(
        x1 < y1 < x2 < y2 or y1 < x1 < y2 < x2
        for x1, x2 in itertools.combinations(a, 2)
        for y1, y2 in itertools.combinations(b, 2)
    )


def _pairwise_noncrossing(p):
    return not any(_crossing_pair(a, b) for a, b in itertools.combinations(p.blocks, 2))


def is_noncrossing(p):
    """The nesting scan's verdict: the forest of a crossing partition is refused."""
    try:
        partitions._forest(p)
    except ValueError:
        return False
    return True


def is_interval(p):
    return all(b[-1] - b[0] + 1 == len(b) for b in p.blocks)


def is_irreducible(p):
    """1 and n sit in the same block (and the partition is non-crossing)."""
    return p.n in p.blocks[0] and is_noncrossing(p)


def nesting_children(p):
    """Children lists of the nesting forest, keyed by block, None for the
    roots, read off the parent indices of `partitions._forest`."""
    parents = partitions._forest(p)
    children = {None: [], **{b: [] for b in p.blocks}}
    for b, i in zip(p.blocks, parents):
        children[p.blocks[i] if i >= 0 else None].append(b)
    return children


def _innermost_cover(p, v):
    covers = [w for w in p.blocks if w[0] < v[0] and v[-1] < w[-1]]
    return max(covers, default=None)


def test_noncrossing_scan_matches_the_pairwise_definition():
    for n in range(1, 8):
        for p in enumerate_all_partitions(n):
            assert is_noncrossing(p) == _pairwise_noncrossing(p), p


def test_nesting_forest_matches_the_innermost_cover():
    for n in range(1, 8):
        for p in enumerate_nc(n):
            kids = nesting_children(p)
            parent = {c: b for b in kids for c in kids[b]}
            assert parent == {v: _innermost_cover(p, v) for v in p.blocks}, p


def test_irreducible_enumeration_is_the_filtered_nc_lattice():
    for n in range(1, 11):
        filtered = {p for p in enumerate_nc(n) if p.n in p.blocks[0]}
        ps = enumerate_irreducible_nc(n)
        assert len(ps) == len(filtered)
        assert set(ps) == filtered


_FAMILY_FILTERS = {
    "nc": is_noncrossing,
    "irr-nc": is_irreducible,
    "interval": is_interval,
}


_WEIGHT_NAMES = ("one", "sign", "inv_tau", "sign_inv_tau", "labelling")


def _brute_weights(p):
    k = p.num_blocks
    sign = (-1) ** (k - 1)
    # 1/tau! = (outer-first block orders) / k!, the hook length formula
    inv_tau = F(sum(1 for _ in linear_extensions(p)), factorial(k))
    return {
        "one": F(1),
        "sign": F(sign),
        "inv_tau": inv_tau,
        "sign_inv_tau": sign * inv_tau,
        "labelling": inv_tau,
    }


def _block_products(values, w, members):
    return [prod(values[subword(w, block)] for block in p.blocks) for p in members]


def _random_values(n_letters, max_degree, seed):
    rng = random.Random(seed)
    return {
        w: F(rng.randint(-3, 3), rng.randint(1, 3))
        for w in all_words(n_letters, max_degree)
    }


def test_partition_sum_matches_brute_force_over_all_partitions():
    values = _random_values(2, 7, 11)
    rng = random.Random(12)
    for n in range(1, 8):
        everything = enumerate_all_partitions(n)
        words = [w for w in all_words(2, n) if w.degree == n]
        if n > 5:  # every word up to degree 5, then a seeded sample
            words = rng.sample(words, 16)
        for family, keep in _FAMILY_FILTERS.items():
            members = [p for p in everything if keep(p)]
            weights = [_brute_weights(p) for p in members]
            for w in words:
                products = _block_products(values, w, members)
                for weight in _WEIGHT_NAMES:
                    expected = sum(c[weight] * x for c, x in zip(weights, products))
                    got = partition_sum(values, w, family, weight)
                    assert got == expected, (w, family, weight)


def test_partition_sums_keep_no_table_values():
    w = Word((0, 1, 1, 0, 1))
    first, second = _random_values(2, 5, 1), _random_values(2, 5, 2)
    for family, keep in _FAMILY_FILTERS.items():
        members = [p for p in enumerate_all_partitions(5) if keep(p)]
        weights = [_brute_weights(p) for p in members]
        for weight in ("one", "inv_tau"):
            for values in (first, second, first):
                products = _block_products(values, w, members)
                expected = sum(c[weight] * x for c, x in zip(weights, products))
                assert partition_sum(values, w, family, weight) == expected


@functools.cache
def _weighed(n, family, weight):
    return [(F(*partitions.WEIGHTS[weight](p)), p.blocks) for p in partitions._FAMILIES[family](n)]


def _fraction_loop(values, w, family, weight):
    """The sum one Fraction product at a time: the oracle for the integer kernel."""
    total = F(0)
    for product, blocks in _weighed(w.degree, family, weight):
        for block in blocks:
            product *= values[subword(w, block)]
        total += product
    return total


# Large primes keep the denominators of a table coprime, so the common
# denominator of one word's blocks grows wide.
_PRIMES = (999_983, 999_979, 999_961, 999_959, 999_953, 999_931, 65_537, 7)
_NUMERATORS = st.integers(-(10**6), 10**6)
_SCALARS = st.one_of(
    st.just(0),
    _NUMERATORS,
    st.builds(F, _NUMERATORS, st.integers(1, 10**6)),
    st.builds(F, _NUMERATORS, st.sampled_from(_PRIMES)),
)


@pytest.mark.parametrize("weight", _WEIGHT_NAMES)
@pytest.mark.parametrize("family", sorted(_FAMILY_FILTERS))
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(
    pool=st.lists(_SCALARS, min_size=1, max_size=24),
    rng=st.randoms(use_true_random=False),
    data=st.data(),
)
def test_integer_kernel_equals_the_fraction_loop(family, weight, pool, rng, data):
    # Listed downwards, so the simplest example, drawn first, is the top degree.
    n = data.draw(st.sampled_from(range(9, 0, -1)))
    w = Word(tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
    values = {u: rng.choice(pool) for u in all_words(2, n)}
    got = partition_sum(values, w, family, weight)
    assert got == _fraction_loop(values, w, family, weight)
    assert type(got) is F


@pytest.mark.parametrize("weight", _WEIGHT_NAMES)
@pytest.mark.parametrize("family", sorted(partitions._FAMILIES))
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(
    pool=st.lists(_SCALARS, min_size=1, max_size=24),
    rng=st.randoms(use_true_random=False),
    data=st.data(),
)
def test_partition_sum_equals_the_slicing_reference(family, weight, pool, rng, data):
    # tests/partitions_reference.py slices every block and reads each
    # value's properties; the readers and the integer ratios must give the
    # same Fraction, and the same error for the same missing word
    n = data.draw(st.sampled_from(range(9, 0, -1)))
    w = Word(tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
    values = {u: rng.choice(pool) for u in all_words(2, n)}
    # short words are blocks of most words, so a drop often leaves a block
    # of w without a value
    short = sorted(all_words(2, min(n, 3)))
    for u in data.draw(st.lists(st.sampled_from(short), max_size=3, unique=True)):
        del values[u]
    try:
        expected = reference.partition_sum(values, w, family, weight)
    except IncompleteTableError as missing:
        with pytest.raises(IncompleteTableError) as info:
            partition_sum(values, w, family, weight)
        assert str(info.value) == str(missing)
        assert info.value.word == missing.word and type(info.value.word) is Word
    else:
        got = partition_sum(values, w, family, weight)
        assert got == expected
        assert type(got) is F


@pytest.mark.parametrize("weight", _WEIGHT_NAMES)
@pytest.mark.parametrize("family", sorted(_FAMILY_FILTERS))
def test_a_key_is_enumerated_and_weighed_once(family, weight, monkeypatch):
    # What the benchmark's trace counts as `partitions.enumerated` and
    # `weight_calls`: one enumeration per key, one weighing per partition,
    # nothing for a further word of the same degree.
    enumerate_family, weigh = partitions._FAMILIES[family], partitions.WEIGHTS[weight]
    enumerated, weighed = [], []

    def counted_family(n):
        found = enumerate_family(n)
        enumerated.append(list(found))  # _shapes empties the list it reads
        return found

    def counted_weight(p):
        weighed.append(p)
        return weigh(p)

    monkeypatch.setattr(partitions, "_SHAPES", {})
    monkeypatch.setitem(partitions._FAMILIES, family, counted_family)
    monkeypatch.setitem(partitions.WEIGHTS, weight, counted_weight)
    values = _random_values(2, 6, 3)
    partition_sum(values, Word((0, 1, 1, 0, 1, 0)), family, weight)
    assert len(enumerated) == 1
    assert Counter(weighed) == Counter(enumerated[0])
    partition_sum(values, Word((1, 1, 0, 0, 1, 1)), family, weight)
    assert len(enumerated) == 1
    assert len(weighed) == len(enumerated[0])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    family=st.sampled_from(sorted(partitions._FAMILIES)),
    n=st.integers(1, 9),
    spell_first=st.booleans(),
    data=st.data(),
)
def test_an_enumerated_partition_behaves_as_its_hand_built_twin(family, n, spell_first, data):
    # An enumerated partition holds block ids and spells its blocks on first
    # read; the twins come from a second enumeration, so reading them
    # spells nothing of the first.
    found = partitions._FAMILIES[family](n)
    i, j = (data.draw(st.integers(0, len(found) - 1)) for _ in range(2))
    again = partitions._FAMILIES[family](n)
    twin, other_twin = (SetPartition(n, again[k].blocks) for k in (i, j))
    p, other = found[i], found[j]
    if spell_first:
        assert p.blocks == twin.blocks
    assert p.num_blocks == twin.num_blocks
    assert p.tau == tree_factorial(twin)
    for weight in ("one", "inv_tau", "sign", "sign_inv_tau"):
        assert partitions.WEIGHTS[weight](p) == partitions.WEIGHTS[weight](twin), weight
    # none of those needs the blocks
    assert (p._blocks is None) is not spell_first
    assert partitions.WEIGHTS["labelling"](p) == partitions.WEIGHTS["labelling"](twin)
    assert p == twin and twin == p and hash(p) == hash(twin)
    assert (p < other) == (twin < other_twin) and (other < p) == (other_twin < twin)
    assert (p == other) == (twin == other_twin)
    assert (str(p), repr(p), p.blocks) == (str(twin), repr(twin), twin.blocks)


def _interned_shape(n, family, weight):
    """The shape of `partitions._shapes` from hand-built partitions: every
    block of every partition hashed into an index in order of first use."""
    weigh = partitions.WEIGHTS[weight]
    index, groups = {}, {}
    for p in partitions._FAMILIES[family](n):
        q = SetPartition(n, p.blocks)
        kind = (q.num_blocks, *weigh(q))
        ids = tuple(index.setdefault(block, len(index)) for block in q.blocks)
        groups.setdefault(kind, []).append(ids)
    scale = lcm(*(den for _, _, den in groups))
    return (
        tuple(tuple(x - 1 for x in block) for block in index),
        scale,
        tuple(
            (k, num * (scale // den), tuple(members))
            for (k, num, den), members in groups.items()
        ),
    )


def _spelled(shape, n):
    """A shape of `partitions._shapes` with each block reader replaced by
    the positions it reads: read off the word 0 1 ... n-1, a block's
    letters are its 0-based positions."""
    readers, scale, groups = shape
    positions = tuple(range(n))
    return tuple(read(positions) for read in readers), scale, groups


@pytest.mark.parametrize("weight", _WEIGHT_NAMES)
@pytest.mark.parametrize("family", sorted(partitions._FAMILIES))
def test_shapes_match_the_interning_loop(family, weight, monkeypatch):
    # block order, group order and member order too: the enumerators number
    # their blocks in order of first use
    monkeypatch.setattr(partitions, "_SHAPES", {})
    for n in range(1, 10):
        shape = partitions._shapes(n, family, weight)
        assert _spelled(shape, n) == _interned_shape(n, family, weight), n


def test_the_labelling_weight_is_counted_once_per_forest(monkeypatch):
    monkeypatch.setattr(partitions, "_LABELLINGS", {})
    forests = set()
    for n in range(1, 9):
        for p in enumerate_nc(n):
            forests.add(tuple(partitions._forest(p)))
            partitions.WEIGHTS["labelling"](p)
    assert len(forests) == 152
    assert partitions._LABELLINGS.keys() == forests
    for forest, weight in partitions._LABELLINGS.items():
        assert weight == partitions._count_labellings(forest), forest
