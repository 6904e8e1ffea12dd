"""Tables, conversions along both routes, and the identity suite."""

import random
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coproducts_reference import read_back
from cumulants import cli, coproducts, forms, prelie, transforms
from cumulants.coproducts import bar_id
from cumulants.errors import IncompleteTableError, RouteDisagreementError
from cumulants.transforms import (
    CumulantTable,
    convert,
    convert_table,
    cumulants_to_moments,
    default_max_degree,
    moments_to_cumulants,
    random_table,
    verify_suite,
)
from cumulants.words import Word, all_barwords, all_words, lift


def univariate_moments(values):
    degree = len(values)
    table = {Word((0,) * n): F(v) for n, v in zip(range(1, degree + 1), values)}
    return CumulantTable("moment", 1, degree, table)


def moments_to_cumulants_via_forms(m, target):
    """moments_to_cumulants through the closed-form logarithm forms: free and
    boolean as (m - e) < m^{-1} and m^{-1} > (m - e), with the inverse's
    own fixed point, instead of the solvers' word-by-word recursions."""
    log = {"free": forms.log_left, "boolean": forms.log_right, "monotone": forms.log_star}
    form = log[target](forms.CharacterFromWords(m.values))
    values = {w: form.eval_word(w) for w in all_words(m.n_letters, m.max_degree)}
    return CumulantTable(target, m.generators, m.max_degree, values)


SEMICIRCLE = univariate_moments((0, 1, 0, 2, 0, 5))


def test_table_construction_and_validation():
    t = univariate_moments((1, 2, 3))
    assert t.n_letters == 1
    assert t.values[Word((0, 0))] == 2
    with pytest.raises(IncompleteTableError):
        CumulantTable("moment", 1, 2, {Word((0,)): F(1)})
    with pytest.raises(ValueError):
        CumulantTable("gaussian", 1, 1, {Word((0,)): F(1)})
    with pytest.raises(ValueError):
        CumulantTable("moment", ("a", "a"), 1, {Word((0,)): F(1)})


def test_table_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        CumulantTable(
            "moment", 1, 1, {Word((0,)): F(1), Word((1,)): F(2)}
        )
    # Both total-table types name one stray key, whatever keys sit beside
    # it: the least one when all are words.
    for build in (
        lambda values: CumulantTable("free", ["a"], 1, values),
        lambda values: prelie.InfChar(1, 1, values),
    ):
        with pytest.raises(ValueError, match=r"entry Word\(c\) is outside"):
            build({(0,): 1, Word((3,)): 2, Word((2,)): 3})
        for stray in ({Word((3,)): 2, (4,): 5}, {"x": 2}, {Word((0, 0)): 1, "x": 2}):
            with pytest.raises(ValueError, match="is outside the alphabet or bound"):
                build({(0,): 1, **stray})


def test_truncation():
    t = univariate_moments((1, 2, 3, 4))
    cut = t.truncated(2)
    assert cut.max_degree == 2
    assert set(cut.values) == {Word((0,)), Word((0, 0))}
    assert t.truncated(4) is t
    with pytest.raises(IncompleteTableError):
        t.truncated(5)


def test_default_max_degree_schedule():
    assert [default_max_degree(k) for k in (1, 2, 3, 4, 9)] == [6, 5, 4, 3, 3]


def test_random_table_is_deterministic():
    a = random_table("free", 2, 3, seed=7)
    b = random_table("free", 2, 3, seed=7)
    c = random_table("free", 2, 3, seed=8)
    assert a.values == b.values
    assert a.values != c.values


def test_semicircle_cumulants_all_kinds():
    free = moments_to_cumulants(SEMICIRCLE, "free")
    boolean = moments_to_cumulants(SEMICIRCLE, "boolean")
    monotone = moments_to_cumulants(SEMICIRCLE, "monotone")
    w = lambda n: Word((0,) * n)
    assert [free.values[w(n)] for n in range(1, 7)] == [0, 1, 0, 0, 0, 0]
    assert [boolean.values[w(n)] for n in range(1, 7)] == [0, 1, 0, 1, 0, 2]
    assert [monotone.values[w(n)] for n in range(1, 7)] == [
        0,
        1,
        0,
        F(1, 2),
        0,
        F(1, 2),
    ]


def test_quartic_moment_table_frozen_values():
    # m = (0, 1, 0, 2): the degree-4 free cumulant cancels exactly
    t = univariate_moments((0, 1, 0, 2))
    assert moments_to_cumulants(t, "free").values[Word((0,) * 4)] == 0
    assert moments_to_cumulants(t, "boolean").values[Word((0,) * 4)] == 1
    assert moments_to_cumulants(t, "monotone").values[Word((0,) * 4)] == F(1, 2)


def test_recursions_agree_with_logarithm_forms():
    for seed in (3, 4):
        m = random_table("moment", 2, 4, seed=seed)
        for kind in ("free", "boolean", "monotone"):
            fast = moments_to_cumulants(m, kind)
            slow = moments_to_cumulants_via_forms(m, kind)
            assert fast.values == slow.values


def test_boolean_solver_matches_the_fraction_recursion():
    # beta(w) = m(w) - sum_j beta(w[:j]) m(w[j:]), summed term by term in
    # Fractions; the solver sums the same terms in integers over L^n.  The
    # table mixes denominators and zeros, and m(b) = 0 makes beta(b) = 0, so
    # the solver skips the terms of every word that starts with b.
    rng = random.Random(5)
    values = {
        w: F(rng.choice((0, 0, 1, -2, 3)), rng.choice((1, 2, 3, 5, 12)))
        for w in all_words(2, 5)
    }
    values[Word((1,))] = F(0)
    m = CumulantTable("moment", 2, 5, values)
    expected = {}
    for w in all_words(2, 5):
        rest = sum((expected[w[:j]] * values[w[j:]] for j in range(1, len(w))), F(0))
        expected[w] = values[w] - rest
    assert transforms._solve_boolean(m) == expected
    assert moments_to_cumulants(m, "boolean").values == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(
    st.sampled_from([(1, 12), (2, 7), (3, 5), (4, 4)]),
    st.integers(0, 2**32),
)
def test_boolean_cumulants_are_one_minus_the_inverse_moments(size, seed):
    # In the concatenation algebra the moments M = 1 + m satisfy M = 1 + B M,
    # so B = 1 - M^{-1}; and exp_right(a) = (1 - a)^{-1}, so on every
    # non-empty word B = -exp_right(-m).  That ties the boolean solver to
    # the moment kernel, which `convert` checks against interval sums.
    n_letters, degree = size
    m = random_table("moment", n_letters, degree, seed)
    inverse = prelie.exp_right_table({w: -v for w, v in m.values.items()})  # M^{-1}
    assert moments_to_cumulants(m, "boolean").values == {w: -v for w, v in inverse.items()}


def test_moment_round_trip_all_kinds():
    m = random_table("moment", 2, 4, seed=11)
    for kind in ("free", "boolean", "monotone"):
        c = moments_to_cumulants(m, kind)
        assert cumulants_to_moments(c).values == m.values


def wide_moments(n_letters, degree, seed):
    """A moment table with about a fifth of its values zero and the rest
    over denominators drawn up to 10**6."""
    rng = random.Random(seed)
    values = {
        w: F(0) if rng.random() < 0.2 else F(rng.randint(-(10**3), 10**3), rng.randint(1, 10**6))
        for w in all_words(n_letters, degree)
    }
    return CumulantTable("moment", n_letters, degree, values)


def reference_solve_free(m):
    """Free cumulants by the per-term Fraction unfolding of Phi = e + kappa < Phi:
    the oracle for the integer sum in `_solve_free`."""
    kappa = {}
    for w in all_words(m.n_letters, m.max_degree):
        rest = F(0)
        for (x, y), c in read_back(coproducts.coproduct_left_terms(bar_id(lift(w)))).items():
            if not y.is_unit:
                rest += c * kappa[x[0]] * prod((m.values[v] for v in y), start=F(1))
        kappa[w] = m.values[w] - rest
    return kappa


@pytest.mark.parametrize("n_letters, degree", [(1, 8), (2, 5), (3, 4)])
@pytest.mark.parametrize("seed", [1, 2])
def test_free_solver_on_wide_denominators(n_letters, degree, seed):
    m = wide_moments(n_letters, degree, seed)
    kappa = transforms._solve_free(m)
    assert kappa == reference_solve_free(m)
    assert list(kappa) == list(m.values)
    assert all(type(v) is F for v in kappa.values())
    for kind in ("free", "monotone"):
        c = moments_to_cumulants(m, kind)
        assert cumulants_to_moments(c).values == m.values


def test_cumulant_round_trip_all_pairs():
    for source in ("free", "boolean", "monotone"):
        c = random_table(source, 1, 5, seed=13)
        for target in ("free", "boolean", "monotone"):
            if source == target:
                continue
            there = convert(c, target)
            assert there.kind == target
            assert there.generators == c.generators
            assert convert(there, source).values == c.values


def test_degree_three_conversion_identities_two_letters():
    # boolean from free: r(xyz) = k(xyz) + k(xz) k(y); free from monotone:
    # k(xyz) = h(xyz) - h(xz) h(y) / 2
    free = random_table("free", 2, 3, seed=17)
    boolean = convert(free, "boolean")
    mono = random_table("monotone", 2, 3, seed=19)
    free_from_mono = convert(mono, "free")
    for w in all_words(2, 3):
        if w.degree < 3:
            continue
        y = Word((w[1],))
        xz = Word((w[0], w[2]))
        assert boolean.values[w] == free.values[w] + free.values[xz] * free.values[y]
        assert (
            free_from_mono.values[w]
            == mono.values[w] - F(1, 2) * mono.values[xz] * mono.values[y]
        )


def test_moments_to_cumulants_rejects_wrong_kind():
    c = random_table("free", 1, 2, seed=1)
    with pytest.raises(ValueError):
        moments_to_cumulants(c, "boolean")
    with pytest.raises(ValueError):
        moments_to_cumulants(SEMICIRCLE, "moment")
    with pytest.raises(ValueError):
        cumulants_to_moments(SEMICIRCLE)
    with pytest.raises(ValueError):
        convert(SEMICIRCLE, "free")
    with pytest.raises(ValueError):
        convert(c, "free")


def test_convert_table_dispatches_every_direction():
    m = random_table("moment", 1, 3, seed=23)
    f = convert_table(m, "free")
    assert f.kind == "free"
    back = convert_table(f, "moment")
    assert back.values == m.values
    mono = convert_table(f, "monotone")
    assert mono.kind == "monotone"
    with pytest.raises(ValueError):
        convert_table(m, "moment")


@pytest.mark.parametrize("source", transforms.KINDS)
def test_converted_tables_are_the_validated_tables_of_their_values(source):
    # results are kept as the kernels wrote them, unchecked: they must be
    # what the validating constructor would build, in the same word order
    table = random_table(source, 2, 3, seed=29)
    for target in transforms.KINDS:
        if target == source:
            continue
        out = convert_table(table, target)
        validated = CumulantTable(target, table.generators, 3, out.values)
        assert out == validated
        assert list(out.values) == list(validated.values)
        assert all(type(v) is F for v in out.values.values())


@pytest.mark.parametrize("source", ["free", "boolean"])
def test_a_wrong_monotone_result_is_caught_at_its_first_wrong_word(source, monkeypatch):
    c = random_table(source, 2, 4, seed=41)
    wrong = Word((1, 0))
    real = transforms._CONVERSIONS[(source, "monotone")]

    def broken(a):
        out = real(a)
        out.table[wrong] += F(1, 5)
        return out

    monkeypatch.setitem(transforms._CONVERSIONS, (source, "monotone"), broken)
    with pytest.raises(RouteDisagreementError, match="image of the result") as info:
        convert(c, "monotone")
    assert info.value.word == wrong
    image, given = info.value.values
    assert given == c.values[wrong]
    assert image == given + F(1, 5)
    assert str(info.value) == (
        f"{source} -> monotone disagrees at 'ba': image of the result under "
        f"the monotone -> {source} sum {image}, input {given}"
    )


@pytest.mark.parametrize("source,target", list(transforms._CONVERSIONS))
def test_cumulant_conversions_sum_only_over_irreducible_partitions(
    source, target, monkeypatch
):
    # Both directions of every pair are checked over irr-NC(n): no moments,
    # so no non-crossing or interval shape is built.
    monkeypatch.setattr(transforms.partitions, "_SHAPES", {})
    convert(random_table(source, 2, 4, seed=43), target)
    families = {family for _, family, _ in transforms.partitions._SHAPES}
    assert families == {"irr-nc"}


# Every conversion out of a cumulant table with the (family, weight) of the
# sum that checks it; the last two are checked backward, through the
# monotone -> source sum applied to the result.  The test below pins, for
# each, the word, both values and the message of the disagreement.
CHECKED_PAIRS = [
    ("free", "moment", "nc", "one"),
    ("boolean", "moment", "interval", "one"),
    ("monotone", "moment", "nc", "inv_tau"),
    ("free", "boolean", "irr-nc", "one"),
    ("boolean", "free", "irr-nc", "sign"),
    ("monotone", "boolean", "irr-nc", "inv_tau"),
    ("monotone", "free", "irr-nc", "sign_inv_tau"),
    ("free", "monotone", "irr-nc", "sign_inv_tau"),
    ("boolean", "monotone", "irr-nc", "inv_tau"),
]


@pytest.mark.parametrize("source,target,family,weight", CHECKED_PAIRS)
def test_every_checked_pair_reports_its_disagreement(
    source, target, family, weight, monkeypatch
):
    # The sum is skewed by 1 at one degree at a time, so a check that skips
    # the words of any degree fails here.
    c = random_table(source, 1, 3, seed=59)
    real = transforms.partitions.partition_sum
    if target == "moment":
        what = f"{source} moments disagree"
    else:
        what = f"{source} -> {target} disagrees"
    for degree in (1, 2, 3):
        w = Word((0,) * degree)

        def skewed(values, u, family_name, weight_name="one"):
            out = real(values, u, family_name, weight_name)
            skew = (family_name, weight_name) == (family, weight) and u.degree == degree
            return out + 1 if skew else out

        monkeypatch.setattr(transforms.partitions, "partition_sum", skewed)
        with pytest.raises(RouteDisagreementError) as info:
            convert_table(c, target)
        assert info.value.word == w
        first, second = info.value.values
        if target == "monotone":
            found = f"image of the result under the monotone -> {source} sum {first}, input {second}"
            assert second == c.values[w]
            assert first == second + 1
        else:
            found = f"shuffle route {first}, partition route {second}"
            assert second == real(c.values, w, family, weight) + 1
            assert first == second - 1
        assert str(info.value) == f"{what} at {'a' * degree!r}: {found}"


def test_the_one_block_partition_weighs_one_under_the_backward_sums():
    # The backward check's first differing word is the first wrong word
    # because the reversed sum weighs the one-block partition, the only one
    # that reads the whole word, by 1.
    rows = {
        transforms._CONVERSION_SUMS[(target, source)]
        for source in transforms.CUMULANT_KINDS
        for target in transforms.CUMULANT_KINDS
        if source != target and (source, target) not in transforms._CONVERSION_SUMS
    }
    assert rows == {("irr-nc", "sign_inv_tau"), ("irr-nc", "inv_tau")}
    for family, weight in sorted(rows):
        weigh = transforms.partitions.WEIGHTS[weight]
        for n in range(1, transforms.partitions.MAX_N + 1):
            whole = transforms.partitions.SetPartition(n, [range(1, n + 1)])
            assert weigh(whole) == (1, 1), (weight, n)
            if n <= 8:
                found = transforms.partitions._FAMILIES[family](n)
                (enumerated,) = [p for p in found if p.num_blocks == 1]
                assert enumerated == whole
                assert weigh(enumerated) == (1, 1), (weight, n)


@pytest.mark.parametrize(
    "split_terms",
    [
        coproducts.coproduct_terms,
        coproducts.coproduct_left_terms,
        coproducts.coproduct_right_terms,
    ],
    ids=["coproduct", "coproduct_left", "coproduct_right"],
)
def test_split_leg_equals_the_slice_formula(split_terms):
    # the triples as the concatenation pair[:leg] + legs + pair[leg + 1:];
    # the halves are undefined on the unit, so they split only the pairs
    # whose leg is not the unit; _split_leg works on ids, and its triples
    # are read back through the registry
    full = split_terms is coproducts.coproduct_terms
    for u in all_barwords(2, 4, include_unit=True):
        for leg in (0, 1):
            terms = [t for t in coproducts.coproduct_terms(bar_id(u)) if full or t[leg]]
            expected = {}
            for pair, c in read_back(terms).items():
                for legs, d in read_back(split_terms(bar_id(pair[leg]))).items():
                    key = pair[:leg] + legs + pair[leg + 1 :]
                    expected[key] = expected.get(key, 0) + c * d
            triples = transforms._split_leg(terms, leg, split_terms)
            got = {
                tuple(coproducts.BARWORDS[i] for i in key): c for key, c in triples.items()
            }
            assert got == expected, (u, leg)


class _Started(Exception):
    """verify_suite got past its checks and listed its bar-words."""


def test_verify_refuses_sizes_over_the_bar_word_bound_before_any_work(monkeypatch):
    def started(*args, **kwargs):
        raise _Started

    monkeypatch.setattr(transforms, "all_barwords", started)
    # 2^(n - 1) g^n bar-words of each degree n: (2, 8) has 43 690 and is
    # admitted, as are the smaller counts at (3, 6) and (4, 5)
    for degree, generators in [(8, 2), (8, 1), (6, 3), (5, 4)]:
        with pytest.raises(_Started):
            verify_suite(degree, generators)
    for degree, generators, count in [(7, 3, 167961), (6, 4, 149796), (8, 4, 9586980)]:
        with pytest.raises(ValueError, match=f"spans {count} bar-words; .* at most 43690"):
            verify_suite(degree, generators)


def test_verify_suite_passes_on_several_seeds():
    for seed in (1, 2, 3):
        report = verify_suite(3, 1, seed)
        assert report.ok
        assert len(report.results) >= 12
    names = [r.name for r in report.results]
    assert len(names) == len(set(names))


def test_verify_runs_convert_once_per_direct_lattice_pair(monkeypatch):
    # The convert-* identities are convert's own check, not a copy of it.
    calls = []
    real = transforms.convert

    def spy(c, target):
        calls.append((c.kind, target))
        return real(c, target)

    monkeypatch.setattr(transforms, "convert", spy)
    report = verify_suite(3, 1)
    assert report.ok
    forward = [pair for pair in transforms._CONVERSION_SUMS if pair[1] != "moment"]
    assert calls == sorted(forward)


def test_verify_report_lines_shape():
    report = verify_suite(2, 1, seed=5)
    lines = report.lines()
    assert lines[-1].startswith("identities:")
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[1:-1])
    doc = report.to_dict()
    assert doc["ok"] is True
    assert len(doc["results"]) == len(report.results)


def test_verify_report_records_by_hand():
    report = transforms.VerifyReport(3, 2, 7)
    assert report.results == [] and report.ok
    report.results.append(transforms.CheckResult("counit", True))
    assert report.ok
    report.results.append(transforms.CheckResult("shuffle-A1", False, "at ab: 1 != 2"))
    assert not report.ok
    assert report.lines() == [
        "identity suite: degree <= 3, 2 generator(s), seed 7",
        "PASS counit",
        "FAIL shuffle-A1: at ab: 1 != 2",
        "identities: 1 passed, 1 failed",
    ]
    assert report.to_dict() == {
        "max_degree": 3,
        "generators": 2,
        "seed": 7,
        "ok": False,
        "results": [
            {"name": "counit", "passed": True, "detail": ""},
            {"name": "shuffle-A1", "passed": False, "detail": "at ab: 1 != 2"},
        ],
    }
    given = [transforms.CheckResult("counit", True)]
    assert transforms.VerifyReport(1, 1, 1, given).results is given


def test_verify_suite_results_carry_name_passed_and_detail():
    first = verify_suite(2, 1).results[0]
    assert (first.name, first.passed, first.detail) == (CHECKS[0], True, "")


def test_verify_suite_rejects_out_of_range_requests():
    with pytest.raises(ValueError):
        verify_suite(0, 1)
    with pytest.raises(ValueError):
        verify_suite(9, 1)
    with pytest.raises(ValueError):
        verify_suite(3, 5)


def _skew(pair):
    """Fault: partition_sum off by one for one (family, weight) at degree 3."""

    def inject(monkeypatch):
        real = transforms.partitions.partition_sum

        def skewed(values, w, family, weight="one"):
            out = real(values, w, family, weight)
            return out + 1 if (family, weight) == pair and w.degree == 3 else out

        monkeypatch.setattr(transforms.partitions, "partition_sum", skewed)

    return inject


def _degree_of(i):
    return coproducts.BARWORDS[i].degree


def _doubled_at_3(real):
    """An id-term map with every count doubled on bar-words of degree 3."""
    return lambda i: (
        tuple((x, y, 2 * c) for x, y, c in real(i)) if _degree_of(i) == 3 else real(i)
    )


def _wrap(module, name, fault):
    def inject(monkeypatch):
        monkeypatch.setattr(module, name, fault(getattr(module, name)))

    return inject


FAULTS = {
    "wrong-B1": _wrap(
        prelie, "bernoulli", lambda real: lambda m: F(-1, 3) if m == 1 else real(m)
    ),
    "nc-labelling": _skew(("nc", "labelling")),
    "irr-nc-sign": _skew(("irr-nc", "sign")),
    "irr-nc-inv_tau": _skew(("irr-nc", "inv_tau")),
    "nc-one": _skew(("nc", "one")),
    # a word of degree 3 has one interior interval
    "triangle-at-3": _wrap(
        prelie,
        "_triangle_at",
        lambda real: lambda a, b, pairs, den: (
            real(a, b, pairs, den) + (1 if len(pairs[0]) == 1 else 0)
        ),
    ),
    "half-left-swapped": _wrap(
        forms, "half_left", lambda real: lambda f, g: real(g, f)
    ),
    # the id maps that verify's coalgebra checks read; the left half is
    # also what moment -> free solves through
    "coproduct-left-at-3": _wrap(
        transforms,
        "coproduct_terms",
        lambda real: lambda i: (
            coproducts.coproduct_left_terms(i) if _degree_of(i) == 3 else real(i)
        ),
    ),
    "left-half-doubled-at-3": _wrap(transforms, "coproduct_left_terms", _doubled_at_3),
    "right-half-doubled-at-3": _wrap(transforms, "coproduct_right_terms", _doubled_at_3),
}

CHECKS = (
    "coassociativity counit half-splitting unshuffle-C1 unshuffle-C2 unshuffle-C3 "
    "monotone-factorisation monotone-bijection shuffle-A1 shuffle-A2 shuffle-A3 "
    "conv-half-splitting character-convolution character-inverse exp-left-fixed-point "
    "exp-right-fixed-point exp-characters log-star-infinitesimal shuffle-inverse "
    "log-exp-left log-exp-right log-exp-star prelie-closure prelie-identity "
    "magnus-w-inverse magnus-fixed-point interchange route-free route-boolean "
    "route-monotone convert-boolean-free convert-free-boolean convert-monotone-boolean "
    "convert-monotone-free roundtrip-free roundtrip-boolean roundtrip-monotone "
    "parity-univariate"
).split()

# Moments reach monotone cumulants through Magnus, so a fault in the
# Bernoulli numbers also fails the monotone round trip, and one in the pre-Lie
# product the parity check as well.
MAGNUS_ROUNDTRIP = {
    "roundtrip-monotone": "cumulants -> moments -> cumulants is not the identity"
}

# The failing checks of verify_suite(degree, generators, seed=1) under each
# fault, with their details; every other check passes.
FAILED = {
    ("wrong-B1", 3, 1): {
        "route-free": "at aaa: 43/72 != 5/8",
        "route-boolean": "at aaa: -28/3 != -9",
        "convert-boolean-free": "at aaa: 14/3 != 5",
        "convert-free-boolean": "at aaa: 5/36 != 1/6",
        **MAGNUS_ROUNDTRIP,
    },
    ("wrong-B1", 4, 2): {
        "magnus-w-inverse": "w(magnus(a)) != a",
        "magnus-fixed-point": "at aaa: 122/3 != 128/3",
        "route-free": "at aaa: 337/3 != 115",
        "route-boolean": "at aaa: -1/3 != -1/4",
        "convert-boolean-free": "at aaa: 1/6 != 1/4",
        "convert-free-boolean": "at aaa: 49/3 != 19",
        **MAGNUS_ROUNDTRIP,
    },
    ("nc-labelling", 3, 1): {"route-monotone": "at aaa: 34/3 != 37/3"},
    ("nc-labelling", 4, 2): {"route-monotone": "at aaa: -161 != -160"},
    ("irr-nc-sign", 3, 1): {"convert-boolean-free": "at aaa: 5 != 6"},
    ("irr-nc-sign", 4, 2): {"convert-boolean-free": "at aaa: 1/4 != 5/4"},
    ("irr-nc-inv_tau", 3, 1): {"convert-monotone-boolean": "at aaa: -2/3 != 1/3"},
    ("irr-nc-inv_tau", 4, 2): {"convert-monotone-boolean": "at aaa: 7 != 8"},
    # A disagreement inside a round trip is that check's failure.
    ("nc-one", 3, 1): {
        "route-free": "at aaa: 5/8 != 13/8",
        "roundtrip-free": "free moments disagree at 'aaa': "
        "shuffle route 5/8, partition route 13/8",
    },
    ("nc-one", 4, 2): {
        "route-free": "at aaa: 115 != 116",
        "roundtrip-free": "free moments disagree at 'aaa': "
        "shuffle route 115, partition route 116",
    },
    ("triangle-at-3", 3, 1): {
        "magnus-w-inverse": "w(magnus(a)) != a",
        "magnus-fixed-point": "at aaa: 1 != 3/2",
        "route-free": "at aaa: 1/8 != 5/8",
        "route-boolean": "at aaa: -17/2 != -9",
        "convert-boolean-free": "at aaa: 6 != 5",
        "convert-free-boolean": "at aaa: -5/6 != 1/6",
        "convert-monotone-boolean": "at aaa: -7/6 != -2/3",
        "convert-monotone-free": "at aaa: -13/6 != -8/3",
        **MAGNUS_ROUNDTRIP,
        "parity-univariate": "monotone cumulant at aaa is non-zero",
    },
    ("triangle-at-3", 4, 2): {
        "magnus-fixed-point": "at aaa: 253/6 != 128/3",
        "interchange": "at aaa: 223/6 != 110/3",
        "route-free": "at aaa: 229/2 != 115",
        "route-boolean": "at aaa: 1/4 != -1/4",
        "convert-boolean-free": "at aaa: 5/4 != 1/4",
        "convert-free-boolean": "at aaa: 18 != 19",
        "convert-monotone-boolean": "at aaa: 13/2 != 7",
        "convert-monotone-free": "at aaa: -33/2 != -17",
        **MAGNUS_ROUNDTRIP,
        "parity-univariate": "monotone cumulant at aaa is non-zero",
    },
    ("half-left-swapped", 3, 1): {
        "shuffle-A1": "at aaa: 3/2 != 6",
        "shuffle-A2": "at aaa: 3/2 != 3",
        "conv-half-splitting": "at a: -7 != -12",
        "exp-left-fixed-point": "at aa: 1 != 0",
        "prelie-closure": "at a|aa",
    },
    ("half-left-swapped", 4, 2): {
        "shuffle-A1": "at aaa: 4 != 16",
        "shuffle-A2": "at aaa: 4 != 8",
        "conv-half-splitting": "at a: 2 != -1",
        "exp-left-fixed-point": "at a: 3 != 0",
        "prelie-closure": "at a|b",
        "prelie-identity": "at aba: 26/3 != 9/2",
    },
}


@pytest.mark.parametrize("fault,degree,generators", sorted(FAILED))
def test_verify_report_under_an_injected_fault(fault, degree, generators, monkeypatch):
    FAULTS[fault](monkeypatch)
    failed = FAILED[(fault, degree, generators)]
    assert verify_suite(degree, generators).to_dict() == {
        "max_degree": degree,
        "generators": generators,
        "seed": 1,
        "ok": False,
        "results": [
            {"name": n, "passed": n not in failed, "detail": failed.get(n, "")}
            for n in CHECKS
        ],
    }


# The failing checks under each coproduct fault, each pinned by its detail
# up to the first ": ", the `at <bar-word>` prefix of a mismatch, whose rest
# spells the two sides' coproduct values.  Each map fails every coalgebra
# check that reads it, at the first bar-word where the fault shows: a fault
# at degree 3 reaches the reduced maps of a one-factor bar-word through its
# legs of degree 3, so the checks over words can first fail at degree 4.
# Under "coproduct-left-at-3", by degree and generators:
COALGEBRA_FAILED_AT = {
    (3, 1): {
        "coassociativity": "at a|a|a",
        "counit": "at a|a|a",
        "half-splitting": "at a|a|a",
    },
    (4, 2): {
        "coassociativity": "at a|a|a",
        "counit": "at a|a|a",
        "half-splitting": "at a|a|a",
        "unshuffle-C1": "at aaaa",
        "unshuffle-C3": "at aaaa",
    },
}

# The doubled left half also feeds moment -> free.
ROUNDTRIPS_THROUGH_FREE = {
    "roundtrip-free": "cumulants -> moments -> cumulants is not the identity",
    "roundtrip-monotone": "cumulants -> moments -> cumulants is not the identity",
}
HALF_FAILED_AT = {
    ("left-half-doubled-at-3", 3, 1): {
        "half-splitting": "at a|a|a",
        "unshuffle-C2": "at aaa",
        **ROUNDTRIPS_THROUGH_FREE,
    },
    ("left-half-doubled-at-3", 4, 2): {
        "half-splitting": "at a|a|a",
        "unshuffle-C1": "at aaaa",
        "unshuffle-C2": "at aaa",
        **ROUNDTRIPS_THROUGH_FREE,
    },
    ("right-half-doubled-at-3", 3, 1): {
        "half-splitting": "at a|a|a",
        "unshuffle-C2": "at aaa",
    },
    ("right-half-doubled-at-3", 4, 2): {
        "half-splitting": "at a|a|a",
        "unshuffle-C2": "at aaa",
        "unshuffle-C3": "at aaaa",
    },
}


def _failed_prefixes(fault, degree, generators, monkeypatch):
    FAULTS[fault](monkeypatch)
    results = verify_suite(degree, generators).results
    assert [r.name for r in results] == CHECKS
    assert all(r.detail == "" for r in results if r.passed)
    return {r.name: r.detail.partition(": ")[0] for r in results if not r.passed}


@pytest.mark.parametrize("degree,generators", sorted(COALGEBRA_FAILED_AT))
def test_a_coproduct_fault_is_caught_at_its_first_bar_word(
    degree, generators, monkeypatch
):
    failed = _failed_prefixes("coproduct-left-at-3", degree, generators, monkeypatch)
    assert failed == COALGEBRA_FAILED_AT[(degree, generators)]


@pytest.mark.parametrize("fault,degree,generators", sorted(HALF_FAILED_AT))
def test_a_half_coproduct_fault_is_caught_at_its_first_bar_word(
    fault, degree, generators, monkeypatch
):
    failed = _failed_prefixes(fault, degree, generators, monkeypatch)
    assert failed == HALF_FAILED_AT[(fault, degree, generators)]


def test_a_round_trip_disagreement_prints_the_whole_report(monkeypatch, capsys):
    FAULTS["nc-one"](monkeypatch)
    assert cli.main(["verify", "--degree", "3", "--generators", "1"]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 2 + len(CHECKS)
    assert (
        "FAIL roundtrip-free: free moments disagree at 'aaa': "
        "shuffle route 5/8, partition route 13/8"
    ) in lines
    assert lines[-1] == f"identities: {len(CHECKS) - 2} passed, 2 failed"
    assert captured.err == ""


def test_a_route_disagreement_in_the_parity_check_fails_that_check_alone(
    monkeypatch, capsys
):
    real = transforms.moments_to_cumulants
    disagreement = RouteDisagreementError(
        "free moments disagree at 'a': shuffle route 1, partition route 2",
        word=Word((0,)),
        values=(1, 2),
    )

    def disagreeing(m, target):
        # at two generators only the parity check converts one-generator moments
        if m.n_letters == 1:
            raise disagreement
        return real(m, target)

    monkeypatch.setattr(transforms, "moments_to_cumulants", disagreeing)
    report = verify_suite(3, 2)
    assert [r.name for r in report.results] == CHECKS
    failed = {r.name: r.detail for r in report.results if not r.passed}
    assert failed == {"parity-univariate": str(disagreement)}
    assert cli.main(["verify", "--degree", "3", "--generators", "2"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        f"FAIL parity-univariate: {disagreement}",
        f"identities: {len(CHECKS) - 1} passed, 1 failed",
    ]


def test_moments_reach_monotone_cumulants_through_magnus(monkeypatch):
    m = random_table("moment", 2, 4, seed=43)
    free = moments_to_cumulants(m, "free")
    by_log_star = moments_to_cumulants_via_forms(m, "monotone")
    seen = []
    real = transforms._CONVERSIONS[("free", "monotone")]

    def spy(a):
        seen.append(a.table)
        return real(a)

    monkeypatch.setitem(transforms._CONVERSIONS, ("free", "monotone"), spy)
    monkeypatch.setattr(forms, "log_star", None)
    monotone = moments_to_cumulants(m, "monotone")
    assert seen == [free.values]
    assert monotone.values == by_log_star.values


@pytest.mark.parametrize("kind", ["free", "boolean", "monotone"])
def test_a_skewed_moment_kernel_is_caught_at_its_word(kind, monkeypatch):
    c = random_table(kind, 2, 4, seed=47)
    wrong = Word((1, 0, 1))
    real = transforms._MOMENT_KERNEL[kind]

    def skewed(values):
        out = real(values)
        out[wrong] += F(1, 7)
        return out

    monkeypatch.setitem(transforms._MOMENT_KERNEL, kind, skewed)
    with pytest.raises(
        RouteDisagreementError, match=f"^{kind} moments disagree at 'bab': shuffle route "
    ) as info:
        cumulants_to_moments(c)
    assert info.value.word == wrong
    shuffled, lattice = info.value.values
    assert shuffled - lattice == F(1, 7)
    assert str(info.value).endswith(f"shuffle route {shuffled}, partition route {lattice}")


@pytest.mark.parametrize(
    "source, target",
    [
        ("free", "moment"),
        ("boolean", "moment"),
        ("monotone", "moment"),
        ("free", "monotone"),
        ("boolean", "monotone"),
    ],
)
def test_converting_a_cumulant_table_builds_no_form(source, target, monkeypatch):
    caches = (
        coproducts.coproduct_terms,
        coproducts.coproduct_left_terms,
        coproducts.coproduct_right_terms,
    )
    for cache in caches:
        cache.cache_clear()

    def refuse(self, u):
        raise AssertionError("a Form was evaluated")

    monkeypatch.setattr(forms.Form, "eval", refuse)
    c = random_table(source, 2, 4, seed=53)
    assert convert_table(c, target).kind == target
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]
