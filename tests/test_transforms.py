"""Tables, conversions along both routes, and the identity suite."""

from fractions import Fraction as F

import pytest

from cumulants import forms, prelie, transforms
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
from cumulants.words import Word, all_words


def univariate_moments(values):
    degree = len(values)
    table = {Word((0,) * n): F(v) for n, v in zip(range(1, degree + 1), values)}
    return CumulantTable("moment", 1, degree, table)


def moments_to_cumulants_via_forms(m, target):
    """moments_to_cumulants through the closed-form logarithm forms: free and
    boolean by the antipode series instead of the fixed-point recursions."""
    log = {"free": forms.log_left, "boolean": forms.log_right, "monotone": forms.log_star}
    form = log[target](forms.CharacterFromWords(m.values))
    values = {w: form.eval_word(w) for w in all_words(m.n_letters, m.max_degree)}
    return CumulantTable(target, m.generators, m.max_degree, values)


SEMICIRCLE = univariate_moments((0, 1, 0, 2, 0, 5))


def test_table_construction_and_validation():
    t = univariate_moments((1, 2, 3))
    assert t.n_letters == 1
    assert t.value(Word((0, 0))) == 2
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


def test_moment_round_trip_all_kinds():
    m = random_table("moment", 2, 4, seed=11)
    for kind in ("free", "boolean", "monotone"):
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
    for w in all_words(2, 3, min_degree=3):
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


def test_route_disagreement_is_detected(monkeypatch):
    c = random_table("free", 1, 3, seed=29)

    real = transforms.partitions.partition_sum

    def skewed(values, w, family, weight="one"):
        out = real(values, w, family, weight)
        return out + 1 if w.degree == 3 else out

    monkeypatch.setattr(transforms.partitions, "partition_sum", skewed)
    with pytest.raises(RouteDisagreementError) as info:
        cumulants_to_moments(c)
    assert info.value.word == Word((0, 0, 0))


def test_conversion_route_disagreement_is_detected(monkeypatch):
    c = random_table("free", 1, 3, seed=31)
    real = transforms.partitions.partition_sum

    def skewed(values, w, family, weight="one"):
        out = real(values, w, family, weight)
        if family == "irr-nc" and w.degree == 2:
            return out - F(1, 3)
        return out

    monkeypatch.setattr(transforms.partitions, "partition_sum", skewed)
    with pytest.raises(RouteDisagreementError):
        convert(c, "boolean")


@pytest.mark.parametrize("source", ["free", "boolean"])
def test_monotone_targets_are_checked_against_partition_moments(source, monkeypatch):
    # No direct lattice formula gives monotone cumulants, so the result's
    # moments on the partition route (nc, 1/tau!) meet the input's moments.
    c = random_table(source, 1, 3, seed=37)
    real = transforms.partitions.partition_sum

    def skewed(values, w, family, weight="one"):
        out = real(values, w, family, weight)
        if (family, weight) == ("nc", "inv_tau") and w.degree == 3:
            return out + 1
        return out

    monkeypatch.setattr(transforms.partitions, "partition_sum", skewed)
    with pytest.raises(RouteDisagreementError, match="moments") as info:
        convert(c, "monotone")
    assert info.value.word == Word((0, 0, 0))


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
    with pytest.raises(RouteDisagreementError, match="moments") as info:
        convert(c, "monotone")
    assert info.value.word == wrong


def test_verify_suite_passes_on_several_seeds():
    for seed in (1, 2, 3):
        report = verify_suite(3, 1, seed)
        assert report.ok
        assert len(report.results) >= 12
    names = [r.name for r in report.results]
    assert len(names) == len(set(names))


def test_verify_suite_catches_corruption(monkeypatch):
    # a wrong Bernoulli number must break the Magnus identities
    real = prelie.bernoulli

    def wrong(m):
        return F(-1, 3) if m == 1 else real(m)

    monkeypatch.setattr(prelie, "bernoulli", wrong)
    report = verify_suite(3, 1, seed=1)
    assert not report.ok
    failed = {r.name for r in report.results if not r.passed}
    assert failed & {"magnus-w-inverse", "magnus-fixed-point", "route-free"}


def test_verify_report_lines_shape():
    report = verify_suite(2, 1, seed=5)
    lines = report.lines()
    assert lines[-1].startswith("identities:")
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[1:-1])
    doc = report.to_dict()
    assert doc["ok"] is True
    assert len(doc["results"]) == len(report.results)


def test_verify_suite_rejects_out_of_range_requests():
    with pytest.raises(ValueError):
        verify_suite(0, 1)
    with pytest.raises(ValueError):
        verify_suite(9, 1)
    with pytest.raises(ValueError):
        verify_suite(3, 5)
