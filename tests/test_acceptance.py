"""Acceptance gate: one test per criterion, every equality exact.

Each test prints a single PASS line when it completes; pytest -v adds its
own PASSED/FAILED column per criterion.  Oracles here are deliberately
independent of the package internals: partition sums are re-implemented
from enumerations, the univariate nested-sum formula is coded directly
from its index-chain form, and display coefficients are recovered by
solving an exact linear system instead of trusting any expansion code.
"""

from fractions import Fraction as F
from itertools import combinations
from math import comb, factorial

from cumulants import forms, prelie
from cumulants.cli import main
from cumulants.coproducts import iterated_reduced_left
from cumulants.partitions import (
    enumerate_interval,
    enumerate_irreducible_nc,
    enumerate_monotone,
    enumerate_nc,
    linear_extensions,
    monotone_labelling_count,
    tree_factorial,
)
from cumulants.tablefile import parse_table, render_table
from cumulants.transforms import (
    CumulantTable,
    convert,
    cumulants_to_moments,
    random_table,
    verify_suite,
)
from cumulants.words import Word, all_words


def note(label):
    print(f"PASS {label}")


def solve_exact(matrix, rhs):
    """Gaussian elimination over Fraction; raises on singular systems."""
    n = len(matrix)
    rows = [list(map(F, row)) + [F(v)] for row, v in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ArithmeticError("singular system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][n] for r in range(n)]


def univariate(kind, values):
    table = {
        Word((0,) * n): F(v) for n, v in zip(range(1, len(values) + 1), values)
    }
    return CumulantTable(kind, 1, len(values), table)


def moment_word(table, n):
    return cumulants_to_moments(table).values[Word((0,) * n)]


def test_criterion_1_monotone_display_coefficients():
    # Phi(a^3) and Phi(a^4) as weighted-homogeneous polynomials in the
    # monotone cumulants; coefficients recovered through exact linear solves
    cubic_monomials = [
        lambda h: h[3],
        lambda h: h[1] * h[2],
        lambda h: h[1] ** 3,
    ]
    cubic_points = [(0, 0, 1), (1, 1, 0), (1, 0, 0)]
    matrix = []
    rhs = []
    for point in cubic_points:
        h = {i + 1: F(v) for i, v in enumerate(point)}
        matrix.append([m(h) for m in cubic_monomials])
        rhs.append(moment_word(univariate("monotone", point), 3))
    assert solve_exact(matrix, rhs) == [F(1), F(5, 2), F(1)]

    quartic_monomials = [
        lambda h: h[4],
        lambda h: h[1] * h[3],
        lambda h: h[2] ** 2,
        lambda h: h[1] ** 2 * h[2],
        lambda h: h[1] ** 4,
    ]
    quartic_points = [
        (0, 0, 0, 1),
        (1, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 1, 0, 0),
        (1, 0, 0, 0),
    ]
    matrix = []
    rhs = []
    for point in quartic_points:
        h = {i + 1: F(v) for i, v in enumerate(point)}
        matrix.append([m(h) for m in quartic_monomials])
        rhs.append(moment_word(univariate("monotone", point), 4))
    assert solve_exact(matrix, rhs) == [F(1), F(3), F(3, 2), F(13, 3), F(1)]
    note("criterion 1: monotone displays (1, 5/2, 1) and (1, 3, 3/2, 13/3, 1)")


def nested_sum(h, n):
    """The univariate closed form: chains 1 = i0 < ... < i_{s-1} < i_s = n+1,
    each contributing prod_j i_{j-1} h(i_j - i_{j-1}) / s!."""
    total = F(0)
    for s in range(1, n + 1):
        for interior in combinations(range(2, n + 1), s - 1):
            chain = (1,) + interior + (n + 1,)
            term = F(1, factorial(s))
            for j in range(1, s + 1):
                term *= chain[j - 1] * h[chain[j] - chain[j - 1]]
            total += term
    return total


def test_criterion_2_nested_sum_equals_convolution_exponential():
    values = (F(2), F(-3, 2), F(5), F(-1, 3), F(7), F(4, 5))
    h = {n: v for n, v in zip(range(1, 7), values)}
    table = univariate("monotone", values)
    phi = forms.exp_star(forms.InfinitesimalFromWords(table.values))
    for n in range(1, 7):
        assert phi.eval_word(Word((0,) * n)) == nested_sum(h, n)
    note("criterion 2: nested-sum closed form = exp_star up to degree 6")


def oracle_partition_sum(values, w, family):
    """Partition sums recomputed from scratch, independent of the library
    routine under test."""
    families = {
        "nc": enumerate_nc,
        "irr-nc": enumerate_irreducible_nc,
        "interval": enumerate_interval,
    }
    total = F(0)
    for p in families[family](w.degree):
        term = F(1)
        for block in p.blocks:
            term *= values[Word(tuple(w[i - 1] for i in block))]
        total += term
    return total


def test_criterion_3_free_and_boolean_triple_agreement():
    for n_letters, degree in ((1, 6), (2, 5)):
        kappa = random_table("free", n_letters, degree, seed=41)
        fixed_point = forms.exp_left(forms.InfinitesimalFromWords(kappa.values))
        omega = prelie.magnus(prelie.InfChar(n_letters, degree, kappa.values))
        group = forms.exp_star(forms.InfinitesimalFromWords(omega.table))
        for w in all_words(n_letters, degree):
            lattice = oracle_partition_sum(kappa.values, w, "nc")
            assert fixed_point.eval_word(w) == lattice
            assert group.eval_word(w) == lattice

        beta = random_table("boolean", n_letters, degree, seed=43)
        fixed_point = forms.exp_right(forms.InfinitesimalFromWords(beta.values))
        omega = -prelie.magnus(-prelie.InfChar(n_letters, degree, beta.values))
        group = forms.exp_star(forms.InfinitesimalFromWords(omega.table))
        for w in all_words(n_letters, degree):
            lattice = oracle_partition_sum(beta.values, w, "interval")
            assert fixed_point.eval_word(w) == lattice
            assert group.eval_word(w) == lattice
    note("criterion 3: free and boolean triples agree (6 univariate, 5 bivariate)")


def test_criterion_4_monotone_three_expressions():
    # m(gamma) counted by brute-force linear extensions, so the two lattice
    # sums really are different expressions
    brute_m = {
        n: {p: sum(1 for _ in linear_extensions(p)) for p in enumerate_nc(n)}
        for n in range(1, 7)
    }
    for n_letters, degree in ((1, 6), (2, 6)):
        rho = random_table("monotone", n_letters, degree, seed=47)
        phi = forms.exp_star(forms.InfinitesimalFromWords(rho.values))
        for w in all_words(n_letters, degree):
            by_tau = F(0)
            by_labelling = F(0)
            for p in enumerate_nc(w.degree):
                product = F(1)
                for block in p.blocks:
                    product *= rho.values[
                        Word(tuple(w[i - 1] for i in block))
                    ]
                by_tau += F(1, tree_factorial(p)) * product
                by_labelling += (
                    F(brute_m[w.degree][p], factorial(p.num_blocks)) * product
                )
            got = phi.eval_word(w)
            assert got == by_tau
            assert got == by_labelling
    note("criterion 4: monotone exp_star = 1/tau! sum = m(gamma)/s! sum, degree <= 6")


def test_criterion_5_conversion_formulas():
    weights = {
        ("free", "boolean"): lambda p: F(1),
        ("boolean", "free"): lambda p: F(-1) ** (p.num_blocks - 1),
        ("monotone", "boolean"): lambda p: F(1, tree_factorial(p)),
        ("monotone", "free"): lambda p: F(-1) ** (p.num_blocks - 1)
        / tree_factorial(p),
    }
    for n_letters in (1, 2):
        for (source, target), weight in sorted(weights.items()):
            table = random_table(source, n_letters, 5, seed=53)
            got = convert(table, target)
            for w in all_words(n_letters, 5):
                expected = F(0)
                for p in enumerate_irreducible_nc(w.degree):
                    product = weight(p)
                    for block in p.blocks:
                        product *= table.values[
                            Word(tuple(w[i - 1] for i in block))
                        ]
                    expected += product
                assert got.values[w] == expected

    # the two degree-3 relations, written out on every two-letter word
    free = random_table("free", 2, 3, seed=59)
    boolean = convert(free, "boolean")
    mono = random_table("monotone", 2, 3, seed=61)
    free_from_mono = convert(mono, "free")
    for w in all_words(2, 3, min_degree=3):
        outer = Word((w[0], w[2]))
        inner = Word((w[1],))
        assert boolean.values[w] == free.values[w] + free.values[outer] * free.values[inner]
        assert (
            free_from_mono.values[w]
            == mono.values[w] - F(1, 2) * mono.values[outer] * mono.values[inner]
        )
    note("criterion 5: Magnus/W conversions = irreducible-NC sums, degree <= 5")


REQUIRED_FAMILIES = {
    "coassociativity",
    "counit",
    "half-splitting",
    "unshuffle-C1",
    "unshuffle-C2",
    "unshuffle-C3",
    "shuffle-A1",
    "shuffle-A2",
    "shuffle-A3",
    "prelie-identity",
    "prelie-closure",
    "shuffle-inverse",
    "log-exp-left",
    "log-exp-right",
    "log-exp-star",
    "interchange",
    "magnus-w-inverse",
    "character-inverse",
}


def test_criterion_6_identity_suite_three_seeds():
    report = verify_suite(5, 2, seed=1)
    names = {r.name for r in report.results}
    assert REQUIRED_FAMILIES <= names
    assert len(names) >= 12
    assert report.ok
    for seed in ("1", "2", "3"):
        code = main(
            ["verify", "--degree", "5", "--generators", "2", "--seed", seed]
        )
        assert code == 0
    note("criterion 6: verify_suite exits 0 at degree 5, 2 generators, seeds 1-3")


def test_criterion_7_combinatorial_counts():
    def catalan(n):
        return comb(2 * n, n) // (n + 1)

    assert [len(enumerate_nc(n)) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert len(enumerate_nc(7)) == 429
    assert len(enumerate_nc(8)) == 1430
    for n in range(1, 9):
        assert len(enumerate_irreducible_nc(n)) == catalan(n - 1)
        assert len(enumerate_interval(n)) == 2 ** (n - 1)
    for n in range(1, 8):
        for p in enumerate_nc(n):
            brute = sum(1 for _ in linear_extensions(p))
            assert brute * tree_factorial(p) == factorial(p.num_blocks)
            assert monotone_labelling_count(p) == brute
    # the bijection between iterated splittings and monotone partitions
    for n in range(1, 7):
        w = Word(tuple(range(n)))
        for q in range(1, n + 1):
            terms = iterated_reduced_left(w, q)
            expected: dict = {}
            for _, order in enumerate_monotone(n, q):
                key = tuple(
                    Word(tuple(i - 1 for i in block)) for block in order
                )
                expected[key] = expected.get(key, 0) + 1
            assert dict(terms.items()) == expected
    note("criterion 7: NC/irreducible/interval counts, hook formula, bijection")


def test_criterion_8_semicircle_end_to_end(tmp_path):
    moments = univariate("moment", (0, 1, 0, 2, 0, 5))
    moment_text = render_table(moments)
    src = tmp_path / "semicircle.json"
    src.write_text(moment_text, encoding="utf-8")

    outputs = {}
    for kind in ("free", "boolean", "monotone"):
        dst = tmp_path / f"{kind}.json"
        assert main(["convert", "-i", str(src), "--to", kind, "-o", str(dst)]) == 0
        outputs[kind] = parse_table(dst.read_text(encoding="utf-8"))

    w = lambda n: Word((0,) * n)
    assert [outputs["free"].values[w(n)] for n in range(1, 7)] == [0, 1, 0, 0, 0, 0]
    assert outputs["monotone"].values[w(4)] == F(1, 2)
    assert outputs["boolean"].values[w(4)] == 1
    assert outputs["boolean"].values[w(6)] == 2

    back = tmp_path / "back.json"
    assert main(["convert", "-i", str(tmp_path / "free.json"), "--to", "moment", "-o", str(back)]) == 0
    assert back.read_bytes() == src.read_bytes()
    note("criterion 8: semicircle end-to-end with byte-identical round trip")
