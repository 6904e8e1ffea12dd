"""Moment/cumulant tables, conversions between them, and the identity suite.

Every conversion is computed along two independent routes and the results
are compared entry by entry:

  * a shuffle route through the half-shuffle / convolution exponentials and
    the Magnus expansion, and
  * a partition route through non-crossing, interval, or irreducible
    non-crossing partition sums (or a two-step detour through moments where
    no direct partition formula applies).

A mismatch raises RouteDisagreementError; it signals a broken invariant in
the package, not bad input, and the CLI maps it to its own exit code.

verify_suite replays the structural identities behind those routes on
deterministic pseudo-random rational tables and reports one line per
identity family with a minimal-degree counterexample on failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

from . import forms, partitions, prelie
from .coproducts import (
    coproduct,
    coproduct_left,
    coproduct_left_reduced,
    coproduct_reduced,
    coproduct_right,
    coproduct_right_reduced,
    iterated_reduced_left,
)
from .errors import IncompleteTableError, RouteDisagreementError
from .lincomb import LinComb
from .words import (
    BarWord,
    Word,
    all_barwords,
    all_words,
    barword_str,
    lift,
    word_str,
)

KINDS = ("moment", "free", "boolean", "monotone")
CUMULANT_KINDS = KINDS[1:]

DEFAULT_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")

CONVERT_DEGREE_CAP = 12
VERIFY_DEGREE_CAP = 8
VERIFY_LETTERS_CAP = 4


def default_max_degree(n_letters: int) -> int:
    """The degree bound used when none is requested: 6, 5, 4 for 1, 2, 3
    generators, then 3."""
    return {1: 6, 2: 5, 3: 4}.get(n_letters, 3)


def _as_generators(generators) -> tuple[str, ...]:
    if isinstance(generators, int):
        if not 1 <= generators <= len(DEFAULT_NAMES):
            raise ValueError(f"generator count must be 1..{len(DEFAULT_NAMES)}")
        return DEFAULT_NAMES[:generators]
    names = tuple(generators)
    if not names:
        raise ValueError("at least one generator is required")
    for name in names:
        if not name or not isinstance(name, str):
            raise ValueError(f"generator names must be non-empty strings, got {name!r}")
        if any(ch in name for ch in ".|{}\"\\") or name.strip() != name:
            raise ValueError(f"generator name {name!r} contains reserved characters")
    if len(set(names)) != len(names):
        raise ValueError("generator names must be distinct")
    return names


class CumulantTable:
    """A total table of moment or cumulant values on words up to a bound."""

    __slots__ = ("kind", "generators", "max_degree", "values")

    def __init__(self, kind: str, generators, max_degree: int, values):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        self.kind = kind
        self.generators = _as_generators(generators)
        self.max_degree = max_degree
        given = dict(values)
        self.values: dict[Word, Fraction] = {}
        for w in all_words(len(self.generators), max_degree):
            try:
                self.values[w] = Fraction(given.pop(w))
            except KeyError:
                raise IncompleteTableError(
                    f"table is missing the word {word_str(w, self.generators)!r} "
                    f"(tables must be total up to degree {max_degree})",
                    word=w,
                ) from None
        if given:
            bad = sorted(given)[0]
            raise ValueError(f"table entry {bad!r} is outside the alphabet or bound")

    @property
    def n_letters(self) -> int:
        return len(self.generators)

    def value(self, w: Word) -> Fraction:
        try:
            return self.values[w]
        except KeyError:
            raise IncompleteTableError(
                f"table has no value for {word_str(w, self.generators)!r}", word=w
            ) from None

    def truncated(self, max_degree: int) -> "CumulantTable":
        if max_degree == self.max_degree:
            return self
        if max_degree > self.max_degree:
            raise IncompleteTableError(
                f"table reaches degree {self.max_degree}, cannot supply degree {max_degree}"
            )
        kept = {w: v for w, v in self.values.items() if w.degree <= max_degree}
        return CumulantTable(self.kind, self.generators, max_degree, kept)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CumulantTable)
            and self.kind == other.kind
            and self.generators == other.generators
            and self.max_degree == other.max_degree
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return (
            f"CumulantTable({self.kind!r}, generators={self.generators}, "
            f"max_degree={self.max_degree})"
        )


def random_table(kind: str, generators, max_degree: int, seed) -> CumulantTable:
    """A deterministic pseudo-random table of small rationals."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    names = _as_generators(generators)
    values = {
        w: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for w in all_words(len(names), max_degree)
    }
    return CumulantTable(kind, names, max_degree, values)


def _infchar(table: CumulantTable) -> prelie.InfChar:
    return prelie.InfChar(table.n_letters, table.max_degree, table.values)


def _check_degree_cap(c: CumulantTable) -> None:
    # The partition route enumerates at most partitions.MAX_N points, the
    # same bound; refuse before the shuffle route, or a moment solver,
    # spends time on more.
    if c.max_degree > CONVERT_DEGREE_CAP:
        raise ValueError(f"degree {c.max_degree} exceeds the cap {CONVERT_DEGREE_CAP}")


def _words_of(table: CumulantTable):
    return all_words(table.n_letters, table.max_degree)


# ---------------------------------------------------------------------------
# moments -> cumulants
# ---------------------------------------------------------------------------


def _solve_free(m: CumulantTable) -> dict[Word, Fraction]:
    # Unfold Phi = e + kappa < Phi: the full-extraction term is kappa(w)
    # itself, every other term pairs a shorter kappa value with moments.
    phi = forms.CharacterFromWords(m.values)
    kappa: dict[Word, Fraction] = {}
    for w in _words_of(m):
        rest = Fraction(0)
        for (x, y), c in coproduct_left(lift(w)).items():
            if y.is_unit:
                continue
            rest += c * kappa[x[0]] * phi.eval(y)
        kappa[w] = m.value(w) - rest
    return kappa


def _solve_boolean(m: CumulantTable) -> dict[Word, Fraction]:
    # Unfold Phi = e + Phi > beta: only suffix extractions survive because
    # beta kills multi-factor complements, so the recursion runs on prefixes.
    beta: dict[Word, Fraction] = {}
    for w in _words_of(m):
        rest = Fraction(0)
        for j in range(1, len(w)):
            rest += beta[w[:j]] * m.value(w[j:])
        beta[w] = m.value(w) - rest
    return beta


def moments_to_cumulants(m: CumulantTable, target: str) -> CumulantTable:
    """Cumulants of the given kind from a total moment table.

    Free and boolean cumulants solve their half-shuffle fixed points degree
    by degree; monotone cumulants evaluate the convolution logarithm.
    """
    if m.kind != "moment":
        raise ValueError(f"expected a moment table, got kind {m.kind!r}")
    if target not in CUMULANT_KINDS:
        raise ValueError(f"target must be one of {CUMULANT_KINDS}, got {target!r}")
    if target == "free":
        values = _solve_free(m)
    elif target == "boolean":
        values = _solve_boolean(m)
    else:
        rho = forms.log_star(forms.CharacterFromWords(m.values))
        values = {w: rho.eval_word(w) for w in _words_of(m)}
    return CumulantTable(target, m.generators, m.max_degree, values)


# ---------------------------------------------------------------------------
# cumulants -> moments
# ---------------------------------------------------------------------------

_MOMENT_EXP = {
    "free": forms.exp_left,
    "boolean": forms.exp_right,
    "monotone": forms.exp_star,
}

_MOMENT_PARTITIONS = {
    "free": ("nc", "one"),
    "boolean": ("interval", "one"),
    "monotone": ("nc", "inv_tau"),
}


def cumulants_to_moments(c: CumulantTable) -> CumulantTable:
    """Moments from a cumulant table, cross-checked along both routes.

    A table above CONVERT_DEGREE_CAP is refused before either route runs.
    """
    if c.kind not in CUMULANT_KINDS:
        raise ValueError(f"expected a cumulant table, got kind {c.kind!r}")
    _check_degree_cap(c)
    exp_form = _MOMENT_EXP[c.kind](forms.InfinitesimalFromWords(c.values))
    family, weight = _MOMENT_PARTITIONS[c.kind]
    values: dict[Word, Fraction] = {}
    for w in _words_of(c):
        shuffle_value = exp_form.eval_word(w)
        lattice_value = partitions.partition_sum(c.values, w, family, weight)
        if shuffle_value != lattice_value:
            raise RouteDisagreementError(
                f"{c.kind} moments disagree at {word_str(w, c.generators)!r}: "
                f"shuffle route {shuffle_value}, partition route {lattice_value}",
                word=w,
                values=(shuffle_value, lattice_value),
            )
        values[w] = shuffle_value
    return CumulantTable("moment", c.generators, c.max_degree, values)


# ---------------------------------------------------------------------------
# cumulants -> cumulants
# ---------------------------------------------------------------------------


def _free_to_monotone(a):
    return prelie.magnus(a)


def _free_to_boolean(a):
    return -prelie.w_map(-prelie.magnus(a))


def _boolean_to_monotone(a):
    return -prelie.magnus(-a)


def _boolean_to_free(a):
    return prelie.w_map(-prelie.magnus(-a))


def _monotone_to_free(a):
    return prelie.w_map(a)


def _monotone_to_boolean(a):
    return -prelie.w_map(-a)


_CONVERSIONS = {
    ("free", "monotone"): _free_to_monotone,
    ("free", "boolean"): _free_to_boolean,
    ("boolean", "monotone"): _boolean_to_monotone,
    ("boolean", "free"): _boolean_to_free,
    ("monotone", "free"): _monotone_to_free,
    ("monotone", "boolean"): _monotone_to_boolean,
}

# Direct partition-lattice formulas over irreducible non-crossing partitions;
# the two missing pairs, free and boolean to monotone, are cross-checked
# through moments instead.
_CONVERSION_SUMS = {
    ("free", "boolean"): "one",
    ("boolean", "free"): "sign",
    ("monotone", "boolean"): "inv_tau",
    ("monotone", "free"): "sign_inv_tau",
}


def convert(c: CumulantTable, target: str) -> CumulantTable:
    """Convert between cumulant kinds, cross-checked along both routes."""
    if c.kind not in CUMULANT_KINDS:
        raise ValueError(f"expected a cumulant table, got kind {c.kind!r}")
    if target not in CUMULANT_KINDS:
        raise ValueError(f"target must be one of {CUMULANT_KINDS}, got {target!r}")
    if target == c.kind:
        raise ValueError("source and target kinds must differ")
    _check_degree_cap(c)
    result = _CONVERSIONS[(c.kind, target)](_infchar(c))
    out = CumulantTable(target, c.generators, c.max_degree, result.table)

    weight = _CONVERSION_SUMS.get((c.kind, target))
    if weight is not None:
        found = "shuffle route {}, partition route {}"
        got = out.values
        reference = {
            w: partitions.partition_sum(c.values, w, "irr-nc", weight)
            for w in _words_of(c)
        }
    else:
        # The partition-route moments of the output against the moments of
        # the input, checked by both routes.  Moments determine cumulants
        # triangularly, the one-block partition with coefficient 1, so the
        # first word where the moments differ is the first word where the
        # output is wrong.  The output's sums run first: building their
        # shapes before the exponential in cumulants_to_moments lowers the
        # peak RSS (by 0.9 MB on a 1-generator degree-10 table).
        found = "moments of the shuffle-route result {}, moments of the input {}"
        family, moment_weight = _MOMENT_PARTITIONS[target]
        got = {
            w: partitions.partition_sum(out.values, w, family, moment_weight)
            for w in _words_of(c)
        }
        reference = cumulants_to_moments(c).values
    for w in _words_of(c):
        if got[w] != reference[w]:
            raise RouteDisagreementError(
                f"{c.kind} -> {target} disagrees at {word_str(w, c.generators)!r}: "
                + found.format(got[w], reference[w]),
                word=w,
                values=(got[w], reference[w]),
            )
    return out


def convert_table(table: CumulantTable, target: str) -> CumulantTable:
    """Dispatch any kind-to-kind conversion, moments included.

    A table of any kind above CONVERT_DEGREE_CAP is refused up front.
    """
    if target not in KINDS:
        raise ValueError(f"target must be one of {KINDS}, got {target!r}")
    if table.kind == target:
        raise ValueError("source and target kinds must differ")
    _check_degree_cap(table)
    if table.kind == "moment":
        return moments_to_cumulants(table, target)
    if target == "moment":
        return cumulants_to_moments(table)
    return convert(table, target)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    max_degree: int
    n_letters: int
    seed: int
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [
            f"identity suite: degree <= {self.max_degree}, "
            f"{self.n_letters} generator(s), seed {self.seed}"
        ]
        for r in self.results:
            if r.passed:
                out.append(f"PASS {r.name}")
            else:
                out.append(f"FAIL {r.name}: {r.detail}")
        passed = sum(r.passed for r in self.results)
        out.append(f"identities: {passed} passed, {len(self.results) - passed} failed")
        return out

    def to_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "generators": self.n_letters,
            "seed": self.seed,
            "ok": self.ok,
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
        }


def _first_mismatch(inputs, lhs, rhs, describe):
    """First input where two evaluators differ, reported with both values."""
    for u in inputs:
        left = lhs(u)
        right = rhs(u)
        if left != right:
            return f"at {describe(u)}: {left} != {right}"
    return None


def _compose_left(outer, pairs: LinComb) -> LinComb:
    """Apply a splitting to the left legs, producing triples."""
    acc: dict = {}
    for (x, y), c in pairs.items():
        for (p, q), d in outer(x).items():
            key = (p, q, y)
            value = acc.get(key, 0) + c * d
            if value:
                acc[key] = value
            elif key in acc:
                del acc[key]
    return LinComb(acc.items())


def _compose_right(pairs: LinComb, inner) -> LinComb:
    """Apply a splitting to the right legs, producing triples."""
    acc: dict = {}
    for (x, y), c in pairs.items():
        for (p, q), d in inner(y).items():
            key = (x, p, q)
            value = acc.get(key, 0) + c * d
            if value:
                acc[key] = value
            elif key in acc:
                del acc[key]
    return LinComb(acc.items())


def verify_suite(max_degree: int, n_letters: int, seed: int = 1) -> VerifyReport:
    """Run every identity family on seeded random tables and report.

    Inputs are enumerated by ascending degree, so a failure detail always
    names a minimal-degree counterexample.
    """
    if not 1 <= max_degree <= VERIFY_DEGREE_CAP:
        raise ValueError(f"degree must be 1..{VERIFY_DEGREE_CAP}, got {max_degree}")
    if not 1 <= n_letters <= VERIFY_LETTERS_CAP:
        raise ValueError(f"generators must be 1..{VERIFY_LETTERS_CAP}, got {n_letters}")
    rng = random.Random(seed)
    report = VerifyReport(max_degree, n_letters, seed)
    check = report.results.append

    bars = list(all_barwords(n_letters, max_degree, include_unit=True))
    bars_plus = [u for u in bars if not u.is_unit]
    words = list(all_words(n_letters, max_degree))
    word_bars = [lift(w) for w in words]

    def describe(u):
        return barword_str(u) if isinstance(u, BarWord) else word_str(u)

    # --- coalgebra structure -------------------------------------------------

    detail = _first_mismatch(
        bars,
        lambda u: _compose_left(coproduct, coproduct(u)),
        lambda u: _compose_right(coproduct(u), coproduct),
        describe,
    )
    check(CheckResult("coassociativity", detail is None, detail or ""))

    def counit_contract(u):
        left = LinComb.zero()
        right = LinComb.zero()
        for (x, y), c in coproduct(u).items():
            if x.is_unit:
                left = left + LinComb.term(y, Fraction(c))
            if y.is_unit:
                right = right + LinComb.term(x, Fraction(c))
        target = LinComb.term(u, Fraction(1))
        return left == target and right == target

    bad = next((u for u in bars if not counit_contract(u)), None)
    check(CheckResult("counit", bad is None, f"at {describe(bad)}" if bad else ""))

    detail = _first_mismatch(
        bars_plus,
        lambda u: coproduct_left(u) + coproduct_right(u),
        coproduct,
        describe,
    )
    check(CheckResult("half-splitting", detail is None, detail or ""))

    detail = _first_mismatch(
        word_bars,
        lambda u: _compose_left(coproduct_left_reduced, coproduct_left_reduced(u)),
        lambda u: _compose_right(coproduct_left_reduced(u), coproduct_reduced),
        describe,
    )
    check(CheckResult("unshuffle-C1", detail is None, detail or ""))

    detail = _first_mismatch(
        word_bars,
        lambda u: _compose_left(coproduct_right_reduced, coproduct_left_reduced(u)),
        lambda u: _compose_right(coproduct_right_reduced(u), coproduct_left_reduced),
        describe,
    )
    check(CheckResult("unshuffle-C2", detail is None, detail or ""))

    detail = _first_mismatch(
        word_bars,
        lambda u: _compose_left(coproduct_reduced, coproduct_right_reduced(u)),
        lambda u: _compose_right(coproduct_right_reduced(u), coproduct_right_reduced),
        describe,
    )
    check(CheckResult("unshuffle-C3", detail is None, detail or ""))

    def factorisation_ok(n):
        one_letter = Word((0,) * n)
        expected = LinComb.term((Word((0,)),) * n, Fraction(factorial(n)))
        return iterated_reduced_left(one_letter, n) == expected

    bad_n = next((n for n in range(1, max_degree + 1) if not factorisation_ok(n)), None)
    check(
        CheckResult(
            "monotone-factorisation",
            bad_n is None,
            f"at degree {bad_n}" if bad_n else "",
        )
    )

    def bijection_ok(n):
        w = Word(range(n))
        return all(
            iterated_reduced_left(w, q) == partitions.monotone_tuple_lincomb(n, q, w)
            for q in range(1, n + 1)
        )

    top = min(max_degree, 6)
    bad_n = next((n for n in range(1, top + 1) if not bijection_ok(n)), None)
    check(
        CheckResult(
            "monotone-bijection",
            bad_n is None,
            f"at degree {bad_n}" if bad_n else "",
        )
    )

    # --- shuffle algebra of forms -------------------------------------------

    def rand_values():
        return {
            w: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for w in words
        }

    def rand_inf():
        return forms.InfinitesimalFromWords(rand_values())

    def rand_char():
        return forms.CharacterFromWords(rand_values())

    fa, fb, fc = rand_inf(), rand_inf(), rand_inf()

    for name, lhs, rhs in (
        (
            "shuffle-A1",
            forms.half_left(forms.half_left(fa, fb), fc),
            forms.half_left(fa, forms.conv(fb, fc)),
        ),
        (
            "shuffle-A2",
            forms.half_left(forms.half_right(fa, fb), fc),
            forms.half_right(fa, forms.half_left(fb, fc)),
        ),
        (
            "shuffle-A3",
            forms.half_right(fa, forms.half_right(fb, fc)),
            forms.half_right(forms.conv(fa, fb), fc),
        ),
    ):
        detail = _first_mismatch(word_bars, lhs.eval, rhs.eval, describe)
        check(CheckResult(name, detail is None, detail or ""))

    phi, psi = rand_char(), rand_char()

    detail = _first_mismatch(
        word_bars,
        forms.conv(phi, psi).eval,
        (forms.half_left(phi, psi) + forms.half_right(phi, psi)).eval,
        describe,
    )
    check(CheckResult("conv-half-splitting", detail is None, detail or ""))

    conv_char = forms.conv(phi, psi)
    detail = _first_mismatch(
        bars,
        conv_char.eval,
        lambda u: prod(conv_char.eval(lift(w)) for w in u),
        describe,
    )
    check(CheckResult("character-convolution", detail is None, detail or ""))

    inv = forms.char_inverse(phi)
    detail = _first_mismatch(
        bars,
        lambda u: (forms.conv(phi, inv).eval(u), forms.conv(inv, phi).eval(u)),
        lambda u: (forms.COUNIT.eval(u), forms.COUNIT.eval(u)),
        describe,
    )
    check(CheckResult("character-inverse", detail is None, detail or ""))

    kappa = rand_inf()
    x_left = forms.exp_left(kappa)
    residual_left = x_left - (forms.COUNIT + forms.half_left(kappa, x_left))
    detail = _first_mismatch(
        bars_plus, residual_left.eval, lambda u: Fraction(0), describe
    )
    check(CheckResult("exp-left-fixed-point", detail is None, detail or ""))

    beta = rand_inf()
    z_right = forms.exp_right(beta)
    residual_right = z_right - (forms.COUNIT + forms.half_right(z_right, beta))
    detail = _first_mismatch(
        bars_plus, residual_right.eval, lambda u: Fraction(0), describe
    )
    check(CheckResult("exp-right-fixed-point", detail is None, detail or ""))

    exp_forms = [x_left, z_right, forms.exp_star(rand_inf())]
    detail = None
    for f in exp_forms:
        detail = _first_mismatch(
            bars,
            f.eval,
            lambda u, f=f: prod(f.eval(lift(w)) for w in u),
            describe,
        )
        if detail:
            break
    check(CheckResult("exp-characters", detail is None, detail or ""))

    rho = forms.log_star(phi)
    bad = next(
        (
            u
            for u in bars
            if len(u) != 1 and rho.eval(u) != 0
        ),
        None,
    )
    check(
        CheckResult(
            "log-star-infinitesimal", bad is None, f"at {describe(bad)}" if bad else ""
        )
    )

    x = rand_inf()
    grown = forms.exp_left(x)
    shrunk = forms.exp_right(forms.scale(-1, x))
    detail = _first_mismatch(
        bars,
        lambda u: (forms.conv(shrunk, grown).eval(u), forms.conv(grown, shrunk).eval(u)),
        lambda u: (forms.COUNIT.eval(u), forms.COUNIT.eval(u)),
        describe,
    )
    check(CheckResult("shuffle-inverse", detail is None, detail or ""))

    for name, exp_fn, log_fn in (
        ("log-exp-left", forms.exp_left, forms.log_left),
        ("log-exp-right", forms.exp_right, forms.log_right),
        ("log-exp-star", forms.exp_star, forms.log_star),
    ):
        alpha = rand_inf()
        recovered = log_fn(exp_fn(alpha))
        detail = _first_mismatch(word_bars, recovered.eval, alpha.eval, describe)
        if detail is None:
            unital = rand_char()
            rebuilt = exp_fn(log_fn(unital))
            detail = _first_mismatch(word_bars, rebuilt.eval, unital.eval, describe)
        check(CheckResult(name, detail is None, detail or ""))

    # --- pre-Lie / Magnus ----------------------------------------------------

    def tri(f, g):
        return forms.half_right(f, g) - forms.half_left(g, f)

    ga, gb, gc = rand_inf(), rand_inf(), rand_inf()
    closed = tri(ga, gb)
    bad = next(
        (u for u in bars if len(u) != 1 and closed.eval(u) != 0), None
    )
    check(
        CheckResult(
            "prelie-closure", bad is None, f"at {describe(bad)}" if bad else ""
        )
    )

    lhs_form = tri(tri(ga, gb), gc) - tri(ga, tri(gb, gc))
    rhs_form = tri(tri(gb, ga), gc) - tri(gb, tri(ga, gc))
    detail = _first_mismatch(word_bars, lhs_form.eval, rhs_form.eval, describe)
    check(CheckResult("prelie-identity", detail is None, detail or ""))

    seed_char = prelie.InfChar(n_letters, max_degree, rand_values())
    detail = None
    if prelie.w_map(prelie.magnus(seed_char)) != seed_char:
        detail = "w(magnus(a)) != a"
    elif prelie.magnus(prelie.w_map(seed_char)) != seed_char:
        detail = "magnus(w(a)) != a"
    check(CheckResult("magnus-w-inverse", detail is None, detail or ""))

    om = prelie.magnus(seed_char)
    detail = _first_mismatch(
        word_bars,
        forms.exp_star(om.as_form()).eval,
        forms.exp_left(seed_char.as_form()).eval,
        describe,
    )
    check(CheckResult("magnus-fixed-point", detail is None, detail or ""))

    w_of = prelie.w_map(seed_char)
    star = forms.exp_star(seed_char.as_form())
    detail = _first_mismatch(
        word_bars, forms.exp_left(w_of.as_form()).eval, star.eval, describe
    )
    if detail is None:
        anti = -prelie.w_map(-seed_char)
        detail = _first_mismatch(
            word_bars, forms.exp_right(anti.as_form()).eval, star.eval, describe
        )
    check(CheckResult("interchange", detail is None, detail or ""))

    # --- route equivalence on random tables ----------------------------------

    free_table = random_table("free", n_letters, max_degree, rng)
    boolean_table = random_table("boolean", n_letters, max_degree, rng)
    monotone_table = random_table("monotone", n_letters, max_degree, rng)

    free_exp = forms.exp_left(forms.InfinitesimalFromWords(free_table.values))
    detail = _first_mismatch(
        words,
        free_exp.eval_word,
        lambda w: partitions.partition_sum(free_table.values, w, "nc", "one"),
        describe,
    )
    if detail is None:
        om = prelie.magnus(_infchar(free_table))
        detail = _first_mismatch(
            words,
            forms.exp_star(om.as_form()).eval_word,
            free_exp.eval_word,
            describe,
        )
    check(CheckResult("route-free", detail is None, detail or ""))

    boolean_exp = forms.exp_right(forms.InfinitesimalFromWords(boolean_table.values))
    detail = _first_mismatch(
        words,
        boolean_exp.eval_word,
        lambda w: partitions.partition_sum(boolean_table.values, w, "interval", "one"),
        describe,
    )
    if detail is None:
        om = -prelie.magnus(-_infchar(boolean_table))
        detail = _first_mismatch(
            words,
            forms.exp_star(om.as_form()).eval_word,
            boolean_exp.eval_word,
            describe,
        )
    check(CheckResult("route-boolean", detail is None, detail or ""))

    monotone_exp = forms.exp_star(forms.InfinitesimalFromWords(monotone_table.values))
    detail = _first_mismatch(
        words,
        monotone_exp.eval_word,
        lambda w: partitions.partition_sum(monotone_table.values, w, "nc", "inv_tau"),
        describe,
    )
    if detail is None:
        detail = _first_mismatch(
            words,
            monotone_exp.eval_word,
            lambda w: partitions.partition_sum(
                monotone_table.values, w, "nc", "labelling"
            ),
            describe,
        )
    check(CheckResult("route-monotone", detail is None, detail or ""))

    for (source, target), weight in sorted(_CONVERSION_SUMS.items()):
        table = {"free": free_table, "boolean": boolean_table, "monotone": monotone_table}[
            source
        ]
        shuffled = _CONVERSIONS[(source, target)](_infchar(table))
        detail = _first_mismatch(
            words,
            lambda w, s=shuffled: s.table[w],
            lambda w, t=table, k=weight: partitions.partition_sum(
                t.values, w, "irr-nc", k
            ),
            describe,
        )
        check(CheckResult(f"convert-{source}-{target}", detail is None, detail or ""))

    for kind in CUMULANT_KINDS:
        table = {"free": free_table, "boolean": boolean_table, "monotone": monotone_table}[
            kind
        ]
        detail = None
        back = moments_to_cumulants(cumulants_to_moments(table), kind)
        if back.values != table.values:
            detail = "cumulants -> moments -> cumulants is not the identity"
        else:
            moment_table = random_table("moment", n_letters, max_degree, rng)
            again = cumulants_to_moments(moments_to_cumulants(moment_table, kind))
            if again.values != moment_table.values:
                detail = "moments -> cumulants -> moments is not the identity"
        check(CheckResult(f"roundtrip-{kind}", detail is None, detail or ""))

    even_values = {}
    for w in all_words(1, max_degree):
        even_values[w] = (
            Fraction(0)
            if w.degree % 2
            else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        )
    even_moments = CumulantTable("moment", 1, max_degree, even_values)
    detail = None
    for kind in CUMULANT_KINDS:
        odd_bad = next(
            (
                w
                for w, v in moments_to_cumulants(even_moments, kind).values.items()
                if w.degree % 2 and v != 0
            ),
            None,
        )
        if odd_bad is not None:
            detail = f"{kind} cumulant at {describe(odd_bad)} is non-zero"
            break
    check(CheckResult("parity-univariate", detail is None, detail or ""))

    return report
