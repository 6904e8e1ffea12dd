"""Moment/cumulant tables, conversions between them, and the identity suite.

Every conversion out of a cumulant table is computed along two independent
routes and the results are compared entry by entry:

  * a shuffle route through the half-shuffle / convolution exponentials and
    the Magnus expansion: cumulants reach moments through the word-table
    kernels of `prelie` (exp_left_table, exp_right_table, exp_star_table),
    while the exponentials as forms stay the reference that verify_suite
    and the tests compare with, and
  * a partition route through non-crossing, interval, or irreducible
    non-crossing partition sums; free and boolean to monotone, which have
    no direct sum, apply the monotone-to-source sum to the result instead.

Conversions out of a moment table run one route, the half-shuffle
recursions and the Magnus expansion, and are not cross-checked.

A mismatch raises RouteDisagreementError; it signals a broken invariant in
the package, not bad input, and the CLI maps it to its own exit code.

verify_suite replays the structural identities behind those routes on
deterministic pseudo-random rational tables and reports one line per
identity family with a minimal-degree counterexample on failure.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import factorial, prod

from . import forms, partitions, prelie
from .coproducts import (
    BARWORDS,
    bar_id,
    coproduct_left_terms,
    coproduct_right_terms,
    coproduct_terms,
    iterated_reduced_left,
)
from .errors import IncompleteTableError, RouteDisagreementError
from .words import (
    BarWord,
    Word,
    all_barwords,
    all_words,
    barword_str,
    lift,
    total_table,
    word_str,
)

KINDS = ("moment", "free", "boolean", "monotone")
CUMULANT_KINDS = KINDS[1:]

DEFAULT_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")

CONVERT_DEGREE_CAP = partitions.MAX_N
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
        self.values = total_table(
            values,
            len(self.generators),
            max_degree,
            lambda w: f"table is missing the word {word_str(w, self.generators)!r} "
            f"(tables must be total up to degree {max_degree})",
        )

    @property
    def n_letters(self) -> int:
        return len(self.generators)

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
    return prelie.InfChar._trusted(table.n_letters, table.max_degree, table.values)


def _check_degree_cap(c: CumulantTable) -> None:
    # The partition route enumerates at most partitions.MAX_N points;
    # refuse before the shuffle route, or a moment solver, spends time on
    # more.
    if c.max_degree > CONVERT_DEGREE_CAP:
        raise ValueError(f"degree {c.max_degree} exceeds the cap {CONVERT_DEGREE_CAP}")


def _words_of(table: CumulantTable):
    return all_words(table.n_letters, table.max_degree)


# (source, target) -> (family, weight) of the partition-lattice sum that
# takes a table of the source kind to the target kind.  Cumulants reach
# moments over non-crossing partitions, interval partitions, and
# non-crossing partitions weighted by 1/tau!; the four cumulant-cumulant
# rows sum over irreducible non-crossing partitions (Arizmendi, Hasebe,
# Lehner & Vargas).  A conversion with a row is checked forward, its result
# against the sum over its input.  Free and boolean to monotone have none,
# so they are checked backward: the reversed row, monotone to the source,
# applied to the result against the input.
_CONVERSION_SUMS = {
    ("free", "moment"): ("nc", "one"),
    ("boolean", "moment"): ("interval", "one"),
    ("monotone", "moment"): ("nc", "inv_tau"),
    ("free", "boolean"): ("irr-nc", "one"),
    ("boolean", "free"): ("irr-nc", "sign"),
    ("monotone", "boolean"): ("irr-nc", "inv_tau"),
    ("monotone", "free"): ("irr-nc", "sign_inv_tau"),
}


def _checked(c: CumulantTable, target: str, values, what: str) -> CumulantTable:
    """The table of kind `target` holding `values`, c converted along the
    shuffle route, once the partition route agrees on every word of c.

    The first word where the routes differ raises RouteDisagreementError:
    `what`, then the word, then the shuffle-route value and the partition
    sum (forward), or the image of the result and the input (backward).
    """
    out = CumulantTable(target, c.generators, c.max_degree, values)
    if (c.kind, target) in _CONVERSION_SUMS:
        family, weight = _CONVERSION_SUMS[(c.kind, target)]

        def routes(w):
            return out.values[w], partitions.partition_sum(c.values, w, family, weight)

        found = "shuffle route {}, partition route {}"
    else:
        # The one-block partition has weight 1 and every other partition
        # reads the output on shorter subwords only, so the first word where
        # the image differs from the input is the first wrong word.
        family, weight = _CONVERSION_SUMS[(target, c.kind)]

        def routes(w):
            return partitions.partition_sum(out.values, w, family, weight), c.values[w]

        found = f"image of the result under the {target} -> {c.kind} sum {{}}, input {{}}"
    for w in _words_of(c):
        both = routes(w)
        if both[0] != both[1]:
            word = word_str(w, c.generators)
            raise RouteDisagreementError(
                f"{what} at {word!r}: " + found.format(*both), word=w, values=both
            )
    return out


# ---------------------------------------------------------------------------
# moments -> cumulants
# ---------------------------------------------------------------------------


def _solve_free(m: CumulantTable) -> dict[Word, Fraction]:
    # Unfold Phi = e + kappa < Phi: the full-extraction term is kappa(w)
    # itself, every other term pairs a shorter kappa value with moments.
    # Each word sums m(w) minus those terms in integers, one numerator sum
    # per denominator product, and builds one Fraction over their lcm.  The
    # left legs are lifted shorter words, so their kappa values are looked
    # up as integer ratios by bar-word id.
    phi = forms.CharacterFromWords(m.values)
    bars = BARWORDS
    kappa: dict[Word, Fraction] = {}
    ratios: dict[int, tuple[int, int]] = {}
    for w in _words_of(m):
        p, q = m.values[w].as_integer_ratio()
        sums = {q: p}
        i = bar_id(lift(w))
        for x, y, c in coproduct_left_terms(i):
            if not y:
                continue
            p, q = ratios[x]
            if p:
                r, s = phi.eval(bars[y]).as_integer_ratio()
                if r:
                    d = q * s
                    sums[d] = sums.get(d, 0) - c * p * r
        value = kappa[w] = prelie._fraction(sums)
        ratios[i] = value.as_integer_ratio()
    return kappa


def _solve_boolean(m: CumulantTable) -> dict[Word, Fraction]:
    # Unfold Phi = e + Phi > beta: only suffix extractions survive because
    # beta kills multi-factor complements, so the recursion runs on prefixes.
    # With L the moments' least common denominator and M = L m, it runs in
    # integers: B(w) = L^n beta(w) is L^(n-1) M(w) minus the terms
    # B(w[:j]) L^(n-j-1) M(w[j:]), and each word builds one Fraction.
    scale, num = prelie._numerators(m.values)
    powers = [scale**k for k in range(m.max_degree + 1)]
    b: dict[Word, int] = {}
    beta: dict[Word, Fraction] = {}
    for w in _words_of(m):
        n = len(w)
        total = num[w] * powers[n - 1]
        for j in range(1, n):
            head = b[w[:j]]
            if head:
                total -= head * powers[n - j - 1] * num[w[j:]]
        b[w] = total
        beta[w] = Fraction(total, powers[n])
    return beta


def moments_to_cumulants(m: CumulantTable, target: str) -> CumulantTable:
    """Cumulants of the given kind from a total moment table.

    Free and boolean cumulants solve their half-shuffle fixed points degree
    by degree; monotone cumulants are the pre-Lie Magnus expansion of the
    free ones, rho = Omega'(kappa).
    """
    if m.kind != "moment":
        raise ValueError(f"expected a moment table, got kind {m.kind!r}")
    if target not in CUMULANT_KINDS:
        raise ValueError(f"target must be one of {CUMULANT_KINDS}, got {target!r}")
    if target == "boolean":
        values = _solve_boolean(m)
    else:
        values = _solve_free(m)
    if target == "monotone":
        free = prelie.InfChar._trusted(m.n_letters, m.max_degree, values)
        values = _CONVERSIONS[("free", "monotone")](free).table
    return CumulantTable(target, m.generators, m.max_degree, values)


# ---------------------------------------------------------------------------
# cumulants -> moments
# ---------------------------------------------------------------------------

# The exponentials as forms, the reference that verify_suite and the tests
# compare with, and as table kernels, the shuffle route of
# cumulants_to_moments.
_MOMENT_EXP = {
    "free": forms.exp_left,
    "boolean": forms.exp_right,
    "monotone": forms.exp_star,
}

_MOMENT_KERNEL = {
    "free": prelie.exp_left_table,
    "boolean": prelie.exp_right_table,
    "monotone": prelie.exp_star_table,
}


def cumulants_to_moments(c: CumulantTable) -> CumulantTable:
    """Moments from a cumulant table, cross-checked along both routes.

    A table above CONVERT_DEGREE_CAP is refused before either route runs.
    """
    if c.kind not in CUMULANT_KINDS:
        raise ValueError(f"expected a cumulant table, got kind {c.kind!r}")
    _check_degree_cap(c)
    shuffled = _MOMENT_KERNEL[c.kind](c.values)
    return _checked(c, "moment", shuffled, f"{c.kind} moments disagree")


# ---------------------------------------------------------------------------
# cumulants -> cumulants
# ---------------------------------------------------------------------------

# Free to monotone is Omega' = magnus and monotone to free is W = w_map.  The
# other four conjugate them by the sign; they read prelie.magnus and
# prelie.w_map when called, so a rebinding of either reaches every route.


def _free_to_boolean(a):
    return -prelie.w_map(-prelie.magnus(a))


def _boolean_to_monotone(a):
    return -prelie.magnus(-a)


def _boolean_to_free(a):
    return prelie.w_map(-prelie.magnus(-a))


def _monotone_to_boolean(a):
    return -prelie.w_map(-a)


_CONVERSIONS = {
    ("free", "monotone"): prelie.magnus,
    ("free", "boolean"): _free_to_boolean,
    ("boolean", "monotone"): _boolean_to_monotone,
    ("boolean", "free"): _boolean_to_free,
    ("monotone", "free"): prelie.w_map,
    ("monotone", "boolean"): _monotone_to_boolean,
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
    return _checked(c, target, result.table, f"{c.kind} -> {target} disagrees")


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


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


class VerifyReport:
    def __init__(self, max_degree: int, n_letters: int, seed: int, results=None):
        self.max_degree = max_degree
        self.n_letters = n_letters
        self.seed = seed
        self.results: list[CheckResult] = [] if results is None else results

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


def _describe(u) -> str:
    return barword_str(u) if isinstance(u, BarWord) else word_str(u)


def _first_mismatch(inputs, lhs, rhs, describe=_describe, spell=str):
    """First input where two evaluators differ, reported with both values."""
    for u in inputs:
        left = lhs(u)
        right = rhs(u)
        if left != right:
            return f"at {describe(u)}: {spell(left)} != {spell(right)}"
    return None


def _first_failure(inputs, holds, describe=_describe):
    """First input where a property fails, reported by the input alone."""
    return next((f"at {describe(u)}" for u in inputs if not holds(u)), None)


def _split_leg(terms, leg: int, split, reduced: bool = False) -> dict:
    """Apply a splitting to the left (0) or right (1) leg of every
    (x id, y id, count) term, producing id triples with their counts.

    `split` maps a bar-word id to its id terms.  With `reduced`, every term
    with a unit leg is skipped, in `terms` and in each split, so both maps
    are read as their reduced variants."""
    acc: dict = {}
    for x, y, c in terms:
        if reduced and not (x and y):
            continue
        for a, b, d in split(y if leg else x):
            if reduced and not (a and b):
                continue
            key = (x, a, b) if leg else (a, b, y)
            acc[key] = acc.get(key, 0) + c * d
    return acc


def _keyed(terms) -> dict:
    """Id terms as a dict from (x id, y id) to counts."""
    return {(x, y): c for x, y, c in terms}


def _as_barwords(counts: dict) -> dict:
    """Counts keyed by tuples of ids, keyed by tuples of bar-words again."""
    return {tuple(BARWORDS[i] for i in key): c for key, c in counts.items()}


def verify_suite(max_degree: int, n_letters: int, seed: int = 1) -> VerifyReport:
    """Run every identity family on seeded random tables and report.

    Inputs are enumerated by ascending degree, so a failure detail always
    names a minimal-degree counterexample.  The coalgebra checks read the
    id terms of the coproduct and its halves through this module's names,
    with the unit-leg terms skipped where an axiom reads a reduced map, and
    compare id pairs and triples; only a failure detail spells them as
    bar-words.  A route disagreement inside a round trip or the parity
    check fails that check alone.  The route checks read each
    kind's exponential, partition family and weight, and its conversion to
    monotone cumulants from the tables that the conversions use.
    """
    if not 1 <= max_degree <= VERIFY_DEGREE_CAP:
        raise ValueError(f"degree must be 1..{VERIFY_DEGREE_CAP}, got {max_degree}")
    if not 1 <= n_letters <= VERIFY_LETTERS_CAP:
        raise ValueError(f"generators must be 1..{VERIFY_LETTERS_CAP}, got {n_letters}")
    rng = random.Random(seed)
    report = VerifyReport(max_degree, n_letters, seed)

    def check(name: str, detail: str | None) -> None:
        report.results.append(CheckResult(name, detail is None, detail or ""))

    bars = list(all_barwords(n_letters, max_degree, include_unit=True))
    bars_plus = [u for u in bars if not u.is_unit]
    words = list(all_words(n_letters, max_degree))
    word_bars = [lift(w) for w in words]

    # --- coalgebra structure -------------------------------------------------

    # (name, inputs, D1, split of D1's left legs, D2, split of D2's right
    # legs, reduced): each identity reads (split (x) id) D1 = (id (x) split)
    # D2.  delta is the coproduct, prec its left half and succ its right
    # half, as id terms read through this module's names; the unshuffle
    # axioms read all three reduced, with the unit-leg terms skipped.  The
    # inputs are bar-word ids, and both sides are compared as id triples,
    # spelled in bar-words only in a failure detail.
    delta, prec, succ = coproduct_terms, coproduct_left_terms, coproduct_right_terms
    bar_ids = [bar_id(u) for u in bars]
    word_ids = [bar_id(u) for u in word_bars]
    coassociative = [
        ("coassociativity", bar_ids, delta, delta, delta, delta, False),
        ("unshuffle-C1", word_ids, prec, prec, prec, delta, True),
        ("unshuffle-C2", word_ids, prec, succ, succ, prec, True),
        ("unshuffle-C3", word_ids, succ, delta, succ, succ, True),
    ]

    def by_id(i):
        return _describe(BARWORDS[i])

    def check_coassociative(name, inputs, first, left_leg, second, right_leg, reduced):
        detail = _first_mismatch(
            inputs,
            lambda i: _split_leg(first(i), 0, left_leg, reduced),
            lambda i: _split_leg(second(i), 1, right_leg, reduced),
            by_id,
            _as_barwords,
        )
        check(name, detail)

    def counit_contract(i):
        terms = delta(i)
        # each (x, y) is one term, so each list holds a leg at most once
        unit_left = [(y, c) for x, y, c in terms if not x]
        unit_right = [(x, c) for x, y, c in terms if not y]
        return unit_left == [(i, 1)] == unit_right

    def halves_added(i):
        # Added, not merged: a key can take counts from both halves.
        total = _keyed(prec(i))
        for x, y, c in succ(i):
            total[x, y] = total.get((x, y), 0) + c
        return total

    check_coassociative(*coassociative[0])
    check("counit", _first_failure(bar_ids, counit_contract, by_id))
    detail = _first_mismatch(
        [i for i in bar_ids if i],  # the halves are undefined on the unit
        halves_added,
        lambda i: _keyed(delta(i)),
        by_id,
        _as_barwords,
    )
    check("half-splitting", detail)
    for row in coassociative[1:]:
        check_coassociative(*row)

    def factorisation_ok(n):
        expected = {(Word((0,)),) * n: factorial(n)}
        return iterated_reduced_left(Word((0,) * n), n) == expected

    def bijection_ok(n):
        w = Word(range(n))
        return all(
            iterated_reduced_left(w, q) == partitions.monotone_tuple_counts(n, q, w)
            for q in range(1, n + 1)
        )

    degrees, degree = range(1, max_degree + 1), "degree {}".format
    check("monotone-factorisation", _first_failure(degrees, factorisation_ok, degree))
    check("monotone-bijection", _first_failure(degrees[:6], bijection_ok, degree))

    # --- shuffle algebra of forms -------------------------------------------

    def rand_values():
        return {w: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for w in words}

    def rand_inf():
        return forms.InfinitesimalFromWords(rand_values())

    def rand_char():
        return forms.CharacterFromWords(rand_values())

    def vanishes_off_words(f):
        return lambda u: len(u) == 1 or f.eval(u) == 0

    def inverse_pair(f, g):
        """Where f * g = g * f = e fails, if anywhere."""
        fg, gf = forms.conv(f, g), forms.conv(g, f)
        return _first_mismatch(
            bars,
            lambda u: (fg.eval(u), gf.eval(u)),
            lambda u: (forms.COUNIT.eval(u), forms.COUNIT.eval(u)),
        )

    fa, fb, fc = rand_inf(), rand_inf(), rand_inf()
    half_left, half_right, conv = forms.half_left, forms.half_right, forms.conv
    for name, lhs, rhs in (
        ("shuffle-A1", half_left(half_left(fa, fb), fc), half_left(fa, conv(fb, fc))),
        (
            "shuffle-A2",
            half_left(half_right(fa, fb), fc),
            half_right(fa, half_left(fb, fc)),
        ),
        (
            "shuffle-A3",
            half_right(fa, half_right(fb, fc)),
            half_right(conv(fa, fb), fc),
        ),
    ):
        check(name, _first_mismatch(word_bars, lhs.eval, rhs.eval))

    phi, psi = rand_char(), rand_char()
    conv_char = conv(phi, psi)
    halves = half_left(phi, psi) + half_right(phi, psi)
    detail = _first_mismatch(word_bars, conv_char.eval, halves.eval)
    check("conv-half-splitting", detail)
    check(
        "character-convolution",
        _first_mismatch(
            bars, conv_char.eval, lambda u: prod(conv_char.eval(lift(w)) for w in u)
        ),
    )

    inv = forms.char_inverse(phi)
    check("character-inverse", inverse_pair(phi, inv))

    def zero(u):
        return Fraction(0)

    kappa = rand_inf()
    x_left = forms.exp_left(kappa)
    residual = x_left - (forms.COUNIT + half_left(kappa, x_left))
    check("exp-left-fixed-point", _first_mismatch(bars_plus, residual.eval, zero))

    beta = rand_inf()
    z_right = forms.exp_right(beta)
    residual = z_right - (forms.COUNIT + half_right(z_right, beta))
    check("exp-right-fixed-point", _first_mismatch(bars_plus, residual.eval, zero))

    failures = (
        _first_mismatch(bars, f.eval, lambda u, f=f: prod(f.eval(lift(w)) for w in u))
        for f in (x_left, z_right, forms.exp_star(rand_inf()))
    )
    check("exp-characters", next(filter(None, failures), None))

    rho = forms.log_star(phi)
    check("log-star-infinitesimal", _first_failure(bars, vanishes_off_words(rho)))

    x = rand_inf()
    grown = forms.exp_left(x)
    shrunk = forms.exp_right(-x)
    check("shuffle-inverse", inverse_pair(shrunk, grown))

    for name, exp_fn, log_fn in (
        ("log-exp-left", forms.exp_left, forms.log_left),
        ("log-exp-right", forms.exp_right, forms.log_right),
        ("log-exp-star", forms.exp_star, forms.log_star),
    ):
        alpha = rand_inf()
        recovered = log_fn(exp_fn(alpha))
        detail = _first_mismatch(word_bars, recovered.eval, alpha.eval)
        if detail is None:
            unital = rand_char()
            rebuilt = exp_fn(log_fn(unital))
            detail = _first_mismatch(word_bars, rebuilt.eval, unital.eval)
        check(name, detail)

    # --- pre-Lie / Magnus ----------------------------------------------------

    def tri(f, g):
        return half_right(f, g) - half_left(g, f)

    ga, gb, gc = rand_inf(), rand_inf(), rand_inf()
    check("prelie-closure", _first_failure(bars, vanishes_off_words(tri(ga, gb))))

    lhs = tri(tri(ga, gb), gc) - tri(ga, tri(gb, gc))
    rhs = tri(tri(gb, ga), gc) - tri(gb, tri(ga, gc))
    check("prelie-identity", _first_mismatch(word_bars, lhs.eval, rhs.eval))

    seed_char = prelie.InfChar(n_letters, max_degree, rand_values())
    detail = None
    if prelie.w_map(prelie.magnus(seed_char)) != seed_char:
        detail = "w(magnus(a)) != a"
    elif prelie.magnus(prelie.w_map(seed_char)) != seed_char:
        detail = "magnus(w(a)) != a"
    check("magnus-w-inverse", detail)

    om = prelie.magnus(seed_char)
    detail = _first_mismatch(
        word_bars,
        forms.exp_star(forms.InfinitesimalFromWords(om.table)).eval,
        forms.exp_left(forms.InfinitesimalFromWords(seed_char.table)).eval,
    )
    check("magnus-fixed-point", detail)

    w_of = prelie.w_map(seed_char)
    star = forms.exp_star(forms.InfinitesimalFromWords(seed_char.table)).eval
    left = forms.exp_left(forms.InfinitesimalFromWords(w_of.table))
    detail = _first_mismatch(word_bars, left.eval, star)
    if detail is None:
        anti = -prelie.w_map(-seed_char)
        right = forms.exp_right(forms.InfinitesimalFromWords(anti.table))
        detail = _first_mismatch(word_bars, right.eval, star)
    check("interchange", detail)

    # --- route equivalence on random tables ----------------------------------

    tables = {k: random_table(k, n_letters, max_degree, rng) for k in CUMULANT_KINDS}

    # Each kind's exponential against its partition sum.  Then free and
    # boolean cumulants meet the monotone exponential through their Magnus
    # conversion, and monotone ones the sum over monotone labellings.
    for kind, table in tables.items():
        moments = _MOMENT_EXP[kind](forms.InfinitesimalFromWords(table.values))
        family, weight = _CONVERSION_SUMS[(kind, "moment")]
        detail = _first_mismatch(
            words,
            moments.eval_word,
            lambda w: partitions.partition_sum(table.values, w, family, weight),
        )
        if detail is None and kind == "monotone":
            detail = _first_mismatch(
                words,
                moments.eval_word,
                lambda w: partitions.partition_sum(table.values, w, "nc", "labelling"),
            )
        elif detail is None:
            om = _CONVERSIONS[(kind, "monotone")](_infchar(table))
            via_magnus = _MOMENT_EXP["monotone"](forms.InfinitesimalFromWords(om.table))
            detail = _first_mismatch(words, via_magnus.eval_word, moments.eval_word)
        check(f"route-{kind}", detail)

    # convert's own check: its shuffle route against the direct lattice sum.
    for source, target in sorted(p for p in _CONVERSION_SUMS if p[1] != "moment"):
        detail = None
        try:
            convert(tables[source], target)
        except RouteDisagreementError as exc:
            detail = f"at {_describe(exc.word)}: {exc.values[0]} != {exc.values[1]}"
        check(f"convert-{source}-{target}", detail)

    # A route disagreement inside a round trip fails that check alone.
    for kind, table in tables.items():
        detail = None
        try:
            back = moments_to_cumulants(cumulants_to_moments(table), kind)
            if back.values != table.values:
                detail = "cumulants -> moments -> cumulants is not the identity"
            else:
                moment_table = random_table("moment", n_letters, max_degree, rng)
                again = cumulants_to_moments(moments_to_cumulants(moment_table, kind))
                if again.values != moment_table.values:
                    detail = "moments -> cumulants -> moments is not the identity"
        except RouteDisagreementError as exc:
            detail = str(exc)
        check(f"roundtrip-{kind}", detail)

    even_moments = CumulantTable(
        "moment",
        1,
        max_degree,
        {
            w: 0 if w.degree % 2 else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for w in all_words(1, max_degree)
        },
    )
    odd = (
        f"{kind} cumulant at {_describe(w)} is non-zero"
        for kind in CUMULANT_KINDS
        for w, v in moments_to_cumulants(even_moments, kind).values.items()
        if w.degree % 2 and v != 0
    )
    try:
        detail = next(odd, None)
    except RouteDisagreementError as exc:
        detail = str(exc)
    check("parity-univariate", detail)

    return report
