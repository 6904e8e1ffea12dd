"""Lazily evaluated linear forms on the bar-word algebra.

A Form is a node in an expression DAG.  Evaluation at a bar-word is exact
(Fraction) and memoized per node, keyed by the bar-word's id in the
`coproducts` registry, so repeated evaluation of shared subexpressions
costs nothing beyond the first pass.  Nodes are immutable once built; the
only mutable state is the per-node memo dict, which is an idempotent
cache, so concurrent readers are safe.

Conventions, with e the counit (1 on the unit bar-word, else 0):

  * convolution f * g pairs f (x) g over the full coproduct;
  * the half convolutions pair over the corresponding unital half
    coproducts, which realizes  f < e = f  and  e > f = f  termwise
    (on the unit the halves evaluate to f(1) resp. g(1) when the other
    operand is literally the counit node, else to 0; never an error);
  * the half-shuffle exponentials and the convolution inverse are their
    defining fixed-point equations, evaluated through Conv:
        exp_left(a)      X = e + a < X,
        exp_right(a)     Z = e + Z > a,
        char_inverse(f)  psi = e - (f - e) * psi;
    each right-hand side reads the solution only below the degree of its
    input, so the recursion stops at the unit;
  * exp_star and log_star are power series in a base form vanishing on the
    unit, finite sums at every input, so no truncation parameter appears.

`Conv._eval` is the one loop over a coproduct here.  It walks the cached
(x id, y id, c) terms and reads each operand value from the operand's memo
by id, calling `Form.eval` only on a miss, so every value computed goes
through `eval`.  It reads each value as one integer ratio and sums the
terms c * f(x) * g(y) in integers, one numerator sum per denominator
product (the coproduct coefficients c are ints), then builds one Fraction
per evaluation over the groups' lcm.  The power series sum their terms the
same way, with integer-pair coefficients, starting from the counit and the
base as powers 0 and 1.  The full coproduct of the unit is the one term
1 (x) 1, so the loop itself gives f(1) * g(1) there; only the half
convolutions, undefined on the unit, take the rule above.  It
shares no code with the word-table kernels in `prelie`, which `verify`
checks it against.  Negation, the only scaling the package needs, is the
node `Neg`, behind `-f` and `f - g`.

Preconditions are checked at construction: the exponentials require an
infinitesimal operand (vanishing on the unit), the logarithms and the
inverse require a unital one (value 1 on the unit).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .coproducts import (
    BARWORDS,
    bar_id,
    coproduct_left_terms,
    coproduct_right_terms,
    coproduct_terms,
)
from .errors import IncompleteTableError, InvalidFormError
from .words import UNIT, BarWord, Word, barword_str, lift

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Form:
    """Base node: a linear form evaluated exactly on bar-words."""

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict[int, Fraction] = {}  # by bar-word id

    def eval(self, u: BarWord) -> Fraction:
        i = bar_id(u)
        memo = self._memo
        value = memo.get(i)
        if value is None:
            value = memo[i] = self._eval(u)
        return value

    def eval_word(self, w: Word) -> Fraction:
        return self.eval(lift(w))

    def _eval(self, u: BarWord) -> Fraction:
        raise NotImplementedError

    def __add__(self, other: "Form") -> "Form":
        return Add(self, other)

    def __sub__(self, other: "Form") -> "Form":
        return Add(self, Neg(other))

    def __neg__(self) -> "Form":
        return Neg(self)


class Counit(Form):
    """e: 1 on the unit bar-word, 0 elsewhere."""

    __slots__ = ()

    def _eval(self, u):
        return _ONE if u.is_unit else _ZERO


COUNIT = Counit()


class CharacterFromWords(Form):
    """The multiplicative extension of a word table; 1 on the unit.

    Missing words raise IncompleteTableError: a table never zero-fills.
    """

    __slots__ = ("table",)

    def __init__(self, table):
        super().__init__()
        self.table = dict(table)

    def _eval(self, u):
        out = _ONE
        for w in u:
            try:
                out *= self.table[w]
            except KeyError:
                raise IncompleteTableError(
                    f"no table value for the word {barword_str(lift(w))}", word=w
                ) from None
        return out


class InfinitesimalFromWords(Form):
    """A word table extended by zero on the unit and on bar products."""

    __slots__ = ("table",)

    def __init__(self, table):
        super().__init__()
        self.table = dict(table)

    def _eval(self, u):
        if len(u) != 1:
            return _ZERO
        try:
            return Fraction(self.table[u[0]])
        except KeyError:
            raise IncompleteTableError(
                f"no table value for the word {barword_str(u)}", word=u[0]
            ) from None


class Add(Form):
    __slots__ = ("f", "g")

    def __init__(self, f: Form, g: Form):
        super().__init__()
        self.f = f
        self.g = g

    def _eval(self, u):
        return self.f.eval(u) + self.g.eval(u)


class Neg(Form):
    __slots__ = ("f",)

    def __init__(self, f: Form):
        super().__init__()
        self.f = f

    def _eval(self, u):
        return -self.f.eval(u)


def _fraction(sums: dict[int, int]) -> Fraction:
    """The sum of n / d over the groups d -> n, as one Fraction over their
    lcm; the shared zero when it vanishes."""
    den = lcm(*sums)
    total = sum(n * (den // d) for d, n in sums.items())
    return Fraction(total, den) if total else _ZERO


CONV = "conv"
LEFT = "left"
RIGHT = "right"

_SPLITTERS = {
    CONV: coproduct_terms,
    LEFT: coproduct_left_terms,
    RIGHT: coproduct_right_terms,
}


class Conv(Form):
    """Convolution-type product of two forms: full, left half, or right half."""

    __slots__ = ("kind", "f", "g")

    def __init__(self, kind: str, f: Form, g: Form):
        if kind not in _SPLITTERS:
            raise ValueError(f"unknown convolution kind {kind!r}")
        super().__init__()
        self.kind = kind
        self.f = f
        self.g = g

    def _eval(self, u):
        if u.is_unit and self.kind != CONV:
            if self.kind == LEFT:
                return self.f.eval(u) if isinstance(self.g, Counit) else _ZERO
            return self.g.eval(u) if isinstance(self.f, Counit) else _ZERO
        f, g = self.f, self.g
        f_memo, g_memo = f._memo, g._memo
        bars = BARWORDS
        # Each operand value is read as one integer ratio, and the terms are
        # summed per denominator product: the coefficients c are ints, so no
        # term builds or normalises a Fraction.
        sums: dict[int, int] = {}
        for x, y, c in _SPLITTERS[self.kind](bar_id(u)):
            value = f_memo.get(x)
            if value is None:
                value = f.eval(bars[x])
            p, q = value.as_integer_ratio()
            if p:
                value = g_memo.get(y)
                if value is None:
                    value = g.eval(bars[y])
                r, s = value.as_integer_ratio()
                if r:
                    d = q * s
                    sums[d] = sums.get(d, 0) + c * p * r
        return _fraction(sums)


def conv(f: Form, g: Form) -> Form:
    return Conv(CONV, f, g)


def half_left(f: Form, g: Form) -> Form:
    return Conv(LEFT, f, g)


def half_right(f: Form, g: Form) -> Form:
    return Conv(RIGHT, f, g)


def _require_infinitesimal(f: Form, what: str) -> None:
    if f.eval(UNIT) != 0:
        raise InvalidFormError(f"{what} requires a form vanishing on the unit")


def _require_unital(f: Form, what: str) -> None:
    if f.eval(UNIT) != 1:
        raise InvalidFormError(f"{what} requires a form with value 1 on the unit")


class _PowerSeries(Form):
    """Sum of coeff(j) * base^{*j} over j = 0..degree(u).

    coeff(j) is an integer pair (numerator, denominator).  The base must
    vanish on the unit, so base^{*j} vanishes on inputs of degree below j
    and the sum is finite without any cutoff.
    """

    __slots__ = ("base", "_coeff", "_powers")

    def __init__(self, base: Form, coeff):
        super().__init__()
        self.base = base
        self._coeff = coeff
        self._powers: list[Form] = [COUNIT, base]

    def _power(self, j: int) -> Form:
        powers = self._powers
        while len(powers) <= j:
            powers.append(Conv(CONV, self.base, powers[-1]))
        return powers[j]

    def _eval(self, u):
        sums: dict[int, int] = {}
        for j in range(u.degree + 1):
            a, b = self._coeff(j)
            if a:
                p, q = self._power(j).eval(u).as_integer_ratio()
                if p:
                    d = b * q
                    sums[d] = sums.get(d, 0) + a * p
        return _fraction(sums)


class _FixedPoint(Form):
    """The form X with X = e + step(X): 1 on the unit, step(X) elsewhere.

    step(X) must vanish on the unit and read X only below the degree of its
    input, so evaluation recurses down to the unit and stops there.
    """

    __slots__ = ("_step",)

    def __init__(self, step):
        super().__init__()
        self._step = step(self)

    def _eval(self, u):
        return _ONE if u.is_unit else self._step.eval(u)


def exp_star(alpha: Form) -> Form:
    """Convolution exponential of an infinitesimal form."""
    _require_infinitesimal(alpha, "exp_star")
    return _PowerSeries(alpha, lambda j: (1, factorial(j)))


def log_star(phi: Form) -> Form:
    """Convolution logarithm of a unital form."""
    _require_unital(phi, "log_star")
    return _PowerSeries(
        phi - COUNIT, lambda j: (0, 1) if j == 0 else ((-1) ** (j - 1), j)
    )


def char_inverse(phi: Form) -> Form:
    """Convolution inverse of a unital form: psi = e - (phi - e) * psi."""
    _require_unital(phi, "char_inverse")
    # phi - e vanishes on the unit, so only the terms whose left leg is not
    # the unit count, and their right legs read psi below the input's degree.
    return _FixedPoint(lambda psi: -Conv(CONV, phi - COUNIT, psi))


def exp_left(alpha: Form) -> Form:
    """The unique X with X = e + alpha < X, for infinitesimal alpha."""
    _require_infinitesimal(alpha, "exp_left")
    # Left legs carry position 1, so right legs always drop in degree.
    return _FixedPoint(lambda x: Conv(LEFT, alpha, x))


def exp_right(alpha: Form) -> Form:
    """The unique Z with Z = e + Z > alpha, for infinitesimal alpha."""
    _require_infinitesimal(alpha, "exp_right")
    # Right legs carry position 1 on the complement side, so left legs
    # always drop in degree.
    return _FixedPoint(lambda z: Conv(RIGHT, z, alpha))


def log_left(phi: Form) -> Form:
    """The fixed-point logarithm for the left half: (phi - e) < phi^{-1}."""
    return Conv(LEFT, phi - COUNIT, char_inverse(phi))


def log_right(phi: Form) -> Form:
    """The fixed-point logarithm for the right half: phi^{-1} > (phi - e)."""
    return Conv(RIGHT, char_inverse(phi), phi - COUNIT)
