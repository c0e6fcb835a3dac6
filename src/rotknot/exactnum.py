"""Exact arithmetic in cyclotomic fields.

A value is a rational linear combination of powers of a primitive N-th
root of unity zeta_N, kept in the canonical power basis
1, zeta, ..., zeta^(phi(N)-1) by reduction modulo the N-th cyclotomic
polynomial.  Values at different levels N meet at the least common
multiple level L through zeta_N = zeta_L^(L/N): a sum, difference or
product writes both operands' exponents once into one accumulator at L,
then folds and normalizes once (`_spread`).  A rotation c + zeta_d^k *
(z - c) does the same at L = lcm(z.level, c.level, d), shifting the
exponents of z - c by k*L/d (`_rotate`), and `_area_sum` adds
conj(v) * w - v * conj(w) over many pairs (v, w) in one accumulator.

The canonical basis is an integral basis, so "all coefficients are
integers" is exactly "the value is an algebraic integer".

A `Cyc` stores its coordinates as integer numerators `num` over one
positive denominator `den` with gcd(den, *num) == 1; zero has `den`
1.  So `den` is the least positive integer taking the value into
Z[zeta], equal values at one level have identical `(num, den)`, and
lifting or a Galois action leaves `den` unchanged: both are the one
scatter-and-fold `_scatter`.  `Fraction` is used only where values
enter or leave (`coeffs`, `min_form`, JSON).

`Cyc.min_form` finds the least level holding a value one prime p | N at
a time.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .value import Frozen


class LevelError(ValueError):
    """A rational turn does not embed into the requested level."""

    def __init__(self, message: str, required_level: int):
        super().__init__(message)
        self.required_level = required_level


DEFAULT_LEVEL_CAP = 240


def check_level_cap(level: int) -> int:
    """The level itself; LevelError when it exceeds QT_SESSION_LEVEL_CAP.

    ValueError when the variable is set to anything but a positive integer.
    """
    raw = os.environ.get("QT_SESSION_LEVEL_CAP")
    if raw is None:
        cap = DEFAULT_LEVEL_CAP
    else:
        try:
            cap = int(raw)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(
                f"QT_SESSION_LEVEL_CAP must be a positive integer, got {raw!r}"
            )
    if level > cap:
        raise LevelError(
            f"session level {level} exceeds cap {cap} "
            "(raise QT_SESSION_LEVEL_CAP to allow)",
            required_level=level,
        )
    return level


class BudgetError(RuntimeError):
    """An exhaustive scan or search would exceed its configured budget."""


class NonIntegralError(ValueError):
    """An operation restricted to algebraic integers got a non-integer."""


class ContradictionError(RuntimeError):
    """An exact computation contradicts a proved statement.

    Raised, for instance, when a unit-modulus cyclotomic integer is no
    root of unity of its level, a regular polygon walk fails to close, or
    a trochoid fails to close.  Reaching this is a bug (or a disproof),
    never a data error; unlike `assert`, `python -O` keeps it.
    """


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction tables


def _poly_divide(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (coefficients low to high)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, d in enumerate(den):
                num[i + j] -= q * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the
    proper divisors of n.

    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical integer coordinates of zeta_n^e for e = 0..n-1."""
    d = _phi(n)
    poly = cyclotomic_poly(n)
    # x^d = -(poly[0] + poly[1] x + ... + poly[d-1] x^(d-1)), poly monic
    top = tuple(-c for c in poly[:d])
    rows = [tuple(1 if i == e else 0 for i in range(d)) for e in range(d)]
    for _ in range(d, n):
        prev = rows[-1]
        shifted = [0] + list(prev[: d - 1])
        carry = prev[d - 1]
        if carry:
            shifted = [s + carry * t for s, t in zip(shifted, top)]
        rows.append(tuple(shifted))
    return tuple(rows)


@lru_cache(maxsize=None)
def _fold_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (slot, coefficient) pairs of zeta_n^e for
    phi(n) <= e < max(n, 2 phi(n) - 1): the exponents below n, and those
    of a product of two canonical values."""
    table = _power_table(n)
    d = _phi(n)
    return tuple(
        tuple((i, t) for i, t in enumerate(table[e % n]) if t)
        for e in range(d, max(n, 2 * d - 1))
    )


def _fold(n: int, acc: list[int]) -> list[int]:
    """Reduce acc (acc[e] the coefficient of zeta_n^e) in place to its
    phi(n) canonical coordinates."""
    d = _phi(n)
    rows = _fold_rows(n)
    for e in range(d, len(acc)):
        c = acc[e]
        if c:
            for i, t in rows[e - d]:
                acc[i] += c * t
    del acc[d:]
    return acc


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def _embed_roots(n: int) -> tuple[complex, ...]:
    tau = 2.0 * math.pi / n
    return tuple(complex(math.cos(tau * e), math.sin(tau * e)) for e in range(n))


# ---------------------------------------------------------------------------
# the number class


class Cyc:
    """An element of Q(zeta_level) in the canonical power basis.

    Construct from a coefficient sequence for powers zeta^0, zeta^1, ...
    (any length up to the level; exponents are taken mod the level) or
    via the helpers `cyc_root` and `Cyc.rational`.

    The coordinates are the integers `num` over the positive integer
    `den`, with gcd(den, *num) == 1 and zero stored with den == 1:

    >>> x = Cyc(3, [Fraction(1, 2), Fraction(-2, 3)])
    >>> x.num, x.den
    ((3, -4), 6)
    """

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs: Iterable[Fraction | int]):
        if level < 1:
            raise ValueError("level must be >= 1")
        vals = [Fraction(c) for c in coeffs]
        if len(vals) > level:
            raise ValueError("more coefficients than the level allows")
        num, den = _from_fractions(level, enumerate(vals))
        _set_level(self, level)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc is immutable")

    def __delattr__(self, name):
        raise AttributeError("Cyc is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which re-normalizes
        return (Cyc, (self.level, self.coeffs))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _raw(level: int, num: tuple[int, ...], den: int) -> "Cyc":
        """A Cyc from coordinates already in canonical (num, den) form.

        The slots are written through their member descriptors, the
        same store `object.__setattr__` makes once it has looked the
        descriptor up, so the raising `__setattr__` is bypassed in the
        same way at about half the cost.
        """
        out = _new(Cyc)
        _set_level(out, level)
        _set_num(out, num)
        _set_den(out, den)
        return out

    @staticmethod
    def rational(value: Fraction | int) -> "Cyc":
        f = Fraction(value)
        return Cyc._raw(1, (f.numerator,), f.denominator)

    @staticmethod
    def zero() -> "Cyc":
        return _ZERO

    @staticmethod
    def one() -> "Cyc":
        return _ONE

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The canonical coordinates as fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- level handling ------------------------------------------------------

    def lift(self, level: int) -> "Cyc":
        """The same value expressed at a multiple of the current level.

        zeta_self.level = zeta_level^step with step = level/self.level, so
        coordinate e moves to exponent e*step and is folded.  From level 1
        the value c is c * zeta^0, already canonical: (c, 0, ..., 0).
        """
        if level == self.level:
            return self
        if level % self.level:
            raise LevelError(
                f"cannot lift level {self.level} into level {level}",
                required_level=lcm(level, self.level),
            )
        if self.level == 1:
            return Cyc._raw(level, self.num + (0,) * (_phi(level) - 1), self.den)
        return _scatter(self, level, level // self.level)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Cyc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc._raw(self.level, tuple(-c for c in self.num), self.den)

    def __sub__(self, other) -> "Cyc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other, operator.sub)

    def __rsub__(self, other) -> "Cyc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Cyc":
        if isinstance(other, (int, Fraction)):
            return _scale(self, Fraction(other))
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        la, lb = self.level, other.level
        if la != lb:  # each term c * zeta^f of other shifts self by f
            n = lcm(la, lb)
            step = n // lb
            terms = [(self, f * step, c) for f, c in enumerate(other.num) if c]
            return _spread(n, terms, other.den)
        sa = [(e, c) for e, c in enumerate(self.num) if c]
        sb = [(e, c) for e, c in enumerate(other.num) if c]
        if not sa or not sb:
            return Cyc._raw(la, (0,) * len(self.num), 1)
        acc = [0] * (2 * len(self.num) - 1)
        for ea, ca in sa:
            for eb, cb in sb:
                acc[ea + eb] += ca * cb
        return Cyc._raw(la, *_normal(_fold(la, acc), self.den * other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyc":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        f = Fraction(other)
        if f == 0:
            raise ZeroDivisionError("division by zero")
        return _scale(self, 1 / f)

    # -- Galois actions ------------------------------------------------------

    def conj(self) -> "Cyc":
        """Complex conjugate (the Galois action zeta -> zeta^-1)."""
        return _scatter(self, self.level, -1)

    # -- predicates and conversions -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def is_integral(self) -> bool:
        """True when the value is an algebraic integer."""
        return self.den == 1

    def embed(self) -> complex:
        """Double-precision image under zeta -> exp(2*pi*i/level).

        With coefficients of magnitude at most B the rounding error is
        below phi(level) * B * 1e-15, far inside the 1e-9 tolerances
        used by callers.
        """
        roots = _embed_roots(self.level)
        den = self.den
        out = 0j
        for e, c in enumerate(self.num):
            if c:
                out += c / den * roots[e]
        return out

    # -- canonical minimal form (for equality across levels and hashing) ------

    def min_form(self) -> tuple[int, tuple[Fraction, ...]]:
        """(N, coefficients) at the smallest level N containing the value."""
        low = _descend(self)
        return (low.level, low.coeffs)

    def sort_key(self):
        n, coeffs = self.min_form()
        return (n,) + coeffs

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.level != b.level:
            common = lcm(a.level, b.level)
            a, b = a.lift(common), b.lift(common)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # a rational value hashes as its Fraction, as it compares equal
        # to it; any other value by its least level and coordinates
        n, coeffs = self.min_form()
        if n == 1:
            return hash(coeffs[0])
        return hash(("Cyc", n) + coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyc({self.as_fraction()})"
        terms = []
        for e, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z{self.level}^{e}" if e else f"{c}")
        return "Cyc(" + " + ".join(terms) + ")"

    # -- unit-modulus machinery ------------------------------------------------

    def abs_sq(self) -> "Cyc":
        """|a|^2 = a * conj(a), exactly."""
        return self * self.conj()

    def is_root_of_unity(self) -> int | None:
        """The multiplicative order if the value is a root of unity, else None.

        Requires an algebraic integer.  The order is the denominator of
        the turn `_root_turn` reads off the power table.
        """
        t = _root_turn(self)
        return None if t is None else t.denominator


_new = object.__new__
_set_level, _set_num, _set_den = (Cyc.__dict__[n].__set__ for n in Cyc.__slots__)


def _coerce(value) -> "Cyc | type(NotImplemented)":
    if isinstance(value, Cyc):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyc.rational(value)
    return NotImplemented


def _normal(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) divided by gcd(den, *num)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return tuple(num), den


def _from_fractions(
    n: int, terms: Iterable[tuple[int, Fraction]]
) -> tuple[tuple[int, ...], int]:
    """Canonical (num, den) of sum(c * zeta_n^e) over the (e, c) pairs."""
    terms = [(e, c) for e, c in terms if c]
    den = lcm(*(c.denominator for _, c in terms))
    acc = [0] * n
    for e, c in terms:
        acc[e % n] += c.numerator * (den // c.denominator)
    return _normal(_fold(n, acc), den)


def _add(a: Cyc, b: Cyc, op) -> Cyc:
    """op(a, b) for op in (operator.add, operator.sub).

    A zero operand at a level dividing the other's level leaves the other
    operand as it is (negated for 0 - b): the sum lives at that level,
    and its (num, den) is the other operand's.
    """
    if not any(b.num):
        if a.level % b.level == 0:
            return a
    elif not any(a.num) and b.level % a.level == 0:
        return b if op is operator.add else -b
    la, lb = a.level, b.level
    if la != lb:
        sign = 1 if op is operator.add else -1
        return _spread(lcm(la, lb), ((a, 0, 1), (b, 0, sign)))
    if a.den == b.den:
        return Cyc._raw(la, *_normal(tuple(map(op, a.num, b.num)), a.den))
    da, db = a.den, b.den
    num = tuple(op(x * db, y * da) for x, y in zip(a.num, b.num))
    return Cyc._raw(la, *_normal(num, da * db))


def _scale(a: Cyc, f: Fraction) -> Cyc:
    return Cyc._raw(
        a.level, *_normal([c * f.numerator for c in a.num], a.den * f.denominator)
    )


def _scatter(a: Cyc, n: int, j: int) -> Cyc:
    """a with coordinate e put at exponent e*j mod n and folded: a lifted
    to a multiple n of its level for j = n/a.level, or a under the Galois
    action zeta -> zeta^j for n = a.level and j coprime to it.  Neither
    changes the least denominator, so `den` is kept."""
    acc = [0] * n
    for e, c in enumerate(a.num):
        acc[e * j % n] = c
    return Cyc._raw(n, tuple(_fold(n, acc)), a.den)


def _spread(n: int, terms: Sequence[tuple[Cyc, int, int]], den: int = 1) -> Cyc:
    """The sum of m * zeta_n^s * x over the (x, s, m) terms, over den, for
    n a multiple of every x.level: coordinate e of x goes once into one
    accumulator at exponent e * n/x.level + s mod n; one fold, one gcd."""
    d = lcm(*(x.den for x, _, _ in terms))
    acc = [0] * n
    for x, s, m in terms:
        m *= d // x.den
        step = n // x.level
        for e, c in enumerate(x.num):
            if c:
                acc[(e * step + s) % n] += c * m
    return Cyc._raw(n, *_normal(_fold(n, acc), d * den))


def _rotate(z: Cyc, c: Cyc, num: int, den: int) -> Cyc:
    """c + zeta_den^num * (z - c): z turned about c by num/den of a turn.

    Both points are lifted once, into one accumulator at the level
    n = lcm(z.level, c.level, den), where zeta_den^num = zeta_n^s with
    s = num * n/den.  So the rotation is a shift of z - c's exponents by
    s, c is added unshifted over the common denominator, and one fold
    and one gcd give the canonical (num, den) at level n.
    """
    zl, cl = z.level, c.level
    n = lcm(zl, cl, den)
    s = num * (n // den) % n
    zd, cd = z.den, c.den
    mz, mc, d = (1, 1, zd) if zd == cd else (cd, zd, zd * cd)
    acc = [0] * n
    step = n // zl
    for e, x in enumerate(z.num):
        if x:
            acc[(e * step + s) % n] += x * mz
    step = n // cl
    for e, y in enumerate(c.num):
        if y:
            y *= mc
            acc[(e * step + s) % n] -= y
            acc[e * step] += y
    return Cyc._raw(n, *_normal(_fold(n, acc), d))


def _area_sum(pairs: Sequence[tuple[Cyc, Cyc]]) -> Cyc:
    """The sum of conj(v) * w - v * conj(w) over the (v, w) pairs, 4i times
    the signed areas of the triangles (0, v, w), in one accumulator at n,
    the lcm of all their levels: conj(v) * w puts v_e * w_f at exponent
    f*n/w.level - e*n/v.level mod n, and v * conj(w) at its negative."""
    n = lcm(*(x.level for pair in pairs for x in pair))
    d = lcm(*(v.den * w.den for v, w in pairs))
    acc = [0] * n
    for v, w in pairs:
        m, sv, sw = d // (v.den * w.den), n // v.level, n // w.level
        tw = [(f * sw, y * m) for f, y in enumerate(w.num) if y]
        for e, x in enumerate(v.num):
            if x:
                e *= sv
                for f, y in tw:
                    acc[(f - e) % n] += x * y
    acc = [c - acc[-k] for k, c in enumerate(acc)]
    return Cyc._raw(n, *_normal(_fold(n, acc), d))


# ---------------------------------------------------------------------------
# descent to the minimal level


def _descend(a: Cyc) -> Cyc:
    """a at the least level holding it, walked down one prime at a time.
    The levels holding a value are closed under gcd, so the walk ends at
    the least one in any order."""
    if a.is_rational():
        return Cyc._raw(1, a.num[:1], a.den)
    while True:
        for p in _prime_factors(a.level):
            down = _drop_prime(a, p)
            if down is not None:
                a = down
                break
        else:
            return a


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p in _divisors(n)[1:] if all(p % d for d in range(2, p)))


def _drop_prime(a: Cyc, p: int) -> Cyc | None:
    """a at level n/p when it lies in Q(zeta_(n/p)), else None.  The value
    does not change, so neither does its least denominator."""
    n = a.level
    m = n // p
    if m % p == 0:
        # zeta_n^p = zeta_m and Phi_n(x) = Phi_m(x^p)
        if any(c for e, c in enumerate(a.num) if e % p):
            return None
        return Cyc._raw(m, a.num[::p], a.den)
    # zeta_n = zeta_m^u zeta_p^v splits a = sum_r alpha_r zeta_p^r over
    # Q(zeta_m); as 1, zeta_p, ..., zeta_p^(p-2) are independent there, a
    # lies in Q(zeta_m) iff alpha_1 = ... = alpha_(p-1)
    u, v = pow(p, -1, m), pow(m, -1, p)
    buckets = [[0] * m for _ in range(p)]
    for e, c in enumerate(a.num):
        buckets[e * v % p][e * u % m] = c
    alpha = [_fold(m, b) for b in buckets]
    if any(x != alpha[1] for x in alpha[2:]):
        return None
    return Cyc._raw(m, tuple(map(operator.sub, alpha[0], alpha[-1])), a.den)


# ---------------------------------------------------------------------------
# roots of unity and rational turns


def cyc_root(level: int, exponent: int = 1) -> Cyc:
    """zeta_level^exponent in canonical form.

    >>> cyc_root(3, 2) == Cyc(3, [-1, -1])
    True
    """
    return Cyc._raw(level, _power_table(level)[exponent % level], 1)


_ZERO = Cyc._raw(1, (0,), 1)
_ONE = Cyc._raw(1, (1,), 1)


class Turn(Frozen):
    """An angle as an exact fraction of a full turn, normalized to [0, 1)."""

    __slots__ = _fields = ("fraction",)

    def __init__(self, fraction: Fraction | int, _den: int | None = None):
        if _den is not None:
            f = Fraction(fraction, _den)
        elif type(fraction) is Fraction:
            f = fraction
        else:
            f = Fraction(fraction)
        n, d = f.numerator, f.denominator
        if not 0 <= n < d:
            f = Fraction(n % d, d)
        object.__setattr__(self, "fraction", f)

    @property
    def numerator(self) -> int:
        return self.fraction.numerator

    @property
    def denominator(self) -> int:
        return self.fraction.denominator

    def __add__(self, other: "Turn") -> "Turn":
        return Turn(self.fraction + other.fraction)

    def __sub__(self, other: "Turn") -> "Turn":
        return Turn(self.fraction - other.fraction)

    def __neg__(self) -> "Turn":
        return Turn(-self.fraction)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


HALF_TURN = Turn(1, 2)


def turn_to_root(turn: Turn) -> Cyc:
    """The unit vector exp(2*pi*i*turn) as an exact cyclotomic value, at
    the minimal level (the turn's denominator)."""
    return cyc_root(turn.denominator, turn.numerator)


def _root_turn(a: Cyc) -> Turn | None:
    """The turn t with a = exp(2*pi*i*t) when a is a root of unity, else None.

    Requires an algebraic integer.  The roots of unity of Q(zeta_n) are
    the +-zeta_n^e, and an integer with |a|^2 = 1 is one (Kronecker): a
    row e of the power table, the turn e/n, or its negative, the turn
    (2e + n)/(2n), which is not a row only at odd n.  A unit-modulus
    integer matching no row raises ContradictionError.
    """
    if not a.is_integral():
        raise NonIntegralError("root-of-unity test needs an algebraic integer")
    if a.abs_sq() != _ONE:
        return None
    n, num = a.level, a.num
    neg = tuple(-c for c in num)
    for e, row in enumerate(_power_table(n)):
        if row == num:
            return Turn(e, n)
        if row == neg:
            return Turn(2 * e + n, 2 * n)
    raise ContradictionError(f"unit-modulus integer at level {n} is no root of unity")


# ---------------------------------------------------------------------------
# complete unit enumeration (the root-of-unity proposition, checked exactly)
#
# The trace form T(a) = Tr(a * conj(a)) = sum of |s(a)|^2 over the Galois
# embeddings s is a positive-definite integral quadratic form on the
# canonical coordinates.  For a nonzero integer a the product of the
# |s(a)|^2 is the norm of a * conj(a), a positive integer, so by AM-GM
# T(a) >= phi(level), with equality exactly when every |s(a)| is 1, that
# is when |a| = 1 (complex conjugation commutes with the Galois group).
# So the ellipsoid T <= phi(level) holds 0 and the unit-modulus integers
# and nothing else, and enumerating it needs no box and no budget.


def enumerate_unit_elements(level: int) -> list[Cyc]:
    """All algebraic integers of Q(zeta_level) with |a|^2 = 1, sorted by
    their canonical coordinates.

    A Fincke-Pohst enumeration (Fincke and Pohst, Math. Comp. 44 (1985);
    Cohen, A Course in Computational Algebraic Number Theory, 2.7) of the
    ellipsoid Tr(a * conj(a)) <= phi(level), over an exact LDL^T
    decomposition of the trace form's Gram matrix Tr(zeta^(i-j)).  By the
    AM-GM argument above the scan is complete at every level.  Every
    returned element is verified to be a root of unity; a unit-modulus
    integer that is not one would raise ContradictionError.
    """
    n = level
    d = _phi(n)
    table = _power_table(n)
    coprime = [j for j in range(1, n + 1) if gcd(j, n) == 1]
    # Tr(zeta^k) is rational, so it is coordinate 0 of the sum of conjugates
    trace = [sum(table[j * k % n][0] for j in coprime) for k in range(n)]
    # T(x) = sum_i q[i][i] * (x_i + sum_{j > i} q[i][j] x_j)^2 (Cohen 2.7.6)
    q = [[Fraction(trace[(i - j) % n]) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            q[j][i] = q[i][j]
            q[i][j] /= q[i][i]
        for k in range(i + 1, d):
            for m in range(k, d):
                q[k][m] -= q[k][i] * q[i][m]
    x = [0] * d
    found: list[tuple[int, ...]] = []

    def descend(i: int, room: Fraction) -> None:
        # x_(i+1), ..., x_(d-1) are fixed and leave `room` of phi(level);
        # try x_i outwards from the centre until its term exceeds it
        centre = -sum(q[i][j] * x[j] for j in range(i + 1, d) if x[j])
        for v, step in ((math.floor(centre), -1), (math.floor(centre) + 1, 1)):
            while (used := q[i][i] * (v - centre) ** 2) <= room:
                x[i] = v
                if i:
                    descend(i - 1, room - used)
                elif any(x):
                    found.append(tuple(x))
                v += step
        x[i] = 0

    descend(d - 1, Fraction(d))
    out = []
    for tup in sorted(found):
        val = Cyc._raw(level, tup, 1)
        if val.is_root_of_unity() is None:  # pragma: no cover - impossible
            raise ContradictionError("unit element failed root-of-unity check")
        out.append(val)
    return out


# ---------------------------------------------------------------------------
# serialization


def cyc_to_json(a: Cyc) -> dict:
    """Level and coordinates, each num/den in lowest terms as a string
    pair: the numerator and denominator `Fraction(num, den)` would have."""
    den = a.den
    if den == 1:
        coeffs = [[str(c), "1"] for c in a.num]
    else:
        coeffs = [[str(c // (g := gcd(c, den))), str(den // g)] for c in a.num]
    return {"level": a.level, "coeffs": coeffs}


def cyc_from_json(data: dict) -> Cyc:
    coeffs = [Fraction(int(num), int(den)) for num, den in data["coeffs"]]
    return Cyc(int(data["level"]), coeffs)


def turn_to_json(t: Turn) -> str:
    return f"{t.numerator}/{t.denominator}"


def turn_from_json(s: str) -> Turn:
    num, _, den = s.partition("/")
    return Turn(int(num), int(den) if den else 1)
