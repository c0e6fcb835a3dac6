"""Exact arithmetic in cyclotomic fields.

A value is a rational linear combination of powers of a primitive N-th
root of unity zeta_N, kept in the canonical power basis
1, zeta, ..., zeta^(phi(N)-1) by reduction modulo the N-th cyclotomic
polynomial.  Values at different levels N meet at the least common
multiple level L through zeta_N = zeta_L^(L/N): a sum, difference or
product writes both operands' exponents once into one accumulator at L,
then folds and normalizes once (`_spread`).  A rotation c + zeta_d^k *
(z - c) does the same at L = lcm(z.level, c.level, d), shifting the
exponents of z - c by k*L/d (`_rotate`).  The area kernels, which work
the same way, live with the cocycle in `cocycle`.

The canonical basis is an integral basis, so "all coefficients are
integers" is exactly "the value is an algebraic integer".

A `Cyc` stores its coordinates as integer numerators `num` over one
positive denominator `den` with gcd(den, *num) == 1; zero has `den`
1.  So `den` is the least positive integer taking the value into
Z[zeta], equal values at one level have identical `(num, den)`, and
lifting or a Galois action leaves `den` unchanged: both are the one
scatter-and-fold `_scatter`.  Rationals travel as reduced integer pairs
(numerator, denominator), a `Turn` too.  A `Fraction` is built only for a
caller that asks for one (`coeffs`, `min_form`, `as_fraction`,
`Turn.fraction`), and `fractions` is imported there: an int or a
`Fraction` operand is recognized without the module, as no `Fraction`
exists before it is loaded.

`Cyc.min_form` finds the least level holding a value one prime p | N at
a time.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import gcd, lcm

from .value import Frozen


class LevelError(ValueError):
    """A rational turn does not embed into the requested level."""

    def __init__(self, message: str, required_level: int):
        super().__init__(message)
        self.required_level = required_level


DEFAULT_LEVEL_CAP = 240

# The first use of level n builds reduction tables of about n * phi(n)
# integers.  From cold, level 4620 costs 0.5 s and 111 MB, and level
# 18,480 879 MB, so library arithmetic refuses a level above the larger
# of this ceiling and the session cap (`cyclotomic_poly`).
LEVEL_CEILING = 4620


def _session_cap() -> int:
    """QT_SESSION_LEVEL_CAP, or DEFAULT_LEVEL_CAP when it is unset.

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
    return cap


def check_level_cap(level: int) -> int:
    """The level itself; LevelError when it exceeds QT_SESSION_LEVEL_CAP.

    ValueError when the variable is set to anything but a positive integer.
    """
    cap = _session_cap()
    if level > cap:
        raise LevelError(
            f"{brief_int(level, 'session level')} exceeds cap {cap} "
            "(raise QT_SESSION_LEVEL_CAP to allow)",
            required_level=level,
        )
    return level


def brief_int(n: int, name: str = "", sep: str = " ") -> str:
    """name, sep and n in decimal; when |n| > 2**64, name and `of <d>
    digits` instead (`an integer of <d> digits` with no name), so that a
    message naming a huge integer stays one short line."""
    if abs(n) <= 2**64:
        return f"{name}{sep}{n}" if name else str(n)
    # the estimate from the bit length is off by at most one either way,
    # and the powers correct it
    n = abs(n)
    digits = int((n.bit_length() - 1) * math.log10(2)) + 1
    digits += (n >= 10**digits) - (n < 10 ** (digits - 1))
    return f"{name or 'an integer'} of {digits} digits"


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
# rationals as integer pairs


def _fraction_class():
    """`fractions.Fraction` once that module is loaded, else None.  No
    Fraction exists before then, so the module is looked up, never
    imported."""
    return getattr(sys.modules.get("fractions"), "Fraction", None)


def _operand(value) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or a Fraction, else None."""
    if isinstance(value, (int, _fraction_class() or int)):
        return value.numerator, value.denominator
    return None


def _ratio(value) -> tuple[int, int]:
    """The (numerator, denominator) in lowest terms of an int or a
    Fraction, read as they are.  Any other value, a subclass of either, a
    str or a float, is first converted by `Fraction(value)`, which raises
    on what it cannot read."""
    if type(value) is not int and type(value) is not _fraction_class():
        from fractions import Fraction

        value = Fraction(value)
    return value.numerator, value.denominator


def _fraction(n, d):
    """Fraction(n, d); `fractions` is imported by the first call."""
    from fractions import Fraction

    return Fraction(n, d)


_HASH_MODULUS = sys.hash_info.modulus


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for n/d in lowest terms with d > 0, without
    building the Fraction: the numeric hash of the language reference,
    |n|/d modulo the hash modulus, negated for n < 0, where the int hash
    takes -1 to -2."""
    try:
        h = hash(abs(n) * pow(d, -1, _HASH_MODULUS))
    except ValueError:  # d is a multiple of the modulus
        h = sys.hash_info.inf
    return hash(-h) if n < 0 else h


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction tables


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients (low to high) of the n-th cyclotomic polynomial.

    For n > 1 it is the product of (1 - x^(n/s))^mu(s) over the
    squarefree divisors s of n, computed as a power series truncated at
    its degree phi(n): multiplying or dividing by one binomial costs
    O(phi(n)).  Every table of a level is built from this one first, so a
    level above both LEVEL_CEILING and the session cap raises LevelError
    here, before anything of its size is built.

    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    if n > LEVEL_CEILING and n > (cap := _session_cap()):
        raise LevelError(
            f"{brief_int(n, 'level')} exceeds the library ceiling "
            f"{max(LEVEL_CEILING, cap)} (raise QT_SESSION_LEVEL_CAP to allow)",
            required_level=n,
        )
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    degree = n
    for p in primes:
        degree = degree // p * (p - 1)
    # the squarefree divisors s as (s, mu(s)), times each prime in turn
    divisors = [(1, 1)]
    for p in primes:
        divisors += [(s * p, -mu) for s, mu in divisors]
    poly = [1] + [0] * degree
    for s, mu in divisors:
        e = n // s
        if mu > 0:  # times 1 - x^e
            for i in range(degree, e - 1, -1):
                poly[i] -= poly[i - e]
        else:  # over 1 - x^e, that is times 1 + x^e + x^2e + ...
            for i in range(e, degree + 1):
                poly[i] += poly[i - e]
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


class Cyc(Frozen):
    """An element of Q(zeta_level) in the canonical power basis.

    Construct from a coefficient sequence for powers zeta^0, zeta^1, ...
    (any length up to the level; exponents are taken mod the level) or
    via the helpers `cyc_root` and `Cyc.rational`.

    The coordinates are the integers `num` over the positive integer
    `den`, with gcd(den, *num) == 1 and zero stored with den == 1:

    >>> from fractions import Fraction
    >>> x = Cyc(3, [Fraction(1, 2), Fraction(-2, 3)])
    >>> x.num, x.den
    ((3, -4), 6)
    """

    __slots__ = _fields = ("level", "num", "den")

    def __init__(self, level: int, coeffs: Iterable):
        if level < 1:
            raise ValueError("level must be >= 1")
        ratios = [_ratio(c) for c in coeffs]
        if len(ratios) > level:
            raise ValueError("more coefficients than the level allows")
        self._fill(level, *_from_ratios(level, ratios))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which re-normalizes
        return (Cyc, (self.level, self.coeffs))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _raw(level: int, num: tuple[int, ...], den: int) -> "Cyc":
        """A Cyc from coordinates already in canonical (num, den) form.

        `Frozen._raw` with its loop unrolled: the arithmetic builds every
        result here.
        """
        out = _new(Cyc)
        _set_level(out, level)
        _set_num(out, num)
        _set_den(out, den)
        return out

    @staticmethod
    def rational(value) -> "Cyc":
        """The rational value, an int or a Fraction, at level 1."""
        n, d = _ratio(value)
        return Cyc._raw(1, (n,), d)

    @staticmethod
    def zero() -> "Cyc":
        return _ZERO

    @staticmethod
    def one() -> "Cyc":
        return _ONE

    @property
    def coeffs(self) -> tuple:
        """The canonical coordinates as Fractions."""
        den = self.den
        return tuple(_fraction(c, den) for c in self.num)

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
        if not isinstance(other, Cyc):
            ratio = _operand(other)
            return NotImplemented if ratio is None else _scale(self, *ratio)
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
        ratio = _operand(other)
        if ratio is None:
            return NotImplemented
        n, d = ratio
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return _scale(self, d, n) if n > 0 else _scale(self, -d, -n)

    # -- Galois actions ------------------------------------------------------

    def conj(self) -> "Cyc":
        """Complex conjugate (the Galois action zeta -> zeta^-1)."""
        return _scatter(self, self.level, -1)

    # -- predicates and conversions -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self):
        """The rational value as a Fraction; ValueError for any other."""
        if not self.is_rational():
            raise ValueError("value is not rational")
        return _fraction(self.num[0], self.den)

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

    def min_form(self) -> tuple[int, tuple]:
        """(N, coefficients as Fractions) at the smallest level N
        containing the value."""
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
        if a.den != b.den:  # the least denominator is the same at every level
            return False
        if a.level != b.level:
            common = lcm(a.level, b.level)
            a, b = a.lift(common), b.lift(common)
        return a.num == b.num

    def __hash__(self):
        # a rational value hashes as its Fraction, as it compares equal
        # to it; any other value by its least level and coordinates
        low = _descend(self)
        if low.level == 1:
            return _rational_hash(low.num[0], low.den)
        return hash(("Cyc", low.level, low.num, low.den))

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
_set_level, _set_num, _set_den = Cyc._stores
_ZERO = Cyc._raw(1, (0,), 1)
_ONE = Cyc._raw(1, (1,), 1)


def _coerce(value) -> "Cyc | type(NotImplemented)":
    if isinstance(value, Cyc):
        return value
    ratio = _operand(value)
    return NotImplemented if ratio is None else Cyc._raw(1, (ratio[0],), ratio[1])


def _normal(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) divided by gcd(den, *num)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return tuple(num), den


def _from_ratios(
    n: int, ratios: Sequence[tuple[int, int]]
) -> tuple[tuple[int, ...], int]:
    """Canonical (num, den) of the sum of (a/b) * zeta_n^e over the
    (a, b) at each index e < n, every b positive."""
    den = lcm(*(b for a, b in ratios if a))
    acc = [0] * n
    for e, (a, b) in enumerate(ratios):
        if a:
            acc[e] = a * (den // b)
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


def _scale(a: Cyc, n: int, d: int) -> Cyc:
    """a times the rational n/d, for d > 0."""
    return Cyc._raw(a.level, *_normal([c * n for c in a.num], a.den * d))


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


class Turn(Frozen):
    """An angle as an exact fraction of a full turn, normalized to [0, 1).

    The turn is stored only as the integers `numerator` and `denominator`
    in lowest terms, 0 <= numerator < denominator; `fraction` builds its
    value as a new Fraction.  Equality, the hash and the repr are those
    of a record whose one field is that Fraction; turns are not ordered.
    """

    __slots__ = _fields = ("numerator", "denominator")

    def __init__(self, fraction, _den: int | None = None):
        if _den is None:
            n, d = _ratio(fraction)
        elif type(fraction) is int and type(_den) is int and _den > 0:
            g = gcd(fraction, _den)
            n, d = fraction // g, _den // g
        else:  # what `Fraction(fraction, _den)` makes of them, or raises
            n, d = _ratio(_fraction(fraction, _den))
        _set_numerator(self, n % d)
        _set_denominator(self, d)

    @property
    def fraction(self):
        """The turn as a new Fraction."""
        return _fraction(self.numerator, self.denominator)

    def __add__(self, other: "Turn") -> "Turn":
        a, b = self.denominator, other.denominator
        return Turn(self.numerator * b + other.numerator * a, a * b)

    def __sub__(self, other: "Turn") -> "Turn":
        return self + -other

    def __neg__(self) -> "Turn":
        return Turn(-self.numerator, self.denominator)

    def __hash__(self):
        return hash((_rational_hash(self.numerator, self.denominator),))

    def __repr__(self) -> str:
        return f"Turn(fraction=Fraction({self.numerator}, {self.denominator}))"

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


_set_numerator, _set_denominator = Turn._stores
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


def enumerate_unit_elements(level: int) -> list[Cyc]:
    """All algebraic integers of Q(zeta_level) with |a|^2 = 1, sorted by
    their canonical coordinates.

    A Fincke-Pohst enumeration (Fincke and Pohst, Math. Comp. 44 (1985);
    Cohen, A Course in Computational Algebraic Number Theory, 2.7) of the
    ellipsoid Tr(a * conj(a)) <= phi(level), over an exact LDL^T
    decomposition of the trace form's Gram matrix Tr(zeta^(i-j)).  The
    scan is complete at every level (see `units.py`).  Every returned
    element is verified to be a root of unity; a unit-modulus integer that
    is not one would raise ContradictionError.

    Only `verify appendix` and `trochoid.unit_neighbors(verify=True)` run
    the scan, so `units.py` is loaded on the first call, not with this
    module.
    """
    from .units import _fincke_pohst

    return _fincke_pohst(level)


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
    coeffs = [_fraction(int(num), int(den)) for num, den in data["coeffs"]]
    return Cyc(int(data["level"]), coeffs)


def turn_to_json(t: Turn) -> str:
    return f"{t.numerator}/{t.denominator}"


def turn_from_json(s: str) -> Turn:
    num, _, den = s.partition("/")
    return Turn(int(num), int(den) if den else 1)
