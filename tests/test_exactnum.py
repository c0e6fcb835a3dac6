"""Exact cyclotomic arithmetic: identities, reduction, units, turns."""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotknot import exactnum
from rotknot.cocycle import _area_sum, _displacement
from rotknot.exactnum import (
    ContradictionError,
    Cyc,
    LEVEL_CEILING,
    LevelError,
    NonIntegralError,
    Turn,
    cyc_from_json,
    cyc_root,
    cyc_to_json,
    cyclotomic_poly,
    enumerate_unit_elements,
    turn_from_json,
    turn_to_json,
    check_level_cap,
    turn_to_root,
)

from conftest import from_terms, rand_cyc


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
def divided_cyclotomic(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial as x^n - 1 divided by that of every
    proper divisor of n, the largest first, which shortens the dividend
    soonest: the reference of the Mobius product."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(n - 1, 0, -1):
        if n % d == 0:
            poly = _poly_divide(poly, list(divided_cyclotomic(d)))
    return tuple(poly)


class TestCyclotomicPoly:
    def test_small_levels(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        phis = {8: 4, 9: 6, 10: 4, 15: 8, 20: 8, 24: 8, 30: 8, 60: 16}
        for n, phi in phis.items():
            assert len(cyclotomic_poly(n)) - 1 == phi

    def test_product_over_divisors(self):
        # product of cyclotomic polynomials over divisors of 12 is x^12 - 1
        prod = [1]
        for d in (1, 2, 3, 4, 6, 12):
            poly = cyclotomic_poly(d)
            new = [0] * (len(prod) + len(poly) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(poly):
                    new[i + j] += a * b
            prod = new
        assert prod == [-1] + [0] * 11 + [1]

    def test_matches_division_reference(self, monkeypatch):
        monkeypatch.delenv("QT_SESSION_LEVEL_CAP", raising=False)
        for n in (*range(1, 1001), LEVEL_CEILING):
            assert cyclotomic_poly(n) == divided_cyclotomic(n), n


class TestReduction:
    def test_high_power_reduces(self):
        # zeta_3^2 = -1 - zeta_3
        assert cyc_root(3, 2) == Cyc(3, [-1, -1])

    def test_sum_of_all_roots_vanishes(self):
        for n in (3, 4, 5, 6, 8, 12):
            total = Cyc.zero()
            for e in range(n):
                total = total + cyc_root(n, e)
            assert total.is_zero()

    def test_root_power_wraps(self):
        assert cyc_root(12, 17) == cyc_root(12, 5)
        assert cyc_root(5, 5) == Cyc.one()


class TestArithmetic:
    def test_gaussian_product(self):
        i = cyc_root(4, 1)
        assert (1 + i) * (1 - i) == Cyc.rational(2)

    def test_cross_level_add(self):
        # zeta_3 + zeta_4 lives at level 12
        a = cyc_root(3) + cyc_root(4)
        assert a.level == 12
        z = a.embed()
        expect = complex(-0.5, math.sqrt(3) / 2) + 1j
        assert abs(z - expect) < 1e-12

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Cyc.one() / 0
        with pytest.raises(ZeroDivisionError):
            Cyc.one() / Fraction(0)

    def test_no_division_by_cyc(self):
        with pytest.raises(TypeError):
            Cyc.one() / cyc_root(12, 5)
        with pytest.raises(TypeError):
            1 / cyc_root(12, 5)

    def test_pow_negative(self):
        z = cyc_root(12, 5)
        with pytest.raises(TypeError):
            z**-1

    def test_ring_axioms_random(self):
        rng = random.Random(991)
        for _ in range(40):
            level = rng.choice([6, 8, 12])
            a, b, c = (rand_cyc(rng, level) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a + b == b + a
            assert (a - b) + b == a


class TestGalois:
    def test_conj_of_root(self):
        assert cyc_root(12, 5).conj() == cyc_root(12, 7)

    def test_conj_is_involution(self):
        rng = random.Random(7)
        for _ in range(30):
            a = rand_cyc(rng, rng.choice([5, 8, 12]))
            assert a.conj().conj() == a

    def test_abs_sq_rational_on_units(self):
        assert cyc_root(12, 5).abs_sq() == Cyc.one()
        assert (2 * cyc_root(8, 3)).abs_sq() == Cyc.rational(4)

    def test_abs_sq_multiplicative(self):
        rng = random.Random(41)
        for _ in range(25):
            a = rand_cyc(rng, 12)
            b = rand_cyc(rng, 12)
            assert (a * b).abs_sq() == a.abs_sq() * b.abs_sq()


class TestMinimalForm:
    def test_rational_descends_to_level_one(self):
        a = cyc_root(5) + 1 - cyc_root(5)
        assert a.min_form() == (1, (Fraction(1),))

    def test_level_six_value_lives_at_level_three(self):
        # zeta_6 = 1 + zeta_3
        assert cyc_root(6).min_form() == (3, (Fraction(1), Fraction(1)))

    def test_hash_consistent_across_levels(self):
        a = cyc_root(3).lift(12)
        b = cyc_root(3)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("level", [1, 4, 12])
    @pytest.mark.parametrize("value", [0, 2, -7, Fraction(3, 4), Fraction(-5, 6)])
    def test_rational_hashes_as_its_fraction(self, value, level):
        # equal values must hash equal, and Cyc.rational(v) == v
        x = Cyc.rational(value).lift(level)
        assert x == value
        assert hash(x) == hash(value) == hash(Fraction(value))
        assert {value: "found"}.get(x) == "found"
        assert len({x, value}) == 1

    def test_real_subfield_detection(self):
        # zeta_12 + conj is sqrt(3), which generates Q(sqrt 3) inside Q(zeta_12)
        s = cyc_root(12) + cyc_root(12).conj()
        level, _ = s.min_form()
        assert level == 12  # minimal CYCLOTOMIC level is still 12
        assert s.abs_sq() == Cyc.rational(3)

    @settings(max_examples=300)
    @given(
        st.integers(1, 60).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.dictionaries(
                    st.integers(0, m - 1),
                    st.fractions(-3, 3, max_denominator=3),
                    max_size=4,
                ),
            )
        ),
        st.integers(1, 6),
    )
    def test_min_form_is_least_level(self, drawn, k):
        m, terms = drawn
        x = from_terms(m, terms)
        assert x.lift(m * k).min_form() == x.min_form()
        y = Cyc(*x.min_form())
        assert y == x
        # L = y.level is least iff for each prime p | L the group
        # Gal(Q(zeta_L)/Q(zeta_(L/p))) = {j = 1 mod L/p} moves y
        least = y.level
        primes = [
            p for p in range(2, least + 1)
            if least % p == 0 and all(p % d for d in range(2, p))
        ]
        for p in primes:
            assert any(
                exactnum._scatter(y, least, j) != y
                for j in range(1, least, least // p)
                if math.gcd(j, least) == 1
            ), (least, p)


@st.composite
def cyc_triples(draw):
    """A level m <= 60, three values at divisors of m and a lift factor."""
    m = draw(st.integers(1, 60))
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    out = []
    for _ in range(3):
        level = draw(st.sampled_from(divisors))
        terms = draw(
            st.dictionaries(
                st.integers(0, level - 1),
                st.fractions(-3, 3, max_denominator=4),
                max_size=4,
            )
        )
        out.append(from_terms(level, terms))
    return m, out, draw(st.integers(1, 4))


class TestIntegerCore:
    """Ring laws and the (num, den) invariant of the integer coordinates."""

    @staticmethod
    def check_invariant(x: Cyc) -> None:
        assert x.den > 0
        assert math.gcd(x.den, *x.num) == 1
        assert len(x.num) == len(cyclotomic_poly(x.level)) - 1
        assert all(isinstance(c, int) for c in x.num)

    @settings(max_examples=200)
    @given(cyc_triples(), st.fractions(-3, 3, max_denominator=5))
    def test_ring_laws(self, drawn, s):
        m, (x, y, z), k = drawn
        n = m * k
        zero, r = Cyc.zero(), Cyc.rational(s)
        results = [x + y, x - y, x * y, -x, x.conj(), x.lift(n), x * s, x + r]
        if s:
            results.append(x / s)
        for v in [x, y, z] + results:
            self.check_invariant(v)
            assert Cyc(v.level, v.coeffs) == v
        # the zero and level-1 fast paths of add, sub and lift
        for fast, slow in (
            (x + zero, x),
            (x - zero, x),
            (zero - x, -x),
            (r.lift(n), Cyc(n, [s])),
            (zero.lift(m) - x.lift(m), -x.lift(m)),
        ):
            assert (fast.level, fast.num, fast.den) == (slow.level, slow.num, slow.den)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert (x * y).conj() == x.conj() * y.conj()
        for lhs, rhs in (
            ((x + y).lift(n), x.lift(n) + y.lift(n)),
            ((x * y).lift(n), x.lift(n) * y.lift(n)),
        ):
            assert (lhs.num, lhs.den) == (rhs.num, rhs.den)
        assert x == x.lift(n)
        assert hash(x) == hash(x.lift(n))
        ex, ey = x.embed(), y.embed()
        assert abs((x + y).embed() - (ex + ey)) < 1e-9
        assert abs((x * y).embed() - ex * ey) < 1e-9
        assert abs(x.conj().embed() - ex.conjugate()) < 1e-9
        assert abs((x * s).embed() - ex * float(s)) < 1e-9


# The lift-then-operate composition that the fused mixed-level kernels
# replace, kept as their reference: each operand is lifted to the lcm
# level through `from_terms` (so not through `_spread`), and the two
# lifted values meet in the same-level add, sub or mul.


def lift_reference(x: Cyc, n: int) -> Cyc:
    step = n // x.level
    return from_terms(n, {e * step: c for e, c in enumerate(x.coeffs)})


def lift_then(op, a: Cyc, b: Cyc) -> Cyc:
    n = math.lcm(a.level, b.level)
    return op(lift_reference(a, n), lift_reference(b, n))


def area_sum_reference(pairs) -> Cyc:
    total = Cyc.zero()
    for v, w in pairs:
        t = lift_then(operator.mul, v.conj(), w)
        total = lift_then(operator.add, total, t - t.conj())
    return total


def coordinates(x: Cyc) -> tuple:
    return (x.level, x.num, x.den)


KERNEL_LEVELS = (1, 2, 3, 4, 12, 13, 24)


@st.composite
def kernel_values(draw):
    """A value at one of KERNEL_LEVELS: zero one time in eight, otherwise
    up to four terms with denominators up to 6."""
    level = draw(st.sampled_from(KERNEL_LEVELS))
    if draw(st.integers(0, 7)) == 0:
        return Cyc(level, [])
    terms = draw(
        st.dictionaries(
            st.integers(0, level - 1),
            st.fractions(-5, 5, max_denominator=6),
            max_size=4,
        )
    )
    return from_terms(level, terms)


class TestFusedKernels:
    """The one-accumulator kernels give the (level, num, den) of the
    lift-then-operate composition."""

    @settings(max_examples=400)
    @given(kernel_values(), kernel_values())
    @example(Cyc(4, []), Cyc(3, []))
    @example(Cyc(4, []), Cyc(3, [Fraction(1, 2), 1]))
    @example(Cyc(13, [0, Fraction(-2, 3)]), Cyc(2, []))
    @example(Cyc(24, [Fraction(1, 6)] * 8), Cyc(13, [Fraction(5, 4)] * 12))
    @example(Cyc(12, [0, Fraction(1, 2)]), Cyc(4, [0, Fraction(-1, 2)]))
    def test_add_sub_mul_match_lift_then_operate(self, a, b):
        for op in (operator.add, operator.sub, operator.mul):
            for x, y in ((a, b), (b, a)):
                assert coordinates(op(x, y)) == coordinates(lift_then(op, x, y))

    @settings(max_examples=200)
    @given(st.lists(st.tuples(kernel_values(), kernel_values()), max_size=4))
    @example([])
    @example([(Cyc(4, []), Cyc(13, []))])
    @example([(Cyc(3, [1]), Cyc(3, [1]))])
    @example([(Cyc(12, [Fraction(1, 3), 1]), Cyc(2, [Fraction(1, 5)]))] * 2)
    def test_area_sum_matches_lift_then_operate(self, pairs):
        got = _area_sum(pairs)
        assert coordinates(got) == coordinates(area_sum_reference(pairs))

    @settings(max_examples=200)
    @given(st.lists(st.tuples(kernel_values(), kernel_values()), max_size=4),
           kernel_values())
    @example([(Cyc(3, [1]), Cyc(3, [0, Fraction(1, 2)]))], Cyc(4, []))
    @example([], Cyc(12, [0, Fraction(1, 3)]))
    @example([(Cyc(12, [Fraction(1, 3), 1]), Cyc(4, [0, 2])),
              (-Cyc(13, [0, Fraction(-2, 3)]), Cyc(2, [Fraction(1, 5)]))],
             Cyc(24, [Fraction(1, 6)] * 8))
    def test_area_sum_with_base_point_matches_subtracting_it(self, pairs, o):
        # the reference subtracts o from every second member first
        got = _area_sum(pairs, o)
        ref = area_sum_reference([(v, lift_then(operator.sub, w, o)) for v, w in pairs])
        assert coordinates(got) == coordinates(ref)

    @settings(max_examples=300)
    @given(kernel_values(), kernel_values(), st.integers(-30, 30),
           st.sampled_from(KERNEL_LEVELS))
    @example(Cyc(4, []), Cyc(3, []), 1, 6)
    @example(Cyc(4, [0, 1]), Cyc(4, [0, 1]), 5, 12)
    @example(Cyc(3, [Fraction(1, 2)]), Cyc(12, [0, Fraction(1, 3)]), 0, 7)
    def test_displacement_is_the_rotation_minus_the_point(self, z, c, num, den):
        # compared as values: 0 - z keeps z's level where the image is 0
        got = _displacement(z, c, num, den)
        assert got == exactnum._rotate(z, c, num, den) - z
        assert got.level == math.lcm(z.level, c.level, den)


class TestEquality:
    """`==` answers False without a lift when the least denominators
    differ: a value's least denominator is the same at every level."""

    @settings(max_examples=300)
    @given(kernel_values(), kernel_values(), st.sampled_from((1, 2, 3)),
           st.sampled_from((1, 2, 3, 5)))
    @example(Cyc(4, [0, Fraction(1, 2)]), Cyc(4, [0, Fraction(1, 2)]), 6, 1)
    @example(Cyc(12, [Fraction(1, 3)]), Cyc(3, [Fraction(1, 3)]), 1, 2)
    @example(Cyc(13, [0, 1]), Cyc(2, [Fraction(1, 2)]), 1, 1)
    def test_eq_matches_lift_then_compare(self, a, b, step, scale):
        """Equality against comparing coordinates at the common level:
        b lifted (an equal value at another level) and scaled (another
        denominator, for scale > 1)."""
        b_up = lift_reference(b, b.level * step)
        for x, y in ((a, b_up), (b, b_up), (b / scale, b_up), (a / scale, b)):
            n = math.lcm(x.level, y.level)
            want = coordinates(lift_reference(x, n)) == coordinates(lift_reference(y, n))
            assert (x == y) is want
            assert (y == x) is want
        assert b == b_up
        assert (b / scale == b_up) is (scale == 1 or b.is_zero())


class TestEmbed:
    def test_embedding_is_homomorphism(self):
        rng = random.Random(20240612)
        for _ in range(500):
            level = rng.choice([3, 4, 5, 6, 8, 12, 20, 24])
            a = rand_cyc(rng, level)
            b = rand_cyc(rng, level)
            za, zb = a.embed(), b.embed()
            assert abs((a + b).embed() - (za + zb)) < 1e-9
            assert abs((a * b).embed() - (za * zb)) < 1e-9

    def test_conj_embeds_to_conjugate(self):
        rng = random.Random(3)
        for _ in range(50):
            a = rand_cyc(rng, 24)
            assert abs(a.conj().embed() - a.embed().conjugate()) < 1e-9


def power(a: Cyc, e: int) -> Cyc:
    """a^e by square-and-multiply."""
    out, base = Cyc.one(), a
    while e:
        if e & 1:
            out = out * base
        base = base * base if e > 1 else base
        e >>= 1
    return out


def order_by_powering(a: Cyc) -> int | None:
    """The least divisor d of the order bound with a^d = 1, kept as the
    reference: the bound is the level when it is even and twice the
    level when odd."""
    if a.abs_sq() != Cyc.one():
        return None
    n = a.level
    bound = n if n % 2 == 0 else 2 * n
    return next(d for d in range(1, bound + 1) if bound % d == 0 and power(a, d) == 1)


class TestRootOfUnity:
    def test_matches_powering_reference(self):
        for n in range(1, 61):
            z = cyc_root(n)
            values = [s * cyc_root(n, e) for e in range(n) for s in (1, -1)]
            for a in values + [1 + z, 2 * z]:
                order = a.is_root_of_unity()
                assert order == order_by_powering(a), (n, a)
                if order is not None:
                    t = exactnum._root_turn(a)
                    assert t.denominator == order and turn_to_root(t) == a

    def test_unmatched_unit_is_a_contradiction(self, monkeypatch):
        # a table without the value's row breaks the proved lookup
        z = cyc_root(12, 5)
        assert z.abs_sq() == 1  # the fold rows are built before the swap
        monkeypatch.setattr(exactnum, "_power_table", lambda n: ())
        with pytest.raises(ContradictionError, match="no root of unity"):
            z.is_root_of_unity()

    def test_primitive_order(self):
        assert cyc_root(12, 5).is_root_of_unity() == 12
        assert cyc_root(12, 2).is_root_of_unity() == 6
        assert cyc_root(12, 6).is_root_of_unity() == 2
        assert Cyc.one().is_root_of_unity() == 1

    def test_odd_level_negatives(self):
        # -zeta_3 has order 6 even though it lives at level 3
        assert (-cyc_root(3)).is_root_of_unity() == 6

    def test_non_unit_rejected(self):
        assert (1 + cyc_root(4, 1)).is_root_of_unity() is None

    def test_non_integral_raises(self):
        with pytest.raises(NonIntegralError):
            (Cyc.one() / 2).is_root_of_unity()


def box_scan_units(level: int) -> list[Cyc]:
    """The unit-modulus integers among the coefficient tuples
    (c_0, ..., c_{level-1}) with |c_e| <= 1, scanned over the interval
    image of that box in the canonical basis."""
    table = exactnum._power_table(level)
    radii = [sum(abs(row[i]) for row in table) for i in range(len(table[0]))]
    found = []
    for tup in itertools.product(*(range(-r, r + 1) for r in radii)):
        val = Cyc._raw(level, tup, 1)
        if val.abs_sq() == Cyc.one():
            found.append(val)
    return found


def fraction_scan_units(level: int) -> list[Cyc]:
    """The Fincke-Pohst scan of the trace-form ellipsoid with `Fraction`
    arithmetic throughout: the LDL^T in place (Cohen 2.7.6) and every
    centre and term as a Fraction.  The reference for the integer scan."""
    n = level
    d = exactnum._phi(n)
    table = exactnum._power_table(n)
    coprime = [j for j in range(1, n + 1) if math.gcd(j, n) == 1]
    trace = [sum(table[j * k % n][0] for j in coprime) for k in range(n)]
    q = [[Fraction(trace[(i - j) % n]) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            q[j][i] = q[i][j]
            q[i][j] /= q[i][i]
        for k in range(i + 1, d):
            for m in range(k, d):
                q[k][m] -= q[k][i] * q[i][m]
    x = [0] * d
    found = []

    def descend(i: int, room: Fraction) -> None:
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
    return [Cyc._raw(level, tup, 1) for tup in sorted(found)]


class TestEnumerateUnits:
    def test_counts_small_levels(self):
        assert len(enumerate_unit_elements(4)) == 4
        assert len(enumerate_unit_elements(3)) == 6
        assert len(enumerate_unit_elements(5)) == 10

    def test_all_enumerated_are_roots(self):
        for val in enumerate_unit_elements(8):
            order = val.is_root_of_unity()
            assert order is not None and 8 % math.gcd(order, 8) == 0

    @pytest.mark.parametrize("level", [11, 15, 24, 30])
    def test_complete_beyond_the_old_box(self, level):
        units = enumerate_unit_elements(level)
        expect = {s * cyc_root(level, e) for e in range(level) for s in (1, -1)}
        assert len(units) == len(expect)
        assert set(units) == expect

    @pytest.mark.parametrize("level", range(1, 9))
    def test_matches_box_scan(self, level):
        assert enumerate_unit_elements(level) == box_scan_units(level)

    @pytest.mark.parametrize("level", [*range(1, 61), 72, 84, 90, 120])
    def test_matches_fraction_scan(self, level):
        got = [coordinates(u) for u in enumerate_unit_elements(level)]
        assert got == [coordinates(u) for u in fraction_scan_units(level)]

    def test_deterministic_order(self):
        a = enumerate_unit_elements(4)
        b = enumerate_unit_elements(4)
        assert a == b


class TestLevelCap:
    def refusal(self, level, monkeypatch):
        monkeypatch.delenv("QT_SESSION_LEVEL_CAP", raising=False)
        with pytest.raises(LevelError) as exc:
            check_level_cap(level)
        assert exc.value.required_level == level
        return str(exc.value)

    def test_huge_level_named_by_digit_count(self, monkeypatch):
        # a level past 2**64 is named by its digit count, not written out
        tail = " exceeds cap 240 (raise QT_SESSION_LEVEL_CAP to allow)"
        assert self.refusal(2**64, monkeypatch) == f"session level {2**64}{tail}"
        assert self.refusal(2**64 + 1, monkeypatch) == f"session level of 20 digits{tail}"
        assert self.refusal(10**100000, monkeypatch) == (
            f"session level of 100001 digits{tail}"
        )

    def test_digit_count_exact_at_every_power_of_ten(self, monkeypatch):
        for k in range(20, 1200):
            for level in (10**k - 1, 10**k, 10**k + 1, 3 * 10**k):
                digits = int(self.refusal(level, monkeypatch).split()[3])
                assert digits == len(str(level)), level


class TestLibraryCeiling:
    """Library arithmetic refuses a level above both LEVEL_CEILING and the
    session cap before it builds any table of that level."""

    TAIL = " (raise QT_SESSION_LEVEL_CAP to allow)"

    def test_far_level_refused_at_once(self, monkeypatch):
        # lcm(24, 23, 19, 17): a sum of four cocycle values with turn
        # denominators up to 24 reached it, and its tables would take on
        # the order of 100 GB
        monkeypatch.delenv("QT_SESSION_LEVEL_CAP", raising=False)
        far = 178_296
        t0 = time.perf_counter()
        for make in (
            lambda: cyc_root(far),
            lambda: Cyc.one().lift(far),
            lambda: cyc_root(24 * 23) * cyc_root(19 * 17),
        ):
            with pytest.raises(LevelError) as exc:
                make()
            assert exc.value.required_level == far
            assert str(exc.value) == f"level {far} exceeds the library ceiling 4620{self.TAIL}"
        assert time.perf_counter() - t0 < 0.5

    def test_level_at_the_ceiling_works(self, monkeypatch):
        monkeypatch.delenv("QT_SESSION_LEVEL_CAP", raising=False)
        # phi(4620) = phi(4) * phi(3) * phi(5) * phi(7) * phi(11), computed
        # from cold in about 2 ms
        cyclotomic_poly.cache_clear()
        t0 = time.perf_counter()
        assert len(cyclotomic_poly(LEVEL_CEILING)) - 1 == 2 * 2 * 4 * 6 * 10
        assert time.perf_counter() - t0 < 0.05

    def test_session_cap_raises_the_ceiling(self, monkeypatch):
        # 4621 is prime, so its polynomial is cheap: 4621 ones
        monkeypatch.delenv("QT_SESSION_LEVEL_CAP", raising=False)
        with pytest.raises(LevelError, match="^level 4621 exceeds the library ceiling 4620"):
            cyclotomic_poly(4621)
        monkeypatch.setenv("QT_SESSION_LEVEL_CAP", "5000")
        assert cyclotomic_poly(4621) == (1,) * 4621
        with pytest.raises(LevelError) as exc:
            cyclotomic_poly(10**30)
        assert str(exc.value) == f"level of 31 digits exceeds the library ceiling 5000{self.TAIL}"


_MODULUS = sys.hash_info.modulus
TURN_VALUES = st.fractions() | st.integers().map(Fraction)


@contextmanager
def counting_fractions():
    """The list of the argument tuples of every Fraction made inside."""
    made = []
    new = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield made
    finally:
        Fraction.__new__ = new


class TestTurn:
    def test_normalization(self):
        assert Turn(Fraction(5, 4)).fraction == Fraction(1, 4)
        assert Turn(Fraction(-1, 3)).fraction == Fraction(2, 3)

    @pytest.mark.parametrize(
        "x",
        [0, 1, 3, -1, -4, Fraction(1, 3), Fraction(2, 4), Fraction(7, 3),
         Fraction(-1, 6), Fraction(-13, 5), Fraction(10**400 + 1, 10**400)],
    )
    def test_fraction_is_the_value_mod_one(self, x):
        t = Turn(x)
        assert t.fraction == Fraction(x) % 1
        assert type(t.fraction) is Fraction

    def test_keeps_a_fraction_in_range(self):
        # the value is kept, not the object: `fraction` builds a new one
        f = Turn(Fraction(1, 3)).fraction
        assert type(f) is Fraction and f == Fraction(1, 3)

        class Sub(Fraction):
            pass

        f = Turn(Sub(1, 3)).fraction
        assert type(f) is Fraction and f == Fraction(1, 3)

    @pytest.mark.parametrize("n, d", [(0, 1), (1, 2), (2, 4), (5, 3), (-1, 3), (3, -4), (-6, 4)])
    def test_two_argument_form(self, n, d):
        assert Turn(n, d).fraction == Fraction(n, d) % 1

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            Turn(1, 0)

    def test_arithmetic(self):
        assert Turn(1, 2) + Turn(3, 4) == Turn(1, 4)
        assert Turn(1, 6) - Turn(1, 3) == Turn(5, 6)
        assert -Turn(1, 5) == Turn(4, 5)

    def test_turn_to_root_minimal(self):
        assert turn_to_root(Turn(1, 4)) == Cyc(4, [0, 1])

    @settings(max_examples=500)
    @given(TURN_VALUES, TURN_VALUES)
    @example(Fraction(1, 2), Fraction(1, 2))
    @example(Fraction(-1), Fraction(1, _MODULUS))
    @example(Fraction(2**70 + 1, 3), Fraction(-5, 2**64))
    def test_matches_fraction_reference(self, x, y):
        """The integer turn gives what the Fraction mod 1 gives: +, -,
        negation, str, repr and hash; == agrees with the hash; no order."""
        fx, fy = x % 1, y % 1
        a, b = Turn(x), Turn(y)
        for got, want in [(a + b, fx + fy), (a - b, fx - fy), (-a, -fx), (a, fx)]:
            want %= 1
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            assert type(got.fraction) is Fraction and got.fraction == want
            assert str(got) == f"{want.numerator}/{want.denominator}"
            assert repr(got) == f"Turn(fraction={want!r})"
            assert hash(got) == hash((want,))
        assert (a == b) is (fx == fy) and (a != b) is (fx != fy)
        if a == b:
            assert hash(a) == hash(b)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(a, b)

    @settings(max_examples=300)
    @given(TURN_VALUES)
    @example(Fraction(-1))
    @example(Fraction(3, _MODULUS))
    @example(Fraction(-7, 2 * _MODULUS))
    @example(Fraction(-1, _MODULUS + 1))  # hashes as -1, which is taken as -2
    def test_rational_hash_builds_no_fraction(self, value):
        """A rational Cyc made from integers hashes as its Fraction, and no
        Fraction is made on the way."""
        n, d = value.numerator, value.denominator
        with counting_fractions() as made:
            h = hash(Cyc.rational(n) / d)
        assert made == [] and h == hash(value) == exactnum._rational_hash(n, d)



def cyc_to_json_by_fractions(a: Cyc) -> dict:
    """The Fraction-based writer, kept as the reference."""
    return {
        "level": a.level,
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in a.coeffs],
    }


class TestSerialization:
    @settings(max_examples=200)
    @given(cyc_triples())
    def test_json_matches_fractions(self, drawn):
        _, values, _ = drawn
        for a in values + [-v for v in values] + [Cyc.zero(), Cyc.zero().lift(12)]:
            assert cyc_to_json(a) == cyc_to_json_by_fractions(a)

    def test_cyc_round_trip(self):
        rng = random.Random(99)
        for _ in range(30):
            a = rand_cyc(rng, rng.choice([3, 4, 12, 24]))
            assert cyc_from_json(cyc_to_json(a)) == a

    def test_turn_round_trip(self):
        for t in (Turn(0), Turn(1, 2), Turn(7, 12)):
            assert turn_from_json(turn_to_json(t)) == t

    def test_json_shape(self):
        data = cyc_to_json(Cyc(3, [Fraction(1, 2), Fraction(-2, 3)]))
        assert data == {"level": 3, "coeffs": [["1", "2"], ["-2", "3"]]}


def test_module_doctests():
    import doctest

    import rotknot.exactnum

    result = doctest.testmod(rotknot.exactnum)
    assert result.failed == 0
    assert result.attempted >= 3
