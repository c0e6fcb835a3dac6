"""Exact cyclotomic arithmetic: identities, reduction, units, turns."""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotknot import exactnum
from rotknot.exactnum import (
    ContradictionError,
    Cyc,
    NonIntegralError,
    Turn,
    cyc_from_json,
    cyc_root,
    cyc_to_json,
    cyclotomic_poly,
    enumerate_unit_elements,
    turn_from_json,
    turn_to_json,
    turn_to_root,
)


def from_terms(level: int, terms) -> Cyc:
    """sum(c * zeta_level^e) over a sparse {exponent: coefficient}
    mapping, built through the constructor's dense coefficient list."""
    coeffs = [Fraction(0)] * level
    for e, c in terms.items():
        coeffs[e % level] += Fraction(c)
    return Cyc(level, coeffs)


def rand_cyc(rng: random.Random, level: int, span: int = 6) -> Cyc:
    n_terms = rng.randrange(1, 5)
    terms = {}
    for _ in range(n_terms):
        e = rng.randrange(level)
        terms[e] = Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 4))
    return from_terms(level, terms)


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

    @settings(derandomize=True, deadline=None, max_examples=300)
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

    @settings(derandomize=True, deadline=None, max_examples=200)
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

    @settings(derandomize=True, deadline=None, max_examples=400)
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

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.tuples(kernel_values(), kernel_values()), max_size=4))
    @example([])
    @example([(Cyc(4, []), Cyc(13, []))])
    @example([(Cyc(3, [1]), Cyc(3, [1]))])
    @example([(Cyc(12, [Fraction(1, 3), 1]), Cyc(2, [Fraction(1, 5)]))] * 2)
    def test_area_sum_matches_lift_then_operate(self, pairs):
        got = exactnum._area_sum(pairs)
        assert coordinates(got) == coordinates(area_sum_reference(pairs))


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

    def test_deterministic_order(self):
        a = enumerate_unit_elements(4)
        b = enumerate_unit_elements(4)
        assert a == b


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
        f = Fraction(1, 3)
        assert Turn(f).fraction is f

        class Sub(Fraction):
            pass

        assert type(Turn(Sub(1, 3)).fraction) is Fraction

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


def cyc_to_json_by_fractions(a: Cyc) -> dict:
    """The Fraction-based writer, kept as the reference."""
    return {
        "level": a.level,
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in a.coeffs],
    }


class TestSerialization:
    @settings(derandomize=True, deadline=None, max_examples=200)
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
