"""Quandle axioms and the area cocycle."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rotknot.cocycle import _area_sum, _phi_pair, cocycle_phi, signed_area_tri, verify_qc1
from rotknot.exactnum import Cyc, Turn
from rotknot.geom import ORIGIN, point_xy, rotate
from rotknot.quandle import ROT, RotElem
from rotknot.verify import DihedralQuandle

from conftest import rand_rot


def cocycle_by_triangles(o, x: RotElem, y: RotElem):
    """Phi_o as the sum of its two triangle areas, kept as the reference."""
    moved = rotate(x.center, y.center, y.angle)
    return -signed_area_tri(o, x.center, y.center) + signed_area_tri(
        o, moved, y.center
    )


@st.composite
def points(draw):
    """A point at level 1, 4, 12 or 24 with small rational coordinates."""
    level = draw(st.sampled_from([1, 4, 12, 24]))
    terms = draw(
        st.dictionaries(
            st.integers(0, level - 1),
            st.fractions(-3, 3, max_denominator=4),
            max_size=4,
        )
    )
    return Cyc(level, [terms.get(e, 0) for e in range(level)])


turns = st.builds(Turn, st.integers(0, 23), st.integers(1, 24))
# turns whose denominators divide 24, so that a sum of several terms
# stays at level 24
turns_24 = st.builds(Turn, st.integers(0, 23), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))


class TestDihedral:
    def test_named_example(self):
        q = DihedralQuandle(3)
        assert q.op(1, 2) == 0

    def test_axioms_small_orders(self):
        for n in (3, 5, 7):
            q = DihedralQuandle(n)
            elems = q.elements()
            for x in elems:
                assert q.op(x, x) == x
            for x in elems:
                for y in elems:
                    assert q.inv_op(q.op(x, y), y) == x
                    assert q.op(q.inv_op(x, y), y) == x
            for x in elems:
                for y in elems:
                    for z in elems:
                        assert q.op(q.op(x, y), z) == q.op(q.op(x, z), q.op(y, z))

    def test_enumeration(self):
        assert len(DihedralQuandle(7).elements()) == 7


class TestRotQuandle:
    def test_named_example(self):
        x = RotElem(ORIGIN, Turn(1, 4))
        y = RotElem(Cyc.one(), Turn(1, 2))
        assert ROT.op(x, y) == RotElem(Cyc.rational(2), Turn(1, 4))

    def test_angle_preserved(self):
        rng = random.Random(31)
        for _ in range(50):
            x, y = rand_rot(rng), rand_rot(rng)
            assert ROT.op(x, y).angle == x.angle

    def test_idempotence(self):
        rng = random.Random(32)
        for _ in range(50):
            x = rand_rot(rng)
            assert ROT.op(x, x) == x

    def test_right_invertibility(self):
        rng = random.Random(33)
        for _ in range(100):
            x, y = rand_rot(rng), rand_rot(rng)
            assert ROT.inv_op(ROT.op(x, y), y) == x
            assert ROT.op(ROT.inv_op(x, y), y) == x

    def test_self_distributivity(self):
        rng = random.Random(34)
        for _ in range(500):
            x, y, z = rand_rot(rng), rand_rot(rng), rand_rot(rng)
            assert ROT.op(ROT.op(x, y), z) == ROT.op(ROT.op(x, z), ROT.op(y, z))


class TestCocycle:
    def test_qc2_vanishes_on_diagonal(self):
        rng = random.Random(35)
        for _ in range(50):
            x = rand_rot(rng)
            o = rand_rot(rng).center
            assert cocycle_phi(o, x, x).is_zero()

    def test_zero_angle_gives_zero(self):
        rng = random.Random(36)
        for _ in range(30):
            x = rand_rot(rng)
            y = RotElem(rand_rot(rng).center, Turn(0))
            assert cocycle_phi(ORIGIN, x, y).is_zero()

    def test_collinear_through_base(self):
        x = RotElem(Cyc.one(), Turn(1, 4))
        y = RotElem(ORIGIN, Turn(1, 4))
        assert cocycle_phi(ORIGIN, x, y).is_zero()

    @settings(max_examples=300)
    @given(points(), points(), points(), turns, turns)
    def test_one_term_matches_two_triangles(self, o, a, c, s, t):
        x, y = RotElem(a, s), RotElem(c, t)
        got = cocycle_phi(o, x, y)
        want = cocycle_by_triangles(o, x, y)
        assert (got.level, got.num, got.den) == (want.level, want.num, want.den)

    @settings(max_examples=300)
    @given(points(), points(), points(), turns, turns)
    def test_phi_pair_is_rotation_minus_point(self, o, a, c, s, t):
        moved, arm = _phi_pair(RotElem(a, s), RotElem(c, t))
        assert moved == rotate(a, c, t) - a
        assert arm == c
        # the kernel subtracts o from the arm: c - o, as the pair held before
        got, want = _area_sum([(moved, arm)], o), _area_sum([(moved, c - o)])
        assert (got.level, got.num, got.den) == (want.level, want.num, want.den)

    @settings(max_examples=100)
    @given(st.lists(st.tuples(points(), points(), turns_24, st.booleans()), min_size=4,
                    max_size=4), points())
    def test_signed_pairs_are_the_composed_sum(self, terms, o):
        """Pairs with the first member negated, in one kernel call with o,
        give the sum of +-Phi_o, as `verify_qc1` and `total_weight` use
        them."""
        pairs, want = [], Cyc.zero()
        for a, c, t, negative in terms:
            x, y = RotElem(a, t), RotElem(c, t)
            v, w = _phi_pair(x, y)
            pairs.append((-v, w) if negative else (v, w))
            want = want - cocycle_phi(o, x, y) if negative else want + cocycle_phi(o, x, y)
        assert _area_sum(pairs, o) == want

    def test_qc1_vanishes(self):
        rng = random.Random(37)
        for _ in range(200):
            o = rand_rot(rng).center
            x, y, z = rand_rot(rng), rand_rot(rng), rand_rot(rng)
            assert verify_qc1(o, x, y, z).is_zero()

    def test_qc1_on_degenerate_inputs(self):
        x = RotElem(ORIGIN, Turn(1, 6))
        assert verify_qc1(point_xy(2, 1), x, x, x).is_zero()
        y = RotElem(Cyc.rational(2), Turn(1, 6))
        z = RotElem(Cyc.rational(4), Turn(1, 3))
        assert verify_qc1(ORIGIN, x, y, z).is_zero()
