"""Planar geometry: rotations, signed areas, polygon walks."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotknot import geom
from rotknot.cocycle import (
    area_approx,
    cocycle_phi,
    polygon_area,
    signed_area_polygon,
    signed_area_tri,
    total_weight,
)
from rotknot.exactnum import ContradictionError, Cyc, Turn, cyc_root, turn_to_root
from rotknot.geom import (
    ORIGIN,
    point_from_json,
    point_to_json,
    point_xy,
    polygon_vertices,
    rotate,
)
from rotknot.trochoid import TrochoidSpec, derive_coloring

from conftest import grid_cells, rand_cyc, rand_rot


def rand_point(rng: random.Random, level: int = 12) -> Cyc:
    return rand_cyc(rng, level, span=4)


def rotate_by_product(z: Cyc, c: Cyc, t: Turn) -> Cyc:
    """The rotation as a product with the root of unity, kept as the
    reference for the exponent-shift kernel behind `rotate`."""
    return (z - c) * turn_to_root(t) + c


def same_coordinates(a: Cyc, b: Cyc) -> bool:
    return (a.level, a.num, a.den) == (b.level, b.num, b.den)


CENTER_LEVELS = (1, 3, 4, 5, 8, 12, 24, 60)
# 7, 9 and 16 divide none of the point levels
TURN_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12, 16)
ZERO_4 = Cyc.zero().lift(4)


@st.composite
def points(draw):
    """A zero at level 1 or 4, or a value at one of CENTER_LEVELS."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([Cyc.zero(), ZERO_4]))
    level = draw(st.sampled_from(CENTER_LEVELS))
    terms = draw(
        st.dictionaries(
            st.integers(0, level - 1),
            st.fractions(-5, 5, max_denominator=6),
            max_size=4,
        )
    )
    return Cyc(level, [terms.get(e, 0) for e in range(level)])


turns = st.one_of(
    st.just(Turn(0)),
    st.builds(Turn, st.integers(-40, 40), st.sampled_from(TURN_DENOMINATORS)),
)


class TestRotate:
    @settings(max_examples=400)
    @given(points(), points(), st.booleans(), turns)
    @example(Cyc.zero(), Cyc.zero(), False, Turn(1, 3))
    @example(ZERO_4, Cyc.zero(), False, Turn(1, 7))
    @example(Cyc.zero(), ZERO_4, False, Turn(0))
    @example(point_xy(1, 2), point_xy(1, 2), True, Turn(2, 9))
    @example(cyc_root(60, 7), cyc_root(5, 2), False, Turn(5, 7))
    @example(cyc_root(8, 3), cyc_root(24, 5), False, Turn(0))
    def test_matches_product_reference(self, z, c, same, t):
        if same:
            c = z
        assert same_coordinates(rotate(z, c, t), rotate_by_product(z, c, t))

    def test_fixed_point(self):
        z = point_xy(3, Fraction(1, 2))
        for t in (Turn(0), Turn(1, 3), Turn(5, 8)):
            assert rotate(z, z, t) == z

    def test_half_turn(self):
        assert rotate(ORIGIN, Cyc.one(), Turn(1, 2)) == Cyc.rational(2)

    def test_quarter_turn(self):
        assert rotate(Cyc.one(), ORIGIN, Turn(1, 4)) == cyc_root(4, 1)

    def test_composition(self):
        rng = random.Random(17)
        for _ in range(30):
            z = rand_point(rng)
            c = rand_point(rng)
            a, b = Turn(1, 6), Turn(1, 4)
            assert rotate(rotate(z, c, a), c, b) == rotate(z, c, a + b)


class TestSignedAreaTri:
    def test_unit_right_triangle(self):
        val = signed_area_tri(ORIGIN, Cyc.one(), cyc_root(4, 1))
        assert val == 2 * cyc_root(4, 1)
        assert abs(area_approx(val) - 0.5) < 1e-12

    def test_collinear_is_exact_zero(self):
        val = signed_area_tri(ORIGIN, Cyc.one(), Cyc.rational(2))
        assert val.is_zero() and area_approx(val) == 0

    def test_clockwise_flips_sign(self):
        val = signed_area_tri(ORIGIN, cyc_root(4, 1), Cyc.one())
        assert abs(area_approx(val) + 0.5) < 1e-12

    def test_scaled_is_purely_imaginary(self):
        # area_approx drops the imaginary part of scaled / 4i, which is
        # only rounding when conj(scaled) = -scaled
        rng = random.Random(5)
        scaled = []
        for _ in range(50):
            x, y, z = (rand_point(rng) for _ in range(3))
            scaled.append(signed_area_tri(x, y, z))
        rng = random.Random(6)
        for _ in range(50):
            scaled.append(cocycle_phi(rand_point(rng), rand_rot(rng), rand_rot(rng)))
        for cell in grid_cells():
            scaled.append(total_weight(derive_coloring(TrochoidSpec(*cell)), ORIGIN))
        for s in scaled:
            assert s.conj() == -s

    def test_rotation_invariance(self):
        rng = random.Random(2024)
        turns = [Turn(1, 3), Turn(1, 4), Turn(5, 12), Turn(7, 8)]
        for _ in range(200):
            x, y, z, w = (rand_point(rng) for _ in range(4))
            t = rng.choice(turns)
            a = signed_area_tri(x, y, z)
            b = signed_area_tri(rotate(x, w, t), rotate(y, w, t), rotate(z, w, t))
            assert a == b


class TestSignedAreaPolygon:
    def test_unit_square(self):
        square = [ORIGIN, Cyc.one(), point_xy(1, 1), cyc_root(4, 1)]
        val = signed_area_polygon(square)
        assert val == 4 * cyc_root(4, 1)
        assert abs(area_approx(val) - 1.0) < 1e-12

    def test_base_point_independence(self):
        square = [ORIGIN, Cyc.one(), point_xy(1, 1), cyc_root(4, 1)]
        far = point_xy(5, 3)
        assert signed_area_polygon(square, far) == signed_area_polygon(square)
        rng = random.Random(11)
        for _ in range(20):
            verts = [rand_point(rng) for _ in range(5)]
            o1, o2 = rand_point(rng), rand_point(rng)
            assert signed_area_polygon(verts, o1) == signed_area_polygon(verts, o2)

    def test_degenerate_two_gon(self):
        assert signed_area_polygon([ORIGIN, Cyc.one()]).is_zero()

    def test_debug_check_passes(self):
        verts = [ORIGIN, Cyc.one(), cyc_root(4, 1)]
        assert signed_area_polygon(verts) == signed_area_tri(*verts)


def fan_sum(vertices: list[Cyc], o: Cyc) -> Cyc:
    """The fan of `signed_area_tri` terms added one at a time, the
    reference for `signed_area_polygon`'s single accumulator."""
    total = Cyc.zero()
    for i, v in enumerate(vertices):
        total = total + signed_area_tri(o, v, vertices[(i + 1) % len(vertices)])
    return total


@settings(max_examples=150)
@given(st.lists(points(), min_size=2, max_size=6), points())
@example([ORIGIN, Cyc.one()], ORIGIN)
@example([ZERO_4, cyc_root(3)], Cyc.zero())
@example([point_xy(1, 2), cyc_root(5), cyc_root(12, 7)], ZERO_4)
def test_polygon_matches_fan_of_triangles(vertices, o):
    assert same_coordinates(signed_area_polygon(vertices, o), fan_sum(vertices, o))


def boundary_area_check(x, y, z, w):
    """s(y,z,w) - s(x,z,w) + s(x,y,w) - s(x,y,z): the boundary of the
    tetrahedron (x, y, z, w), on which signed areas sum to exactly zero."""
    return (
        signed_area_tri(y, z, w)
        - signed_area_tri(x, z, w)
        + signed_area_tri(x, y, w)
        - signed_area_tri(x, y, z)
    )


class TestBoundaryCheck:
    def test_named_examples(self):
        assert boundary_area_check(
            ORIGIN, Cyc.one(), cyc_root(4, 1), point_xy(1, 1)
        ).is_zero()
        assert boundary_area_check(
            ORIGIN, Cyc.one(), Cyc.rational(2), Cyc.rational(3)
        ).is_zero()

    def test_random_quadruples(self):
        rng = random.Random(404)
        for _ in range(100):
            pts = [rand_point(rng, rng.choice([8, 12, 24])) for _ in range(4)]
            assert boundary_area_check(*pts).is_zero()


class TestPolygonWalk:
    def test_unit_square_walk(self):
        assert polygon_vertices(4, 1, ORIGIN, Turn(0), 1) == [
            ORIGIN,
            Cyc.one(),
            point_xy(1, 1),
            cyc_root(4, 1),
        ]

    def test_degenerate_two_gon(self):
        assert polygon_vertices(2, 1, ORIGIN, Turn(0), 1) == [ORIGIN, Cyc.one()]

    def test_open_walk_is_a_contradiction(self, monkeypatch):
        # a wrong turning root breaks the proved closure; -O keeps the check
        monkeypatch.setattr(geom, "cyc_root", lambda m, k: cyc_root(m + 1, k))
        with pytest.raises(ContradictionError, match="polygon walk failed to close"):
            polygon_vertices(4, 1, ORIGIN, Turn(0), 1)

    def test_overlapping_hexagon(self):
        # gcd(6,2)=2: the walk hits only 3 distinct points, each twice
        verts = polygon_vertices(6, 2, ORIGIN, Turn(0), 1)
        assert len(set(verts)) == 3
        assert verts[:3] == verts[3:]

    def test_edges_have_exact_length(self):
        rng = random.Random(8)
        for _ in range(20):
            m = rng.randrange(2, 7)
            k = rng.randrange(1, m)
            side = Fraction(rng.randrange(1, 5), rng.randrange(1, 3))
            anchor, direction = rand_point(rng), Turn(rng.randrange(12), 12)
            verts = polygon_vertices(m, k, anchor, direction, side)
            for i in range(m):
                edge = verts[(i + 1) % m] - verts[i]
                assert edge.abs_sq() == Cyc.rational(side * side)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            polygon_vertices(4, 0, ORIGIN, Turn(0), 1)
        with pytest.raises(ValueError):
            polygon_vertices(4, 4, ORIGIN, Turn(0), 1)
        with pytest.raises(ValueError):
            polygon_vertices(1, 1, ORIGIN, Turn(0), 1)


def fan_area(m: int, k: int, anchor: Cyc, direction: Turn, side: Fraction) -> Cyc:
    """The fan over the walk from its own anchor, kept as the reference."""
    return signed_area_polygon(polygon_vertices(m, k, anchor, direction, side), anchor)


class TestPolygonArea:
    def test_default_walk_matches_fan_exactly(self):
        # enumerate prints these levels and coordinates
        for m in range(2, 14):
            for k in range(1, m):
                got = polygon_area(m, k)
                want = fan_area(m, k, ORIGIN, Turn(0), Fraction(1))
                assert (got.level, got.num, got.den) == (want.level, want.num, want.den)

    def test_matches_fan_on_random_walks(self):
        rng = random.Random(20241018)
        for _ in range(80):
            m = rng.randrange(2, 10)
            walk = (
                m,
                rng.randrange(1, m),
                rand_point(rng, rng.choice([1, 3, 4, 12])),
                Turn(rng.randrange(24), rng.choice([1, 2, 3, 4, 6, 8, 12, 24])),
                Fraction(rng.randrange(1, 7), rng.randrange(1, 4)),
            )
            m, k, _, _, side = walk
            assert polygon_area(m, k, side) == fan_area(*walk), walk

    def test_equilateral_triangle(self):
        val = polygon_area(3, 1)
        assert abs(area_approx(val) - math.sqrt(3) / 4) < 1e-9

    def test_square_area_scales_quadratically(self):
        assert polygon_area(4, 1, Fraction(2)) == 4 * polygon_area(4, 1)

    def test_mirror_negates_area(self):
        for m, k in ((3, 1), (4, 1), (5, 2), (6, 1)):
            assert polygon_area(m, m - k) == -polygon_area(m, k)


class TestPointXY:
    @pytest.mark.parametrize(
        "re, im",
        [
            (0, 0),
            (3, 0),
            (0, -2),
            (-1, Fraction(-1, 2)),
            (Fraction(2, 4), Fraction(6, -9)),
            (Fraction(1, 6), Fraction(5, 4)),
            (Fraction(10**400), Fraction(-1, 10**400)),
            (Fraction(10**400 + 1, 3), 7),
        ],
    )
    def test_matches_sum_of_parts(self, re, im):
        z = point_xy(re, im)
        ref = Cyc.rational(re) + cyc_root(4, 1) * Fraction(im)
        assert z.level == 4
        assert same_coordinates(z, ref)

    def test_keeps_a_fraction_and_converts_a_subclass(self, monkeypatch):
        """A `Fraction` is read as it is, with no new one made; an instance
        of a subclass is converted to a `Fraction` first."""

        class Sub(Fraction):
            pass

        re, im = Fraction(1, 6), Fraction(-5, 4)
        sub_re, sub_im = Sub(1, 6), Sub(-5, 4)
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        z = point_xy(re, im)
        assert made == []
        w = point_xy(sub_re, sub_im)
        assert made == [(sub_re,), (sub_im,)]
        monkeypatch.undo()
        assert same_coordinates(z, w)
        assert same_coordinates(z, Cyc.rational(re) + cyc_root(4, 1) * im)

    @settings(max_examples=500)
    @given(
        st.integers(-10**30, 10**30), st.integers(1, 10**6),
        st.integers(-10**30, 10**30), st.integers(1, 10**6),
    )
    @example(0, 5, 0, 7)
    @example(6, 4, -9, 6)
    @example(2, 1, 3, 1)
    def test_integers_match_fractions(self, a, b, c, d):
        """The point of the integer ratios a/b and c/d, reduced or not, has
        the (level, num, den) of the point of their Fractions."""
        re, im = Fraction(a, b), Fraction(c, d)
        want = Cyc.rational(re) + cyc_root(4, 1) * im
        assert same_coordinates(geom._point_xy(a, b, c, d), want)
        assert same_coordinates(point_xy(re, im), want)
        assert same_coordinates(point_xy(a, c), point_xy(Fraction(a), Fraction(c)))


class TestSerialization:
    def test_point_round_trip(self):
        z = point_xy(Fraction(3, 2), Fraction(-1, 4)) + cyc_root(12, 7)
        assert point_from_json(point_to_json(z)) == z

    def test_approx_field_formatting(self):
        data = point_to_json(ORIGIN)
        assert data["approx"] == ["0", "0"]
