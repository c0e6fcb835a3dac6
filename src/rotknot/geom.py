"""Exact planar geometry over cyclotomic coordinates.

Points are complex cyclotomic numbers.  Signed areas are kept 4i-scaled
so they stay inside the field (the raw area of a cyclotomic triangle
need not be cyclotomic, but 4i times it always is).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactnum import (
    ContradictionError,
    Cyc,
    Turn,
    _area_sum,
    _rotate,
    cyc_from_json,
    cyc_root,
    cyc_to_json,
    turn_to_root,
)

# a point of the plane is just a cyclotomic number
Point = Cyc

ORIGIN = Cyc.zero()


def point_xy(re: Fraction | int, im: Fraction | int = 0) -> Point:
    """The point re + im*i with rational coordinates, at level 4.

    With re = a/b and im = c/d in lowest terms and L = lcm(b, d), the
    coordinates (a*L/b, c*L/d) over L are already canonical.  If a
    prime power p^k exactly divides L, it exactly divides b, say; then p
    divides neither a (coprime to b) nor L/b, so not a*L/b.
    """
    if type(re) is not Fraction:
        re = Fraction(re)
    if type(im) is not Fraction:
        im = Fraction(im)
    b, d = re.denominator, im.denominator
    den = lcm(b, d)
    return Cyc._raw(4, (re.numerator * (den // b), im.numerator * (den // d)), den)


def fmt12(value: float) -> str:
    """Floats shown with 12 significant digits; negative zero normalized."""
    if value == 0.0:
        value = 0.0
    out = "%.12g" % value
    return "0" if out == "-0" else out


def point_to_json(z: Point) -> dict:
    """The exact value, and its float mirror or null when that overflows."""
    try:
        w = z.embed()
    except OverflowError:
        return {"value": cyc_to_json(z), "approx": None}
    return {"value": cyc_to_json(z), "approx": [fmt12(w.real), fmt12(w.imag)]}


def point_from_json(data: dict) -> Point:
    return cyc_from_json(data["value"])


def rotate(z: Point, center: Point, t: Turn) -> Point:
    """Exact image of z under rotation about center by the turn t.

    The value center + u(t) * (z - center), computed at the level
    lcm(z.level, center.level, t.denominator): both points are lifted
    there once and the rotation shifts exponents, so no root of unity
    is built and no product is taken.
    """
    return _rotate(z, center, t.numerator, t.denominator)


def area_approx(scaled: Cyc) -> float:
    """The area whose exact 4i-scaled value is `scaled`, as a float.

    Signed areas are purely imaginary field elements (conj(scaled) =
    -scaled), so the area is real and the imaginary part dropped here is
    rounding only.
    """
    return (scaled.embed() / 4j).real


def signed_area_tri(x: Point, y: Point, z: Point) -> Cyc:
    """Signed area of the triangle (x, y, z), positive counterclockwise.

    4i * area = t - conj(t) with t = conj(y-x)*(z-x), formed by the area
    kernel `exactnum._area_sum` on the one pair (y - x, z - x); for
    (0, 1, i) this gives scaled 2i, area +1/2.  Degenerate triangles give
    exact zero.
    """
    return _area_sum([(y - x, z - x)])


def signed_area_polygon(vertices: list[Point], o: Point = ORIGIN) -> Cyc:
    """Sum of triangle areas fanned from o over the closed vertex cycle.

    The value does not depend on o.  The m fan pairs (v_i - o,
    v_(i+1) - o) go to the area kernel together: one fold for the sum.
    """
    if len(vertices) < 2:
        raise ValueError("polygon needs at least 2 vertices")
    fan = [v - o for v in vertices]
    return _area_sum(list(zip(fan, fan[1:] + fan[:1])))


def polygon_vertices(
    m: int, k: int, anchor: Point, direction: Turn, side: Fraction
) -> list[Point]:
    """The m vertices of a regular polygon of type (m, k), anchored by its
    first edge; the walk provably closes.

    The walk starts at `anchor`, the first edge points along `direction`,
    every edge has length `side`, and each step turns by k/m of a full
    turn: w_0 = anchor and w_{j+1} = w_j + side * u(direction) * zeta_m^{kj}.
    Closure (w_m = w_0) is checked exactly.  gcd(m, k) > 1 makes vertices
    repeat with period m/gcd(m, k).
    """
    if m < 2:
        raise ValueError("polygon needs m >= 2")
    if not 1 <= k <= m - 1:
        raise ValueError(f"step k={k} outside [1, {m - 1}]")
    if side <= 0:
        raise ValueError("side must be positive")
    verts = [anchor]
    u0 = turn_to_root(direction) * side
    zk = cyc_root(m, k)
    step = u0
    for _ in range(m - 1):
        verts.append(verts[-1] + step)
        step = step * zk
    closure = verts[-1] + step
    if closure != anchor:
        raise ContradictionError("polygon walk failed to close")
    return verts


@lru_cache(maxsize=None)
def polygon_area(m: int, k: int, side: Fraction = Fraction(1)) -> Cyc:
    """Signed area swept by the closed type-(m, k) edge walk with edge
    `side` (counterclockwise > 0): the fan from 0 over the walk from 0
    along direction 0, closure checked.

    Any anchored walk of that type and side has this area: the fan from
    the anchor does not see the translation or the rotation by a unit u
    (conj(u v) * u v' = conj(v) * v' as |u|^2 = 1).  Cached on rationals
    only, never on points: those compare by value across levels, so a
    cached area could come back at another level than a fresh one.
    """
    return signed_area_polygon(polygon_vertices(m, k, ORIGIN, Turn(0), side))
