"""Exact planar geometry over cyclotomic coordinates.

Points are complex cyclotomic numbers.  This module holds points, their
JSON form, rigid rotations and regular polygon walks; signed areas live
with the area two-cocycle in `cocycle`, which only the commands that
compute weights load.
"""

from __future__ import annotations

from math import lcm

from .exactnum import (
    ContradictionError,
    Cyc,
    Turn,
    _normal,
    _ratio,
    _rotate,
    _scale,
    cyc_from_json,
    cyc_root,
    cyc_to_json,
    turn_to_root,
)

# a point of the plane is just a cyclotomic number
Point = Cyc

ORIGIN = Cyc.zero()


def point_xy(re, im=0) -> Point:
    """The point re + im*i with rational coordinates, ints or Fractions,
    at level 4."""
    return _point_xy(*_ratio(re), *_ratio(im))


def _point_xy(a: int, b: int, c: int, d: int) -> Point:
    """The point a/b + (c/d)*i at level 4, for b, d > 0.

    With L = lcm(b, d) the coordinates are (a*L/b, c*L/d) over L, divided
    by their gcd with L.  For a/b and c/d in lowest terms that gcd is 1:
    if a prime power p^k exactly divides L, it exactly divides b, say;
    then p divides neither a (coprime to b) nor L/b, so not a*L/b.
    """
    den = lcm(b, d)
    return Cyc._raw(4, *_normal((a * (den // b), c * (den // d)), den))


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


def polygon_vertices(m: int, k: int, anchor: Point, direction: Turn, side) -> list[Point]:
    """The m vertices of a regular polygon of type (m, k), anchored by its
    first edge; the walk provably closes.

    The walk starts at `anchor`, the first edge points along `direction`,
    every edge has length `side`, a positive int or Fraction, and each
    step turns by k/m of a full turn: w_0 = anchor and
    w_{j+1} = w_j + side * u(direction) * zeta_m^{kj}.  Closure
    (w_m = w_0) is checked exactly.  gcd(m, k) > 1 makes vertices repeat
    with period m/gcd(m, k).
    """
    if m < 2:
        raise ValueError("polygon needs m >= 2")
    if not 1 <= k <= m - 1:
        raise ValueError(f"step k={k} outside [1, {m - 1}]")
    n, d = _ratio(side)
    if n <= 0:
        raise ValueError("side must be positive")
    return _polygon_walk(m, k, anchor, _scale(turn_to_root(direction), n, d))


def _polygon_walk(m: int, k: int, anchor: Point, edge: Point) -> list[Point]:
    """The vertices of `polygon_vertices` for the first edge vector edge
    (side * u(direction)), with 1 <= k < m; closure checked."""
    verts = [anchor]
    zk = cyc_root(m, k)
    step = edge
    for _ in range(m - 1):
        verts.append(verts[-1] + step)
        step = step * zk
    closure = verts[-1] + step
    if closure != anchor:
        raise ContradictionError("polygon walk failed to close")
    return verts
