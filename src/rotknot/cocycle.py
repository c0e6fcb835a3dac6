"""The area two-cocycle Phi_o of the rotation quandle and the weights of
colorings.

Signed areas are kept 4i-scaled so they stay inside the field (the raw
area of a cyclotomic triangle need not be cyclotomic, but 4i times it
always is).  Every one of them, from a triangle to the crossing sum of a
coloring, is one call of the area kernel `_area_sum`: it adds
conj(v) * (w - o) - v * conj(w - o) over many pairs (v, w) in one
accumulator at the common level, with the base point o taken out by
bilinearity, one product with the sum of the v instead of one
subtraction w - o per pair.  `_displacement` gives the image of a
rotation minus the point in the same way as `exactnum._rotate` gives the
image.

Only `enumerate` (through `families`) and the `verify cocycle` and
`verify weights` suites load this module, so no other command compiles
it.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import lcm

from .exactnum import Cyc, Turn, _fold, _normal
from .geom import ORIGIN, Point, polygon_vertices
from .quandle import ROT, RotElem


# ---------------------------------------------------------------------------
# the kernels


def _displacement(z: Cyc, c: Cyc, num: int, den: int) -> Cyc:
    """(zeta_den^num - 1) * (z - c): how far z moves when turned about c by
    num/den of a turn, `_rotate(z, c, num, den) - z` in one accumulator at
    the same level n.  Each coordinate of z - c goes in at its exponent
    shifted by s and, negated, unshifted; one fold and one gcd."""
    n = lcm(z.level, c.level, den)
    s = num * (n // den) % n
    zd, cd = z.den, c.den
    mz, mc, d = (1, 1, zd) if zd == cd else (cd, zd, zd * cd)
    acc = [0] * n
    for x, m in ((z, mz), (c, -mc)):
        step = n // x.level
        for e, y in enumerate(x.num):
            if y:
                y *= m
                e *= step
                acc[(e + s) % n] += y
                acc[e] -= y
    return Cyc._raw(n, *_normal(_fold(n, acc), d))


def _area_sum(pairs: Sequence[tuple[Cyc, Cyc]], o: Cyc = ORIGIN) -> Cyc:
    """The sum of conj(v) * (w - o) - v * conj(w - o) over the (v, w)
    pairs, 4i times the signed areas of the triangles (0, v, w - o), in
    one accumulator at n, the lcm of o's level and all the pairs' levels
    (zero at level 1 when there are no pairs).  That is the level each
    w - o has, o zero or not, so the result has the (level, num, den) of
    subtracting o first.  conj(v) * w puts v_e * w_f at exponent
    f*n/w.level - e*n/v.level mod n, and v * conj(w) at its negative.  By
    bilinearity o enters once, as conj(V) * o - V * conj(o) subtracted,
    with V the sum of the v."""
    n = lcm(*(x.level for v, w in pairs for x in (v, w, o)))
    od = o.den
    d = lcm(*(v.den * lcm(w.den, od) for v, w in pairs))
    acc = [0] * n
    for v, w in pairs:
        m, sv, sw = d // (v.den * w.den), n // v.level, n // w.level
        tw = [(f * sw, y * m) for f, y in enumerate(w.num) if y]
        for e, x in enumerate(v.num):
            if x:
                e *= sv
                for f, y in tw:
                    acc[(f - e) % n] += x * y
    so = n // o.level
    to = [(g * so, z) for g, z in enumerate(o.num) if z]
    if to:
        vsum = [0] * n  # V, over d / od
        for v, _ in pairs:
            m, sv = d // (v.den * od), n // v.level
            for e, x in enumerate(v.num):
                if x:
                    vsum[e * sv] += x * m
        for e, x in enumerate(vsum):
            if x:
                for g, z in to:
                    acc[(g - e) % n] -= x * z
    acc = [c - acc[-k] for k, c in enumerate(acc)]
    return Cyc._raw(n, *_normal(_fold(n, acc), d))


# ---------------------------------------------------------------------------
# signed areas


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
    kernel `_area_sum` on the one pair (y - x, z - x); for (0, 1, i) this
    gives scaled 2i, area +1/2.  Degenerate triangles give exact zero.
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


@lru_cache(maxsize=None)
def polygon_area(m: int, k: int, side=1) -> Cyc:
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


# ---------------------------------------------------------------------------
# the cocycle


def cocycle_phi(o: Point, x: RotElem, y: RotElem) -> Cyc:
    """The area two-cocycle on the rotation quandle.

    Phi_o(x, y) = -s(o, a, c) + s(o, b, c) with a = x.center, c = y.center
    and b the image of a under y, an exact signed-area value.  Phi_o(x, x)
    = 0 and the cocycle relation hold identically; total crossing weights
    built from it do not depend on o.

    The two triangles share o and c, and 4i * s(o, v, c) = t - conj(t)
    with t = conj(v - o) * (c - o), so the sum is u - conj(u) for the one
    term u = conj(b - a) * (c - o): the area kernel `_area_sum` on the one
    pair `_phi_pair(x, y)` with base point o.  The kernel works at the
    level c - o would have, so the value comes out at the two triangles'
    level with the same (num, den).
    """
    return _area_sum([_phi_pair(x, y)], o)


def _phi_pair(x: RotElem, y: RotElem) -> tuple[Point, Point]:
    """(b - a, c), the pair whose area term with base point o is
    Phi_o(x, y); (a - b, c) gives -Phi_o(x, y).  It does not depend on o,
    which the area kernel subtracts from c.  b - a = (zeta - 1)(a - c) for
    zeta the unit of y's angle, one kernel call (`_displacement`)."""
    a, c, t = x.center, y.center, y.angle
    return _displacement(a, c, t.numerator, t.denominator), c


def verify_qc1(o: Point, x: RotElem, y: RotElem, z: RotElem) -> Cyc:
    """f(x,y) + f(x*y, z) - f(x,z) - f(x*z, y*z) with f = Phi_o.

    The cocycle condition: the result is exactly zero for every input.
    The four terms' pairs (`_phi_pair`, the negative two as (-v, w), since
    o is subtracted from the second member only) go to the area kernel
    together with o, as in `total_weight`.
    """
    xy = ROT.op(x, y)
    xz = ROT.op(x, z)
    yz = ROT.op(y, z)
    plus = [_phi_pair(x, y), _phi_pair(xy, z)]
    minus = [_phi_pair(x, z), _phi_pair(xz, yz)]
    return _area_sum(plus + [(-v, w) for v, w in minus], o)


# ---------------------------------------------------------------------------
# the weights of colorings


def total_weight(c, o: Point) -> Cyc:
    """Sum of signed cocycle values over the crossings of the diagram of
    c, a rotation-quandle `diagram.Coloring`.

    Each crossing contributes sign * Phi_o(color(arc_x), color(arc_over));
    the total does not depend on o.  A crossing's pair (`_phi_pair`,
    (-v, w) for sign -1) does not depend on o either, so the coloring
    builds its pairs once and keeps them; each base point is then one
    call of the area kernel `_area_sum`: one accumulator and one fold.
    """
    pairs = c._pairs
    if pairs is None:
        d, colors = c.diagram, c._colors
        pairs = [_phi_pair(colors[x], colors[over]) for x, over, _ in d.crossings]
        if d.sign < 0:
            pairs = [(-v, w) for v, w in pairs]
        c._pairs = pairs
    return _area_sum(pairs, o)


def closed_form_weight(p: int, q: int, k: int, l: int, side=1) -> Cyc:
    """sign * (S(P0) * |q| - S(Q) * |p|), where P0 is the moving polygon of
    type (|p|, k), Q the base polygon of type (|q|, l), both with edge
    `side`, and sign that of pq; their anchors do not enter."""
    ap, aq = abs(p), abs(q)
    val = polygon_area(ap, k, side) * aq - polygon_area(aq, l, side) * ap
    return val if p * q > 0 else -val
