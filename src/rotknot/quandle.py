"""The rotation quandle of the plane and its area two-cocycle.

A quandle exposes `op` (written x * y in the literature), its inverse
`inv_op`, and exact element equality.  The rotation quandle is infinite
and never enumerates; the finite dihedral quandles, which only the
`verify` suites use, live in `verify`.
"""

from __future__ import annotations

from .exactnum import Cyc, Turn, _area_sum, _displacement, _rotate
from .geom import Point, rotate
from .value import Frozen


class RotElem(Frozen):
    """A rotation of the plane: center point and a rational turn."""

    __slots__ = _fields = ("center", "angle")

    def __init__(self, center: Point, angle: Turn):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "angle", angle)


class RotQuandle:
    """Rotations of the plane under conjugation.

    x * y applies the rotation y to the center of x and keeps the angle
    of x: the conjugate y x y^{-1} of a rotation x is again a rotation,
    by the same angle, about the image of the center.
    """

    def op(self, x: RotElem, y: RotElem) -> RotElem:
        """x * y: x's center rotated about y's center by y's angle; x's
        angle is kept.

        Both centers are lifted once, to the lcm of their levels and the
        angle's denominator, where the rotation is a shift of exponents
        (`geom.rotate`).
        """
        return RotElem(rotate(x.center, y.center, y.angle), x.angle)

    def inv_op(self, x: RotElem, y: RotElem) -> RotElem:
        """x * y^-1: x's center turned back by y's angle, with no negated
        `Turn` built."""
        t = y.angle
        return RotElem(_rotate(x.center, y.center, -t.numerator, t.denominator), x.angle)

    def __repr__(self) -> str:
        return "RotQuandle()"


ROT = RotQuandle()


def cocycle_phi(o: Point, x: RotElem, y: RotElem) -> Cyc:
    """The area two-cocycle on the rotation quandle.

    Phi_o(x, y) = -s(o, a, c) + s(o, b, c) with a = x.center, c = y.center
    and b the image of a under y, an exact signed-area value.  Phi_o(x, x)
    = 0 and the cocycle relation hold identically; total crossing weights
    built from it do not depend on o.

    The two triangles share o and c, and 4i * s(o, v, c) = t - conj(t)
    with t = conj(v - o) * (c - o), so the sum is u - conj(u) for the one
    term u = conj(b - a) * (c - o): the area kernel `exactnum._area_sum`
    on the one pair `_phi_pair(x, y)` with base point o.  The kernel
    works at the level c - o would have, so the value comes out at the
    two triangles' level with the same (num, den).
    """
    return _area_sum([_phi_pair(x, y)], o)


def _phi_pair(x: RotElem, y: RotElem) -> tuple[Point, Point]:
    """(b - a, c), the pair whose area term with base point o is
    Phi_o(x, y); (a - b, c) gives -Phi_o(x, y).  It does not depend on o,
    which the area kernel subtracts from c.  b - a = (zeta - 1)(a - c) for
    zeta the unit of y's angle, one kernel call (`exactnum._displacement`)."""
    a, c, t = x.center, y.center, y.angle
    return _displacement(a, c, t.numerator, t.denominator), c
