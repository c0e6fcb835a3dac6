"""The rotation quandle of the plane.

A quandle exposes `op` (written x * y in the literature), its inverse
`inv_op`, and exact element equality.  The rotation quandle is infinite
and never enumerates; the finite dihedral quandles, which only the
`verify` suites use, live in `verify`, and its area two-cocycle lives in
`cocycle`.
"""

from __future__ import annotations

from .exactnum import Turn, _rotate
from .geom import Point, rotate
from .value import Frozen


class RotElem(Frozen):
    """A rotation of the plane: center point and a rational turn."""

    __slots__ = _fields = ("center", "angle")

    def __init__(self, center: Point, angle: Turn):
        _set_center(self, center)
        _set_angle(self, angle)


_set_center, _set_angle = RotElem._stores


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
