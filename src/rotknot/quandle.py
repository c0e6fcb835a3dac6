"""Quandles: the dihedral family and the rotation quandle of the plane.

A quandle exposes `op` (written x * y in the literature), its inverse
`inv_op`, and exact element equality.  Finite instances additionally
enumerate their elements, which is what brute-force coloring search
needs; the rotation quandle is infinite and never enumerates.
"""

from __future__ import annotations

from .exactnum import Cyc, Turn, _area_sum
from .geom import Point, rotate
from .value import Frozen


class DihedralElem(Frozen):
    """An element of the dihedral quandle on Z/nZ."""

    __slots__ = _fields = ("n", "value")

    def __init__(self, n: int, value: int):
        if n < 3:
            raise ValueError("dihedral quandle needs n >= 3")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value % n)


class DihedralQuandle:
    """x * y = 2y - x mod n; involutory, so inv_op coincides with op."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("dihedral quandle needs n >= 3")
        self.n = n

    def _check(self, *xs: DihedralElem):
        for x in xs:
            if not isinstance(x, DihedralElem) or x.n != self.n:
                raise ValueError(f"element {x!r} not in dihedral quandle of order {self.n}")

    def op(self, x: DihedralElem, y: DihedralElem) -> DihedralElem:
        self._check(x, y)
        return DihedralElem(self.n, 2 * y.value - x.value)

    def inv_op(self, x: DihedralElem, y: DihedralElem) -> DihedralElem:
        return self.op(x, y)

    def elements(self) -> list[DihedralElem]:
        return [DihedralElem(self.n, v) for v in range(self.n)]

    def __repr__(self) -> str:
        return f"DihedralQuandle({self.n})"


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
        return RotElem(rotate(x.center, y.center, -y.angle), x.angle)

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
    on the one pair `_phi_pair(o, x, y)`.  Its operands span the same
    levels as the two triangles', so the value comes out at the same
    level with the same (num, den).
    """
    return _area_sum([_phi_pair(o, x, y)])


def _phi_pair(o: Point, x: RotElem, y: RotElem) -> tuple[Point, Point]:
    """(b - a, c - o), the pair whose area term is Phi_o(x, y); swapped,
    it gives -Phi_o(x, y)."""
    a, c = x.center, y.center
    return rotate(a, c, y.angle) - a, c - o


def verify_qc1(o: Point, x: RotElem, y: RotElem, z: RotElem) -> Cyc:
    """f(x,y) + f(x*y, z) - f(x,z) - f(x*z, y*z) with f = Phi_o.

    The cocycle condition: the result is exactly zero for every input.
    """
    f = cocycle_phi
    xy = ROT.op(x, y)
    xz = ROT.op(x, z)
    yz = ROT.op(y, z)
    return f(o, x, y) + f(o, xy, z) - f(o, x, z) - f(o, xz, yz)
