"""Torus-knot diagrams, colorings, cocycle weights, and generic moves.

The diagram D(p, q) is realized as the closure of the |p|-strand braid
(sigma_1 ... sigma_{|p|-1})^{|q|}: arcs carry labels a_{ij} for
0 <= i < |q|, 0 <= j < |p|, with a_{i0} and a_{[i+1], |p|-1} marking the
same arc.  Row i contributes |p|-1 crossings, all of sign +1 when
pq > 0 and -1 otherwise; in each of them the long arc a_{i0} passes
over.  The incidence below is the one validated by trochoid-derived
colorings and by the dihedral coloring counts of the trefoil.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exactnum import Cyc, _area_sum
from .geom import Point, polygon_area
from .quandle import _phi_pair
from .value import Frozen

# an arc label (i, j); representative labels have 0 <= j <= |p|-2
Arc = tuple[int, int]


class Crossing(Frozen):
    """One crossing of D(p, q).

    The coloring condition is color(arc_xy) = color(arc_x) * color(arc_over)
    regardless of sign; the sign only decides which of arc_x / arc_xy is
    the incoming under-arc.  Weights read the (arc_x, arc_over) slots.
    """

    __slots__ = _fields = ("row", "t", "arc_x", "arc_over", "arc_xy", "sign")

    def __init__(
        self, row: int, t: int, arc_x: Arc, arc_over: Arc, arc_xy: Arc, sign: int
    ):
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "arc_x", arc_x)
        object.__setattr__(self, "arc_over", arc_over)
        object.__setattr__(self, "arc_xy", arc_xy)
        object.__setattr__(self, "sign", sign)


class TorusDiagram(Frozen):
    """The diagram D(p, q); its arc and crossing lists are built on first use."""

    _fields = ("p", "q")
    __slots__ = _fields + ("_rep_arcs", "_crossings")

    def __init__(self, p: int, q: int):
        if abs(p) < 2 or abs(q) < 2:
            raise ValueError("need |p|, |q| >= 2")
        if gcd(p, q) != 1:
            raise ValueError(f"({p}, {q}) is not coprime")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_rep_arcs", None)
        object.__setattr__(self, "_crossings", None)

    @property
    def abs_p(self) -> int:
        return abs(self.p)

    @property
    def abs_q(self) -> int:
        return abs(self.q)

    @property
    def sign(self) -> int:
        return 1 if self.p * self.q > 0 else -1

    def rep(self, i: int, j: int) -> Arc:
        """Representative label of the arc a_{ij}."""
        i %= self.abs_q
        j %= self.abs_p
        if j == self.abs_p - 1:
            return ((i - 1) % self.abs_q, 0)
        return (i, j)

    @property
    def rep_arcs(self) -> tuple[Arc, ...]:
        if self._rep_arcs is None:
            arcs = tuple(
                (i, j) for i in range(self.abs_q) for j in range(self.abs_p - 1)
            )
            object.__setattr__(self, "_rep_arcs", arcs)
        return self._rep_arcs

    @property
    def crossings(self) -> tuple[Crossing, ...]:
        if self._crossings is None:
            crossings = tuple(
                Crossing(
                    row=i,
                    t=t,
                    arc_x=self.rep(i, t),
                    arc_over=self.rep(i, 0),
                    arc_xy=self.rep(i + 1, t - 1),
                    sign=self.sign,
                )
                for i in range(self.abs_q)
                for t in range(1, self.abs_p)
            )
            object.__setattr__(self, "_crossings", crossings)
        return self._crossings


@lru_cache(maxsize=None)
def build_diagram(p: int, q: int) -> TorusDiagram:
    return TorusDiagram(p, q)


class Coloring:
    """An assignment of quandle elements to the arcs of a diagram.

    Stored on representative labels; `color` resolves any a_{ij}.
    Equality and hashing use the representative assignment in arc order.
    """

    __slots__ = ("diagram", "quandle", "_colors", "_key")

    def __init__(self, diagram: TorusDiagram, quandle, colors: dict[Arc, object]):
        reps = diagram.rep_arcs
        missing = [a for a in reps if a not in colors]
        if missing:
            raise ValueError(f"missing colors for arcs {missing}")
        self.diagram = diagram
        self.quandle = quandle
        self._colors = {a: colors[a] for a in reps}
        self._key = (diagram.p, diagram.q, tuple(self._colors[a] for a in reps))

    def color(self, i: int, j: int):
        return self._colors[self.diagram.rep(i, j)]

    @property
    def colors(self) -> dict[Arc, object]:
        return dict(self._colors)

    def is_trivial(self) -> bool:
        vals = list(self._colors.values())
        return all(v == vals[0] for v in vals[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Coloring(D({self.diagram.p},{self.diagram.q}), {len(self._colors)} arcs)"


def check_coloring(c: Coloring) -> None:
    """Check the coloring condition at every crossing, exactly; raise
    ValueError naming the first crossing where c is not valid."""
    q = c.quandle
    for cr in c.diagram.crossings:
        if c.color(*cr.arc_xy) != q.op(c.color(*cr.arc_x), c.color(*cr.arc_over)):
            d = c.diagram
            raise ValueError(
                f"not a valid coloring of D({d.p},{d.q}): "
                f"crossing (row {cr.row}, t {cr.t}): color{cr.arc_xy} differs "
                f"from color{cr.arc_x} * color{cr.arc_over}"
            )


def _propagate(diagram: TorusDiagram, op, colors: dict[Arc, object]) -> bool:
    """Color every arc from row 0 by the crossing condition, in place;
    False as soon as a crossing clashes with a color already set."""
    for cr in diagram.crossings:
        val = op(colors[cr.arc_x], colors[cr.arc_over])
        if colors.setdefault(cr.arc_xy, val) != val:
            return False
    return True


# ---------------------------------------------------------------------------
# cocycle weights


def total_weight(c: Coloring, o: Point) -> Cyc:
    """Sum of signed cocycle values over the crossings of the diagram.

    Each crossing contributes sign * Phi_o(color(arc_x), color(arc_over));
    the total does not depend on o.  All crossings' pairs
    (`quandle._phi_pair`, swapped for sign -1) go to the area kernel
    `exactnum._area_sum` together: one accumulator and one fold.
    """
    pairs = []
    for cr in c.diagram.crossings:
        v, w = _phi_pair(o, c.color(*cr.arc_x), c.color(*cr.arc_over))
        pairs.append((v, w) if cr.sign > 0 else (w, v))
    return _area_sum(pairs)


def closed_form_weight(
    p: int, q: int, k: int, l: int, side: Fraction = Fraction(1)
) -> Cyc:
    """sign * (S(P0) * |q| - S(Q) * |p|), where P0 is the moving polygon of
    type (|p|, k), Q the base polygon of type (|q|, l), both with edge
    `side`, and sign that of pq; their anchors do not enter."""
    ap, aq = abs(p), abs(q)
    val = polygon_area(ap, k, side) * aq - polygon_area(aq, l, side) * ap
    return val if p * q > 0 else -val


# ---------------------------------------------------------------------------
# generic moves (any quandle)


def shift_generic(c: Coloring) -> Coloring:
    """The row-rotation relabeling induced by the planar isotopy that
    slides the braid closure one over-strand forward: the new color of
    a_{ij} is the old color of a_{[i+1], j}."""
    d = c.diagram
    new_colors = {(i, j): c.color(i + 1, j) for (i, j) in d.rep_arcs}
    return Coloring(d, c.quandle, new_colors)


def switch_generic(c: Coloring) -> Coloring:
    """The inside-out move carrying a coloring of D(p,q) to one of D(q,p).

    With Y_s = old color of a_{s, |p|-1}, the paper's new color of a'_{it} is

        Y'(i, t) = C(a_{[-i-t], |p|-1}) * Y_{[1-i]} * Y_{[2-i]} * ... * Y_{[0]}

    (left to right, i factors, indices mod |q|).  Row 0 has no factors;
    `_propagate` fills in the rest, one operation per crossing, and gets
    the same colors.  By Q3, S_i = (. * Y_{[1-i]} * ... * Y_{[0]}) is an
    automorphism, so Y'(i,t) * Y'(i,0) = S_i(C(a_{[-i-t],|p|-1}) * Y_{[-i]})
    = Y'(i+1,t-1), and by Q1 Y'(i+1,|q|-1) = S_i(Y_{[-i]} * Y_{[-i]}) = Y'(i,0).

    c is assumed valid.  Only the long arcs are read, so an invalid c
    raises ValueError only when those arcs alone clash; callers that take
    a coloring from outside check it first with `check_coloring`.
    """
    d = c.diagram
    nd = build_diagram(d.q, d.p)
    colors = {nd.rep(0, t): c.color(-t, d.abs_p - 1) for t in range(d.abs_q)}
    if not _propagate(nd, c.quandle.op, colors):
        raise ValueError(f"switch: not a valid coloring of D({d.p},{d.q})")
    return Coloring(nd, c.quandle, colors)


def breadth_first(start, step, key, max_moves=None):
    """Yield (key, state, word) for every state reachable from start by
    the moves "shift" and "switch", once each and in breadth-first order,
    so every word is a shortest one.

    step(state, move) applies one move and key(state) identifies a state
    exactly; shift is tried before switch, and states max_moves moves away
    are not expanded.  Callers count the yielded states against their
    own budgets.
    """
    k = key(start)
    seen = {k}
    yield k, start, ()
    queue = deque([(start, ())])
    while queue:
        cur, word = queue.popleft()
        if max_moves is not None and len(word) >= max_moves:
            continue
        for move in ("shift", "switch"):
            nxt = step(cur, move)
            k = key(nxt)
            if k not in seen:
                seen.add(k)
                seq = word + (move,)
                yield k, nxt, seq
                queue.append((nxt, seq))
