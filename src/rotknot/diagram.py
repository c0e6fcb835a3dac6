"""Torus-knot diagrams, colorings, and generic moves.

The numbers of a coloring family (k, l) of D(p, q) live here too, so that
`enumerate` reads them without building a trochoid: its rolling turn
`theta`, its reduced types p', q' and its `lattice_alpha`.

The diagram D(p, q) is realized as the closure of the |p|-strand braid
(sigma_1 ... sigma_{|p|-1})^{|q|}: arcs carry labels a_{ij} for
0 <= i < |q|, 0 <= j < |p|, with a_{i0} and a_{[i+1], |p|-1} marking the
same arc.  Row i contributes |p|-1 crossings, all of sign +1 when
pq > 0 and -1 otherwise; in each of them the long arc a_{i0} passes
over.  The incidence below is the one validated by trochoid-derived
colorings and by the dihedral coloring counts of the trefoil.

A crossing is the triple (arc_x, arc_over, arc_xy) of its representative
arcs, with color(arc_xy) = color(arc_x) * color(arc_over) whatever its
sign, which is the diagram's and decides only which of arc_x / arc_xy is
the incoming under-arc.  `TorusDiagram` builds its arc, crossing and
shift tables once, from (p, q) alone; `_propagate` is the one walk over
the crossings.  The cocycle weights of a coloring are in `cocycle`.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from math import gcd, prod

from .exactnum import Turn, brief_int
from .value import Frozen

# an arc label (i, j); representative labels have 0 <= j <= |p|-2
Arc = tuple[int, int]


def check_torus_type(p: int, q: int) -> None:
    """ValueError unless |p|, |q| >= 2 and p, q are coprime; builds nothing."""
    if abs(p) < 2 or abs(q) < 2:
        raise ValueError("need |p|, |q| >= 2")
    if gcd(p, q) != 1:
        raise ValueError(f"({brief_int(p)}, {brief_int(q)}) is not coprime")


class TorusDiagram(Frozen):
    """The diagram D(p, q) with its arc, crossing and shift tables, built
    once in the constructor; equality, hash, repr and pickling use (p, q)
    alone, and `build_diagram` keeps one diagram per (p, q).

    `crossings` holds the (arc_x, arc_over, arc_xy) triples row by row:
    crossing t of row i, 1 <= t <= |p|-1, has index i*(|p|-1) + t-1, and
    every crossing's sign is `sign`.  `shift_sources` holds the
    representative arc a_{[i+1], j} of each arc a_{ij} of `rep_arcs`, in
    the same order: `shift_generic` gives each arc the old color of its
    source.
    """

    _fields = ("p", "q")
    __slots__ = _fields + (
        "abs_p", "abs_q", "sign", "rep_arcs", "crossings", "shift_sources"
    )

    def __init__(self, p: int, q: int):
        check_torus_type(p, q)
        ap, aq = abs(p), abs(q)
        arcs = tuple((i, j) for i in range(aq) for j in range(ap - 1))
        # `rep` of the arcs a_{i,t}, a_{i,0}, a_{i+1,t-1} of each crossing and
        # of the shift sources a_{i+1,j}: only a_{i,|p|-1} becomes a_{i-1,0}
        crossings = tuple(
            (((i - 1) % aq, 0) if t == ap - 1 else (i, t), (i, 0), ((i + 1) % aq, t - 1))
            for i in range(aq)
            for t in range(1, ap)
        )
        sources = tuple(((i + 1) % aq, j) for i, j in arcs)
        self._fill(p, q, ap, aq, 1 if p * q > 0 else -1, arcs, crossings, sources)

    def rep(self, i: int, j: int) -> Arc:
        """Representative label of the arc a_{ij}."""
        i, j = i % self.abs_q, j % self.abs_p
        return ((i - 1) % self.abs_q, 0) if j == self.abs_p - 1 else (i, j)


@lru_cache(maxsize=None)
def build_diagram(p: int, q: int) -> TorusDiagram:
    return TorusDiagram(p, q)


class Coloring:
    """An assignment of quandle elements to the arcs of a diagram.

    Stored on representative labels, in arc order; `color` resolves any
    a_{ij}.  Equality and hashing use the diagram and that assignment;
    `_pairs`, the signed crossing pairs `cocycle.total_weight` fills on
    first use, enters neither, nor the repr.
    """

    __slots__ = ("diagram", "quandle", "_colors", "_pairs")

    def __init__(self, diagram: TorusDiagram, quandle, colors: dict[Arc, object]):
        try:
            self._colors = {a: colors[a] for a in diagram.rep_arcs}
        except KeyError:
            missing = [a for a in diagram.rep_arcs if a not in colors]
            raise ValueError(f"missing colors for arcs {missing}") from None
        self.diagram = diagram
        self.quandle = quandle
        self._pairs = None

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
        return self.diagram == other.diagram and self._colors == other._colors

    def __hash__(self):
        return hash((self.diagram, *self._colors.values()))

    def __repr__(self) -> str:
        return f"Coloring(D({self.diagram.p},{self.diagram.q}), {len(self._colors)} arcs)"


def check_coloring(c: Coloring) -> None:
    """Check the coloring condition at every crossing, exactly; raise
    ValueError naming the first crossing where c is not valid."""
    d = c.diagram
    # every arc is colored already, so the walk only compares
    bad = _propagate(d, c.quandle.op, c._colors)
    if bad is not None:
        row, t = divmod(bad, d.abs_p - 1)
        arc_x, arc_over, arc_xy = d.crossings[bad]
        raise ValueError(
            f"not a valid coloring of D({d.p},{d.q}): "
            f"crossing (row {row}, t {t + 1}): color{arc_xy} differs "
            f"from color{arc_x} * color{arc_over}"
        )


def _propagate(diagram: TorusDiagram, op, colors: dict[Arc, object]) -> int | None:
    """Color every arc from row 0 by the crossing condition, in place;
    the index in `diagram.crossings` of the first crossing that clashes
    with a color already set, or None."""
    for n, (x, over, xy) in enumerate(diagram.crossings):
        val = op(colors[x], colors[over])
        if colors.setdefault(xy, val) != val:
            return n
    return None


# ---------------------------------------------------------------------------
# the numbers of a coloring family


def theta(m: int, k: int, n: int, l: int) -> Turn:
    """The rolling turn for a type-(m,k) polygon around a type-(n,l) one.

    Equals ((m-2k)/m - (n-2l)/n)/2 of a full turn, i.e. l/n - k/m.  The
    family (k, l) of D(p, q) rolls with theta(|p|, k, |q|, l).
    """
    return Turn(l * m - k * n, n * m)


def reduced_types(p: int, q: int, k: int, l: int) -> tuple[int, int]:
    """The reduced types (p', q') = (|p| / gcd(|p|, k), |q| / gcd(|q|, l))
    of the family (k, l) of D(p, q)."""
    ap, aq = abs(p), abs(q)
    return ap // gcd(ap, k), aq // gcd(aq, l)


def lattice_alpha(p: int, q: int, k: int, l: int) -> int:
    """alpha = p'q'/2 when p'q' is even and p'q' when it is odd: the anchor
    lattice of the family (k, l) of D(p, q) is spanned by 2*alpha unit
    directions."""
    pq = prod(reduced_types(p, q, k, l))
    return pq // 2 if pq % 2 == 0 else pq


# ---------------------------------------------------------------------------
# generic moves (any quandle)


def shift_generic(c: Coloring) -> Coloring:
    """The row-rotation relabeling induced by the planar isotopy that
    slides the braid closure one over-strand forward: the new color of
    a_{ij} is the old color of a_{[i+1], j}."""
    d, colors = c.diagram, c._colors
    new_colors = dict(zip(d.rep_arcs, [colors[a] for a in d.shift_sources]))
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
    if _propagate(nd, c.quandle.op, colors) is not None:
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
