"""Trochoids, their deformations, the anchor lattice, and the classifier.

A trochoid rolls a regular polygon of type (|p|, k) around a base
polygon of type (|q|, l), both sharing an anchored first edge, rotating
by the fixed turn theta at each of the |q| base vertices.  Every
non-trivial rotation-quandle coloring of D(p, q) arises this way, and
the deformation moves (shift, switch, and their composite, the
fundamental deformation) act on trochoids by simple updates of the
anchored edge.  The classifier decides when two trochoids produce
R-equivalent colorings, exactly when the parity invariant p'q' allows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .diagram import (
    Coloring,
    breadth_first,
    build_diagram,
    check_coloring,
    check_torus_type,
    lattice_alpha,
    reduced_types,
    shift_generic,
    switch_generic,
    theta,
)
from .exactnum import (
    ContradictionError,
    Cyc,
    HALF_TURN,
    Turn,
    _descend,
    check_level_cap,
    cyc_root,
    enumerate_unit_elements,
    turn_from_json,
    turn_to_json,
    turn_to_root,
)
from .geom import (
    ORIGIN,
    Point,
    point_from_json,
    point_to_json,
    polygon_vertices,
    rotate,
)
from .quandle import ROT, RotElem
from .value import Frozen


class TrochoidSpec(Frozen):
    """Parameters of a trochoid: diagram indices, polygon types, and the
    anchored first edge.

    `chirality` +1 means the polygons walk off the stored edge as given;
    -1 selects the mirror pair through the same segment, which is the
    same as re-anchoring at the far endpoint with the direction
    reversed.  `resolved()` performs that normalization; everything
    geometric is built from the resolved anchor and direction.
    """

    __slots__ = _fields = (
        "p", "q", "k", "l", "anchor", "direction", "side", "chirality"
    )

    def __init__(
        self,
        p: int,
        q: int,
        k: int,
        l: int,
        anchor: Point = ORIGIN,
        direction: Turn = Turn(0),
        side: Fraction = Fraction(1),
        chirality: int = 1,
    ):
        check_torus_type(p, q)
        if not 1 <= k <= abs(p) - 1:
            raise ValueError(f"k={k} outside [1, {abs(p) - 1}]")
        if not 1 <= l <= abs(q) - 1:
            raise ValueError(f"l={l} outside [1, {abs(q) - 1}]")
        if type(side) is not Fraction:
            side = Fraction(side)
        if side <= 0:
            raise ValueError("side must be positive")
        if chirality not in (1, -1):
            raise ValueError("chirality must be +1 or -1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "chirality", chirality)

    # -- derived quantities ---------------------------------------------------

    @property
    def abs_p(self) -> int:
        return abs(self.p)

    @property
    def abs_q(self) -> int:
        return abs(self.q)

    @property
    def p_prime(self) -> int:
        return reduced_types(self.p, self.q, self.k, self.l)[0]

    @property
    def q_prime(self) -> int:
        return reduced_types(self.p, self.q, self.k, self.l)[1]

    @property
    def l_prime(self) -> int:
        return self.l // gcd(self.abs_q, self.l)

    @property
    def theta(self) -> Turn:
        return theta(self.abs_p, self.k, self.abs_q, self.l)

    @property
    def alpha(self) -> int:
        return lattice_alpha(self.p, self.q, self.k, self.l)

    def resolved(self) -> tuple[Point, Turn]:
        """The (anchor, direction) of the actual first edge walk."""
        if self.chirality == 1:
            return (self.anchor, self.direction)
        return _walk(self.anchor, self.direction, self.side, HALF_TURN)

    def canonical_key(self):
        """Exact identity of the trochoid: chirality folded into the
        resolved edge, anchor in minimal form."""
        a, d = self.resolved()
        return (
            self.p,
            self.q,
            self.k,
            self.l,
            self.side,
            d.fraction,
            a.sort_key(),
        )


def same_trochoid(a: TrochoidSpec, b: TrochoidSpec) -> bool:
    return a.canonical_key() == b.canonical_key()


def session_level(spec: TrochoidSpec) -> int:
    """The level checked against QT_SESSION_LEVEL_CAP for one trochoid.

    lcm(2 p'q', |p|, |q|, 4) joined with the denominators already present
    in the spec's anchor and direction; the 4 covers the half turn of
    chirality -1.  Nothing computes at this level: it is read off the
    stored fields so that callers can check the cap before any
    cyclotomic arithmetic.
    """
    level = lcm(
        2 * spec.p_prime * spec.q_prime,
        spec.abs_p,
        spec.abs_q,
        4,
        spec.anchor.level,
        spec.direction.denominator,
    )
    return check_level_cap(level)


# ---------------------------------------------------------------------------
# construction


def build_trochoid(spec: TrochoidSpec) -> tuple[list[Point], list[list[Point]]]:
    """The base polygon v and the |q| rolled polygons; rows[i][j] is the
    vertex w_{ij}.

    The base polygon, of type (|q|, l), and row 0, the moving polygon of
    type (|p|, k), both walk off the resolved anchored edge; row i arises
    from row i-1 by the exact rotation about the base vertex v_{[i]}.
    The shared-vertex postconditions and the labeled closure
    w_{|q|, j} = w_{0, [j - |q|]} are checked exactly.
    """
    session_level(spec)
    ap, aq = spec.abs_p, spec.abs_q
    a, d = spec.resolved()
    v = polygon_vertices(aq, spec.l, a, d, spec.side)
    th = spec.theta
    rows = [polygon_vertices(ap, spec.k, a, d, spec.side)]
    for i in range(1, aq):
        center = v[i % aq]
        rows.append([rotate(w, center, th) for w in rows[-1]])
    for i in range(aq):
        if rows[i][i % ap] != v[i % aq] or rows[i][(i + 1) % ap] != v[(i + 1) % aq]:
            raise ContradictionError(
                f"row {i} does not touch the base polygon at vertices "
                f"{i % aq}, {(i + 1) % aq}"
            )
    closing = [rotate(w, v[0], th) for w in rows[-1]]
    for j in range(ap):
        if closing[j] != rows[0][(j - aq) % ap]:
            raise ContradictionError("trochoid does not close up")
    return v, rows


def trochoid_vertices(spec: TrochoidSpec) -> list[Point]:
    """All vertices of the trochoid diagram: base polygon then all rows."""
    base, rows = build_trochoid(spec)
    return base + [w for row in rows for w in row]


def derive_coloring(spec: TrochoidSpec) -> Coloring:
    """The rotation-quandle coloring read off the trochoid.

    The arc a_{ij} is colored by the rotation about w_{i, [i+j+1]} by the
    rolling turn theta.
    """
    _, rows = build_trochoid(spec)
    ap = spec.abs_p
    th = spec.theta
    d = build_diagram(spec.p, spec.q)
    colors = {
        (i, j): RotElem(rows[i][(i + j + 1) % ap], th) for (i, j) in d.rep_arcs
    }
    return Coloring(d, ROT, colors)


# ---------------------------------------------------------------------------
# moves


def _walk(
    anchor: Point, direction: Turn, side: Fraction, turn: Turn
) -> tuple[Point, Turn]:
    """One edge step of a move: the far end of the edge of length side
    leaving anchor in direction, and that direction turned by turn."""
    return (anchor + turn_to_root(direction) * side, direction + turn)


def shift(spec: TrochoidSpec) -> TrochoidSpec:
    """Re-anchor at the next base vertex; the moving polygon becomes the
    next rolled copy.  Derived colorings transform by the generic shift."""
    a, d = _walk(*spec.resolved(), spec.side, Turn(spec.l, spec.abs_q))
    return TrochoidSpec(spec.p, spec.q, spec.k, spec.l, a, d, spec.side, 1)


def switch(spec: TrochoidSpec) -> TrochoidSpec:
    """Exchange the roles of the two polygons; lands on D(q, p).

    The new base polygon is the reversed moving polygon (type
    (|p|, |p|-k)) anchored at the far end of the shared edge; applying
    switch twice gives back the original trochoid.
    """
    a, d = _walk(*spec.resolved(), spec.side, HALF_TURN)
    return TrochoidSpec(
        spec.q, spec.p, spec.abs_q - spec.l, spec.abs_p - spec.k, a, d, spec.side, 1
    )


def flip_chirality(spec: TrochoidSpec) -> TrochoidSpec:
    """The mirror trochoid through the same anchored segment."""
    return TrochoidSpec(
        spec.p,
        spec.q,
        spec.k,
        spec.l,
        spec.anchor,
        spec.direction,
        spec.side,
        -spec.chirality,
    )


def fundamental_deformation(spec: TrochoidSpec) -> TrochoidSpec:
    """switch, then shift, then switch, then shift.

    Fixes the resolved anchor exactly and advances the direction by
    theta, so it acts on the whole trochoid diagram as the theta-rotation
    about the center point; its order is exactly p'q'.
    """
    return shift(switch(shift(switch(spec))))


def center_point(spec: TrochoidSpec) -> Point:
    """The fixed point of the fundamental deformation (the resolved anchor)."""
    return spec.resolved()[0]


def apply_move(spec: TrochoidSpec, move: str) -> TrochoidSpec:
    if move == "shift":
        return shift(spec)
    if move == "switch":
        return switch(spec)
    raise ValueError(f"unknown move {move!r}")


class MoveSeq(Frozen):
    """An ordered word in the moves shift and switch."""

    __slots__ = _fields = ("moves",)

    def __init__(self, moves: tuple[str, ...] = ()):
        for m in moves:
            if m not in ("shift", "switch"):
                raise ValueError(f"unknown move {m!r}")
        object.__setattr__(self, "moves", moves)

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    def to_json(self) -> list[str]:
        return list(self.moves)


def replay_spec(moves: MoveSeq, spec: TrochoidSpec) -> TrochoidSpec:
    out = spec
    for m in moves:
        out = apply_move(out, m)
    return out


def replay(moves: MoveSeq, c: Coloring) -> Coloring:
    """Apply the generic coloring moves in order.

    c is checked once; shift and switch keep a coloring valid.
    """
    check_coloring(c)
    out = c
    for m in moves:
        out = shift_generic(out) if m == "shift" else switch_generic(out)
    return out


# ---------------------------------------------------------------------------
# the anchor lattice and direction sets


class LatticeSpec(Frozen):
    """The integer span of the 2*alpha unit directions at the anchor.

    Reachable anchors of a trochoid under the moves all lie in
    base_point + side * Z[zeta_{2 alpha}] * u(base_direction).
    """

    __slots__ = _fields = ("alpha", "base_point", "base_direction", "side")

    def __init__(
        self,
        alpha: int,
        base_point: Point,
        base_direction: Turn,
        side: Fraction = Fraction(1),
    ):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "base_point", base_point)
        object.__setattr__(self, "base_direction", base_direction)
        object.__setattr__(self, "side", side)

    @property
    def level(self) -> int:
        return 2 * self.alpha


def lattice_for(spec: TrochoidSpec) -> LatticeSpec:
    a, d = spec.resolved()
    return LatticeSpec(spec.alpha, a, d, spec.side)


def lattice_generators(lat: LatticeSpec) -> list[Cyc]:
    """The 2*alpha unit vectors v_sigma at angles base_direction + sigma/(2 alpha)."""
    u = turn_to_root(lat.base_direction)
    return [u * cyc_root(lat.level, s) for s in range(lat.level)]


def _lattice_coordinate(lat: LatticeSpec, w: Point) -> Cyc | None:
    """The integral x with w = base + side * x * u(base_direction), at its
    least level, or None when w is not in the lattice."""
    u = turn_to_root(lat.base_direction)
    x = (w - lat.base_point) * u.conj() / lat.side
    if not x.is_integral():
        return None
    x = _descend(x)
    return x if lat.level % x.level == 0 else None


def lattice_contains(lat: LatticeSpec, w: Point) -> bool:
    """Whether w = base + side * (integral element) * u(base_direction)."""
    return _lattice_coordinate(lat, w) is not None


def unit_neighbors(lat: LatticeSpec, w: Point, *, verify: bool = False) -> list[Point]:
    """The lattice points at distance `side` from w: exactly w + side*v_sigma.

    With verify=True the claim is re-established by the complete unit
    enumeration: the unit-modulus integers of the lattice's level are
    exactly the 2*alpha displacement vectors and nothing else.
    """
    if not lattice_contains(lat, w):
        raise ValueError("point is not in the lattice")
    gens = lattice_generators(lat)
    if verify:
        units = enumerate_unit_elements(lat.level)
        expect = {cyc_root(lat.level, s) for s in range(lat.level)}
        if set(units) != expect or len(units) != lat.level:
            raise ContradictionError(
                "unit scan disagrees with the 2*alpha neighbor claim"
            )
    return [w + lat.side * g for g in gens]


def v_sets_sigma_tau(spec: TrochoidSpec, sigma: int = 0) -> tuple[frozenset[int], frozenset[int]]:
    """Direction indices reachable from sigma, and from its switch-partner tau.

    Both sets have exactly p'q' elements; for even p'q' they coincide
    with the full index set, for odd p'q' they are the two parity
    classes, disjoint with union everything.
    """
    a2 = 2 * spec.alpha
    pq = spec.p_prime * spec.q_prime
    beta = (Fraction(a2) * spec.theta.fraction) % a2
    if beta.denominator != 1:
        raise ContradictionError("2*alpha*theta is not an integer")
    beta = int(beta)
    e_step = (a2 // spec.q_prime) * spec.l_prime
    tau = (sigma + (spec.q_prime - 1) * e_step + spec.alpha) % a2
    v_sigma = frozenset((sigma + r * beta) % a2 for r in range(pq))
    v_tau = frozenset((tau + r * beta) % a2 for r in range(pq))
    return v_sigma, v_tau


# ---------------------------------------------------------------------------
# witness search and classification


KL_MISMATCH = "KLMismatch"
SIDE_MISMATCH = "SideLengthMismatch"
LATTICE_MISMATCH = "LatticeMismatch"


class ClassificationResult(Frozen):
    """Verdict of the R-equivalence test for two trochoid colorings."""

    __slots__ = _fields = ("verdict", "witness", "reason", "note")

    def __init__(
        self,
        verdict: str,  # "Equivalent" | "NotEquivalent" | "Undetermined"
        witness: MoveSeq | None = None,
        reason: str | None = None,
        note: str = "",
    ):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "note", note)

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.reason is not None:
            out["reason"] = self.reason
        if self.note:
            out["note"] = self.note
        return out


def state_key(level: int):
    """The key function identifying trochoid states exactly by integers,
    for states whose resolved anchors lie at levels dividing `level`.

    A key holds the parameters, the side, the resolved direction and the
    (num, den) of the resolved anchor lifted to `level`.  Equal values
    at one level have identical (num, den), so the keys tell states
    apart exactly as `canonical_key` does, without descending to least
    levels or building fractions.  Every anchor that moves reach from a
    spec lies at a level dividing its `session_level`; an anchor outside
    `level` raises LevelError.
    """

    def key(spec: TrochoidSpec):
        a, d = spec.resolved()
        a = a.lift(level)
        side, turn = spec.side, d.fraction
        return (
            spec.p, spec.q, spec.k, spec.l, side.numerator, side.denominator,
            turn.numerator, turn.denominator, a.num, a.den,
        )

    return key


def _bfs_witness(a: TrochoidSpec, b: TrochoidSpec, max_moves: int) -> MoveSeq | None:
    """A shortest word of at most max_moves moves carrying a to b, or None."""
    key = state_key(lcm(session_level(a), session_level(b)))
    target = key(b)
    for k, _, word in breadth_first(a, apply_move, key, max_moves):
        if k == target:
            return MoveSeq(word)
    return None


# the word of fundamental_deformation, which acts as the pure rotation (0, theta)
_FD = ("switch", "shift", "switch", "shift")


def _group_witness(a: TrochoidSpec, b: TrochoidSpec) -> MoveSeq | None:
    """A move word carrying a to b, built from the move group, or None
    when b lies outside the group orbit of a.

    A word acts on the resolved (anchor, direction) as a pair (x, r):
    the anchor gains side * u(d) * x and the direction gains r, and
    (x1, r1)(x2, r2) = (x1 + u(r1) x2, r1 + r2).  Shift is (1, l/|q|),
    switch is (1, 1/2), and the fundamental deformation is F = (0, theta)
    with theta of order N = p'q'.  For m with m theta = l/|q|, the words
    step = shift F^(N-m) and back = F^m shift^(q'-1) are the translations
    (1, 0) and (-1, 0), so the group is Z[zeta_N] x| <F>.  Writing
    x = sum_i c_i u(i theta), the Horner word
    step^c_0 F step^c_1 F ... step^c_last reaches b's anchor, and a final
    power of F turns to b's direction.  So b is in the orbit exactly when
    its anchor is in the lattice and its direction is a's plus whole
    turns theta; for odd N the lattice level 2N changes nothing, as a
    minimal level is never 2 mod 4.
    """
    n = a.p_prime * a.q_prime
    lat = lattice_for(a)
    b0, d1 = b.resolved()
    turns = (d1 - lat.base_direction).fraction * n
    x = _lattice_coordinate(lat, b0) if turns.denominator == 1 else None
    if x is None:
        return None
    # u(i theta) = zeta_N^(i j0): the coefficient of zeta_N^e goes to slot e / j0
    inv = pow(int(a.theta.fraction * n), -1, n)
    m = a.l_prime * (n // a.q_prime) * inv % n
    step = ("shift",) + _FD * (n - m)
    back = _FD * m + ("shift",) * (a.q_prime - 1)
    slots = [0] * n
    for e, c in enumerate(x.lift(n).num):
        slots[e * inv % n] = c
    last = max((i for i, c in enumerate(slots) if c), default=0)
    word: list[str] = []
    for i in range(last + 1):
        if i:
            word += _FD
        word += (step if slots[i] > 0 else back) * abs(slots[i])
    word += _FD * ((int(turns) * inv - last) % n)
    return MoveSeq(tuple(word))


def classify(a: TrochoidSpec, b: TrochoidSpec) -> ClassificationResult:
    """Decide whether the colorings of a and b are R-equivalent.

    Necessary conditions first: same (k, l) and same side length; then
    both session levels are checked against the cap.  When
    p'q' is even, membership in the move group decides the question
    (it coincides with the anchor-lattice and direction test); the word
    is a shortest one when one of at most 4 moves exists, and the
    group-built word otherwise.  When p'q' is odd only a breadth-first
    search of at most 12 moves runs; failure to find a word is reported
    as Undetermined, never as NotEquivalent.  Every Equivalent verdict's
    word is replayed against the actual colorings before being returned.
    """
    if (a.p, a.q) != (b.p, b.q):
        raise ValueError("classification needs two colorings of one diagram")
    if (a.k, a.l) != (b.k, b.l):
        return ClassificationResult("NotEquivalent", reason=KL_MISMATCH)
    if a.side != b.side:
        return ClassificationResult("NotEquivalent", reason=SIDE_MISMATCH)

    session_level(a)
    session_level(b)
    pq = a.p_prime * a.q_prime
    if pq % 2 == 0:
        group_word = _group_witness(a, b)
        if group_word is None:
            return ClassificationResult("NotEquivalent", reason=LATTICE_MISMATCH)
        witness = _bfs_witness(a, b, 4)
        if witness is None:
            witness = group_word
    else:
        witness = _bfs_witness(a, b, 12)
        if witness is None:
            v_sigma, v_tau = v_sets_sigma_tau(a)
            note = (
                f"p'q' = {pq} is odd: bounded search found no move word; "
                "the theory leaves this case open. "
                f"Direction classes: V_sigma={sorted(v_sigma)}, V_tau={sorted(v_tau)}"
            )
            return ClassificationResult("Undetermined", note=note)
    if replay(witness, derive_coloring(a)) != derive_coloring(b):
        raise ContradictionError("witness replay failed")
    return ClassificationResult("Equivalent", witness=witness)


# ---------------------------------------------------------------------------
# serialization


def spec_to_json(spec: TrochoidSpec) -> dict:
    return {
        "p": spec.p,
        "q": spec.q,
        "k": spec.k,
        "l": spec.l,
        "anchor": point_to_json(spec.anchor),
        "direction": turn_to_json(spec.direction),
        "chirality": spec.chirality,
        "side": str(spec.side),
    }


def spec_from_json(data: dict) -> TrochoidSpec:
    return TrochoidSpec(
        int(data["p"]),
        int(data["q"]),
        int(data["k"]),
        int(data["l"]),
        point_from_json(data["anchor"]),
        turn_from_json(data["direction"]),
        Fraction(data.get("side", 1)),
        int(data.get("chirality", 1)),
    )
