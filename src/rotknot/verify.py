"""The `verify` suites and the finite-quandle machinery only they use.

Each suite checks one part of the theory exactly and returns (name, ok,
detail) rows: `axioms` the quandle axioms, `cocycle` the two cocycle
conditions, `weights` the direct crossing sum against the closed form,
`appendix` the unit-distance points of the anchor lattices, and `orbit`
the move orbit of a trefoil coloring and the replay of trochoid words.

`cli` imports this module only for `verify`, so no other command
compiles it.  The diagram and trochoid machinery is imported by the
functions that use it, so `axioms`, `cocycle` and `appendix` compile
neither `diagram` nor `trochoid`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactnum import (
    BudgetError,
    Cyc,
    Turn,
    check_level_cap,
    cyc_root,
    enumerate_unit_elements,
)
from .geom import ORIGIN, Point, point_xy
from .quandle import ROT, RotElem, cocycle_phi
from .value import Frozen

SMALL_GRID = [(2, 3), (3, 2), (3, 4), (4, 3)]
FULL_GRID = [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3), (3, 5), (4, 5)]


# ---------------------------------------------------------------------------
# the dihedral quandles and the cocycle condition


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


def verify_qc1(o: Point, x: RotElem, y: RotElem, z: RotElem) -> Cyc:
    """f(x,y) + f(x*y, z) - f(x,z) - f(x*z, y*z) with f = Phi_o.

    The cocycle condition: the result is exactly zero for every input.
    """
    f = cocycle_phi
    xy = ROT.op(x, y)
    xz = ROT.op(x, z)
    yz = ROT.op(y, z)
    return f(o, x, y) + f(o, xy, z) - f(o, x, z) - f(o, xz, yz)


# ---------------------------------------------------------------------------
# finite coloring search and orbits


SEED_BUDGET = 1_000_000


def enumerate_colorings_finite(quandle, diagram) -> list:
    """All valid colorings of the `TorusDiagram` by a finite quandle, as
    `Coloring`s, deterministically ordered.

    Row 0 determines the rest through `diagram._propagate`, shared with
    `switch_generic`, so the search space is |X|^{|p|}, not
    |X|^{arc count}; guarded by SEED_BUDGET.
    """
    from .diagram import Coloring, _propagate

    elements = quandle.elements()
    seeds = [diagram.rep(0, j) for j in range(diagram.abs_p)]
    if len(elements) ** len(seeds) > SEED_BUDGET:
        raise BudgetError(
            f"{len(elements)}^{len(seeds)} seed assignments exceed budget {SEED_BUDGET}; "
            f"verify.SEED_BUDGET = {len(elements) ** len(seeds)} would suffice"
        )
    index = {x: n for n, x in enumerate(elements)}
    found = []
    for combo in itertools.product(elements, repeat=len(seeds)):
        colors = dict(zip(seeds, combo))
        if _propagate(diagram, quandle.op, colors) is None:
            found.append(Coloring(diagram, quandle, colors))
    found.sort(key=lambda c: tuple(index[c.color(*a)] for a in diagram.rep_arcs))
    return found


ORBIT_BUDGET = 10_000


def coloring_orbit(c) -> list:
    """Closure of a `Coloring` under shift and switch, in discovery order.

    Explores both diagram sides but returns only the colorings living on
    the starting diagram, i.e. those reached by an even number of
    switches.  Finite for finite quandles; guarded by ORBIT_BUDGET.
    c is checked once: shift and switch keep a coloring valid.
    """
    from .diagram import breadth_first, check_coloring, shift_generic, switch_generic

    check_coloring(c)
    start_side = (c.diagram.p, c.diagram.q)
    states = breadth_first(
        c,
        lambda x, move: shift_generic(x) if move == "shift" else switch_generic(x),
        lambda x: x,
    )
    same_side = []
    for count, (_, x, _) in enumerate(states):
        if count >= ORBIT_BUDGET:
            raise BudgetError(
                f"coloring orbit exceeded {ORBIT_BUDGET} states; "
                "verify.ORBIT_BUDGET caps it"
            )
        if (x.diagram.p, x.diagram.q) == start_side:
            same_side.append(x)
    return same_side


NODE_BUDGET = 100_000


def orbit_bfs(spec, max_moves: int) -> list[tuple]:
    """Breadth-first closure of a `TrochoidSpec` under shift and switch.

    Expands every state (both diagram sides) within max_moves moves,
    deduplicating exactly by `trochoid.state_key` at the session level,
    and returns the states that live on the original diagram (even
    switch count), each with one shortest move word as a `MoveSeq`, in
    breadth-first order, which does not depend on the hash seed.
    Guarded by NODE_BUDGET expanded states.
    """
    from .diagram import breadth_first
    from .trochoid import MoveSeq, apply_move, session_level, state_key

    key = state_key(session_level(spec))
    same_side = []
    states = breadth_first(spec, apply_move, key, max_moves)
    for count, (_, state, word) in enumerate(states):
        if count >= NODE_BUDGET:
            raise BudgetError(
                f"orbit search exceeded {NODE_BUDGET} states at {len(word)} moves; "
                "verify.NODE_BUDGET caps it"
            )
        if (state.p, state.q) == (spec.p, spec.q):
            same_side.append((state, MoveSeq(word)))
    return same_side


# ---------------------------------------------------------------------------
# the suites


def _random_rot(rng) -> RotElem:
    """A rotation with a random center and turn, drawn from rng, a
    `random.Random`."""
    center = point_xy(
        Fraction(rng.randrange(-4, 5), rng.choice([1, 2, 3])),
        Fraction(rng.randrange(-4, 5), rng.choice([1, 2])),
    )
    if rng.random() < 0.4:
        center = center + cyc_root(rng.choice([3, 4, 6, 12]), rng.randrange(1, 3))
    den = rng.choice([2, 3, 4, 6, 8, 12, 24])
    return RotElem(center, Turn(rng.randrange(1, den), den))


def _axiom_checks(name: str, quandle, triples) -> list[tuple[str, bool, str]]:
    """Quandle axioms Q1-Q3 over the given (x, y, z) triples, each with
    its first counterexample."""
    op, inv = quandle.op, quandle.inv_op
    bad1 = next((x for (x, _, _) in triples if op(x, x) != x), None)
    bad2 = next(
        (
            (x, y)
            for (x, y, _) in triples
            if op(inv(x, y), y) != x or inv(op(x, y), y) != x
        ),
        None,
    )
    bad3 = next(
        (
            (x, y, z)
            for (x, y, z) in triples
            if op(op(x, y), z) != op(op(x, z), op(y, z))
        ),
        None,
    )
    return [
        (f"axioms.{name}.Q{i}", bad is None, f"counterexample {bad}")
        for i, bad in enumerate((bad1, bad2, bad3), 1)
    ]


def _suite_axioms(args) -> list[tuple[str, bool, str]]:
    import random

    checks = []
    for n in (3, 5, 7):
        quandle = DihedralQuandle(n)
        triples = list(itertools.product(quandle.elements(), repeat=3))
        checks += _axiom_checks(f"dihedral-{n}", quandle, triples)
    rng = random.Random(20240822)
    triples = [
        (_random_rot(rng), _random_rot(rng), _random_rot(rng)) for _ in range(500)
    ]
    return checks + _axiom_checks("rot", ROT, triples)


def _suite_cocycle(args) -> list[tuple[str, bool, str]]:
    import random

    rng = random.Random(20240823)
    checks = []
    bad_diag = None
    for _ in range(200):
        o = point_xy(Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))
        x = _random_rot(rng)
        if not cocycle_phi(o, x, x).is_zero():
            bad_diag = (o, x)
            break
    checks.append(("cocycle.QC2", bad_diag is None, f"counterexample {bad_diag}"))
    bad_qc1 = None
    for _ in range(200):
        o = point_xy(Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))
        x, y, z = _random_rot(rng), _random_rot(rng), _random_rot(rng)
        if not verify_qc1(o, x, y, z).is_zero():
            bad_qc1 = (o, x, y, z)
            break
    checks.append(("cocycle.QC1", bad_qc1 is None, f"counterexample {bad_qc1}"))
    return checks


def _suite_weights(args) -> list[tuple[str, bool, str]]:
    from .diagram import closed_form_weight, total_weight
    from .trochoid import TrochoidSpec, derive_coloring

    grid = FULL_GRID if args.grid == "full" else SMALL_GRID
    extra_o = [point_xy(2, -1), point_xy(Fraction(-1, 2), 3)]
    checks = []
    for (p, q) in grid:
        detail = ""
        ok = True
        for k in range(1, abs(p)):
            for l in range(1, abs(q)):
                s = TrochoidSpec(p, q, k, l)
                c = derive_coloring(s)
                direct = total_weight(c, ORIGIN)
                closed = closed_form_weight(p, q, k, l)
                if direct != closed:
                    ok, detail = False, f"(k={k}, l={l}) direct != closed form"
                    break
                if direct.is_zero():
                    ok, detail = False, f"(k={k}, l={l}) weight is zero"
                    break
                if any(total_weight(c, o) != direct for o in extra_o):
                    ok, detail = False, f"(k={k}, l={l}) depends on base point"
                    break
            if not ok:
                break
        checks.append((f"weights.D({p},{q})", ok, detail))
    return checks


def _suite_appendix(args) -> list[tuple[str, bool, str]]:
    levels = [3, 4, 5, 6, 8, 12] if args.level is None else [args.level]
    checks = []
    for n in levels:
        units = enumerate_unit_elements(check_level_cap(n))
        expected = n if n % 2 == 0 else 2 * n
        orders = [u.is_root_of_unity() for u in units]
        ok = len(units) == expected and all(
            d is not None and expected % d == 0 for d in orders
        )
        checks.append(
            (
                f"appendix.N={n}",
                ok,
                f"found {len(units)} unit elements, expected {expected}",
            )
        )
    return checks


def _suite_orbit(args) -> list[tuple[str, bool, str]]:
    from .diagram import build_diagram
    from .trochoid import TrochoidSpec, replay_spec, same_trochoid

    checks = []
    d = build_diagram(2, 3)
    quandle = DihedralQuandle(3)
    colorings = enumerate_colorings_finite(quandle, d)
    nontrivial = [c for c in colorings if not c.is_trivial()]
    orbit = coloring_orbit(nontrivial[0])
    reached = {c for c in orbit if not c.is_trivial()}
    ok = reached == set(nontrivial) and len(orbit) == len(nontrivial)
    checks.append(
        (
            "orbit.trefoil-class",
            ok,
            f"orbit has {len(orbit)} colorings, expected {len(nontrivial)}",
        )
    )
    s = TrochoidSpec(2, 3, 1, 1)
    depth = 4 if args.depth is None else args.depth
    words_ok = all(
        same_trochoid(replay_spec(word, s), spec)
        for spec, word in orbit_bfs(s, depth)
    )
    checks.append(("orbit.trochoid-words", words_ok, "a witness failed to replay"))
    return checks


SUITES = {
    "axioms": _suite_axioms,
    "cocycle": _suite_cocycle,
    "weights": _suite_weights,
    "appendix": _suite_appendix,
    "orbit": _suite_orbit,
}


def cmd_verify(suite: str, args) -> tuple[str, int]:
    for flag, owner in (("level", "appendix"), ("grid", "weights"), ("depth", "orbit")):
        if getattr(args, flag) is not None and suite != owner:
            raise ValueError(f"--{flag} applies only to verify {owner}")
    checks = SUITES[suite](args)
    lines = []
    failures = 0
    for name, ok, detail in checks:
        if ok:
            lines.append(f"PASS {name}")
        else:
            failures += 1
            lines.append(f"FAIL {name}: {detail}")
    lines.append(
        f"suite {suite}: {len(checks) - failures}/{len(checks)} checks passed"
    )
    return "\n".join(lines) + "\n", 0 if failures == 0 else 1
