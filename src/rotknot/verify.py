"""The `verify` suites and the finite-quandle machinery only they use.

Each suite checks one part of the theory exactly and returns (name, ok,
detail) rows: `axioms` the quandle axioms, `cocycle` the two cocycle
conditions, `weights` the direct crossing sum against the closed form,
`appendix` the unit-distance points of the anchor lattices, and `orbit`
the move orbit of a trefoil coloring and the replay of trochoid words.

`cli` imports this module only for `verify`, so no other command
compiles it.  The diagram and trochoid machinery and the cocycle layer
are imported by the functions that use them, so `axioms`, `cocycle` and
`appendix` compile neither `diagram` nor `trochoid`, and only the
`cocycle` and `weights` suites compile the cocycle layer.
"""

from __future__ import annotations

import itertools

from .exactnum import (
    BudgetError,
    Turn,
    check_level_cap,
    cyc_root,
    enumerate_unit_elements,
)
from .geom import ORIGIN, Point, _point_xy, point_xy
from .quandle import ROT, RotElem

SMALL_GRID = [(2, 3), (3, 2), (3, 4), (4, 3)]
FULL_GRID = [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3), (3, 5), (4, 5)]


# ---------------------------------------------------------------------------
# the dihedral quandles


class DihedralQuandle:
    """The dihedral quandle R_n on the residues 0..n-1: x * y = 2y - x
    mod n; involutory, so inv_op coincides with op."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("dihedral quandle needs n >= 3")
        self.n = n

    def op(self, x: int, y: int) -> int:
        return (2 * y - x) % self.n

    inv_op = op

    def elements(self) -> list[int]:
        return list(range(self.n))

    def __repr__(self) -> str:
        return f"DihedralQuandle({self.n})"


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
    center = _point_xy(
        rng.randrange(-4, 5), rng.choice([1, 2, 3]), rng.randrange(-4, 5), rng.choice([1, 2])
    )
    if rng.random() < 0.4:
        center = center + cyc_root(rng.choice([3, 4, 6, 12]), rng.randrange(1, 3))
    den = rng.choice([2, 3, 4, 6, 8, 12, 24])
    return RotElem(center, Turn(rng.randrange(1, den), den))


def _check(name: str, cases: list, holds) -> tuple[str, bool, str]:
    """The (name, ok, detail) row of one check: ok when holds(*case) is
    true for every case, tried in order up to the first counterexample,
    which the detail names with the case count.  No cases is a failure."""
    if not cases:
        return name, False, "no cases"
    bad = next((case for case in cases if not holds(*case)), None)
    return name, bad is None, f"counterexample {bad} among {len(cases)} cases"


def _axiom_checks(name: str, quandle, triples) -> list[tuple[str, bool, str]]:
    """Quandle axioms Q1-Q3 over the given (x, y, z) triples."""
    op, inv = quandle.op, quandle.inv_op
    return [
        _check(f"axioms.{name}.Q1", triples, lambda x, y, z: op(x, x) == x),
        _check(
            f"axioms.{name}.Q2",
            triples,
            lambda x, y, z: op(inv(x, y), y) == x and inv(op(x, y), y) == x,
        ),
        _check(
            f"axioms.{name}.Q3",
            triples,
            lambda x, y, z: op(op(x, y), z) == op(op(x, z), op(y, z)),
        ),
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

    from .cocycle import cocycle_phi, verify_qc1

    rng = random.Random(20240823)

    def base_point() -> Point:
        return point_xy(rng.randrange(-3, 4), rng.randrange(-3, 4))

    pairs = [(base_point(), _random_rot(rng)) for _ in range(200)]
    quads = [
        (base_point(), _random_rot(rng), _random_rot(rng), _random_rot(rng))
        for _ in range(200)
    ]
    return [
        _check("cocycle.QC2", pairs, lambda o, x: cocycle_phi(o, x, x).is_zero()),
        _check("cocycle.QC1", quads, lambda *case: verify_qc1(*case).is_zero()),
    ]


def _suite_weights(args) -> list[tuple[str, bool, str]]:
    from .cocycle import closed_form_weight, total_weight
    from .trochoid import TrochoidSpec, derive_coloring

    grid = FULL_GRID if args.grid == "full" else SMALL_GRID
    extra_o = [point_xy(2, -1), _point_xy(-1, 2, 3, 1)]

    def holds(p: int, q: int, k: int, l: int) -> bool:
        """The crossing sum is the closed form, nonzero, at every base point."""
        c = derive_coloring(TrochoidSpec(p, q, k, l))
        direct = total_weight(c, ORIGIN)
        return (
            direct == closed_form_weight(p, q, k, l)
            and not direct.is_zero()
            and all(total_weight(c, o) == direct for o in extra_o)
        )

    return [
        _check(
            f"weights.D({p},{q})",
            [(p, q, k, l) for k in range(1, abs(p)) for l in range(1, abs(q))],
            holds,
        )
        for (p, q) in grid
    ]


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
    checks.append(
        _check(
            "orbit.trochoid-words",
            orbit_bfs(s, depth),
            lambda spec, word: same_trochoid(replay_spec(word, s), spec),
        )
    )
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
    lines = [f"PASS {name}" if ok else f"FAIL {name}: {detail}" for name, ok, detail in checks]
    passed = sum(ok for _, ok, _ in checks)
    lines.append(f"suite {suite}: {passed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n", 0 if passed == len(checks) else 1
