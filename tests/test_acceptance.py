"""Acceptance criteria, one test per criterion.

Each test states its tolerance (exact equality unless noted), enforces
its wall-clock budget, and prints one PASS line; a failed assertion is
the FAIL line.  Run with `pytest -v tests/test_acceptance.py`.
"""

import random
import sys
from fractions import Fraction
from time import perf_counter

from rotknot.families import cmd_enumerate
from rotknot.cocycle import (
    area_approx,
    closed_form_weight,
    cocycle_phi,
    total_weight,
    verify_qc1,
)
from rotknot.diagram import (
    build_diagram,
    check_coloring,
    shift_generic,
    switch_generic,
)
from rotknot.exactnum import Cyc, Turn, cyc_root, enumerate_unit_elements
from rotknot.geom import ORIGIN, point_xy, rotate
from rotknot.quandle import ROT, RotElem
from rotknot.render import render_trochoid_svg
from rotknot.trochoid import (
    LatticeSpec,
    TrochoidSpec,
    center_point,
    classify,
    derive_coloring,
    flip_chirality,
    fundamental_deformation,
    replay,
    same_trochoid,
    shift,
    trochoid_vertices,
    unit_neighbors,
)
from rotknot.verify import (
    DihedralQuandle,
    coloring_orbit,
    enumerate_colorings_finite,
    orbit_bfs,
)

from conftest import grid_cells, run


def finish(number: int, budget: float, t0: float, summary: str):
    elapsed = perf_counter() - t0
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS criterion {number}: {summary} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_01_trefoil_coloring_count():
    """Dihedral-3 colorings of D(2,3): exactly 9, of which 3 trivial. Exact."""
    t0 = perf_counter()
    colorings = enumerate_colorings_finite(DihedralQuandle(3), build_diagram(2, 3))
    assert len(colorings) == 9
    assert sum(1 for c in colorings if c.is_trivial()) == 3
    finish(1, 1.0, t0, "9 dihedral-3 colorings of D(2,3), 3 trivial")


def test_criterion_02_trefoil_equivalence_class():
    """Orbit of one non-trivial coloring under shift and even switch
    pairs: all 6 non-trivial colorings and nothing else. Exact."""
    t0 = perf_counter()
    colorings = enumerate_colorings_finite(DihedralQuandle(3), build_diagram(2, 3))
    nontrivial = [c for c in colorings if not c.is_trivial()]
    assert len(nontrivial) == 6
    orbit = coloring_orbit(nontrivial[0])
    assert set(orbit) == set(nontrivial)
    finish(2, 1.0, t0, "orbit of one coloring is exactly the 6 non-trivial ones")


def _random_rot(rng: random.Random) -> RotElem:
    center = point_xy(
        Fraction(rng.randrange(-4, 5), rng.choice([1, 2, 3])),
        Fraction(rng.randrange(-4, 5), rng.choice([1, 2])),
    )
    if rng.random() < 0.4:
        center = center + cyc_root(rng.choice([3, 4, 6, 12]), rng.randrange(1, 3))
    den = rng.choice([2, 3, 4, 6, 8, 12, 24])
    return RotElem(center, Turn(rng.randrange(1, den), den))


def test_criterion_03_quandle_and_cocycle_axioms():
    """Q1-Q3 for dihedral-{3,5,7} (full scan) and the rotation quandle
    (500 random triples, level <= 24); QC1 and QC2 for the cocycle
    (200 random triples). All exact equalities."""
    t0 = perf_counter()
    for n in (3, 5, 7):
        quandle = DihedralQuandle(n)
        elems = quandle.elements()
        for x in elems:
            assert quandle.op(x, x) == x
            for y in elems:
                assert quandle.op(quandle.inv_op(x, y), y) == x
                assert quandle.inv_op(quandle.op(x, y), y) == x
                for z in elems:
                    assert quandle.op(quandle.op(x, y), z) == quandle.op(
                        quandle.op(x, z), quandle.op(y, z)
                    )
    rng = random.Random(20240822)
    for _ in range(500):
        x, y, z = _random_rot(rng), _random_rot(rng), _random_rot(rng)
        assert ROT.op(x, x) == x
        assert ROT.op(ROT.inv_op(x, y), y) == x
        assert ROT.inv_op(ROT.op(x, y), y) == x
        assert ROT.op(ROT.op(x, y), z) == ROT.op(ROT.op(x, z), ROT.op(y, z))
    for _ in range(200):
        o = point_xy(Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))
        x, y, z = _random_rot(rng), _random_rot(rng), _random_rot(rng)
        assert cocycle_phi(o, x, x).is_zero()
        assert verify_qc1(o, x, y, z).is_zero()
    finish(3, 10.0, t0, "Q1-Q3 and QC1-QC2 hold exactly")


def test_criterion_04_weight_formula_grid():
    """On every grid cell: crossing-sum weight equals the closed form
    exactly, is non-zero, and is independent of the base point o
    (3 random choices). Exact."""
    t0 = perf_counter()
    rng = random.Random(4)
    cells = 0
    for (p, q, k, l) in grid_cells():
        s = TrochoidSpec(p, q, k, l)
        c = derive_coloring(s)
        direct = total_weight(c, ORIGIN)
        closed = closed_form_weight(p, q, k, l)
        assert direct == closed, (p, q, k, l)
        assert not direct.is_zero(), (p, q, k, l)
        for _ in range(3):
            o = point_xy(
                Fraction(rng.randrange(-5, 6), rng.choice([1, 2])),
                Fraction(rng.randrange(-5, 6), rng.choice([1, 3])),
            )
            assert total_weight(c, o) == direct, (p, q, k, l)
        cells += 1
    finish(4, 30.0, t0, f"direct = closed-form weight, non-zero, on {cells} cells")


def test_criterion_05_concrete_weight_value():
    """(3,2,1,1): weight sqrt(3)/2; float within 1e-9 of 0.866025403784;
    exact scaled value equals the independent crossing sum."""
    t0 = perf_counter()
    s = TrochoidSpec(3, 2, 1, 1)
    crossing_sum = total_weight(derive_coloring(s), ORIGIN)
    closed = closed_form_weight(3, 2, 1, 1)
    frozen = cyc_root(12, 2) * 4 - Cyc.rational(2)  # 4 zeta_12^2 - 2 = 4i * sqrt(3)/2
    assert crossing_sum == closed == frozen
    assert abs(area_approx(crossing_sum) - 0.866025403784) <= 1e-9
    finish(5, 1.0, t0, "weight(3,2,1,1) = sqrt(3)/2 by both pipelines")


def test_criterion_06_move_invariance():
    """shift and switch preserve validity and the exact weight on every
    grid cell. Exact."""
    t0 = perf_counter()
    for (p, q, k, l) in grid_cells():
        s = TrochoidSpec(p, q, k, l)
        c = derive_coloring(s)
        w = total_weight(c, ORIGIN)
        shifted = shift_generic(c)
        check_coloring(shifted)
        assert total_weight(shifted, ORIGIN) == w, (p, q, k, l)
        switched = switch_generic(c)
        check_coloring(switched)
        assert total_weight(switched, ORIGIN) == w, (p, q, k, l)
    finish(6, 30.0, t0, "moves preserve validity and exact weight on the grid")


def test_criterion_07_fundamental_deformation():
    """On every grid cell the deformation acts on the vertex multiset as
    the exact theta-rotation about the center point, and its order is
    exactly p'q'. Exact."""
    t0 = perf_counter()
    for (p, q, k, l) in grid_cells():
        s = TrochoidSpec(p, q, k, l)
        fd = fundamental_deformation(s)
        c = center_point(s)
        assert center_point(fd) == c
        before = sorted(trochoid_vertices(s), key=lambda w: w.sort_key())
        after = sorted(trochoid_vertices(fd), key=lambda w: w.sort_key())
        rotated = sorted(
            (rotate(w, c, s.theta) for w in before), key=lambda w: w.sort_key()
        )
        assert after == rotated, (p, q, k, l)
        pq = s.p_prime * s.q_prime
        x = s
        for n in range(1, pq + 1):
            x = fundamental_deformation(x)
            if n < pq:
                assert not same_trochoid(x, s), (p, q, k, l, n)
        assert same_trochoid(x, s), (p, q, k, l)
    finish(7, 30.0, t0, "deformation = theta-rotation, order exactly p'q'")


def test_criterion_08_appendix_unit_enumeration():
    """For N in {3,4,5,6,8,12}: every enumerated abs-1 integral
    element is a root of unity of order dividing N (even) / 2N (odd);
    counts are N (even) / 2N (odd). Exact."""
    t0 = perf_counter()
    for n in (3, 4, 5, 6, 8, 12):
        units = enumerate_unit_elements(n)
        expected = n if n % 2 == 0 else 2 * n
        assert len(units) == expected, n
        bound_order = n if n % 2 == 0 else 2 * n
        for u in units:
            order = u.is_root_of_unity()
            assert order is not None and bound_order % order == 0, (n, u)
    finish(8, 60.0, t0, "unit counts and orders match for all six levels")


def test_criterion_09_lattice_unit_distance_points():
    """For alpha in {2,3,4,6}: bounded enumeration finds exactly
    2*alpha lattice points at unit distance from a lattice point. Exact."""
    t0 = perf_counter()
    for alpha in (2, 3, 4, 6):
        lat = LatticeSpec(alpha, ORIGIN, Turn(0))
        neighbors = unit_neighbors(lat, ORIGIN, verify=True)
        assert len(neighbors) == 2 * alpha
        assert len(set(neighbors)) == 2 * alpha
        for w in neighbors:
            assert w.abs_sq() == Cyc.one()
    finish(9, 10.0, t0, "exactly 2*alpha unit-distance lattice points")


def test_criterion_10_classifier_contract():
    """(a) shift image Equivalent with a replaying witness; (b) (k,l)
    mismatch NotEquivalent(KLMismatch); (c) side x2 NotEquivalent
    (SideLengthMismatch) with exact weight ratio 4; (d) odd p'q'
    opposite chirality Undetermined."""
    t0 = perf_counter()
    s = TrochoidSpec(3, 2, 1, 1)
    res = classify(s, shift(s))
    assert res.verdict == "Equivalent"
    assert replay(res.witness, derive_coloring(s)) == derive_coloring(shift(s))

    res = classify(s, TrochoidSpec(3, 2, 2, 1))
    assert res.verdict == "NotEquivalent" and res.reason == "KLMismatch"

    doubled = TrochoidSpec(3, 2, 1, 1, side=Fraction(2))
    res = classify(s, doubled)
    assert res.verdict == "NotEquivalent" and res.reason == "SideLengthMismatch"
    w1 = total_weight(derive_coloring(s), ORIGIN)
    w2 = total_weight(derive_coloring(doubled), ORIGIN)
    assert w2 == w1 * 4

    odd = TrochoidSpec(3, 5, 1, 1)
    assert odd.p_prime * odd.q_prime % 2 == 1
    res = classify(odd, flip_chirality(odd))
    assert res.verdict == "Undetermined"
    finish(10, 10.0, t0, "classifier meets the four-part contract")


def test_criterion_11_determinism():
    """cmd_enumerate, the SVG render, and orbit_bfs are byte-identical
    across two runs; there is no threading by design, so run-to-run
    variation is stressed through fresh interpreters with different
    hash seeds."""
    t0 = perf_counter()
    script = (
        "import hashlib\n"
        "from rotknot.writer import _json_pieces\n"
        "from rotknot.families import cmd_enumerate\n"
        "from rotknot.render import render_trochoid_svg\n"
        "from rotknot.trochoid import TrochoidSpec\n"
        "from rotknot.verify import orbit_bfs\n"
        "orbit = orbit_bfs(TrochoidSpec(2, 3, 1, 1), 4)\n"
        "out = '\\n'.join([\n"
        "    ''.join(_json_pieces(cmd_enumerate(4, 3))),\n"
        "    render_trochoid_svg(TrochoidSpec(4, 3, 1, 2)),\n"
        "    repr([(s.canonical_key(), tuple(mv)) for s, mv in orbit]),\n"
        "])\n"
        "print(len(out))\n"
        "print(hashlib.sha256(out.encode()).hexdigest())\n"
    )
    runs = []
    for seed in ("11", "1317"):
        proc = run([sys.executable, "-c", script], env={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    # in-process double run of the same artifacts
    assert render_trochoid_svg(TrochoidSpec(4, 3, 1, 2)) == render_trochoid_svg(
        TrochoidSpec(4, 3, 1, 2)
    )
    first = [(s.canonical_key(), tuple(m)) for s, m in orbit_bfs(TrochoidSpec(2, 3, 1, 1), 4)]
    second = [(s.canonical_key(), tuple(m)) for s, m in orbit_bfs(TrochoidSpec(2, 3, 1, 1), 4)]
    assert first == second
    assert cmd_enumerate(4, 3) == cmd_enumerate(4, 3)
    finish(11, 10.0, t0, "byte-identical outputs across interpreters and runs")
