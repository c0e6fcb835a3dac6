"""Diagram combinatorics, coloring search, weights, generic moves."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
from collections import deque
from fractions import Fraction

import pytest

from rotknot import cocycle, verify
from rotknot.cocycle import area_approx, closed_form_weight, cocycle_phi, total_weight
from rotknot.diagram import (
    Coloring,
    build_diagram,
    check_coloring,
    shift_generic,
    switch_generic,
)
from rotknot.exactnum import BudgetError, Cyc, Turn, cyc_root
from rotknot.geom import ORIGIN, point_xy
from rotknot.quandle import ROT, RotElem
from rotknot.trochoid import MoveSeq, TrochoidSpec, derive_coloring, replay
from rotknot.verify import (
    FULL_GRID,
    DihedralQuandle,
    coloring_orbit,
    enumerate_colorings_finite,
)

from conftest import rot_coloring_3211


def switch_by_formula(c: Coloring) -> Coloring:
    """The switch by the paper's product formula, the reference for
    `switch_generic`: with Y_s = color of a_{s, |p|-1},

        Y'(i, t) = C(a_{[-i-t], |p|-1}) * Y_{[1-i]} * ... * Y_{[0]}  (i factors).
    """
    d = c.diagram
    ap, aq = d.abs_p, d.abs_q
    y = [c.color(s, ap - 1) for s in range(aq)]
    nd = build_diagram(d.q, d.p)
    colors = {}
    for (i, t) in nd.rep_arcs:
        val = c.color(-i - t, ap - 1)
        for s in range(1 - i, 1):
            val = c.quandle.op(val, y[s % aq])
        colors[(i, t)] = val
    return Coloring(nd, c.quandle, colors)


class CountingQuandle:
    """Wraps a quandle and counts its `op` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def op(self, x, y):
        self.calls += 1
        return self.inner.op(x, y)


class TestBuildDiagram:
    def test_trefoil_counts(self):
        d = build_diagram(2, 3)
        assert len(d.rep_arcs) == 3
        assert len(d.crossings) == 3
        assert d.sign == 1

    def test_three_two_counts(self):
        d = build_diagram(3, 2)
        assert len(d.crossings) == 4
        assert len(d.rep_arcs) == 4

    def test_negative_q_signs(self):
        d = build_diagram(3, -2)
        assert len(d.crossings) == 4
        assert d.sign == -1

    def test_identification(self):
        d = build_diagram(3, 2)
        assert d.rep(0, 2) == (1, 0)
        assert d.rep(1, 2) == (0, 0)
        assert d.rep(0, 1) == (0, 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_diagram(2, 4)
        with pytest.raises(ValueError):
            build_diagram(1, 3)


def first_failing_crossing(c: Coloring) -> tuple[int, int] | None:
    """(row, t) of the first crossing, row by row, whose condition
    color(a_{i+1, t-1}) = color(a_{it}) * color(a_{i0}) fails, read off
    the braid one crossing at a time; the reference for the crossing
    `check_coloring` names."""
    d = c.diagram
    for i in range(d.abs_q):
        for t in range(1, d.abs_p):
            if c.color(i + 1, t - 1) != c.quandle.op(c.color(i, t), c.color(i, 0)):
                return i, t
    return None


def valid_rot_colorings() -> list[Coloring]:
    """A valid coloring of D(4,3) from a trochoid and one of D(3,-2)."""
    mirrored = Coloring(build_diagram(3, -2), ROT, rot_coloring_3211().colors)
    return [derive_coloring(TrochoidSpec(4, 3, 1, 1)), mirrored]


class TestValidation:
    @pytest.mark.parametrize("c", valid_rot_colorings(), ids=["D(4,3)", "D(3,-2)"])
    def test_broken_arc_names_first_failing_crossing(self, c):
        check_coloring(c)
        assert first_failing_crossing(c) is None
        d = c.diagram
        for arc in d.rep_arcs:
            colors = c.colors
            x = colors[arc]
            colors[arc] = RotElem(x.center + 1, x.angle)
            broken = Coloring(d, ROT, colors)
            row, t = first_failing_crossing(broken)
            arc_x, arc_over, arc_xy = d.rep(row, t), d.rep(row, 0), d.rep(row + 1, t - 1)
            message = (
                f"not a valid coloring of D({d.p},{d.q}): "
                f"crossing (row {row}, t {t}): color{arc_xy} differs "
                f"from color{arc_x} * color{arc_over}"
            )
            with pytest.raises(ValueError) as exc:
                check_coloring(broken)
            assert str(exc.value) == message, arc

    def test_trivial_always_valid(self):
        q3 = DihedralQuandle(3)
        for p, q in ((2, 3), (3, 2), (4, 3), (3, -2)):
            d = build_diagram(p, q)
            c = Coloring(d, q3, dict.fromkeys(d.rep_arcs, 1))
            check_coloring(c)

    def test_perturbed_trivial_reports_crossing(self):
        q3 = DihedralQuandle(3)
        d = build_diagram(2, 3)
        colors = {a: 0 for a in d.rep_arcs}
        colors[(1, 0)] = 1
        with pytest.raises(ValueError, match=r"crossing \(row \d+, t \d+\).*differs"):
            check_coloring(Coloring(d, q3, colors))

    def test_frozen_rot_coloring_is_valid(self):
        check_coloring(rot_coloring_3211())


class TestColoringValue:
    def test_insertion_order_does_not_matter(self):
        c = rot_coloring_3211()
        reversed_colors = dict(reversed(c.colors.items()))
        assert list(reversed_colors) != list(c.colors)
        other = Coloring(c.diagram, ROT, reversed_colors)
        assert other == c and not other != c
        assert hash(other) == hash(c)

    def test_other_diagram_differs(self):
        c = rot_coloring_3211()
        assert Coloring(build_diagram(3, -2), ROT, c.colors) != c


class TestEnumeration:
    def test_trefoil_dihedral3(self):
        q3 = DihedralQuandle(3)
        found = enumerate_colorings_finite(q3, build_diagram(2, 3))
        assert len(found) == 9
        assert sum(1 for c in found if c.is_trivial()) == 3
        for c in found:
            check_coloring(c)

    def test_same_knot_other_presentation(self):
        q3 = DihedralQuandle(3)
        found = enumerate_colorings_finite(q3, build_diagram(3, 2))
        assert len(found) == 9

    def test_trefoil_dihedral5_only_trivial(self):
        q5 = DihedralQuandle(5)
        found = enumerate_colorings_finite(q5, build_diagram(2, 3))
        assert len(found) == 5
        assert all(c.is_trivial() for c in found)

    def test_deterministic_order(self):
        q3 = DihedralQuandle(3)
        a = enumerate_colorings_finite(q3, build_diagram(2, 3))
        b = enumerate_colorings_finite(q3, build_diagram(2, 3))
        assert a == b
        first = a[0]
        assert first.is_trivial()
        assert first.color(0, 0) == 0

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(verify, "SEED_BUDGET", 5)
        with pytest.raises(
            BudgetError,
            match=r"3\^2 seed assignments exceed budget 5; "
            r"verify.SEED_BUDGET = 9 would suffice",
        ):
            enumerate_colorings_finite(DihedralQuandle(3), build_diagram(2, 3))


class TestWeights:
    def test_trivial_weight_is_zero(self):
        d = build_diagram(3, 2)
        x = RotElem(point_xy(2, 1), Turn(1, 6))
        c = Coloring(d, ROT, dict.fromkeys(d.rep_arcs, x))
        assert total_weight(c, ORIGIN).is_zero()

    def test_weight_of_3211(self):
        c = rot_coloring_3211()
        w = total_weight(c, ORIGIN)
        # sqrt(3)/2, whose 4i-scaled form at level 12 is 4*zeta^2 - 2
        assert w == 4 * cyc_root(12, 2) - 2
        assert abs(area_approx(w) - math.sqrt(3) / 2) < 1e-9

    def test_weight_independent_of_base_point(self):
        c = rot_coloring_3211()
        w0 = total_weight(c, ORIGIN)
        assert total_weight(c, point_xy(7, -3)) == w0
        assert total_weight(c, point_xy(Fraction(1, 3), Fraction(2, 5))) == w0

    def test_closed_form_3211(self):
        w = closed_form_weight(3, 2, 1, 1)
        assert w == total_weight(rot_coloring_3211(), ORIGIN)

    def test_closed_form_2311(self):
        w = closed_form_weight(2, 3, 1, 1)
        assert abs(area_approx(w) + math.sqrt(3) / 2) < 1e-9

    def test_closed_form_scaling_law(self):
        a = closed_form_weight(3, 2, 1, 1)
        b = closed_form_weight(3, 2, 1, 1, Fraction(2))
        assert b == 4 * a

    def test_negative_diagram_weight(self):
        # same arc assignment colors D(3,-2); all crossings flip sign,
        # and the crossing sum still matches the closed form exactly
        base = rot_coloring_3211()
        d = build_diagram(3, -2)
        c = Coloring(d, ROT, base.colors)
        check_coloring(c)
        w = total_weight(c, ORIGIN)
        assert w == -(4 * cyc_root(12, 2) - 2)
        assert w == closed_form_weight(3, -2, 1, 1)


def crossing_by_crossing(c: Coloring, o) -> Cyc:
    """The crossing sum one signed `cocycle_phi` term at a time, the
    reference for `total_weight`'s single accumulator."""
    total = Cyc.zero()
    for arc_x, arc_over, _ in c.diagram.crossings:
        term = cocycle_phi(o, c.color(*arc_x), c.color(*arc_over))
        total = total + (term if c.diagram.sign > 0 else -term)
    return total


# the origin, a level-4 point and a level-12 point with denominator 6
BASE_POINTS = (
    ORIGIN,
    point_xy(Fraction(-1, 2), 3),
    cyc_root(12, 5) * Fraction(1, 2) + point_xy(Fraction(1, 3), -1),
)


@pytest.mark.parametrize("p, q", FULL_GRID + [(-p, q) for p, q in FULL_GRID])
def test_total_weight_matches_crossing_sum(p, q):
    for k in range(1, abs(p)):
        for l in range(1, abs(q)):
            c = derive_coloring(TrochoidSpec(p, q, k, l))
            for o in BASE_POINTS:
                got, ref = total_weight(c, o), crossing_by_crossing(c, o)
                assert (got.level, got.num, got.den) == (ref.level, ref.num, ref.den)


@pytest.mark.parametrize("p, q", [(4, 3), (3, -2), (2, 5)])
def test_pairs_are_built_once_for_every_base_point(monkeypatch, p, q):
    """The crossing pairs do not depend on o: three base points cost one
    `_phi_pair` call per crossing in all."""
    phi_pair, calls = cocycle._phi_pair, []

    def counting(x, y):
        calls.append((x, y))
        return phi_pair(x, y)

    monkeypatch.setattr(cocycle, "_phi_pair", counting)
    c = derive_coloring(TrochoidSpec(p, q, 1, 1))
    for o in BASE_POINTS:
        total_weight(c, o)
    assert len(calls) == len(c.diagram.crossings)


def test_cached_pairs_stay_out_of_identity():
    spec = TrochoidSpec(4, 3, 1, 2)
    used, fresh = derive_coloring(spec), derive_coloring(spec)
    total_weight(used, ORIGIN)
    assert used._pairs is not None and fresh._pairs is None
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def shift_by_loop(c: Coloring) -> dict:
    """The shifted colors arc by arc, each resolved through
    `Coloring.color`: the reference for the source arcs that
    `shift_generic` reads."""
    return {(i, j): c.color(i + 1, j) for (i, j) in c.diagram.rep_arcs}


@pytest.mark.parametrize("p, q", [(4, 3), (3, -2), (5, 2)])
def test_shift_matches_per_arc_loop(p, q):
    """On a labeling with one label per arc, which shows the whole
    permutation, and on a trochoid coloring."""
    d = build_diagram(p, q)
    labels = Coloring(d, None, {a: n for n, a in enumerate(d.rep_arcs)})
    derived = derive_coloring(TrochoidSpec(p, q, 1, 1))
    for c in (labels, derived):
        s = shift_generic(c)
        assert s.diagram == d and s.quandle is c.quandle
        assert list(s.colors.items()) == list(shift_by_loop(c).items())


def tables_by_loop(d) -> tuple[list, list, list]:
    """rep_arcs, crossings and shift_sources of d, resolved label by label
    through `rep`: every representative label in (i, j) order, the
    crossing (a_{it}, a_{i0}, a_{i+1,t-1}) for each row i and
    1 <= t <= |p|-1, and the source a_{i+1,j} of each arc."""
    labels = [(i, j) for i in range(d.abs_q) for j in range(d.abs_p)]
    arcs = sorted({d.rep(i, j) for i, j in labels})
    crossings = [
        (d.rep(i, t), d.rep(i, 0), d.rep(i + 1, t - 1))
        for i in range(d.abs_q)
        for t in range(1, d.abs_p)
    ]
    return arcs, crossings, [d.rep(i + 1, j) for i, j in arcs]


@pytest.mark.parametrize("p, q", [(4, 3), (3, -2), (5, 2), (2, -7)])
def test_tables_match_loops_over_rep(p, q):
    """The tables the constructor builds, and those of a deep copy and a
    pickle round trip, which rebuild the diagram from (p, q)."""
    d = build_diagram(p, q)
    assert (d.abs_p, d.abs_q, d.sign) == (abs(p), abs(q), 1 if p * q > 0 else -1)
    arcs, crossings, sources = tables_by_loop(d)
    for clone in (d, copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert clone == d
        assert list(clone.rep_arcs) == arcs
        assert list(clone.crossings) == crossings
        assert list(clone.shift_sources) == sources


def test_missing_colors_named_in_arc_order():
    d = build_diagram(4, 3)
    labels = {a: n for n, a in enumerate(d.rep_arcs)}
    for left_out in ([d.rep_arcs[4]], [d.rep_arcs[1], d.rep_arcs[7]]):
        # the missing arcs are named in arc order, not in the order given
        colors = {a: labels[a] for a in reversed(d.rep_arcs) if a not in left_out}
        with pytest.raises(ValueError) as err:
            Coloring(d, None, colors)
        assert str(err.value) == f"missing colors for arcs {left_out}"


class TestGenericMoves:
    def test_shift_preserves_validity_and_weight(self):
        c = rot_coloring_3211()
        s = shift_generic(c)
        check_coloring(s)
        assert total_weight(s, ORIGIN) == total_weight(c, ORIGIN)

    def test_shift_of_trivial(self):
        q3 = DihedralQuandle(3)
        d = build_diagram(2, 3)
        c = Coloring(d, q3, dict.fromkeys(d.rep_arcs, 2))
        assert shift_generic(c) == c

    def test_shift_orbit_is_finite(self):
        q3 = DihedralQuandle(3)
        start = enumerate_colorings_finite(q3, build_diagram(2, 3))[1]
        seen = {start}
        c = start
        for _ in range(10):
            c = shift_generic(c)
            if c in seen:
                break
            seen.add(c)
        assert c == start and len(seen) == 3

    def test_switch_moves_to_transposed_diagram(self):
        c = rot_coloring_3211()
        s = switch_generic(c)
        assert (s.diagram.p, s.diagram.q) == (2, 3)
        check_coloring(s)
        assert total_weight(s, ORIGIN) == total_weight(c, ORIGIN)

    def test_switch_of_trivial(self):
        q3 = DihedralQuandle(3)
        d = build_diagram(2, 3)
        c = Coloring(d, q3, dict.fromkeys(d.rep_arcs, 1))
        s = switch_generic(c)
        assert (s.diagram.p, s.diagram.q) == (3, 2)
        assert s.is_trivial()

    def test_switch_valid_on_all_trefoil_colorings(self):
        q3 = DihedralQuandle(3)
        for c in enumerate_colorings_finite(q3, build_diagram(2, 3)):
            s = switch_generic(c)
            check_coloring(s)
            assert switch_generic(s) == c  # double switch is the identity

    def test_switch_matches_product_formula(self):
        colorings = [
            c
            for n in (3, 5)
            for (p, q) in ((2, 3), (3, 2), (3, 4), (-2, 3), (3, -4))
            for c in enumerate_colorings_finite(DihedralQuandle(n), build_diagram(p, q))
        ]
        specs = [
            TrochoidSpec(p, q, k, l)
            for (p, q) in (
                (2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3), (3, 5), (4, 5)
            )
            for k in range(1, p)
            for l in range(1, q)
        ]
        specs.append(TrochoidSpec(-3, 4, 2, 1))
        specs.append(
            TrochoidSpec(
                4, 3, 1, 2, anchor=point_xy(Fraction(1, 2), 3),
                side=Fraction(3, 2), chirality=-1,
            )
        )
        colorings += [derive_coloring(s) for s in specs]
        for c in colorings:
            assert switch_generic(c) == switch_by_formula(c), c

    def test_switch_rejects_invalid_coloring(self):
        q3 = DihedralQuandle(3)
        d = build_diagram(2, 3)
        colors = {(0, 0): 0, (1, 0): 0, (2, 0): 1}
        with pytest.raises(ValueError, match="not a valid coloring"):
            switch_generic(Coloring(d, q3, colors))

    @pytest.mark.parametrize("p, q", [(3, 2), (3, 4)])
    def test_replay_rejects_every_invalid_coloring(self, p, q):
        # switch_generic alone lets all 72 invalid D(3,2) colorings through
        q3 = DihedralQuandle(3)
        d = build_diagram(p, q)
        invalid = 0
        for combo in itertools.product(q3.elements(), repeat=len(d.rep_arcs)):
            c = Coloring(d, q3, dict(zip(d.rep_arcs, combo)))
            try:
                check_coloring(c)
            except ValueError:
                invalid += 1
                with pytest.raises(ValueError, match="not a valid coloring"):
                    replay(MoveSeq(("switch",)), c)
        assert invalid == 3 ** len(d.rep_arcs) - 9

    def test_orbit_rejects_invalid_coloring(self):
        q3 = DihedralQuandle(3)
        d = build_diagram(3, 2)
        colors = dict.fromkeys(d.rep_arcs, 0)
        colors[(0, 0)] = 1
        with pytest.raises(ValueError, match="not a valid coloring"):
            coloring_orbit(Coloring(d, q3, colors))

    def test_switch_costs_one_op_per_crossing(self):
        # |p|(|q| - 1) = 63 crossings of D(8, 9); the product formula
        # spends 252 operations here
        counter = CountingQuandle(DihedralQuandle(3))
        d = build_diagram(9, 8)
        c = Coloring(d, counter, dict.fromkeys(d.rep_arcs, 1))
        s = switch_generic(c)
        assert s.is_trivial() and len(s.diagram.crossings) == 63
        assert counter.calls == 63

    def test_switch_geometric_oracle(self):
        # the switched (3,2,1,1) coloring computed from the switched
        # trochoid by hand: D(2,3) arc colors v0, w02, v1
        c = switch_generic(rot_coloring_3211())
        z3 = cyc_root(3)
        theta = Turn(1, 6)
        assert c.color(0, 0) == RotElem(ORIGIN, theta)
        assert c.color(1, 0) == RotElem(1 + z3, theta)
        assert c.color(2, 0) == RotElem(Cyc.one(), theta)


def orbit_by_loop(c: Coloring) -> list[Coloring]:
    """The orbit loop that `breadth_first` replaced, kept as the
    reference for `coloring_orbit`, order included."""
    start_side = (c.diagram.p, c.diagram.q)
    seen: dict[Coloring, None] = {c: None}
    queue = deque([c])
    while queue:
        cur = queue.popleft()
        for move in (shift_generic, switch_generic):
            nxt = move(cur)
            if nxt not in seen:
                seen[nxt] = None
                queue.append(nxt)
    return [x for x in seen if (x.diagram.p, x.diagram.q) == start_side]


class TestTrefoilOrbit:
    def test_nontrivial_class_has_six_colorings(self):
        # breadth-first closure under shift and switch, collecting the
        # colorings that return to the original diagram with an even
        # number of switches
        q3 = DihedralQuandle(3)
        colorings = enumerate_colorings_finite(q3, build_diagram(2, 3))
        nontrivial = [c for c in colorings if not c.is_trivial()]
        start = nontrivial[0]
        frontier = [start]
        seen = {start}
        while frontier:
            nxt = []
            for c in frontier:
                for move in (shift_generic, switch_generic):
                    m = move(c)
                    if m not in seen:
                        seen.add(m)
                        nxt.append(m)
            frontier = nxt
        on_original = {
            c for c in seen if (c.diagram.p, c.diagram.q) == (2, 3)
        }
        assert on_original == set(nontrivial)
        assert set(coloring_orbit(start)) == on_original

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("p, q", [(2, 3), (3, 4), (2, 5)])
    def test_orbit_matches_reference_loop(self, p, q, n):
        colorings = enumerate_colorings_finite(DihedralQuandle(n), build_diagram(p, q))
        for c in colorings:
            assert coloring_orbit(c) == orbit_by_loop(c)

    def test_orbit_budget(self, monkeypatch):
        monkeypatch.setattr(verify, "ORBIT_BUDGET", 2)
        q3 = DihedralQuandle(3)
        start = enumerate_colorings_finite(q3, build_diagram(2, 3))[1]
        with pytest.raises(
            BudgetError,
            match="coloring orbit exceeded 2 states; verify.ORBIT_BUDGET caps it",
        ):
            coloring_orbit(start)
