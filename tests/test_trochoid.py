"""Tests for trochoid construction, moves, the lattice, and classification."""

import random
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rotknot import trochoid
from rotknot.cli import FULL_GRID
from rotknot.diagram import (
    breadth_first,
    check_coloring,
    closed_form_weight,
    shift_generic,
    switch_generic,
    total_weight,
)
from rotknot.exactnum import (
    BudgetError,
    ContradictionError,
    Cyc,
    LevelError,
    Turn,
    cyc_root,
)
from rotknot.geom import ORIGIN, point_xy, polygon_vertices, rotate
from rotknot.trochoid import (
    _group_witness,
    ClassificationResult,
    KL_MISMATCH,
    LATTICE_MISMATCH,
    LatticeSpec,
    MoveSeq,
    SIDE_MISMATCH,
    TrochoidSpec,
    apply_move,
    build_trochoid,
    center_point,
    classify,
    derive_coloring,
    flip_chirality,
    fundamental_deformation,
    lattice_contains,
    lattice_for,
    lattice_generators,
    orbit_bfs,
    recover_trochoid,
    replay,
    replay_spec,
    same_trochoid,
    session_level,
    shift,
    spec_from_json,
    spec_to_json,
    switch,
    theta,
    trochoid_vertices,
    unit_neighbors,
    v_sets_sigma_tau,
)
from tests.test_diagram import rot_coloring_3211

GRID = [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3), (3, 5), (4, 5)]


def grid_specs():
    for (p, q) in GRID:
        for k in range(1, abs(p)):
            for l in range(1, abs(q)):
                yield TrochoidSpec(p, q, k, l)


class TestTheta:
    def test_named_values(self):
        # moving square on a triangle met at its reflex corner
        assert theta(4, 1, 3, 2) == Turn(5, 12)
        # moving triangle on a segment
        assert theta(3, 1, 2, 1) == Turn(1, 6)
        assert theta(2, 1, 2, 1) == Turn(0)

    def test_interior_angle_form(self):
        # ((m-2k)/m - (n-2l)/n) / 2 is the same turn
        for (m, k, n, l) in [(3, 1, 2, 1), (4, 1, 3, 2), (5, 2, 4, 3)]:
            half_diff = (Fraction(m - 2 * k, m) - Fraction(n - 2 * l, n)) / 2
            assert theta(m, k, n, l) == Turn(half_diff)

    def test_spec_property(self):
        assert TrochoidSpec(3, 2, 1, 1).theta == Turn(1, 6)
        assert TrochoidSpec(2, 3, 1, 1).theta == Turn(5, 6)


class TestSpecBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrochoidSpec(2, 4, 1, 1)
        with pytest.raises(ValueError):
            TrochoidSpec(3, 2, 3, 1)
        with pytest.raises(ValueError):
            TrochoidSpec(3, 2, 0, 1)
        with pytest.raises(ValueError):
            TrochoidSpec(3, 2, 1, 2)
        with pytest.raises(ValueError):
            TrochoidSpec(3, 2, 1, 1, side=Fraction(0))
        with pytest.raises(ValueError):
            TrochoidSpec(3, 2, 1, 1, chirality=2)

    def test_primed_parameters(self):
        s = TrochoidSpec(4, 3, 2, 2)
        assert s.p_prime == 2
        assert (s.q_prime, s.l_prime) == (3, 2)
        assert s.alpha == 3  # p'q' = 6 even
        t = TrochoidSpec(3, 5, 1, 1)
        assert t.alpha == 15  # p'q' = 15 odd

    def test_resolved_chirality(self):
        s = TrochoidSpec(3, 2, 1, 1, point_xy(2, 0), Turn(1, 4))
        a, d = s.resolved()
        assert a == point_xy(2, 0) and d == Turn(1, 4)
        f = flip_chirality(s)
        a2, d2 = f.resolved()
        assert a2 == point_xy(2, 1) and d2 == Turn(3, 4)
        # the mirror pair through the same segment, as an explicit spec
        explicit = TrochoidSpec(3, 2, 1, 1, point_xy(2, 1), Turn(3, 4))
        assert same_trochoid(f, explicit)
        assert not same_trochoid(f, s)
        assert same_trochoid(flip_chirality(f), s)

    def test_negative_indices(self):
        s = TrochoidSpec(3, -2, 1, 1)
        assert (s.abs_p, s.abs_q) == (3, 2)
        assert s.theta == Turn(1, 6)


class TestSessionLevel:
    def test_values(self):
        assert session_level(TrochoidSpec(3, 2, 1, 1)) == 12
        assert session_level(TrochoidSpec(3, 5, 1, 1)) == 60

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("QT_SESSION_LEVEL_CAP", "30")
        with pytest.raises(LevelError) as exc:
            session_level(TrochoidSpec(3, 5, 1, 1))
        assert exc.value.required_level == 60
        monkeypatch.setenv("QT_SESSION_LEVEL_CAP", "60")
        assert session_level(TrochoidSpec(3, 5, 1, 1)) == 60


# an anchored first edge away from the default one: the closed form must not see it
MOVED_EDGE = dict(
    anchor=point_xy(Fraction(1, 2), -1), direction=Turn(1, 4), side=Fraction(3, 2),
    chirality=-1,
)


class TestBuild:
    def test_rolled_triangle_rows(self):
        _, rows = build_trochoid(TrochoidSpec(3, 2, 1, 1))
        z3 = cyc_root(3, 1)
        one = Cyc.one()
        assert rows[0] == [Cyc.zero(), one, one + z3]
        assert rows[1] == [-z3, one, Cyc.zero()]

    def test_grid_builds(self):
        for s in grid_specs():
            base, rows = build_trochoid(s)
            assert len(base) == len(rows) == s.abs_q
            assert all(len(r) == s.abs_p for r in rows)

    def test_equivariance(self):
        _, base = build_trochoid(TrochoidSpec(3, 4, 1, 2))
        anchor, d = point_xy(2, 3), Turn(1, 4)
        _, moved = build_trochoid(TrochoidSpec(3, 4, 1, 2, anchor, d))
        for r_base, r_moved in zip(base, moved):
            for w_base, w_moved in zip(r_base, r_moved):
                assert w_moved == rotate(w_base, ORIGIN, d) + anchor

    def test_vertices_include_base_polygon(self):
        # the base and row 0 are the two walks off the resolved edge, and
        # the diagram's vertices are the base followed by every row
        for p, q in FULL_GRID + [(-p, q) for p, q in FULL_GRID]:
            for k in range(1, abs(p)):
                for l in range(1, abs(q)):
                    s = TrochoidSpec(p, q, k, l, **MOVED_EDGE)
                    a, d = s.resolved()
                    base, rows = build_trochoid(s)
                    assert base == polygon_vertices(abs(q), l, a, d, s.side)
                    assert rows[0] == polygon_vertices(abs(p), k, a, d, s.side)
                    verts = trochoid_vertices(s)
                    assert verts == base + [w for row in rows for w in row]


class TestDerive:
    def test_matches_hand_computed_coloring(self):
        assert derive_coloring(TrochoidSpec(3, 2, 1, 1)) == rot_coloring_3211()

    def test_grid_valid_nonzero_weight(self):
        for s in grid_specs():
            c = derive_coloring(s)
            check_coloring(c)
            w = total_weight(c, ORIGIN)
            assert not w.is_zero(), (s.p, s.q, s.k, s.l)
            cf = closed_form_weight(s.p, s.q, s.k, s.l)
            assert w == cf
            moved = TrochoidSpec(s.p, s.q, s.k, s.l, **MOVED_EDGE)
            assert total_weight(derive_coloring(moved), ORIGIN) == closed_form_weight(
                s.p, s.q, s.k, s.l, moved.side
            ), (s.p, s.q, s.k, s.l)

    def test_negative_diagram(self):
        s = TrochoidSpec(3, -2, 1, 1)
        c = derive_coloring(s)
        check_coloring(c)
        w = total_weight(c, ORIGIN)
        cf = closed_form_weight(3, -2, 1, 1)
        assert w == cf
        moved = TrochoidSpec(3, -2, 1, 1, **MOVED_EDGE)
        assert total_weight(derive_coloring(moved), ORIGIN) == closed_form_weight(
            3, -2, 1, 1, moved.side
        )


def random_spec(rng, chirality=None):
    p, q = rng.choice(GRID)
    k = rng.randrange(1, abs(p))
    l = rng.randrange(1, abs(q))
    anchor = point_xy(
        Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3])),
        Fraction(rng.randrange(-6, 7), rng.choice([1, 2])),
    )
    den = rng.choice([1, 2, 3, 4, 6, 12])
    direction = Turn(rng.randrange(den), den)
    side = rng.choice([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)])
    chi = chirality if chirality is not None else rng.choice([1, -1])
    return TrochoidSpec(p, q, k, l, anchor, direction, side, chi)


class TestRecover:
    def test_round_trip_exact(self):
        rng = random.Random(20240817)
        for _ in range(15):
            s = random_spec(rng, chirality=1)
            assert recover_trochoid(derive_coloring(s)) == s

    def test_round_trip_flipped(self):
        rng = random.Random(7)
        for _ in range(5):
            s = random_spec(rng, chirality=-1)
            r = recover_trochoid(derive_coloring(s))
            assert r.chirality == 1
            assert same_trochoid(r, s)
            assert derive_coloring(r) == derive_coloring(s)

    def test_rejects_trivial(self):
        from rotknot.diagram import build_diagram, trivial_coloring
        from rotknot.quandle import ROT, RotElem

        d = build_diagram(2, 3)
        c = trivial_coloring(d, ROT, RotElem(ORIGIN, Turn(1, 6)))
        with pytest.raises(ValueError):
            recover_trochoid(c)

    def test_rejects_mixed_angles(self):
        from rotknot.diagram import Coloring
        from rotknot.quandle import ROT, RotElem

        c = derive_coloring(TrochoidSpec(3, 2, 1, 1))
        colors = dict(c.colors)
        bad = RotElem(colors[(0, 0)].center, Turn(1, 4))
        colors[(0, 0)] = bad
        with pytest.raises(ValueError):
            recover_trochoid(Coloring(c.diagram, ROT, colors))

    def test_rejects_tampered_center(self):
        from rotknot.diagram import Coloring
        from rotknot.quandle import ROT, RotElem

        c = derive_coloring(TrochoidSpec(3, 2, 1, 1))
        colors = dict(c.colors)
        old = colors[(0, 0)]
        colors[(0, 0)] = RotElem(old.center + Cyc.one(), old.angle)
        with pytest.raises(ValueError):
            recover_trochoid(Coloring(c.diagram, ROT, colors))


class TestMoves:
    def test_shift_matches_generic(self):
        for s in grid_specs():
            assert derive_coloring(shift(s)) == shift_generic(derive_coloring(s))

    def test_switch_matches_generic(self):
        for s in grid_specs():
            assert derive_coloring(switch(s)) == switch_generic(derive_coloring(s))

    def test_switch_swaps_parameters(self):
        s = TrochoidSpec(3, 4, 1, 2)
        t = switch(s)
        assert (t.p, t.q, t.k, t.l) == (4, 3, 2, 2)
        assert t.side == s.side

    def test_switch_involution(self):
        for s in [TrochoidSpec(3, 2, 1, 1), TrochoidSpec(4, 5, 3, 2)]:
            assert same_trochoid(switch(switch(s)), s)

    def test_shift_order_divides_q(self):
        for s in [TrochoidSpec(2, 3, 1, 1), TrochoidSpec(3, 4, 1, 2), TrochoidSpec(2, 5, 1, 2)]:
            x = s
            for _ in range(s.abs_q):
                x = shift(x)
            assert same_trochoid(x, s)

    def test_moves_on_negative_diagram(self):
        s = TrochoidSpec(-3, 4, 2, 1)
        c = derive_coloring(s)
        assert derive_coloring(shift(s)) == shift_generic(c)
        assert derive_coloring(switch(s)) == switch_generic(c)

    def test_apply_move_and_replay(self):
        s = TrochoidSpec(2, 3, 1, 1)
        word = MoveSeq(("shift", "switch", "shift", "switch"))
        spec_end = replay_spec(word, s)
        col_end = replay(word, derive_coloring(s))
        assert derive_coloring(spec_end) == col_end
        with pytest.raises(ValueError):
            apply_move(s, "twist")
        with pytest.raises(ValueError):
            MoveSeq(("shift", "jump"))


class TestFundamentalDeformation:
    def test_fixes_center_and_advances_direction(self):
        for s in grid_specs():
            fd = fundamental_deformation(s)
            assert center_point(fd) == center_point(s)
            assert fd.resolved()[1] == s.resolved()[1] + s.theta
            assert (fd.p, fd.q, fd.k, fd.l) == (s.p, s.q, s.k, s.l)

    def test_acts_as_rotation_on_vertices(self):
        s = TrochoidSpec(3, 4, 1, 2, point_xy(1, 1), Turn(1, 6))
        fd = fundamental_deformation(s)
        c = center_point(s)
        before = trochoid_vertices(s)
        after = trochoid_vertices(fd)
        assert after == [rotate(w, c, s.theta) for w in before]

    def test_order_is_exactly_pq_prime(self):
        for (p, q, k, l, expect) in [
            (3, 2, 1, 1, 6),
            (2, 5, 1, 1, 10),
            (3, 4, 1, 1, 12),
            (3, 4, 1, 2, 6),
        ]:
            s = TrochoidSpec(p, q, k, l)
            assert s.p_prime * s.q_prime == expect
            x = s
            for n in range(1, expect + 1):
                x = fundamental_deformation(x)
                if n < expect:
                    assert not same_trochoid(x, s), (p, q, k, l, n)
            assert same_trochoid(x, s)

    def test_center_point_follows_shift(self):
        s = TrochoidSpec(3, 2, 1, 1)
        assert center_point(s) == ORIGIN
        assert center_point(shift(s)) == Cyc.one()


class TestLattice:
    def test_membership(self):
        s = TrochoidSpec(3, 2, 1, 1)
        lat = lattice_for(s)
        gens = lattice_generators(lat)
        assert len(gens) == 6
        assert all(g.abs_sq() == Cyc.one() for g in gens)
        base = lat.base_point
        assert lattice_contains(lat, base)
        assert lattice_contains(lat, base + gens[0] + gens[1])
        assert lattice_contains(lat, base - gens[4] * 3)
        assert not lattice_contains(lat, base + gens[0] / 2)

    def test_membership_respects_side(self):
        s = TrochoidSpec(3, 2, 1, 1, side=Fraction(1, 2))
        lat = lattice_for(s)
        g = lattice_generators(lat)[0]
        assert lattice_contains(lat, lat.base_point + g * lat.side)
        assert lattice_contains(lat, lat.base_point + g)  # = 2 half-steps
        assert not lattice_contains(lat, lat.base_point + g / 3)

    def test_membership_rejects_alien_field(self):
        s = TrochoidSpec(3, 2, 1, 1)  # 2 alpha = 6
        lat = lattice_for(s)
        # an integral unit lying outside Q(zeta_6)
        assert not lattice_contains(lat, lat.base_point + cyc_root(5, 1))

    def test_unit_neighbors_counts(self):
        for alpha in (2, 3, 4, 6):
            lat = LatticeSpec(alpha, ORIGIN, Turn(0))
            nb = unit_neighbors(lat, ORIGIN, verify=True)
            assert len(nb) == 2 * alpha
            assert len(set(nb)) == 2 * alpha
            assert all((w - ORIGIN).abs_sq() == Cyc.one() for w in nb)

    def test_unit_neighbors_requires_membership(self):
        lat = LatticeSpec(3, ORIGIN, Turn(0))
        with pytest.raises(ValueError):
            unit_neighbors(lat, point_xy(Fraction(1, 2), 0))


class TestVSets:
    def test_even_case_full(self):
        s = TrochoidSpec(3, 2, 1, 1)
        vs, vt = v_sets_sigma_tau(s)
        assert vs == vt == frozenset(range(6))

    def test_even_case_2_5(self):
        s = TrochoidSpec(2, 5, 1, 1)
        vs, vt = v_sets_sigma_tau(s)
        assert vs == vt == frozenset(range(10))

    def test_odd_case_parity_classes(self):
        s = TrochoidSpec(3, 5, 1, 1)
        vs, vt = v_sets_sigma_tau(s)
        assert len(vs) == len(vt) == 15
        assert not (vs & vt)
        assert vs | vt == frozenset(range(30))
        assert vs == frozenset(range(0, 30, 2))

    def test_sigma_offset(self):
        s = TrochoidSpec(3, 5, 1, 1)
        vs0, _ = v_sets_sigma_tau(s, 0)
        vs1, _ = v_sets_sigma_tau(s, 1)
        assert vs1 == frozenset((x + 1) % 30 for x in vs0)

    def test_non_integral_beta_is_a_contradiction(self):
        # 2 alpha theta is an integer for every spec; this stand-in has
        # alpha = 1 and theta = 1/3, so -O must not hide the check
        fake = SimpleNamespace(alpha=1, p_prime=1, q_prime=1, l_prime=1, theta=Turn(1, 3))
        with pytest.raises(ContradictionError):
            v_sets_sigma_tau(fake)


def bfs_by_loop(spec, max_moves, level):
    """The trochoid search loop that `breadth_first` replaced, kept as
    its reference: the witness search returns the first word found, so
    the order of the states matters as much as the states.  Its key, the
    anchor lifted to the session level, is an exact identity found
    independently of `TrochoidSpec.canonical_key`."""

    def key_of(s):
        a, d = s.resolved()
        a = a.lift(level)
        return (s.p, s.q, s.k, s.l, d.fraction, a.num, a.den)

    key = key_of(spec)
    seen = {key}
    yield key, spec, ()
    queue = deque([(spec, ())])
    while queue:
        cur, word = queue.popleft()
        if len(word) >= max_moves:
            continue
        for name in ("shift", "switch"):
            nxt = apply_move(cur, name)
            key = key_of(nxt)
            if key not in seen:
                seen.add(key)
                seq = word + (name,)
                yield key, nxt, seq
                queue.append((nxt, seq))


class TestBreadthFirst:
    @pytest.mark.parametrize(
        "spec",
        [
            TrochoidSpec(3, 2, 1, 1),  # p'q' = 6, even
            TrochoidSpec(5, 3, 2, 1),  # p'q' = 15, odd
            TrochoidSpec(3, -2, 1, 1, point_xy(1, 2), Turn(1, 4)),
            TrochoidSpec(4, 3, 1, 2, chirality=-1),
            TrochoidSpec(-5, 3, 2, 1, point_xy(Fraction(1, 2), 0), side=2, chirality=-1),
        ],
        ids=["even", "odd", "negative-q", "chirality-1", "odd-negative-p-chirality-1"],
    )
    def test_matches_reference_loop(self, spec):
        level = session_level(spec)
        for depth in (1, 4, 6):
            want = [(s, w) for _, s, w in bfs_by_loop(spec, depth, level)]
            got = [
                (s, w)
                for _, s, w in breadth_first(
                    spec, apply_move, TrochoidSpec.canonical_key, depth
                )
            ]
            assert got == want
        assert len(want[-1][1]) == 6  # the search did reach depth 6


class TestOrbitBFS:
    def test_words_replay_and_parity(self):
        s = TrochoidSpec(2, 3, 1, 1)
        out = orbit_bfs(s, 4)
        assert len(out) > 1
        for spec, word in out:
            assert (spec.p, spec.q) == (2, 3)
            assert word.moves.count("switch") % 2 == 0
            assert same_trochoid(replay_spec(word, s), spec)

    def test_non_direction_invariants(self):
        s = TrochoidSpec(2, 3, 1, 1)
        lat = lattice_for(s)
        vs, _ = v_sets_sigma_tau(s)
        for spec, _ in orbit_bfs(s, 5):
            anchor, d = spec.resolved()
            assert lattice_contains(lat, anchor)
            diff = (d - lat.base_direction).fraction * lat.level
            assert diff.denominator == 1
            assert int(diff) % lat.level in vs

    def test_deterministic(self):
        s = TrochoidSpec(3, 2, 1, 1)
        a = [(sp.canonical_key(), tuple(mv)) for sp, mv in orbit_bfs(s, 5)]
        b = [(sp.canonical_key(), tuple(mv)) for sp, mv in orbit_bfs(s, 5)]
        assert a == b

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(trochoid, "NODE_BUDGET", 5)
        s = TrochoidSpec(2, 3, 1, 1)
        with pytest.raises(
            BudgetError,
            match="orbit search exceeded 5 states .*; trochoid.NODE_BUDGET caps it",
        ):
            orbit_bfs(s, 12)


class TestClassify:
    def test_same_spec_empty_witness(self):
        s = TrochoidSpec(3, 2, 1, 1)
        r = classify(s, s)
        assert r.verdict == "Equivalent" and len(r.witness) == 0

    def test_shifted_equivalent(self):
        s = TrochoidSpec(3, 2, 1, 1)
        r = classify(s, shift(s))
        assert r.verdict == "Equivalent"
        assert tuple(r.witness) == ("shift",)

    def test_diagram_mismatch_raises(self):
        with pytest.raises(ValueError):
            classify(TrochoidSpec(3, 2, 1, 1), TrochoidSpec(2, 3, 1, 1))

    def test_kl_mismatch(self):
        r = classify(TrochoidSpec(3, 2, 1, 1), TrochoidSpec(3, 2, 2, 1))
        assert r.verdict == "NotEquivalent" and r.reason == KL_MISMATCH

    def test_side_mismatch_and_weight_ratio(self):
        a = TrochoidSpec(3, 2, 1, 1)
        b = TrochoidSpec(3, 2, 1, 1, side=Fraction(2))
        r = classify(a, b)
        assert r.verdict == "NotEquivalent" and r.reason == SIDE_MISMATCH
        wa = total_weight(derive_coloring(a), ORIGIN)
        wb = total_weight(derive_coloring(b), ORIGIN)
        assert wb == wa * 4

    def test_lattice_mismatch_even(self):
        s = TrochoidSpec(3, 4, 1, 1)
        g = lattice_generators(lattice_for(s))[0]
        off = TrochoidSpec(3, 4, 1, 1, s.anchor + g / 2, s.direction)
        r = classify(s, off)
        assert r.verdict == "NotEquivalent" and r.reason == LATTICE_MISMATCH
        skew = TrochoidSpec(3, 4, 1, 1, s.anchor, s.direction + Turn(1, 5))
        r = classify(s, skew)
        assert r.verdict == "NotEquivalent" and r.reason == LATTICE_MISMATCH

    def test_even_lattice_targets_equivalent(self):
        s = TrochoidSpec(3, 4, 1, 1)
        lat = lattice_for(s)
        gens = lattice_generators(lat)
        targets = [
            TrochoidSpec(3, 4, 1, 1, s.anchor + gens[0], s.direction),
            TrochoidSpec(3, 4, 1, 1, s.anchor, s.direction + Turn(1, lat.level)),
            TrochoidSpec(3, 4, 1, 1, s.anchor + gens[0] + gens[3], s.direction),
        ]
        for t in targets:
            r = classify(s, t)
            assert r.verdict == "Equivalent"
            # classify already replays the witness against the colorings

    def test_even_flip_equivalent(self):
        s = TrochoidSpec(3, 4, 1, 1)
        r = classify(s, flip_chirality(s))
        assert r.verdict == "Equivalent"

    def test_odd_flip_undetermined(self):
        s = TrochoidSpec(3, 5, 1, 1)
        r = classify(s, flip_chirality(s))
        assert r.verdict == "Undetermined"
        assert "V_sigma" in r.note and "V_tau" in r.note

    def test_odd_shift_equivalent(self):
        s = TrochoidSpec(3, 5, 1, 1)
        r = classify(s, shift(shift(s)))
        assert r.verdict == "Equivalent"
        assert len(r.witness) == 2


class TestClassifyByGroup:
    """Even p'q' is decided by membership in the move group, whose
    words are built directly; these cases used to exhaust a search budget."""

    @pytest.mark.parametrize(
        "anchor, direction, params",
        [
            ((6, 0), 0, (3, 2, 1, 1)),
            ((-3, 0), Fraction(1, 2), (3, 2, 1, 1)),
            ((2, 0), 0, (5, 4, 1, 1)),
        ],
    )
    def test_far_targets_equivalent(self, anchor, direction, params):
        a = TrochoidSpec(*params)
        b = TrochoidSpec(*params, point_xy(*anchor), Turn(direction))
        r = classify(a, b)
        assert r.verdict == "Equivalent"
        assert replay(r.witness, derive_coloring(a)) == derive_coloring(b)

    def test_orbit_states_equivalent(self):
        for (p, q) in [(2, 3), (3, 2), (3, 4), (4, 3), (3, 5)]:
            for k in range(1, p):
                for l in range(1, q):
                    s = TrochoidSpec(p, q, k, l, **MOVED_EDGE)
                    for state, word in orbit_bfs(s, 4):
                        r = classify(s, state)
                        assert r.verdict == "Equivalent" and r.witness == word
                        group_word = _group_witness(s, state)
                        assert same_trochoid(replay_spec(group_word, s), state)

    @settings(max_examples=90, deadline=None, derandomize=True)
    @given(st.data())
    def test_even_verdict_is_lattice_membership(self, data):
        # the group witness exists exactly on lattice membership plus whole
        # turns theta for both parities of p'q'; only even p'q' decides by it
        a = data.draw(st.sampled_from(list(grid_specs())))
        a = TrochoidSpec(
            a.p, a.q, a.k, a.l,
            point_xy(data.draw(st.fractions(-2, 2, max_denominator=3)), 1),
            Turn(data.draw(st.integers(0, 11)), 12),
            data.draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)])),
            data.draw(st.sampled_from([1, -1])),
        )
        lat = lattice_for(a)
        gens = lattice_generators(lat)
        terms = data.draw(st.lists(
            st.tuples(st.integers(0, lat.level - 1), st.integers(-2, 2)), max_size=2
        ))
        step = sum((gens[s] * c for s, c in terms), Cyc.zero())
        if data.draw(st.booleans()):
            step = step + gens[0] / 2
        anchor = lat.base_point + step * lat.side
        offset = Turn(data.draw(st.integers(0, 2 * lat.level - 1)), 2 * lat.level)
        b = TrochoidSpec(a.p, a.q, a.k, a.l, anchor, lat.base_direction + offset, a.side)
        n = a.p_prime * a.q_prime
        in_group = lattice_contains(lat, anchor) and offset.fraction * n % 1 == 0
        group_word = _group_witness(a, b)
        assert (group_word is not None) == in_group
        if in_group:
            assert same_trochoid(replay_spec(group_word, a), b)
        if n % 2:
            return
        r = classify(a, b)
        in_lattice = lattice_contains(lat, anchor) and offset.fraction * lat.level % 1 == 0
        assert (r.verdict == "Equivalent") == in_lattice
        if in_lattice:
            assert same_trochoid(replay_spec(r.witness, a), b)
        else:
            assert r.reason == LATTICE_MISMATCH


class TestSerialization:
    def test_spec_round_trip(self):
        s = TrochoidSpec(
            3, 4, 2, 1, point_xy(Fraction(5, 2), -1), Turn(7, 12), Fraction(5, 2), -1
        )
        data = spec_to_json(s)
        assert data["side"] == "5/2" and data["chirality"] == -1
        assert spec_from_json(data) == s

    def test_spec_defaults(self):
        data = {"p": 3, "q": 2, "k": 1, "l": 1,
                "anchor": {"value": {"level": 1, "coeffs": [["0", "1"]]}},
                "direction": "0"}
        s = spec_from_json(data)
        assert s.side == 1 and s.chirality == 1

    def test_result_json(self):
        r = ClassificationResult("Equivalent", witness=MoveSeq(("shift",)))
        assert r.to_json() == {"verdict": "Equivalent", "witness": ["shift"]}
        r = ClassificationResult("NotEquivalent", reason=KL_MISMATCH)
        assert r.to_json() == {"verdict": "NotEquivalent", "reason": "KLMismatch"}
        r = ClassificationResult("Undetermined", note="open case")
        assert r.to_json() == {"verdict": "Undetermined", "note": "open case"}
