"""Tests for trochoid construction, moves, the lattice, and classification."""

import random
import runpy
from collections import deque
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rotknot import trochoid, verify
from rotknot.cocycle import closed_form_weight, total_weight
from rotknot.diagram import (
    breadth_first,
    check_coloring,
    shift_generic,
    switch_generic,
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
    _bfs_witness,
    _group_element,
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
    replay,
    replay_spec,
    same_trochoid,
    session_level,
    shift,
    spec_from_json,
    spec_to_json,
    state_key,
    switch,
    theta,
    trochoid_vertices,
    unit_neighbors,
    v_sets_sigma_tau,
)
from rotknot.verify import FULL_GRID, orbit_bfs

from conftest import grid_cells, rot_coloring_3211


def grid_specs():
    return (TrochoidSpec(*cell) for cell in grid_cells())


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

    def test_side_is_a_fraction(self):
        # the value is kept, not the object: `side` builds a new one
        class Sub(Fraction):
            pass

        for given in (Fraction(3, 2), Sub(3, 2), 2):
            side = TrochoidSpec(3, 2, 1, 1, side=given).side
            assert type(side) is Fraction and side == given

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

    @settings(max_examples=150)
    @given(
        st.sampled_from([(3, 2, 1, 1), (4, 3, 1, 2), (-5, 3, 2, 1), (5, -7, 2, 3), (3, 5, 1, 4)]),
        st.fractions(-2, 2, max_denominator=3),
        st.integers(0, 11),
        st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2), 2]),
        st.sampled_from([1, -1]),
        st.lists(st.sampled_from(["shift", "switch", "flip"]), max_size=10),
    )
    def test_moves_build_what_the_constructor_builds(
        self, params, re, direction, side, chirality, word
    ):
        """Each spec a move makes without the constructor's checks equals,
        field by field, hash and repr alike, the spec the validating
        constructor makes of the same fields."""
        spec = TrochoidSpec(*params, point_xy(re, 1), Turn(direction, 12), side, chirality)
        for move in word:
            spec = flip_chirality(spec) if move == "flip" else apply_move(spec, move)
            fields = [getattr(spec, name) for name in spec._fields]
            checked = TrochoidSpec(*fields)
            assert spec == checked and hash(spec) == hash(checked) == hash(tuple(fields))
            assert repr(spec) == repr(checked)
            for name in spec.__slots__[:-1]:
                got, want = getattr(spec, name), getattr(checked, name)
                if isinstance(got, Cyc):
                    got, want = (got.level, got.num, got.den), (want.level, want.num, want.den)
                assert got == want and type(got) is type(want)


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


def bfs_witness_by_canonical_key(a, b, max_moves):
    """The witness search as it was before `state_key`: every state keyed
    by `canonical_key`, kept as the reference for the words it returns."""
    target = b.canonical_key()
    for k, _, word in breadth_first(a, apply_move, TrochoidSpec.canonical_key, max_moves):
        if k == target:
            return MoveSeq(word)
    return None


def benchmark_classify_cases():
    """(a, b) of every classify job the benchmark builds: the fixed and
    traced-only cases, and the seeded targets of seeds 0-10 and 501-510."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    workloads = runpy.run_path(str(path))
    cases = workloads["CLASSIFY_FIXED"] + workloads["CLASSIFY_TRACED_ONLY"]
    for seed in [*range(11), *range(501, 511)]:
        cases += workloads["classify_seeded"](seed)
    return [(case.a.trochoid(), case.b.trochoid()) for case in cases]


class TestStateKey:
    @pytest.mark.parametrize(
        "spec",
        [
            TrochoidSpec(3, 2, 1, 1, point_xy(1, 2), Turn(1, 4)),  # p'q' = 6, even
            TrochoidSpec(5, 3, 2, 1),  # p'q' = 15, odd
            TrochoidSpec(4, 3, 1, 2, point_xy(Fraction(1, 2), -1), side=Fraction(3, 2)),
            TrochoidSpec(3, -2, 1, 1, Cyc.one(), Turn(1, 6), chirality=-1),
            TrochoidSpec(-5, 3, 2, 1, point_xy(Fraction(1, 3), 0), Turn(1, 8),
                         Fraction(3, 2), -1),
        ],
        ids=["even", "odd", "side-3/2", "negative-q-chirality-1",
             "odd-negative-p-chirality-1-side-3/2"],
    )
    def test_same_search_as_canonical_key(self, spec):
        """Keyed by integers at the session level, the search visits the
        same states with the same words, in the same order."""
        key = state_key(session_level(spec))
        want = [
            (s.canonical_key(), w)
            for _, s, w in breadth_first(spec, apply_move, TrochoidSpec.canonical_key, 8)
        ]
        got = [(s.canonical_key(), w) for _, s, w in breadth_first(spec, apply_move, key, 8)]
        assert got == want
        assert len(want[-1][1]) == 8  # the search did reach depth 8

    def test_anchor_outside_level_raises(self):
        key = state_key(4)
        key(TrochoidSpec(3, 2, 1, 1, point_xy(1, 2)))
        with pytest.raises(LevelError):
            key(TrochoidSpec(3, 2, 1, 1, cyc_root(3)))

    def test_witness_words_unchanged_on_benchmark_cases(self):
        searched = 0
        for a, b in benchmark_classify_cases():
            if (a.k, a.l, a.side) != (b.k, b.l, b.side):
                continue
            max_moves = 4 if a.p_prime * a.q_prime % 2 == 0 else 12
            assert _bfs_witness(a, b, max_moves) == bfs_witness_by_canonical_key(
                a, b, max_moves
            )
            searched += 1
        assert searched >= 80


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
        monkeypatch.setattr(verify, "NODE_BUDGET", 5)
        s = TrochoidSpec(2, 3, 1, 1)
        with pytest.raises(
            BudgetError,
            match="orbit search exceeded 5 states .*; verify.NODE_BUDGET caps it",
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
                        group_word = _group_witness(s, *_group_element(s, state))
                        assert same_trochoid(replay_spec(group_word, s), state)

    @pytest.mark.parametrize(
        "a",
        [
            TrochoidSpec(3, 2, 1, 1),
            TrochoidSpec(4, 3, 1, 2),
            TrochoidSpec(5, 3, 2, 1),
            TrochoidSpec(3, 5, 1, 1),
            TrochoidSpec(7, 3, 2, 1),
            TrochoidSpec(3, -2, 1, 1, point_xy(1, 2), Turn(1, 3), Fraction(3, 2), -1),
            TrochoidSpec(-5, 3, 2, 1, point_xy(Fraction(1, 2), -1), Turn(1, 4), Fraction(2), -1),
            TrochoidSpec(3, -5, 1, 1, point_xy(-1, 3), Turn(5, 12), Fraction(3, 2), -1),
        ],
    )
    def test_bounded_search_finds_only_group_members(self, a):
        # every state within 6 moves has a group word, at odd p'q' too, so
        # deciding odd p'q' by the group can only turn Undetermined into
        # a replayed Equivalent
        states = orbit_bfs(a, 6)
        assert len(states) > 1
        for state, _ in states:
            element = _group_element(a, state)
            assert element is not None
            assert same_trochoid(replay_spec(_group_witness(a, *element), a), state)

    @settings(max_examples=90)
    @given(st.data())
    def test_even_verdict_is_lattice_membership(self, data):
        # the group element exists exactly on lattice membership plus whole
        # turns theta for both parities of p'q'; at odd p'q' a member
        # without a short word is Undetermined, so only even p'q' is
        # checked against the verdict
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
        element = _group_element(a, b)
        assert (element is not None) == in_group
        if in_group:
            assert same_trochoid(replay_spec(_group_witness(a, *element), a), b)
        if n % 2:
            return
        r = classify(a, b)
        in_lattice = lattice_contains(lat, anchor) and offset.fraction * lat.level % 1 == 0
        assert (r.verdict == "Equivalent") == in_lattice
        if in_lattice:
            assert same_trochoid(replay_spec(r.witness, a), b)
        else:
            assert r.reason == LATTICE_MISMATCH


def classify_search_first(a, b):
    """classify at odd p'q' as it was before the move group came first:
    a search of at most 12 moves, and Undetermined when it finds no
    word.  Kept as the reference for the group-first verdicts."""
    witness = _bfs_witness(a, b, 12)
    if witness is not None:
        return ClassificationResult("Equivalent", witness=witness)
    v_sigma, v_tau = v_sets_sigma_tau(a)
    note = (
        f"p'q' = {a.p_prime * a.q_prime} is odd: bounded search found no move "
        "word; the theory leaves this case open. "
        f"Direction classes: V_sigma={sorted(v_sigma)}, V_tau={sorted(v_tau)}"
    )
    return ClassificationResult("Undetermined", note=note)


# types whose p'q' is odd, and types whose p'q' is even, for every (k, l)
ODD_TYPES = [(3, 5), (5, 3), (7, 3), (3, -5), (-5, 3)]
EVEN_TYPES = [(3, 2), (2, 3), (4, 3), (-3, 4), (5, 2), (5, 4)]


def odd_cases(count, seed):
    """(a, b) pairs at odd p'q' with one (k, l) and side: b is a's image
    under a random same-side word of 2 to 16 moves, then in some cases
    mirrored, moved by an integer point or turned by 1/2N."""
    rng = random.Random(seed)
    for _ in range(count):
        p, q = rng.choice(ODD_TYPES)
        re = Fraction(rng.randrange(-3, 4), rng.choice([1, 2]))
        a = TrochoidSpec(
            p, q, rng.randrange(1, abs(p)), rng.randrange(1, abs(q)),
            point_xy(re, rng.randrange(-2, 3)),
            Turn(rng.randrange(12), 12),
            rng.choice([Fraction(1), Fraction(3, 2)]),
            rng.choice([1, -1]),
        )
        moves = [rng.choice(["shift", "switch"]) for _ in range(rng.randrange(2, 17))]
        if moves.count("switch") % 2:
            moves.append("switch")
        b = replay_spec(MoveSeq(tuple(moves)), a)
        change = rng.randrange(4)
        if change == 1:
            b = flip_chirality(b)
        elif change == 2:
            moved = b.anchor + point_xy(rng.randrange(-1, 2), rng.randrange(-1, 2))
            b = TrochoidSpec(p, q, a.k, a.l, moved, b.direction, a.side, b.chirality)
        elif change == 3:
            turn = Turn(1, 2 * a.p_prime * a.q_prime)
            b = TrochoidSpec(p, q, a.k, a.l, b.anchor, b.direction + turn, a.side, b.chirality)
        yield a, b


class TestGroupFirst:
    """The move group decides first at both parities; the search only
    shortens the words of group members."""

    @pytest.mark.parametrize("params, n", [((3, 5, 1, 1), 15), ((7, 5, 2, 3), 35)])
    def test_odd_flip_never_searches(self, params, n, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched for a target outside the orbit")

        monkeypatch.setattr(trochoid, "_bfs_witness", no_search)
        s = TrochoidSpec(*params)
        # the JSON the search-first classifier gave for criterion 10(d)'s flips
        note = (
            f"p'q' = {n} is odd: bounded search found no move word; the theory "
            "leaves this case open. Direction classes: "
            f"V_sigma={list(range(0, 2 * n, 2))}, V_tau={list(range(1, 2 * n, 2))}"
        )
        want = {"verdict": "Undetermined", "note": note}
        assert classify(s, flip_chirality(s)).to_json() == want

    def test_odd_members_never_build_the_group_word(self, monkeypatch):
        # the word for a member 10**17 unit steps away would have about
        # 2e18 moves; odd p'q' needs only membership to answer Undetermined
        def no_word(*args):
            raise AssertionError("built a group word at odd p'q'")

        monkeypatch.setattr(trochoid, "_group_witness", no_word)
        a = TrochoidSpec(5, 3, 2, 1)
        far = TrochoidSpec(5, 3, 2, 1, point_xy(10**17))
        assert _group_element(a, far) is not None
        assert classify(a, far).verdict == "Undetermined"
        assert classify(a, shift(shift(a))).witness == MoveSeq(("shift", "shift"))

    def test_odd_verdicts_match_search_first(self):
        verdicts = set()
        for a, b in odd_cases(100, 23):
            got = classify(a, b).to_json()
            assert got == classify_search_first(a, b).to_json(), (a, b)
            verdicts.add((got["verdict"], _group_element(a, b) is not None))
        # members with and without a short word, and non-members
        assert verdicts == {
            ("Equivalent", True), ("Undetermined", True), ("Undetermined", False)
        }


@st.composite
def related_pairs(draw, types):
    """(a, b) of one diagram, (k, l) and side: b is a's image under a
    same-side word of up to 8 moves, then in some cases mirrored, moved by
    a half-integer point or turned by a multiple of 1/2N."""
    p, q = draw(st.sampled_from(types))
    a = TrochoidSpec(
        p, q, draw(st.integers(1, abs(p) - 1)), draw(st.integers(1, abs(q) - 1)),
        point_xy(draw(st.fractions(-3, 3, max_denominator=2)),
                 draw(st.fractions(-2, 2, max_denominator=3))),
        Turn(draw(st.integers(0, 11)), 12),
        draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)])),
        draw(st.sampled_from([1, -1])),
    )
    b = replay_spec(draw(same_side_words()), a)
    n = a.p_prime * a.q_prime
    change = draw(st.sampled_from(["none", "mirror", "move", "turn"]))
    if change == "mirror":
        b = flip_chirality(b)
    elif change == "move":
        step = point_xy(Fraction(draw(st.integers(-2, 2)), 2), draw(st.integers(-1, 1)))
        b = TrochoidSpec(p, q, a.k, a.l, b.anchor + step, b.direction, a.side, b.chirality)
    elif change == "turn":
        turn = Turn(draw(st.integers(1, 3)), 2 * n)
        b = TrochoidSpec(p, q, a.k, a.l, b.anchor, b.direction + turn, a.side, b.chirality)
    return a, b


def same_side_words(max_size=8):
    """Words of up to max_size moves, and one more switch where that makes
    the number of switches even."""
    return st.lists(st.sampled_from(["shift", "switch"]), max_size=max_size).map(
        lambda moves: MoveSeq(tuple(moves + ["switch"] * (moves.count("switch") % 2)))
    )


def moved(spec, turn, offset):
    """spec under the isometry z -> u(turn) z + offset, its direction turned."""
    return TrochoidSpec(
        spec.p, spec.q, spec.k, spec.l, rotate(spec.anchor, ORIGIN, turn) + offset,
        spec.direction + turn, spec.side, spec.chirality,
    )


class TestRelation:
    """`classify` as a relation: it commutes with isometries, and at even
    p'q' it is symmetric and blind to the representative of b's orbit.  At
    both parities Equivalent pairs have equal weights, and the pairs along a
    chain of short same-side words are Equivalent with witnesses that
    replay (metamorphic tests: Chen, Cheung and Yiu, HKUST-CS98-01, 1998)."""

    @settings(max_examples=100)
    @given(related_pairs(ODD_TYPES + EVEN_TYPES), st.data())
    def test_isometry_keeps_the_json(self, pair, data):
        # a rotation about the origin by j/2N of a turn keeps both session
        # levels, which already hold 2N, and a rational offset keeps them too
        a, b = pair
        n = a.p_prime * a.q_prime
        turn = Turn(data.draw(st.integers(0, 2 * n - 1)), 2 * n)
        offset = point_xy(data.draw(st.fractions(-3, 3, max_denominator=3)),
                          data.draw(st.fractions(-3, 3, max_denominator=2)))
        assert classify(moved(a, turn, offset), moved(b, turn, offset)).to_json() == (
            classify(a, b).to_json()
        )

    @settings(max_examples=60)
    @given(related_pairs(EVEN_TYPES), same_side_words())
    def test_even_verdicts_symmetric_and_orbit_blind(self, pair, word):
        a, b = pair
        verdicts = {
            (r.verdict, r.reason)
            for r in (classify(a, b), classify(b, a), classify(a, replay_spec(word, b)))
        }
        assert len(verdicts) == 1

    @settings(max_examples=100)
    @given(related_pairs(ODD_TYPES + EVEN_TYPES))
    def test_membership_symmetric(self, pair):
        a, b = pair
        assert (_group_element(a, b) is None) == (_group_element(b, a) is None)

    @settings(max_examples=100)
    @given(related_pairs(ODD_TYPES + EVEN_TYPES))
    def test_equivalent_pairs_have_equal_weights(self, pair):
        a, b = pair
        if classify(a, b).verdict == "Equivalent":
            assert total_weight(derive_coloring(a), ORIGIN) == (
                total_weight(derive_coloring(b), ORIGIN)
            )

    @settings(max_examples=60)
    @given(related_pairs(ODD_TYPES + EVEN_TYPES), same_side_words(5), same_side_words(5))
    def test_chains_are_equivalent_and_replay(self, pair, w1, w2):
        # a -> w1.a -> w2.w1.a; a word of at most 12 moves joins each pair,
        # short enough for the search at odd p'q'
        a = pair[0]
        b1 = replay_spec(w1, a)
        b2 = replay_spec(w2, b1)
        for x, y in [(a, b1), (b1, b2), (a, b2)]:
            r = classify(x, y)
            assert r.verdict == "Equivalent", (x, y)
            assert same_trochoid(replay_spec(r.witness, x), y)

    @pytest.mark.xfail(
        strict=True,
        reason="at odd p'q' a member with no word of at most 12 moves is "
        "Undetermined, and the search is not symmetric (ROADMAP item 1)",
    )
    def test_odd_verdicts_symmetric(self):
        a = TrochoidSpec(3, 5, 1, 2, point_xy(1), Turn(1, 4))
        b = replay_spec(MoveSeq(("switch", "shift") * 4 + ("shift",)), a)
        assert len(classify(a, b).witness) == 9
        assert classify(b, a).verdict == "Equivalent"


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
