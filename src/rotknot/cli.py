"""Command-line front end.

Subcommands: `enumerate` tabulates every coloring family of one diagram
with exact and float weights, `classify` decides R-equivalence of two
trochoid colorings, `verify` runs the built-in property suites, and
`render` writes a deterministic SVG of a trochoid diagram.

All output is a pure function of the flags: JSON keys are sorted, floats
are printed as 12-significant-digit strings, and no timestamps or
machine state leak into the bytes.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import sys
from fractions import Fraction
from math import lcm

from .diagram import (
    build_diagram,
    closed_form_weight,
    coloring_orbit,
    enumerate_colorings_finite,
    total_weight,
)
from .exactnum import (
    BudgetError,
    Turn,
    cyc_root,
    cyc_to_json,
    enumerate_unit_elements,
)
from .geom import ORIGIN, area_approx, fmt12, point_xy
from .quandle import DihedralQuandle, ROT, RotElem, cocycle_phi, verify_qc1
from .trochoid import (
    TrochoidSpec,
    check_level_cap,
    classify,
    derive_coloring,
    orbit_bfs,
    replay_spec,
    same_trochoid,
    spec_to_json,
)

SMALL_GRID = [(2, 3), (3, 2), (3, 4), (4, 3)]
FULL_GRID = [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3), (3, 5), (4, 5)]

EXIT_EQUIVALENT = 0
EXIT_NOT_EQUIVALENT = 10
EXIT_UNDETERMINED = 20


# ---------------------------------------------------------------------------
# flag parsing helpers


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_anchor(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"anchor must be 're,im' with rational parts, got {text!r}")
    return point_xy(parse_fraction(parts[0]), parse_fraction(parts[1]))


def parse_turn(text: str) -> Turn:
    return Turn(parse_fraction(text))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _spec_from_args(args, prefix: str) -> TrochoidSpec:
    """The spec of the flags whose names start with prefix: "" for spec a,
    "b_" for the `--b-*` flags of spec b, each of which, when absent,
    takes spec a's value."""

    def flag(name: str):
        value = getattr(args, prefix + name)
        return getattr(args, name) if value is None else value

    return TrochoidSpec(
        args.p,
        args.q,
        flag("k"),
        flag("l"),
        parse_anchor(flag("anchor")),
        parse_turn(flag("direction")),
        parse_fraction(flag("side")),
        flag("chirality"),
    )


def _dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(p: int, q: int) -> dict:
    """One row per (k, l): turn, reduced types, parity, and both weights."""
    build_diagram(p, q)
    check_level_cap(lcm(abs(p), abs(q)))
    rows = []
    for k in range(1, abs(p)):
        for l in range(1, abs(q)):
            s = TrochoidSpec(p, q, k, l)
            w = closed_form_weight(p, q, k, l)
            pq = s.p_prime * s.q_prime
            rows.append(
                {
                    "k": k,
                    "l": l,
                    "theta": str(s.theta),
                    "p_prime": s.p_prime,
                    "q_prime": s.q_prime,
                    "alpha": s.alpha,
                    "parity": "even" if pq % 2 == 0 else "odd",
                    "weight_float": fmt12(area_approx(w)),
                    "weight_scaled_4i": cyc_to_json(w),
                }
            )
    return {"p": p, "q": q, "rows": rows}


def _enumerate_csv(table: dict) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "p", "q", "k", "l", "theta", "p_prime", "q_prime",
            "alpha", "parity", "weight_float", "weight_exact",
        ]
    )
    for row in table["rows"]:
        writer.writerow(
            [
                table["p"], table["q"], row["k"], row["l"], row["theta"],
                row["p_prime"], row["q_prime"], row["alpha"], row["parity"],
                row["weight_float"],
                json.dumps(row["weight_scaled_4i"], sort_keys=True,
                           separators=(",", ":")),
            ]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# classify


def cmd_classify(a: TrochoidSpec, b: TrochoidSpec) -> tuple[dict, int]:
    result = classify(a, b)
    data = {
        "spec_a": spec_to_json(a),
        "spec_b": spec_to_json(b),
        "result": result.to_json(),
    }
    code = {
        "Equivalent": EXIT_EQUIVALENT,
        "NotEquivalent": EXIT_NOT_EQUIVALENT,
        "Undetermined": EXIT_UNDETERMINED,
    }[result.verdict]
    return data, code


# ---------------------------------------------------------------------------
# verify suites


def _random_rot(rng: random.Random) -> RotElem:
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


# ---------------------------------------------------------------------------
# argument parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotknot",
        description="Exact rotation-quandle colorings of torus-knot diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(sp, with_b: bool = False):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--k", type=int, default=1)
        sp.add_argument("--l", type=int, default=1)
        sp.add_argument("--anchor", default="0,0", help="rational 're,im'")
        sp.add_argument("--direction", default="0", help="turn as a fraction")
        sp.add_argument("--chirality", type=int, choices=(1, -1), default=1)
        sp.add_argument("--side", default="1", help="edge length, rational")
        if with_b:
            sp.add_argument("--b-k", type=int, dest="b_k")
            sp.add_argument("--b-l", type=int, dest="b_l")
            sp.add_argument("--b-anchor", dest="b_anchor")
            sp.add_argument("--b-direction", dest="b_direction")
            sp.add_argument("--b-chirality", type=int, choices=(1, -1),
                            dest="b_chirality")
            sp.add_argument("--b-side", dest="b_side")

    sp = sub.add_parser("enumerate", help="tabulate coloring families of D(p,q)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out")

    sp = sub.add_parser("classify", help="decide R-equivalence of two colorings")
    add_spec_flags(sp, with_b=True)
    sp.add_argument("--out")

    sp = sub.add_parser("verify", help="run a built-in property suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--level", type=positive_int)
    sp.add_argument("--grid", choices=("small", "full"))
    sp.add_argument("--depth", type=positive_int)
    sp.add_argument("--out")

    sp = sub.add_parser("render", help="write an SVG of the trochoid diagram")
    add_spec_flags(sp)
    sp.add_argument(
        "--size", type=positive_int, default=640, help="canvas width in pixels"
    )
    sp.add_argument("--out")

    return parser


def main(argv=None) -> int:
    # exact coefficients are printed in full, however many digits they have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "enumerate":
            table = cmd_enumerate(args.p, args.q)
            text = (
                _dump_json(table) if args.format == "json" else _enumerate_csv(table)
            )
            _write_output(text, args.out)
            return 0
        if args.command == "classify":
            spec_a = _spec_from_args(args, "")
            spec_b = _spec_from_args(args, "b_")
            data, code = cmd_classify(spec_a, spec_b)
            _write_output(_dump_json(data), args.out)
            return code
        if args.command == "verify":
            text, code = cmd_verify(args.suite, args)
            _write_output(text, args.out)
            return code
        if args.command == "render":
            from .render import render_trochoid_svg

            svg = render_trochoid_svg(_spec_from_args(args, ""), args.size)
            _write_output(svg, args.out)
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OverflowError, BudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
