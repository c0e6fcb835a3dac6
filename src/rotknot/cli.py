"""Command-line front end.

Subcommands: `enumerate` tabulates every coloring family of one diagram
with exact and float weights, `classify` decides R-equivalence of two
trochoid colorings, `verify` runs the built-in property suites, and
`render` writes a deterministic SVG of a trochoid diagram.

All output is a pure function of the flags: JSON keys are sorted, floats
are printed as 12-significant-digit strings, and no timestamps or
machine state leak into the bytes.

A command loads only the modules it runs.  Importing this module loads
`exactnum` and `geom`; `enumerate` adds `diagram`, `classify` and
`render` add `trochoid` (which loads `diagram`), `render` adds `render`
and `verify` adds `verify`, whose suites load `diagram` and `trochoid`
only where they use them; only `verify appendix` loads `units`.  Without
cached bytecode every module loaded is compiled, so this is start-up
time saved.

`python -m rotknot` and the installed `rotknot` script run `main` through
`rotknot.__main__.main`, which then skips the interpreter's exit-time
garbage collection.  `main` itself leaves the collector alone, so tests
and library callers can run it in their own process.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _encode_str
from math import lcm

from .exactnum import BudgetError, Turn, check_level_cap, cyc_to_json
from .geom import area_approx, fmt12, point_xy

EXIT_EQUIVALENT = 0
EXIT_NOT_EQUIVALENT = 10
EXIT_UNDETERMINED = 20


# ---------------------------------------------------------------------------
# flag parsing helpers


# `Fraction` builds 10**exponent before anything can check it, and what
# follows grows faster than the exponent: on a 2-CPU Xeon `classify
# --anchor 1e100000,0` takes half a second and 1e1000000 half a minute.
MAX_EXPONENT = 100_000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_fraction(text: str) -> Fraction:
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent of {text!r} exceeds {MAX_EXPONENT}")
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


def _spec_from_args(args, prefix: str):
    """The `TrochoidSpec` of the flags whose names start with prefix: ""
    for spec a, "b_" for the `--b-*` flags of spec b, each of which, when
    absent, takes spec a's value."""
    from .trochoid import TrochoidSpec

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


# Output is written as it is made: a whole document would cost as much
# memory as the table it prints.  JSON goes out a row per `write` (see
# `_json_pieces`); CSV rows are short, and one write per row would be one
# syscall each when stdout is unbuffered, so they go out in batches.
CSV_BATCH = 64  # table rows per write


def _batches(items, size: int):
    """Lists of up to size consecutive items; ends on the first empty one."""
    items = iter(items)
    while batch := list(islice(items, size)):
        yield batch


def _encode(o, ind: str) -> str:
    """The text of `json.dumps(o, sort_keys=True, indent=2)` for a value
    nested in a line indented by ind; dict keys must be str.  With an indent
    the stdlib encodes in pure Python, one generator chunk at a time;
    joining each container's items instead takes half the time."""
    if isinstance(o, str):
        return _encode_str(o)
    if type(o) is int:
        return int.__repr__(o)
    inner = ind + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_encode_str(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + ind + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_encode(v, inner) for v in o]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + ind + "]"
    return json.dumps(o)


def _json_pieces(data):
    """The text of `json.dumps(data, sort_keys=True, indent=2)` and a final
    newline: one piece per member of a top-level dict, except that a list
    member gives one piece per element (one `enumerate` row)."""
    if not isinstance(data, dict) or not data:
        yield _encode(data, "") + "\n"
        return
    opening = "{"
    for key, value in sorted(data.items()):
        head = opening + "\n  " + _encode_str(key) + ": "
        if isinstance(value, (list, tuple)) and value:
            head += "["
            for item in value:
                yield head + "\n    " + _encode(item, "    ")
                head = ","
            yield "\n  ]"
        else:
            yield head + _encode(value, "  ")
        opening = ","
    yield "\n}\n"


def _write_output(pieces, out: str | None) -> None:
    """Write the texts in order to stdout or, if out is given, to a new
    file there.  Callers build what they print first, so a bad spec exits
    before the file is created."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(p: int, q: int) -> dict:
    """One row per (k, l): turn, reduced types, parity, and both weights."""
    from .diagram import (
        check_torus_type,
        closed_form_weight,
        lattice_alpha,
        reduced_types,
        theta,
    )

    check_torus_type(p, q)
    check_level_cap(lcm(abs(p), abs(q)))
    rows = []
    for k in range(1, abs(p)):
        for l in range(1, abs(q)):
            p_prime, q_prime = reduced_types(p, q, k, l)
            w = closed_form_weight(p, q, k, l)
            rows.append(
                {
                    "k": k,
                    "l": l,
                    "theta": str(theta(abs(p), k, abs(q), l)),
                    "p_prime": p_prime,
                    "q_prime": q_prime,
                    "alpha": lattice_alpha(p, q, k, l),
                    "parity": "even" if p_prime * q_prime % 2 == 0 else "odd",
                    "weight_float": fmt12(area_approx(w)),
                    "weight_scaled_4i": cyc_to_json(w),
                }
            )
    return {"p": p, "q": q, "rows": rows}


def _enumerate_csv(table: dict):
    """The CSV text of an `enumerate` table, in batches of CSV_BATCH rows."""
    import csv

    header = [
        "p", "q", "k", "l", "theta", "p_prime", "q_prime",
        "alpha", "parity", "weight_float", "weight_exact",
    ]
    rows = (
        [
            table["p"], table["q"], row["k"], row["l"], row["theta"],
            row["p_prime"], row["q_prime"], row["alpha"], row["parity"],
            row["weight_float"],
            json.dumps(row["weight_scaled_4i"], sort_keys=True,
                       separators=(",", ":")),
        ]
        for row in table["rows"]
    )
    for batch in _batches(chain((header,), rows), CSV_BATCH):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(batch)
        yield buf.getvalue()


# ---------------------------------------------------------------------------
# classify


def cmd_classify(a, b) -> tuple[dict, int]:
    """The JSON of the verdict on the `TrochoidSpec`s a and b, and its exit
    code."""
    from .trochoid import classify, spec_to_json

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
    # verify.SUITES, spelled out so that parsing does not load the suites
    sp.add_argument("suite", choices=("appendix", "axioms", "cocycle", "orbit", "weights"))
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
            pieces = (
                _json_pieces(table) if args.format == "json" else _enumerate_csv(table)
            )
            _write_output(pieces, args.out)
            return 0
        if args.command == "classify":
            spec_a = _spec_from_args(args, "")
            spec_b = _spec_from_args(args, "b_")
            data, code = cmd_classify(spec_a, spec_b)
            _write_output(_json_pieces(data), args.out)
            return code
        if args.command == "verify":
            from .verify import cmd_verify

            text, code = cmd_verify(args.suite, args)
            _write_output((text,), args.out)
            return code
        if args.command == "render":
            from .render import render_trochoid_svg

            svg = render_trochoid_svg(_spec_from_args(args, ""), args.size)
            _write_output((svg,), args.out)
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OverflowError, BudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
