"""Command-line front end.

Subcommands: `enumerate` tabulates every coloring family of one diagram
with exact and float weights, `classify` decides R-equivalence of two
trochoid colorings, `verify` runs the built-in property suites, and
`render` writes a deterministic SVG of a trochoid diagram.

All output is a pure function of the flags: JSON keys are sorted, floats
are printed as 12-significant-digit strings, and no timestamps or
machine state leak into the bytes.

The flags of every command are one table, COMMANDS, and `parse_args`
reads a command line against it: each flag's converter, default, whether
it is required and the values it may take.  A flag that takes a value
takes the next word, whatever it starts with, unless that word is `-h`,
`--help` or one of the command's own flags; so `--anchor -1,0` reads
-1,0.  A name is never expanded from its prefix, so `--anc` is unknown,
and a usage error is one `error:` line, in argparse's words, on `main`'s
one refusal path (exit 2).  `-h` or `--help` prints a synopsis built
from the table.  Neither argparse nor the `gettext` and `locale` modules
it loads are imported.

A command loads only the modules it runs.  Importing this module loads
`exactnum` and `geom`; `enumerate` adds `families` (which loads
`diagram`), `classify` and `render` add `trochoid` (which loads
`diagram`), `render` adds `render` and `verify` adds `verify`, whose
suites load `diagram` and `trochoid` only where they use them; only
`verify appendix` loads `units`.  No command loads the `csv` or `json`
package: strings are escaped here, `families` writes the CSV text
itself, and `json` is imported only for a string that is not ASCII or a
leaf that is not a str, int or `Cyc`.  Rationals are read as integer
pairs (`parse_ratio`), so `fractions` is imported only for a literal
that `Fraction` itself must read, such as 1.5.  The pattern of decimal
exponents is compiled on its first use.  Without cached bytecode every
module loaded is compiled, so this is start-up time saved.

`python -m rotknot` and the installed `rotknot` script run `main` through
`rotknot.__main__.main`, which then skips the interpreter's exit-time
garbage collection.  `main` itself leaves the collector alone, so tests
and library callers can run it in their own process.
"""

from __future__ import annotations

import re
import sys
from itertools import islice
from math import gcd
from types import SimpleNamespace

from .exactnum import BudgetError, Cyc, Turn, _fraction
from .geom import _point_xy

EXIT_EQUIVALENT = 0
EXIT_NOT_EQUIVALENT = 10
EXIT_UNDETERMINED = 20


# ---------------------------------------------------------------------------
# flag parsing helpers


# `Fraction` builds 10**exponent before anything can check it, and what
# follows grows faster than the exponent: on a 2-CPU Xeon `classify
# --anchor 1e100000,0` takes half a second and 1e1000000 half a minute.
MAX_EXPONENT = 100_000
_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z"  # compiled by `re` on first use


def _digits(text: str) -> bool:
    return text.isdigit() and text.isascii()


def parse_ratio(text: str) -> tuple[int, int]:
    """The rational literal text as (numerator, denominator) in lowest
    terms, the value `Fraction(text)` has, with a ValueError where that
    raises.  An integer or a/b of ASCII digits, the first with an optional
    sign and both with optional surrounding whitespace, is read by `int()`:
    every Python version's `Fraction` reads those alike.  Any other
    literal goes to `Fraction` itself, so its grammar and messages stay
    whole: a decimal point, an exponent, `_`, inner spaces or other
    digits.  An exponent above MAX_EXPONENT is refused first."""
    exponent = ("e" in text or "E" in text) and re.search(_EXPONENT, text)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent of {text!r} exceeds {MAX_EXPONENT}")
    num, slash, den = text.strip().partition("/")
    if _digits(num[1:] if num[:1] in "+-" else num) and (_digits(den) or not slash):
        n, d = int(num), int(den or 1)
    else:
        from fractions import Fraction

        try:
            n, d = Fraction(text.strip()).as_integer_ratio()
        except ZeroDivisionError:
            n = d = 0
    if not d:
        raise ValueError(f"zero denominator in {text!r}")
    g = gcd(n, d)
    return n // g, d // g


def parse_fraction(text: str):
    """The rational literal text as a Fraction, read by `parse_ratio`."""
    return _fraction(*parse_ratio(text))


def parse_anchor(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"anchor must be 're,im' with rational parts, got {text!r}")
    return _point_xy(*parse_ratio(parts[0]), *parse_ratio(parts[1]))


def parse_turn(text: str) -> Turn:
    return Turn(*parse_ratio(text))


def _spec_from_args(args, prefix: str):
    """The `TrochoidSpec` of the flags whose names start with prefix: ""
    for spec a, "b_" for the `--b-*` flags of spec b, each of which, when
    absent, takes spec a's value.  A rational that does not parse, and a
    k, l or side out of range, is a ValueError that names the flag it came
    from.  The checks are those of `TrochoidSpec()`, in its order after the
    rationals are read, so the spec is built without them."""
    from .diagram import check_torus_type
    from .trochoid import TrochoidSpec, check_side, check_step

    def flag(name: str, parse=lambda value: value):
        if getattr(args, prefix + name) is not None:
            name = prefix + name
        try:
            return parse(getattr(args, name))
        except ValueError as exc:
            raise ValueError(f"argument --{name.replace('_', '-')}: {exc}") from None

    anchor = flag("anchor", parse_anchor)
    direction = flag("direction", parse_turn)
    side = flag("side", parse_ratio)
    check_torus_type(args.p, args.q)
    return TrochoidSpec._raw(
        args.p,
        args.q,
        flag("k", lambda k: check_step("k", k, args.p)),
        flag("l", lambda l: check_step("l", l, args.q)),
        anchor,
        direction,
        *flag("side", lambda _: check_side(side)),
        flag("chirality"),
    )


# Output is written as it is made: a whole document would cost as much
# memory as the table it prints.  JSON goes out a row per `write` (see
# `_json_pieces`); CSV rows are short, and one write per row would be one
# syscall each when stdout is unbuffered, so they go out in batches, as do
# the moves of a `classify` witness.  An exact value is written straight
# from its integer coordinates: a table row holds the `Cyc`, not the lists
# of `cyc_to_json`.
CSV_BATCH = 64  # table rows or witness moves per write

# What `json.dumps` writes for each ASCII character it escapes: `"` and
# `\` after a backslash, five control characters by their short escapes,
# and the other control characters and DEL as \u00xx.
_ASCII_ESCAPES = {
    **{c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F)},
    **{ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')},
}


def _encode_str(s: str) -> str:
    """The text of `json.dumps(s)`; the `json` package is loaded only for
    a string that is not ASCII."""
    if s.isascii():
        if s.isprintable() and '"' not in s and "\\" not in s:
            return '"' + s + '"'  # nothing to escape, as in every key
        return '"' + s.translate(_ASCII_ESCAPES) + '"'
    import json

    return json.dumps(s)


def _batches(items, size: int):
    """Lists of up to size consecutive items; ends on the first empty one."""
    items = iter(items)
    while batch := list(islice(items, size)):
        yield batch


def _encode(o, ind: str) -> str:
    """The text of `json.dumps(o, default=cyc_to_json, sort_keys=True,
    indent=2)` for a value nested in a line indented by ind; dict keys must
    be str.  With an indent the stdlib encodes in pure Python, one
    generator chunk at a time; joining each container's items instead
    takes half the time."""
    if isinstance(o, str):
        return _encode_str(o)
    if type(o) is int:
        return int.__repr__(o)
    if type(o) is Cyc:
        return _encode_cyc(o, ind)
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
    import json  # a float, bool or None: only the null of an `approx` that overflows

    return json.dumps(o)


def _encode_cyc(a: Cyc, ind: str) -> str:
    """The text of `cyc_to_json(a)` nested at ind, made from a's integers:
    one `str` per integer and no list per coordinate.  The strings hold
    only digits and `-`, so none needs escaping, and a value has at least
    one coordinate."""
    inner = ind + "  "
    pair = inner + "  "
    value = pair + "  "
    mid = '",\n' + value + '"'  # between a coordinate's numerator and denominator
    close = '"\n' + pair + "]"
    sep = close + ",\n" + pair + '[\n' + value + '"'
    head = "{\n" + inner + '"coeffs": [\n' + pair + "[\n" + value + '"'
    tail = close + "\n" + inner + '],\n' + inner + '"level": ' + str(a.level) + "\n" + ind + "}"
    den = a.den
    if den == 1:
        return head + (mid + "1" + sep).join(map(str, a.num)) + mid + "1" + tail
    texts = [str(c // (g := gcd(c, den))) + mid + str(den // g) for c in a.num]
    return head + sep.join(texts) + tail


def _json_pieces(data):
    """The text of `json.dumps(data, default=cyc_to_json, sort_keys=True,
    indent=2)` and a final newline, in pieces.  A top-level dict gives one
    piece per member, except that a list member gives one piece per
    element (one `enumerate` row), and a dict member gives pieces of its
    own members, a list among them one piece per CSV_BATCH elements (the
    moves of a `classify` witness)."""
    if not isinstance(data, dict) or not data:
        yield _encode(data, "") + "\n"
        return
    yield from _member_pieces(data, "", 1, "{")
    yield "\n}\n"


def _member_pieces(d: dict, ind: str, size: int, opening: str):
    """The members of the non-empty dict d nested at ind, in pieces after
    opening, the text up to and with its `{`: a non-empty list member in
    pieces of size elements, and at the top (size 1) a non-empty dict
    member split the same way with size CSV_BATCH; any other member whole.
    The closing `}` is the caller's."""
    inner = ind + "  "
    item_ind = inner + "  "
    for key, value in sorted(d.items()):
        head = opening + "\n" + inner + _encode_str(key) + ": "
        opening = ","
        if isinstance(value, (list, tuple)) and value:
            head += "["
            for batch in _batches(value, size):
                texts = [_encode(v, item_ind) for v in batch]
                yield head + "\n" + item_ind + (",\n" + item_ind).join(texts)
                head = ","
            yield "\n" + inner + "]"
        elif size == 1 and isinstance(value, dict) and value:
            yield from _member_pieces(value, inner, CSV_BATCH, head + "{")
            yield "\n" + inner + "}"
        else:
            yield head + _encode(value, inner)


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
# the flag table and its parser


class UsageError(ValueError):
    """A command line the flag table refuses; `main` prints it as its one
    `error:` line and exits 2."""


class HelpRequested(Exception):
    """`-h` or `--help`; the message is the synopsis to print."""


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise UsageError(f"must be a positive integer, got {value}")
    return value


class Flag:
    """One flag of a command: the converter of its text, its value when
    absent, whether it must be given, and the values it may take."""

    __slots__ = ("convert", "default", "required", "choices")

    def __init__(self, convert=str, default=None, required=False, choices=()):
        self.convert = convert
        self.default = default
        self.required = required
        self.choices = choices


_P_Q = {"--p": Flag(int, required=True), "--q": Flag(int, required=True)}
_SPEC = {
    **_P_Q,
    "--k": Flag(int, 1),
    "--l": Flag(int, 1),
    "--anchor": Flag(default="0,0"),  # rational 're,im'
    "--direction": Flag(default="0"),  # a turn, as a fraction
    "--chirality": Flag(int, 1, choices=(1, -1)),
    "--side": Flag(default="1"),  # the edge length, rational
}
_OUT = {"--out": Flag()}

# The flags of each command, in the order `--help` lists them.  A name
# without dashes is a positional argument.  Each sets the attribute of its
# name without the leading dashes and with `_` for `-` (`--b-k` sets b_k).
COMMANDS = {
    "enumerate": {
        **_P_Q,
        "--format": Flag(default="json", choices=("json", "csv")),
        **_OUT,
    },
    "classify": {
        **_SPEC,
        "--b-k": Flag(int),
        "--b-l": Flag(int),
        "--b-anchor": Flag(),
        "--b-direction": Flag(),
        "--b-chirality": Flag(int, choices=(1, -1)),
        "--b-side": Flag(),
        **_OUT,
    },
    "verify": {
        # verify.SUITES, spelled out so that parsing does not load the suites
        "suite": Flag(required=True,
                      choices=("appendix", "axioms", "cocycle", "orbit", "weights")),
        "--level": Flag(positive_int),
        "--grid": Flag(choices=("small", "full")),
        "--depth": Flag(positive_int),
        **_OUT,
    },
    "render": {**_SPEC, "--size": Flag(positive_int, 640), **_OUT},  # width in pixels
}
ABOUT = {
    "enumerate": "tabulate coloring families of D(p,q)",
    "classify": "decide R-equivalence of two colorings",
    "verify": "run a built-in property suite",
    "render": "write an SVG of the trochoid diagram",
}
HELP = ("-h", "--help")


def _is_flag(word: str, table) -> bool:
    """Whether word is one of the table's flags, alone or before `=`."""
    name = word.partition("=")[0]
    return name[:1] == "-" and name in table


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _choices(values) -> str:
    return ", ".join(map(repr, values))


def _synopsis(command: str | None) -> str:
    if command is None:
        lines = [
            f"usage: rotknot {{{','.join(COMMANDS)}}} [flags]",
            "",
            "Exact rotation-quandle colorings of torus-knot diagrams",
            "",
            *(f"  {name:<10} {about}" for name, about in ABOUT.items()),
            "",
            "`rotknot COMMAND --help` lists the flags of COMMAND.",
        ]
    else:
        lines = [f"usage: rotknot {command} [flags]", "", ABOUT[command], ""]
        for name, flag in COMMANDS[command].items():
            a_name = name.replace("--b-", "--")
            if flag.choices:
                shown = "{" + ",".join(map(str, flag.choices)) + "}"
            else:
                shown = a_name.lstrip("-").upper()
            if name[0] == "-":
                shown = f"{name} {shown}"
            if flag.required:
                shown = f"{shown:<24} required"
            elif flag.default is not None:
                shown = f"{shown:<24} default {flag.default}"
            elif a_name != name:
                shown = f"{shown:<24} default {a_name}"
            lines.append("  " + shown)
    return "\n".join(lines) + "\n"


def _convert(name: str, flag: Flag, text: str):
    try:
        value = flag.convert(text)
    except UsageError as exc:
        raise UsageError(f"argument {name}: {exc}") from None
    except ValueError:  # the converters that can fail read an int first
        raise UsageError(f"argument {name}: invalid int value: {text!r}") from None
    if flag.choices and value not in flag.choices:
        raise UsageError(
            f"argument {name}: invalid choice: {value!r} "
            f"(choose from {_choices(flag.choices)})"
        )
    return value


def parse_args(argv) -> SimpleNamespace:
    """The command and flag values of argv, read against COMMANDS.

    It reads `--flag value` and `--flag=value`, the last of repeated
    flags, and options on either side of the `verify` suite.  A flag
    takes the next word as its value unless that word is `-h`, `--help`
    or one of the command's own flags.  A word that starts with `-` never
    fills the command or a positional slot, and a name is never expanded
    from its prefix.  Each refusal is a UsageError naming the first fault
    in argparse's words: a bad value, then a missing required flag, then
    unrecognized words.  HelpRequested carries the synopsis for `-h` or
    `--help`.
    """
    args = iter(argv)
    extras = []
    for command in args:
        if command in HELP:
            raise HelpRequested(_synopsis(None))
        if command[:1] != "-":
            break
        extras.append(command)
    else:
        raise UsageError("the following arguments are required: command")
    if command not in COMMANDS:
        raise UsageError(
            f"argument command: invalid choice: {command!r} "
            f"(choose from {_choices(COMMANDS)})"
        )
    table = COMMANDS[command]
    values = {"command": command, **{_dest(name): flag.default for name, flag in table.items()}}
    positionals = [name for name in table if name[0] != "-"]
    seen = set()
    for arg in args:
        if arg in HELP:
            raise HelpRequested(_synopsis(command))
        name, attached, text = arg.partition("=")
        if arg[:1] != "-":
            if not positionals:
                extras.append(arg)
                continue
            name, text = positionals.pop(0), arg
        elif not _is_flag(arg, table):
            extras.append(arg)
            continue
        elif not attached:
            text = next(args, None)
            if text is None or text in HELP or _is_flag(text, table):
                raise UsageError(f"argument {name}: expected one argument")
        values[_dest(name)] = _convert(name, table[name], text)
        seen.add(name)
    missing = [name for name, flag in table.items() if flag.required and name not in seen]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    # exact coefficients are printed in full, however many digits they have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.command == "enumerate":
            from .families import _enumerate_csv, cmd_enumerate

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
    except HelpRequested as exc:
        sys.stdout.write(str(exc))
        return 0
    except (ValueError, OverflowError, BudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
