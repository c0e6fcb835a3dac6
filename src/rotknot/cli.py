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
`exactnum`.  `enumerate` adds `families`, which loads `diagram`, `geom`,
the cocycle layer `cocycle` and the JSON writer `writer`.  `classify`
and `render` add `trochoid`, which loads `diagram`, `geom` and `quandle`
and reads a spec from the flags; `classify` adds `writer` and `render`
adds `render`.  `verify` adds `verify`, whose suites load `diagram`,
`trochoid` and `cocycle` only where they use them; only `verify
appendix` loads `units`.  No command loads the `csv` or `json` package:
`writer` escapes strings itself, `families` writes the CSV text itself,
and `json` is imported only for a string that is not ASCII or a leaf
that is not a str, int or `Cyc`.  Rationals are read as integer pairs
(`trochoid.parse_ratio`), so `fractions` is imported only for a literal
that `Fraction` itself must read, such as 1.5.  The pattern of decimal
exponents is compiled on its first use.  Without cached bytecode every
module loaded is compiled, so this is start-up time saved.

`python -m rotknot` and the installed `rotknot` script run `main` through
`rotknot.__main__.main`, which then skips the interpreter's exit-time
garbage collection.  `main` itself leaves the collector alone, so tests
and library callers can run it in their own process.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .exactnum import BudgetError

EXIT_EQUIVALENT = 0
EXIT_NOT_EQUIVALENT = 10
EXIT_UNDETERMINED = 20


# ---------------------------------------------------------------------------
# output


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
            from .writer import _json_pieces

            table = cmd_enumerate(args.p, args.q)
            pieces = (
                _json_pieces(table) if args.format == "json" else _enumerate_csv(table)
            )
            _write_output(pieces, args.out)
            return 0
        if args.command == "classify":
            from .trochoid import _spec_from_args
            from .writer import _json_pieces

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
            from .trochoid import _spec_from_args

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
