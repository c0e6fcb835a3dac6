"""The command-line contract, each job in a fresh interpreter: the exit
code, output bytes and stderr of `rotknot` jobs, what each command loads,
and how the program entry exits.

Every row of ROWS is a job and what it must give.  `test_row` runs each
row through two launchers:

- `module`: `python -X dev -W error -m rotknot`, always.  Dev mode keeps
  the exit-time collection, so a file left open warns on stderr, and
  `-W error` turns any warning into a failure.
- `script`: the installed `rotknot` console script, the way a user runs
  it (no dev mode, so the `gc.freeze` exit path runs).  It must give the
  module launcher's exit code and output bytes.  Without a script in
  `sysconfig.get_path("scripts")` these tests are skipped.

A job runs in an empty temporary directory, where an `--out` file lands.
LOADS maps each command to the modules it loads, and the entry probes
check that the program entry freezes the collector before exit.

Every interpreter starts through `conftest.run`, which puts the directory
of the `rotknot` package this test process imported at the front of
PYTHONPATH: from the checkout with PYTHONPATH=src, tier-1 runs the
checkout; from outside it with no PYTHONPATH, everything here runs the
installed package.
"""

import hashlib
import json
import os
import pkgutil
import shutil
import sys
import sysconfig
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import pytest

import rotknot
from rotknot.cli import EXIT_EQUIVALENT, EXIT_NOT_EQUIVALENT, EXIT_UNDETERMINED
from rotknot.trochoid import MAX_EXPONENT

from conftest import run

# stdout sha256 of the benchmark's jobs; read here, never written
GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text()
)
# the exit codes of the classify keys.  Three hashes are stale: they hold
# the words from before classify built them from the move group, and are
# re-recorded with the benchmark.  Those keys are checked by exit code and
# by being the text of json.dumps.
GOLDEN_CLASSIFY = {
    "classify --p 3 --q 2 --b-anchor 1,0 --b-direction 1/2": EXIT_EQUIVALENT,
    "classify --p 3 --q 2 --b-anchor 1/2,0": EXIT_NOT_EQUIVALENT,
    "classify --p 3 --q 2 --b-chirality=-1": EXIT_EQUIVALENT,
    "classify --p 3 --q 2 --b-direction 1/12": EXIT_NOT_EQUIVALENT,
    "classify --p 3 --q 2 --b-side 2": EXIT_NOT_EQUIVALENT,
    "classify --p 4 --q 3 --b-anchor 2,0": EXIT_EQUIVALENT,
    "classify --p 4 --q 3 --b-anchor 3,1": EXIT_EQUIVALENT,
    "classify --p 4 --q 3 --b-l 2": EXIT_NOT_EQUIVALENT,
    "classify --p 5 --q 2 --b-anchor 2,0": EXIT_EQUIVALENT,
    "classify --p 5 --q 3 --k 2 --b-anchor 1,0": EXIT_UNDETERMINED,
}
STALE_GOLDEN = (
    "classify --p 4 --q 3 --b-anchor 2,0",
    "classify --p 4 --q 3 --b-anchor 3,1",
    "classify --p 5 --q 2 --b-anchor 2,0",
)

SCRIPT = shutil.which("rotknot", path=sysconfig.get_path("scripts"))
DEV_PYTHON = [sys.executable, "-X", "dev", "-W", "error"]
LAUNCHERS = {
    "module": [*DEV_PYTHON, "-m", "rotknot"],
    "script": [SCRIPT],
}


# output checks: each takes the bytes a job wrote, to stdout or to its
# --out file, and fails by assertion


def sha256(digest: str):
    def check(out: bytes):
        assert hashlib.sha256(out).hexdigest() == digest

    return check


def golden(key: str):
    return sha256(GOLDEN[key])


def dumps_text(out: bytes):
    """The bytes of json.dumps(..., sort_keys=True, indent=2) and a newline."""
    text = out.decode("utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def same_as(argv: str):
    """The stdout of argv, the same job spelled another way, from the
    module launcher."""

    def check(out: bytes):
        assert out == _run(Row(argv, 0), "module").stdout

    return check


def all_of(*checks):
    def check(out: bytes):
        for each in checks:
            each(out)

    return check


def verdict(name: str):
    def check(out: bytes):
        assert json.loads(out)["result"]["verdict"] == name

    return check


def csv(out: bytes):
    assert out.startswith(b"p,q,k,l,theta,") and out.endswith(b"\n")


def svg(out: bytes):
    assert out.startswith(b"<svg ") and out.endswith(b"</svg>\n")


def brief_error(err: bytes):
    """One `error:` line of under 200 bytes."""
    assert err.startswith(b"error: ") and err.count(b"\n") == 1 and len(err) < 200


class Row(NamedTuple):
    argv: str  # split on whitespace
    code: int
    output: object = None  # an output check, or None for any bytes
    stderr: object = b""  # the exact bytes, or a check
    env: dict = {}
    timeout: float = 120

    @property
    def name(self) -> str:
        return " ".join([*(f"{k}={v}" for k, v in self.env.items()), self.argv])


def row(*args, xfail=None, **kwargs):
    r = Row(*args, **kwargs)
    marks = [pytest.mark.xfail(strict=True, reason=xfail)] if xfail else []
    return pytest.param(r, id=r.name, marks=marks)


def _refusal(flag: str, literal: str) -> bytes:
    return _usage(f"argument {flag}: decimal exponent of {literal!r} exceeds {MAX_EXPONENT}")


def _level_refusal(level: int) -> bytes:
    return (
        f"error: session level {level} exceeds cap 240 "
        "(raise QT_SESSION_LEVEL_CAP to allow)\n"
    ).encode()


def _usage(message: str) -> bytes:
    return f"error: {message}\n".encode()


UNBUFFERED = {"PYTHONUNBUFFERED": "1"}
TOO_LARGE = b"error: the figure is too large for floating point\n"
# item 2 of the ROADMAP: a far target answers Equivalent with a witness
# whose size does not grow with the distance
FAR = "a far target's group word outgrows memory or an index (ROADMAP item 2)"
HUGE = "1" + "0" * 400  # 401 digits

ROWS = [
    # every key of the golden file; classify unbuffered, one write a piece
    *(
        row(key, GOLDEN_CLASSIFY[key], dumps_text if key in STALE_GOLDEN else golden(key),
            env=UNBUFFERED)
        for key in sorted(GOLDEN_CLASSIFY)
    ),
    *(row(key, 0, golden(key)) for key in sorted(GOLDEN) if key not in GOLDEN_CLASSIFY),
    # the batched writers, unbuffered, into a file
    row("enumerate --p 13 --q 11 --out t.json", 0,
        all_of(golden("enumerate --p 13 --q 11"), dumps_text), env=UNBUFFERED),
    row("enumerate --p 11 --q 7 --format csv --out t.csv", 0,
        golden("enumerate --p 11 --q 7 --format csv"), env=UNBUFFERED),
    row("enumerate --p 3 --q 2 --format csv --out t.csv", 0, csv),
    # exact values written at level 437, 9.3 MB of them
    row("enumerate --p 23 --q 19", 0,
        sha256("a41ebec17020f881ab3f6e957e504c9f9be9fde81901edf0ea5908f6f873bec6"),
        env={"QT_SESSION_LEVEL_CAP": "1000"}),
    row("classify --p 3 --q 2 --b-anchor 1,0 --out c.json", 0, dumps_text),
    row("render --p 3 --q 2 --out r.svg", 0, svg),
    # one small job per subcommand
    row("enumerate --p 3 --q 2", 0, dumps_text),
    row("render --p 3 --q 2", 0, svg),
    row("verify orbit", 0),
    # the integer unit scan at depth: phi(210) = 48 coordinates
    row("verify appendix --level 210", 0,
        b"PASS appendix.N=210\nsuite appendix: 1/1 checks passed\n"),
    # criterion 10(d): the chirality flips at odd p'q' stay Undetermined
    row("classify --p 3 --q 5 --b-chirality=-1", EXIT_UNDETERMINED),
    row("classify --p 7 --q 5 --k 2 --l 3 --b-chirality=-1", EXIT_UNDETERMINED),
    # output bytes do not depend on the hash seed; classify is the one
    # command that searches: the 12-move odd search, whose note is built
    # from sorted sets, and the 66-move group word
    *(
        row(argv, code, sha256(digest), env={"PYTHONHASHSEED": seed})
        for argv, code, digest, seeds in [
            ("enumerate --p 4 --q 3", 0,
             "a1229d805b41f5a753a149e39d776054ba606f175e6e899bb4ee0cccd1115eb3", ("1", "31337")),
            ("render --p 4 --q 3 --k 1 --l 2", 0,
             "a5f1fe549fe75bad0a89bf8fbbd18ea8e50cc2659dfda0fef18d803c90ec577b", ("2", "99")),
            ("verify axioms", 0, GOLDEN["verify axioms"], ("5", "6")),
            ("classify --p 5 --q 3 --k 2 --b-anchor 1,0", EXIT_UNDETERMINED,
             GOLDEN["classify --p 5 --q 3 --k 2 --b-anchor 1,0"], ("3", "4242")),
            ("classify --p 4 --q 3 --b-anchor 2,0", EXIT_EQUIVALENT,
             "465c723595b481483f0636797b294d80d636f9795a4b62394947ec66c9b546d3", ("7", "65535")),
        ]
        for seed in seeds
    ),
    # a value that starts with `-` may follow its flag as the next word
    row("classify --p 3 --q 2 --anchor -1,0", EXIT_EQUIVALENT,
        same_as("classify --p 3 --q 2 --anchor=-1,0")),
    row("classify --p 3 --q 2 --b-anchor -1/2,0", EXIT_NOT_EQUIVALENT,
        same_as("classify --p 3 --q 2 --b-anchor=-1/2,0")),
    row("render --p 3 --q 2 --direction -1/4", 0, same_as("render --p 3 --q 2 --direction=-1/4")),
    # a huge anchor keeps its exact verdict, 20000 digits and all
    row("classify --p 3 --q 2 --anchor 1e20000,0", EXIT_EQUIVALENT),
    # refusals: exit 2 at once with one short error line and no output
    row("classify --p 3 --q 2 --direction 1e-100000", 2, b"", brief_error),
    *(
        row(f"classify --p 3 --q 2 {flag}{sep}{value}", 2, b"", _refusal(flag, literal),
            timeout=20)
        for flag, sep, value, literal in [
            ("--anchor", "=", "1e999999999,0", "1e999999999"),
            ("--b-anchor", " ", "1e999999999,0", "1e999999999"),
            ("--b-anchor", "=", "0,-1E-999999999", "-1E-999999999"),
            ("--side", "=", "1e999_999_999", "1e999_999_999"),
            ("--b-side", "=", "1e-999999999", "1e-999999999"),
            ("--direction", "=", "1e999999999", "1e999999999"),
            ("--b-direction", "=", "1.5e+999999999", "1.5e+999999999"),
        ]
    ),
    # D(30011, 30013) has about 9e8 crossings: its tables would not fit
    row("enumerate --p 30011 --q 30013", 2, b"", _level_refusal(900720143), timeout=20),
    row("classify --p 30011 --q 30013", 2, b"", _level_refusal(3602880572), timeout=20),
    row("render --p 3 --q 2 --side 1e400", 2, b"", TOO_LARGE),
    row("render --p 3 --q 2 --anchor 1e100000,0", 2, b"", TOO_LARGE),
    row(f"render --p 3 --q 2 --size {HUGE}", 2, b"", TOO_LARGE),
    # a huge integer is named by its digit count
    row(f"classify --p {HUGE} --q 2", 2, b"", brief_error),
    row(f"classify --p 3 --q 2 --k {HUGE}", 2, b"", brief_error),
    # usage errors: one error line, no usage block
    *(
        row(argv, 2, b"", _usage(message))
        for argv, message in [
            ("frobnicate", "argument command: invalid choice: 'frobnicate' "
             "(choose from 'enumerate', 'classify', 'verify', 'render')"),
            ("verify", "the following arguments are required: suite"),
            ("verify nonsense", "argument suite: invalid choice: 'nonsense' "
             "(choose from 'appendix', 'axioms', 'cocycle', 'orbit', 'weights')"),
            ("verify appendix --bound 2", "unrecognized arguments: --bound 2"),
            ("classify --p 3", "the following arguments are required: --q"),
            ("classify --p 3 --q 2 --out --p", "argument --out: expected one argument"),
            ("classify --p 3 --q 2 --b-anchor -x",
             "argument --b-anchor: anchor must be 're,im' with rational parts, got '-x'"),
            ("render --p 3 --q 2 --direction 1/0",
             "argument --direction: zero denominator in '1/0'"),
            ("classify --p 3 --q 2 --k x", "argument --k: invalid int value: 'x'"),
            ("classify --p 3 --q 2 --b-k 5", "argument --b-k: k=5 outside [1, 2]"),
            ("classify --p 3 --q 2 --l 9", "argument --l: l=9 outside [1, 1]"),
            ("classify --p 3 --q 2 --side 0", "argument --side: side must be positive"),
            ("classify --p 3 --q 2 --b-side=-1", "argument --b-side: side must be positive"),
            ("classify --p 3 --q 2 --chirality 0",
             "argument --chirality: invalid choice: 0 (choose from 1, -1)"),
            ("verify orbit --depth 0", "argument --depth: must be a positive integer, got 0"),
            ("enumerate --p 3 --q 2 --format xml",
             "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
        ]
    ),
    row("classify --p 3 --q 2 --b-anchor 1e17,0", EXIT_EQUIVALENT, verdict("Equivalent"),
        xfail=FAR),
    row("classify --p 3 --q 2 --b-anchor 1e19,0", EXIT_EQUIVALENT, verdict("Equivalent"),
        xfail=FAR),
]


class Run(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    output: bytes  # the --out file's bytes, or stdout if no file was written


def _run(r: Row, launcher: str) -> Run:
    argv = r.argv.split()
    with tempfile.TemporaryDirectory() as cwd:
        proc = run([*LAUNCHERS[launcher], *argv], env=r.env, cwd=cwd, timeout=r.timeout)
        out = Path(cwd, argv[argv.index("--out") + 1]) if "--out" in argv else None
        output = out.read_bytes() if out and out.exists() else proc.stdout
    return Run(proc.returncode, proc.stdout, proc.stderr, output)


@pytest.fixture(scope="module")
def module_runs(request):
    """The module launcher's run of each selected row, by name.  A job
    mostly waits on its interpreter's start-up, so the runs go two at a
    time, ahead of the tests that read them."""
    rows = {
        item.callspec.params["r"].name: item.callspec.params["r"]
        for item in request.session.items
        if item.module is request.module and item.originalname == "test_row"
    }
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {name: pool.submit(_run, r, "module") for name, r in rows.items()}


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize("r", ROWS)
def test_row(r, launcher, module_runs):
    module = module_runs[r.name].result()
    if launcher == "script" and SCRIPT is None:
        pytest.skip(f"no rotknot console script in {sysconfig.get_path('scripts')}")
    job = module if launcher == "module" else _run(r, launcher)
    assert job.code == r.code, job.stderr
    if callable(r.stderr):
        r.stderr(job.stderr)
    else:
        assert job.stderr == r.stderr
    if "--out" in r.argv.split():
        assert job.stdout == b""
    if callable(r.output):
        r.output(job.output)
    elif r.output is not None:
        assert job.output == r.output
    assert (job.code, job.output) == (module.code, module.output)


# What each command loads, under `python -S` so that no site hook preloads
# a module.  A job is mostly interpreter start-up, so a command loads only
# the package modules it runs, and none loads the heavy standard library
# modules that the value classes and the flag table were written to avoid
# (argparse brings gettext and locale with it), nor `json` and `csv`,
# whose text the writers make themselves, nor `fractions` with the
# `decimal` and `numbers` it loads: rationals travel as integer pairs, and
# only a literal the integer reader does not take, such as 1.5, builds a
# Fraction.  A row of LOADS names every watched module its command loads:
# a package module by its name in the package, any other by its own.
# Every module of the package is watched, so a new one must stay unloaded
# until a row lists it.
WATCHED = (
    *sorted(f"rotknot.{info.name}" for info in pkgutil.iter_modules(rotknot.__path__)),
    "argparse", "ast", "copy", "csv", "dataclasses", "decimal", "fractions", "gettext",
    "inspect", "json", "locale", "numbers", "typing",
)
LOAD_PROBE = (
    "import os, sys\n"
    "from rotknot.cli import main\n"
    "argv = sys.argv[1:]\n"
    "code = main([*argv, '--out', os.devnull]) if argv else 0\n"
    f"print(code, *(m for m in {WATCHED!r} if m in sys.modules))\n"
)
CLI_MODULES = ("cli", "exactnum", "value")  # import rotknot.cli
MOVES = ("diagram", "geom", "quandle", "trochoid")
FRACTIONS = ("decimal", "fractions", "numbers")  # what `import fractions` loads
ENUMERATE = (*CLI_MODULES, "cocycle", "diagram", "families", "geom", "quandle", "writer")
SUITES = (*CLI_MODULES, "geom", "quandle", "verify")  # what every verify suite loads
LOADS = {
    "import rotknot.cli": CLI_MODULES,
    "enumerate --p -7 --q 5": ENUMERATE,
    "enumerate --p 3 --q 2 --format csv": ENUMERATE,
    "classify --p 3 --q 2 --b-anchor 1,0": (*CLI_MODULES, *MOVES, "writer"),
    # the literals of the benchmark's seeded classify jobs
    "classify --p 3 --q 2 --anchor 4/3,1 --direction 1/2 --side 1/2 --b-anchor 5/6,1 "
    "--b-direction 1/3": (*CLI_MODULES, *MOVES, "writer"),
    "classify --p 3 --q 2 --anchor 1.5,0": (*CLI_MODULES, *MOVES, "writer", *FRACTIONS),
    "render --p 3 --q 2": (*CLI_MODULES, *MOVES, "render"),
    "verify axioms": SUITES,
    "verify cocycle": (*SUITES, "cocycle"),
    "verify appendix": (*SUITES, "units"),
    "verify orbit": (*SUITES, *MOVES),
    "verify weights": (*SUITES, *MOVES, "cocycle"),
}


@pytest.mark.parametrize("command", LOADS)
def test_loads(command):
    """The command, run through `cli.main` with `--out` to /dev/null,
    loads exactly the package modules of its row and none of the watched
    standard library modules, without a warning."""
    argv = [] if command.startswith("import ") else command.split()
    proc = run([*DEV_PYTHON, "-S", "-c", LOAD_PROBE, *argv])
    loaded = [m for m in WATCHED if m.removeprefix("rotknot.") in LOADS[command]]
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().split() == ["0", *loaded]


def test_every_module_is_loaded_by_a_row():
    """Every module of the package but the program entry is in some row
    of LOADS, which `test_loads` checks against what the command loads:
    so a module that no command runs is noticed."""
    package = {info.name for info in pkgutil.iter_modules(rotknot.__path__)}
    listed = {name for modules in LOADS.values() for name in modules}
    assert package - listed == {"__main__"}


def test_cli_import_loads_no_command_modules():
    """Without -S, the way the launchers start, site hooks run first;
    importing the CLI still loads only the package modules of the
    bare-import row, and neither the verify suites nor the move
    machinery."""
    proc = run([*DEV_PYTHON, "-c", LOAD_PROBE])
    package = [m for m in WATCHED if m.startswith("rotknot.")]
    expected = [m for m in package if m.removeprefix("rotknot.") in CLI_MODULES]
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert [m for m in proc.stdout.decode().split() if m in package] == expected


# The program entry, behind `python -m rotknot` and the console script,
# freezes the collector once `cli.main` returns, so shutdown skips its
# collection; dev mode keeps that collection.  A -c script reports at exit
# whether the collector is frozen: its atexit handler runs after the entry
# returns and before modules are torn down.
FREEZE_PROBE = (
    "import atexit, gc, os, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
)
ENTRIES = {
    "python -m rotknot": "import runpy; runpy.run_module('rotknot', run_name='__main__')",
    "console script": "from rotknot.__main__ import main; sys.exit(main())",
}


def _run_entry(script: str, argv, *flags: str):
    return run([sys.executable, *flags, "-c", f"{FREEZE_PROBE}sys.argv = {argv!r}\n{script}"])


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize(
    "argv, code",
    [
        (["rotknot", "verify", "axioms", "--out", os.devnull], 0),
        (["rotknot", "classify", "--p", "3", "--q", "2", "--b-side", "2"], 10),
        (["rotknot", "classify", "--p", "3"], 2),
    ],
)
def test_entry_freezes_before_exit(entry, argv, code):
    """Both entries skip the exit-time collection, whichever way the job
    ends."""
    proc = _run_entry(ENTRIES[entry], argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.decode().endswith("frozen True\n")


def test_dev_mode_keeps_the_exit_collection():
    """Under -X dev nothing is frozen, so a file left open in a reference
    cycle still warns when shutdown collects the cycle."""
    leak = (
        "class Node:\n"
        "    pass\n"
        "node = Node()\n"
        "node.self, node.file = node, open(os.devnull)\n"
    )
    argv = ["rotknot", "verify", "axioms", "--out", os.devnull]
    proc = _run_entry(leak + ENTRIES["console script"], argv, "-X", "dev")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == "frozen False\n"
    assert b"ResourceWarning: unclosed file" in proc.stderr
