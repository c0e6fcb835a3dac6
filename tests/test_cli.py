"""Tests for the command-line front end: outputs, exit codes, determinism."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotknot.cli import (
    CSV_BATCH,
    EXIT_EQUIVALENT,
    EXIT_NOT_EQUIVALENT,
    EXIT_UNDETERMINED,
    MAX_EXPONENT,
    _batches,
    _dump_json,
    _enumerate_csv,
    _json_pieces,
    _spec_from_args,
    _write_output,
    build_parser,
    cmd_classify,
    cmd_enumerate,
    main,
    parse_anchor,
    parse_fraction,
    parse_turn,
)
from rotknot import trochoid, verify
from rotknot.exactnum import Cyc, Turn
from rotknot.geom import point_xy


def run_cli(argv, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rotknot", *argv],
        capture_output=True,
        env=env,
        timeout=timeout,
    )


class TestParsing:
    def test_anchor(self):
        assert parse_anchor("3/2,-1") == point_xy(Fraction(3, 2), -1)
        assert parse_anchor(" 0 , 2 ") == point_xy(0, 2)
        with pytest.raises(ValueError):
            parse_anchor("1")
        with pytest.raises(ValueError):
            parse_anchor("a,b")

    def test_turn(self):
        assert parse_turn("1/6") == Turn(1, 6)
        assert parse_turn("7/6") == Turn(1, 6)


class TestEnumerate:
    def test_row_counts(self):
        assert len(cmd_enumerate(3, 2)["rows"]) == 2
        assert len(cmd_enumerate(4, 3)["rows"]) == 6

    def test_known_weight_row(self):
        table = cmd_enumerate(2, 3)
        row = next(r for r in table["rows"] if (r["k"], r["l"]) == (1, 1))
        assert row["weight_float"] == "-0.866025403784"
        assert row["theta"] == "5/6"
        assert row["parity"] == "even"

    def test_json_output(self, capsys):
        assert main(["enumerate", "--p", "3", "--q", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["p"] == 3 and len(data["rows"]) == 2

    def test_csv_output(self, capsys):
        assert main(["enumerate", "--p", "2", "--q", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("p,q,k,l,theta")
        assert len(lines) == 3

    def test_invalid_parameters_exit_2(self, capsys):
        for argv in (
            ["enumerate", "--p", "2", "--q", "4"],
            ["classify", "--p", "3", "--q", "2", "--b-anchor", "1/0,0"],
            ["classify", "--p", "3", "--q", "2", "--b-direction", "1/0"],
            ["classify", "--p", "3", "--q", "2", "--b-side", "2/0"],
            ["classify", "--p", "3", "--q", "2", "--b-direction", "1/1009"],
            ["render", "--p", "3", "--q", "2", "--side", "1e400"],
            ["render", "--p", "3", "--q", "2", "--anchor", "1e400,0"],
            # exact figures whose float extent collapses to zero
            ["render", "--p", "3", "--q", "2", "--side", "1e-400"],
            ["render", "--p", "3", "--q", "2", "--anchor", "1e300,0"],
            ["enumerate", "--p", "0", "--q", "3"],
            ["enumerate", "--p", "1", "--q", "3"],
            ["verify", "axioms", "--level", "7"],
            ["verify", "cocycle", "--depth", "3"],
            ["verify", "orbit", "--level", "9"],
            ["verify", "appendix", "--grid", "full"],
        ):
            assert main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err


def _whole_csv(table):
    """The CSV text of a table built in one StringIO, as before streaming."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["p", "q", "k", "l", "theta", "p_prime", "q_prime",
         "alpha", "parity", "weight_float", "weight_exact"]
    )
    for row in table["rows"]:
        writer.writerow(
            [table["p"], table["q"], row["k"], row["l"], row["theta"],
             row["p_prime"], row["q_prime"], row["alpha"], row["parity"],
             row["weight_float"],
             json.dumps(row["weight_scaled_4i"], sort_keys=True,
                        separators=(",", ":"))]
        )
    return buf.getvalue()


class _Discard:
    """A text sink that keeps nothing."""

    def write(self, text):
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


_JSON_LEAVES = (
    st.text()
    | st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "é ü 中 😀 \u2028"])
    | st.integers()
    | st.booleans()
    | st.none()
    | st.floats()
    | st.sampled_from([-0.0, 1e308, float("nan"), float("inf"), float("-inf")])
)


def _json_trees(depth: int):
    """JSON values with str keys, containers nested up to depth deep."""
    if depth == 0:
        return _JSON_LEAVES
    children = _json_trees(depth - 1)
    return (
        _JSON_LEAVES
        | st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(), children, max_size=3)
    )


_DEEP = {"rows": [{"a": [(), {}, [[{"b": ["\\\"é", -0.0, None]}]]]}, []], "x": (1, True)}


class TestStreamedOutput:
    """JSON is written a row at a time and CSV in batches of rows, with the
    stdlib bytes."""

    @pytest.mark.parametrize("p,q,rows", [(3, 2, 2), (-7, 5, 24), (13, 11, 120)])
    def test_json_pieces_are_the_stdlib_bytes(self, p, q, rows):
        table = cmd_enumerate(p, q)
        pieces = list(_json_pieces(table))
        assert "".join(pieces) == json.dumps(table, sort_keys=True, indent=2) + "\n"
        assert _dump_json(table) == "".join(pieces)
        # one write per row, and one each for "p", "q", the bracket that
        # closes "rows" and the brace that closes the table
        assert len(table["rows"]) == rows
        assert len(pieces) == rows + 4
        # a piece is at most the longest row, nested two deep, with the text
        # that opens the list before it
        longest = max(
            len(json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    "))
            for row in table["rows"]
        )
        assert max(map(len, pieces)) <= longest + len(',\n  "rows": [\n    ')

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_json_trees(5))
    @example(_DEEP)
    @example([_DEEP, _DEEP["rows"]])
    def test_json_pieces_match_json_dumps(self, data):
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert "".join(_json_pieces(data)) == text
        assert _dump_json(data) == text

    def test_batches_end_on_an_empty_batch_only(self):
        assert list(_batches(["", "", "a", ""], 2)) == [["", ""], ["a", ""]]
        assert list(_batches([], 2)) == []

    @pytest.mark.parametrize("argv", [["--p", "3", "--q", "2"], ["--p", "13", "--q", "11"]])
    def test_enumerate_stdout_and_out_file(self, argv, tmp_path, capsys):
        assert main(["enumerate", *argv]) == 0
        stdout = capsys.readouterr().out
        p, q = int(argv[1]), int(argv[3])
        assert stdout == json.dumps(cmd_enumerate(p, q), sort_keys=True, indent=2) + "\n"
        path = tmp_path / "table.json"
        assert main(["enumerate", *argv, "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == stdout.encode()

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["--p", "3", "--q", "2", "--b-anchor", "1,0", "--b-direction", "1/2"],
             EXIT_EQUIVALENT),
            (["--p", "3", "--q", "2", "--b-anchor", "1/2,0"], EXIT_NOT_EQUIVALENT),
            (["--p", "3", "--q", "5", "--b-chirality=-1"], EXIT_UNDETERMINED),
            # witnesses of 1047 and 130,000 moves
            (["--p", "9", "--q", "8", "--k", "2", "--l", "3", "--b-anchor", "2,1"],
             EXIT_EQUIVALENT),
            (["--p", "3", "--q", "2", "--b-anchor", "10000,0"], EXIT_EQUIVALENT),
        ],
    )
    def test_classify_stdout_and_out_file(self, argv, code, tmp_path, capsys):
        assert main(["classify", *argv]) == code
        stdout = capsys.readouterr().out
        args = build_parser().parse_args(["classify", *argv])
        data, _ = cmd_classify(_spec_from_args(args, ""), _spec_from_args(args, "b_"))
        assert stdout == json.dumps(data, sort_keys=True, indent=2) + "\n"
        path = tmp_path / "result.json"
        assert main(["classify", *argv, "--out", str(path)]) == code
        assert path.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("p,q", [(2, 3), (11, 7), (13, 11)])
    def test_csv_batches_are_the_whole_text(self, p, q, tmp_path, capsys):
        table = cmd_enumerate(p, q)
        pieces = list(_enumerate_csv(table))
        assert "".join(pieces) == _whole_csv(table)
        # a header line and CSV_BATCH - 1 rows, then CSV_BATCH rows a write
        assert len(pieces) == 1 + len(table["rows"]) // CSV_BATCH
        argv = ["enumerate", "--p", str(p), "--q", str(q), "--format", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == _whole_csv(table)
        path = tmp_path / "table.csv"
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == _whole_csv(table)

    def test_streaming_peak_is_one_batch(self, monkeypatch):
        import tracemalloc

        table = cmd_enumerate(13, 11)
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            _write_output(_json_pieces(table), None)
            streamed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _write_output((json.dumps(table, sort_keys=True, indent=2) + "\n",), None)
            whole = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streamed < 2 * 2**20
        # the whole text of (13, 11) is 0.9 MB, and the encoder's list of
        # its 78,136 chunks more than that again
        assert whole > 2 * 2**20

    def test_bad_spec_creates_no_file(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        assert main(["enumerate", "--p", "2", "--q", "4", "--out", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not path.exists()


class TestClassify:
    def test_huge_anchor_keeps_exact_verdict(self, capsys):
        # 20000 digits is past the interpreter's default int-to-str limit
        for digits in (400, 20000):
            code = main(["classify", "--p", "3", "--q", "2", "--anchor", f"1e{digits},0"])
            data = json.loads(capsys.readouterr().out)
            assert code == EXIT_EQUIVALENT
            assert data["result"]["verdict"] == "Equivalent"
            anchor = data["spec_a"]["anchor"]
            assert anchor["approx"] is None
            assert anchor["value"] == {
                "level": 4, "coeffs": [["1" + "0" * digits, "1"], ["0", "1"]]
            }

    @pytest.mark.parametrize(
        "flag, value, literal",
        [
            ("--anchor", "1e999999999,0", "1e999999999"),
            ("--b-anchor", "0,-1E-999999999", "-1E-999999999"),
            ("--side", "1e999_999_999", "1e999_999_999"),
            ("--b-side", "1e-999999999", "1e-999999999"),
            ("--direction", "1e999999999", "1e999999999"),
            ("--b-direction", "1.5e+999999999", "1.5e+999999999"),
        ],
    )
    def test_huge_exponent_refused(self, flag, value, literal):
        # `Fraction` alone would build 10**999999999; the timeout makes a
        # hang fail instead of stalling the suite
        out = run_cli(["classify", "--p", "3", "--q", "2", f"{flag}={value}"], timeout=20)
        assert out.returncode == 2 and out.stdout == b""
        assert out.stderr.decode() == (
            f"error: decimal exponent of {literal!r} exceeds {MAX_EXPONENT}\n"
        )

    def test_exponent_bound(self):
        big = 10**MAX_EXPONENT
        assert parse_fraction(f"2e{MAX_EXPONENT}") == 2 * big
        assert parse_fraction(f"2E+{MAX_EXPONENT}") == 2 * big
        assert parse_fraction(f"2e-{MAX_EXPONENT}") == Fraction(2, big)
        for text in (f"2e{MAX_EXPONENT + 1}", f"2e-{MAX_EXPONENT + 1}"):
            with pytest.raises(ValueError, match="exceeds"):
                parse_fraction(text)

    def test_same_spec_exit_0(self, capsys):
        code = main(["classify", "--p", "3", "--q", "2"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_EQUIVALENT
        assert data["result"]["verdict"] == "Equivalent"
        assert data["result"]["witness"] == []

    def test_kl_mismatch_exit_10(self, capsys):
        code = main(["classify", "--p", "3", "--q", "2", "--k", "1", "--b-k", "2"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_NOT_EQUIVALENT
        assert data["result"]["reason"] == "KLMismatch"

    def test_side_mismatch(self, capsys):
        code = main(["classify", "--p", "3", "--q", "2", "--b-side", "2"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_NOT_EQUIVALENT
        assert data["result"]["reason"] == "SideLengthMismatch"

    def test_shifted_anchor_equivalent(self, capsys):
        code = main(
            ["classify", "--p", "3", "--q", "2", "--b-anchor", "1,0",
             "--b-direction", "1/2"]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_EQUIVALENT
        assert data["result"]["witness"] == ["shift"]

    def test_level_cap_checked_before_arithmetic(self, capsys, monkeypatch):
        from rotknot import exactnum

        real = exactnum._power_table

        def guarded(n):
            if n > 240:
                raise AssertionError(f"level-{n} power table built before the cap")
            return real(n)

        monkeypatch.setattr(exactnum, "_power_table", guarded)
        monkeypatch.delenv("QT_SESSION_LEVEL_CAP", raising=False)
        for argv in (
            ["classify", "--p", "3", "--q", "2", "--direction", "1/1009"],
            ["classify", "--p", "3", "--q", "2", "--b-direction", "1/1009"],
            ["render", "--p", "3", "--q", "2", "--direction", "1/1009",
             "--chirality", "-1"],
        ):
            assert main(argv) == 2, argv
            assert "session level 12108 exceeds cap 240" in capsys.readouterr().err
        assert main(["enumerate", "--p", "1009", "--q", "1013"]) == 2
        assert "session level 1022117 exceeds cap 240" in capsys.readouterr().err
        assert main(["verify", "appendix", "--level", "241"]) == 2
        assert "session level 241 exceeds cap 240" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, level", [("enumerate", 900720143), ("classify", 3602880572)]
    )
    def test_level_cap_checked_before_diagram_tables(self, command, level, monkeypatch):
        # D(30011, 30013) has about 9e8 crossings: building its tables before
        # the cap would run out of memory, and the timeout catches a slow build
        monkeypatch.delenv("QT_SESSION_LEVEL_CAP", raising=False)
        out = run_cli([command, "--p", "30011", "--q", "30013"], timeout=20)
        assert out.returncode == 2 and out.stdout == b""
        assert out.stderr.decode() == (
            f"error: session level {level} exceeds cap 240 "
            "(raise QT_SESSION_LEVEL_CAP to allow)\n"
        )

    def test_validation_builds_no_diagram(self, monkeypatch):
        from rotknot.diagram import build_diagram
        from rotknot.exactnum import LevelError
        from rotknot.trochoid import TrochoidSpec

        monkeypatch.delenv("QT_SESSION_LEVEL_CAP", raising=False)
        info = build_diagram.cache_info()
        TrochoidSpec(1009, 1013, 1, 1)
        with pytest.raises(LevelError):
            cmd_enumerate(1009, 1013)
        after = build_diagram.cache_info()
        assert after.hits + after.misses == info.hits + info.misses

    @pytest.mark.parametrize("value", ["abc", "", "0", "-5"])
    def test_bad_level_cap_named(self, value, capsys, monkeypatch):
        monkeypatch.setenv("QT_SESSION_LEVEL_CAP", value)
        for argv in (["classify", "--p", "3", "--q", "2"], ["enumerate", "--p", "3", "--q", "2"]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == (
                f"error: QT_SESSION_LEVEL_CAP must be a positive integer, got {value!r}\n"
            )

    def test_level_cap_allows_spaces(self, capsys, monkeypatch):
        monkeypatch.setenv("QT_SESSION_LEVEL_CAP", " 240 ")
        assert main(["classify", "--p", "3", "--q", "2"]) == EXIT_EQUIVALENT

    def test_huge_session_level_refused_briefly(self, capsys, monkeypatch):
        # the level 3 * 10**100000 is named by its digit count, not written out
        monkeypatch.delenv("QT_SESSION_LEVEL_CAP", raising=False)
        argv = ["classify", "--p", "3", "--q", "2", "--direction", "1e-100000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: session level of 100001 digits exceeds cap 240 "
            "(raise QT_SESSION_LEVEL_CAP to allow)\n"
        )
        assert len(err.encode()) < 200

    def test_odd_chirality_exit_20(self, capsys):
        code = main(["classify", "--p", "3", "--q", "5", "--b-chirality", "-1"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_UNDETERMINED
        assert "V_sigma" in data["result"]["note"]


class TestVerify:
    @pytest.mark.parametrize("suite", ["axioms", "cocycle", "weights", "appendix", "orbit"])
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", suite]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")

    def test_appendix_level_flag(self, capsys):
        assert main(["verify", "appendix", "--level", "4"]) == 0
        out = capsys.readouterr().out
        assert "PASS appendix.N=4" in out
        assert "N=12" not in out

    def test_non_positive_flags_exit_2(self, capsys):
        for argv in (
            ["verify", "orbit", "--depth", "0"],
            ["verify", "orbit", "--depth", "-1"],
            ["verify", "appendix", "--level", "0"],
            ["render", "--p", "3", "--q", "2", "--size", "0"],
            ["render", "--p", "3", "--q", "2", "--size", "-5"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "error:" in capsys.readouterr().err

    def test_bound_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "appendix", "--bound", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bound 2" in capsys.readouterr().err

    def test_render_format_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--p", "3", "--q", "2", "--format", "svg"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format svg" in capsys.readouterr().err

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_suite_choices_match_the_suites(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert list(suite.choices) == sorted(verify.SUITES)

    def test_check_with_no_cases_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "orbit_bfs", lambda spec, depth: [])
        assert main(["verify", "orbit"]) == 1
        out = capsys.readouterr().out
        assert "FAIL orbit.trochoid-words: no cases\n" in out
        assert out.endswith("suite orbit: 1/2 checks passed\n")

    def test_fail_line_names_first_case_and_count(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "cocycle_phi", lambda o, x, y: Cyc.one())
        assert main(["verify", "cocycle"]) == 1
        pairs, _ = cocycle_cases()
        assert f"FAIL cocycle.QC2: counterexample {pairs[0]} among 200 cases\n" in (
            capsys.readouterr().out
        )

    def test_suites_keep_every_case(self, monkeypatch):
        """The cocycle and weights suites try every case, in order, against
        reference lists built here one case at a time."""
        phi, derive = verify.cocycle_phi, trochoid.derive_coloring
        calls = []

        def record_phi(o, x, y):
            calls.append(("phi", o, x, y))
            return phi(o, x, y)

        def record_qc1(*case):
            calls.append(("qc1", *case))
            return Cyc.zero()

        def record_derive(spec):
            calls.append((spec.p, spec.q, spec.k, spec.l))
            return derive(spec)

        monkeypatch.setattr(verify, "cocycle_phi", record_phi)
        monkeypatch.setattr(verify, "verify_qc1", record_qc1)
        monkeypatch.setattr(trochoid, "derive_coloring", record_derive)
        verify._suite_cocycle(SimpleNamespace())
        pairs, quads = cocycle_cases()
        assert calls == [("phi", o, x, x) for o, x in pairs] + [("qc1", *c) for c in quads]
        for grid, diagrams in (
            (None, [(2, 3), (3, 2), (3, 4), (4, 3)]),
            ("full", [(2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3), (3, 5), (4, 5)]),
        ):
            calls.clear()
            verify._suite_weights(SimpleNamespace(grid=grid))
            expected = []
            for (p, q) in diagrams:
                for k in range(1, abs(p)):
                    for l in range(1, abs(q)):
                        expected.append((p, q, k, l))
            assert calls == expected, grid


def cocycle_cases():
    """The (o, x) pairs and (o, x, y, z) quadruples of `verify cocycle`,
    drawn one at a time from its seeded generator."""
    rng = random.Random(20240823)
    pairs, quads = [], []
    for _ in range(200):
        o = point_xy(Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))
        x = verify._random_rot(rng)
        pairs.append((o, x))
    for _ in range(200):
        o = point_xy(Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))
        x, y, z = verify._random_rot(rng), verify._random_rot(rng), verify._random_rot(rng)
        quads.append((o, x, y, z))
    return pairs, quads


class TestRender:
    def test_svg_structure(self, capsys):
        assert main(["render", "--p", "3", "--q", "2"]) == 0
        svg = capsys.readouterr().out
        assert svg.startswith("<svg ")
        assert svg.count("<polygon") == 3  # two rolled triangles + base 2-gon
        assert 'viewBox="' in svg

    def test_figure_combinatorics_4_3(self, capsys):
        assert main(["render", "--p", "4", "--q", "3", "--k", "1", "--l", "2"]) == 0
        svg = capsys.readouterr().out
        assert svg.count("<polygon") == 4  # three rolled squares + base triangle

    def test_out_file(self, tmp_path):
        target = tmp_path / "fig.svg"
        assert main(["render", "--p", "3", "--q", "2", "--out", str(target)]) == 0
        assert target.read_text().startswith("<svg ")

    def test_unwritable_path(self, capsys):
        code = main(["render", "--p", "3", "--q", "2", "--out", "/nonexistent/x.svg"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDeterminism:
    def test_enumerate_bytes_stable_across_hash_seeds(self):
        a = run_cli(["enumerate", "--p", "4", "--q", "3"], {"PYTHONHASHSEED": "1"})
        b = run_cli(["enumerate", "--p", "4", "--q", "3"], {"PYTHONHASHSEED": "31337"})
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_render_bytes_stable_across_hash_seeds(self):
        argv = ["render", "--p", "4", "--q", "3", "--k", "1", "--l", "2"]
        a = run_cli(argv, {"PYTHONHASHSEED": "2"})
        b = run_cli(argv, {"PYTHONHASHSEED": "99"})
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_verify_bytes_stable(self):
        a = run_cli(["verify", "axioms"], {"PYTHONHASHSEED": "5"})
        b = run_cli(["verify", "axioms"], {"PYTHONHASHSEED": "6"})
        assert a.stdout == b.stdout


# stdout sha256 of the benchmark's jobs; read here, never written
GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text()
)
# the classify keys that hold today's stdout, with their exit codes.  Three
# keys are stale: "--p 4 --q 3 --b-anchor 2,0", "--p 4 --q 3 --b-anchor 3,1"
# and "--p 5 --q 2 --b-anchor 2,0" hold the words from before classify built
# them from the move group, and are re-recorded with the benchmark.
GOLDEN_CLASSIFY = {
    "classify --p 3 --q 2 --b-anchor 1,0 --b-direction 1/2": EXIT_EQUIVALENT,
    "classify --p 3 --q 2 --b-anchor 1/2,0": EXIT_NOT_EQUIVALENT,
    "classify --p 3 --q 2 --b-chirality=-1": EXIT_EQUIVALENT,
    "classify --p 3 --q 2 --b-direction 1/12": EXIT_NOT_EQUIVALENT,
    "classify --p 3 --q 2 --b-side 2": EXIT_NOT_EQUIVALENT,
    "classify --p 4 --q 3 --b-l 2": EXIT_NOT_EQUIVALENT,
    "classify --p 5 --q 3 --k 2 --b-anchor 1,0": EXIT_UNDETERMINED,
}


@pytest.mark.parametrize(
    "key",
    sorted(k for k in GOLDEN if k in GOLDEN_CLASSIFY or not k.startswith("classify")),
)
def test_golden_stdout(key):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(key.split())
    assert code == GOLDEN_CLASSIFY.get(key, 0), err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[key]


def _fraction(dens):
    return st.builds("{}/{}".format, st.integers(-2, 2), dens)


def _anchor(dens):
    return st.builds("{},{}".format, _fraction(dens), _fraction(dens))


_PAIRS = [(3, 2), (2, 3), (4, 3), (-3, 4), (5, 2), (3, -5), (5, 4)]
# wider ranges, invalid values included; one flag per example uses them
_WILD = {
    "p": st.integers(-5, 5),
    "q": st.integers(-5, 5),
    "k": st.integers(-1, 6),
    "l": st.integers(-1, 6),
    "anchor": _anchor(st.integers(0, 3)),
    "direction": st.builds("{}/{}".format, st.integers(0, 30), st.integers(0, 30)),
    "side": st.sampled_from(["0", "-1", "-1/2", "1e400"]),
    "size": st.integers(-2, 900),
}


@st.composite
def cli_argv(draw):
    """An enumerate, render or classify command line with small valid
    values, in half of the examples with one flag from a wider range."""
    command = draw(st.sampled_from(["classify", "render", "enumerate"]))
    p, q = draw(st.sampled_from(_PAIRS))
    flags = {"p": p, "q": q}
    if command != "enumerate":
        spec = {
            "k": st.integers(1, abs(p) - 1),
            "l": st.integers(1, abs(q) - 1),
            "anchor": _anchor(st.integers(1, 3)),
            "direction": st.builds(
                "{}/{}".format, st.integers(0, 11), st.sampled_from([1, 2, 4, 6, 12])
            ),
            "side": st.sampled_from(["1", "1/2", "3/2", "1e400"]),
            "chirality": st.sampled_from([1, -1]),
        }
        flags.update({name: draw(values) for name, values in spec.items()})
        if command == "render":
            flags["size"] = draw(st.integers(1, 900))
        else:
            for name, values in spec.items():
                if draw(st.booleans()):
                    flags[f"b-{name}"] = draw(values)
    if draw(st.booleans()):
        name = draw(st.sampled_from([name for name in _WILD if name in flags]))
        flags[name] = draw(_WILD[name])
    return [command] + [f"--{name}={value}" for name, value in flags.items()]


class TestFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cli_argv())
    def test_exit_codes(self, argv):
        """Any command line exits 0, 2, 10 or 20; 2 always with an error
        line, and 0 never with an empty table or canvas."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 10, 20), (argv, err.getvalue())
        if code == 2:
            assert "error:" in err.getvalue(), argv
        text = out.getvalue()
        if code == 0 and argv[0] == "enumerate":
            assert text.count("\n") > 1 and '"rows": []' not in text, argv
        if code == 0 and argv[0] == "render":
            assert 'width="0"' not in text and 'width="-' not in text, argv
