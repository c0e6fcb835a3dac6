"""Tests for the command-line front end, all in process: parsing, outputs,
exit codes, and `cli.main` leaving the collector unfrozen.  What needs a
fresh interpreter is in `tests/test_contract.py`: the jobs through each
launcher, what each command loads, and the program entry's exit path."""

import gc
import io
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotknot.cli import (
    COMMANDS,
    EXIT_EQUIVALENT,
    EXIT_NOT_EQUIVALENT,
    EXIT_UNDETERMINED,
    HelpRequested,
    UsageError,
    _write_output,
    cmd_classify,
    main,
    parse_args,
)
from rotknot import cocycle, trochoid, verify
from rotknot.exactnum import Cyc, Turn, cyc_to_json
from rotknot.families import _enumerate_csv, cmd_enumerate
from rotknot.geom import point_xy
from rotknot.trochoid import (
    MAX_EXPONENT,
    _EXPONENT,
    _spec_from_args,
    parse_anchor,
    parse_fraction,
    parse_ratio,
    parse_turn,
)
from rotknot.writer import CSV_BATCH, _batches, _encode_str, _json_pieces


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

    @settings(max_examples=3000)
    @given(st.text(alphabet="0123456789\u0663+-/._eE ", max_size=12))
    @example("3/2")
    @example(" -4/6 ")
    @example("+0/5")
    @example("1/0")
    @example("\u0663/4")
    @example("1_0")
    @example("1 / 2")
    @example("1.5e3")
    @example("-")
    @example("")
    @example("1e100001")
    def test_parse_matches_fraction(self, text):
        """parse_ratio and parse_fraction read every literal as the
        Fraction reference does, or refuse it with the same exception type
        and message."""
        try:
            want = reference_parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            for parse in (parse_ratio, parse_fraction):
                with pytest.raises(type(exc)) as got:
                    parse(text)
                assert str(got.value) == str(exc)
        else:
            assert parse_ratio(text) == (want.numerator, want.denominator)
            assert type(parse_fraction(text)) is Fraction
            assert parse_fraction(text) == want


def reference_parse(text: str) -> Fraction:
    """The rational literal text read by `Fraction`, as
    `trochoid.parse_fraction` read every literal before its integer path."""
    exponent = ("e" in text or "E" in text) and re.search(_EXPONENT, text)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent of {text!r} exceeds {MAX_EXPONENT}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


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
             json.dumps(row["weight_scaled_4i"], default=cyc_to_json, sort_keys=True,
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


def _cycs(level: int):
    """Values at level with up to four terms at any exponent below it, so
    that some fold; zero, negative coordinates and den != 1 among them."""
    terms = st.dictionaries(
        st.integers(0, level - 1), st.fractions(max_denominator=12), max_size=4
    )
    return terms.map(lambda t: Cyc(level, [t.get(e, 0) for e in range(level)]))


_JSON_LEAVES = (
    st.text()
    | st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "é ü 中 😀 \u2028"])
    | st.integers()
    | st.booleans()
    | st.none()
    | st.floats()
    | st.sampled_from([-0.0, 1e308, float("nan"), float("inf"), float("-inf")])
    | st.sampled_from([1, 4, 12, 143]).flatmap(_cycs)
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
_CYC_TREE = {
    "w": [Cyc.zero(), Cyc(12, [Fraction(-3, 4), 0, Fraction(5, 6)])],
    "x": {"y": Cyc(143, [-(10**30)] * 143)},
}


class TestStreamedOutput:
    """JSON is written a row at a time and CSV in batches of rows, with the
    stdlib bytes."""

    def test_ascii_escapes_are_the_stdlib_bytes(self):
        # each ASCII code point alone, all of them joined and the empty
        # string; DEL (0x7f) is escaped like the control characters
        ascii_chars = [chr(c) for c in range(128)]
        for s in [*ascii_chars, "".join(ascii_chars), ""]:
            assert _encode_str(s) == json.dumps(s), repr(s)

    @pytest.mark.parametrize("p,q,rows", [(3, 2, 2), (-7, 5, 24), (13, 11, 120)])
    def test_json_pieces_are_the_stdlib_bytes(self, p, q, rows):
        table = cmd_enumerate(p, q)
        pieces = list(_json_pieces(table))
        text = json.dumps(table, default=cyc_to_json, sort_keys=True, indent=2)
        assert "".join(pieces) == text + "\n"
        # one write per row, and one each for "p", "q", the bracket that
        # closes "rows" and the brace that closes the table
        assert len(table["rows"]) == rows
        assert len(pieces) == rows + 4
        # a piece is at most the longest row, nested two deep, with the text
        # that opens the list before it
        longest = max(
            len(
                json.dumps(row, default=cyc_to_json, sort_keys=True, indent=2)
                .replace("\n", "\n    ")
            )
            for row in table["rows"]
        )
        assert max(map(len, pieces)) <= longest + len(',\n  "rows": [\n    ')

    @settings(max_examples=300)
    @given(_json_trees(5))
    @example(_DEEP)
    @example([_DEEP, _DEEP["rows"]])
    @example(_CYC_TREE)
    @example({"result": _CYC_TREE, "spec": {"witness": list(range(2 * CSV_BATCH + 1))}})
    def test_json_pieces_match_json_dumps(self, data):
        text = json.dumps(data, default=cyc_to_json, sort_keys=True, indent=2) + "\n"
        assert "".join(_json_pieces(data)) == text

    def test_batches_end_on_an_empty_batch_only(self):
        assert list(_batches(["", "", "a", ""], 2)) == [["", ""], ["a", ""]]
        assert list(_batches([], 2)) == []

    @pytest.mark.parametrize("argv", [["--p", "3", "--q", "2"], ["--p", "13", "--q", "11"]])
    def test_enumerate_stdout_and_out_file(self, argv, tmp_path, capsys):
        assert main(["enumerate", *argv]) == 0
        stdout = capsys.readouterr().out
        p, q = int(argv[1]), int(argv[3])
        table = cmd_enumerate(p, q)
        assert stdout == json.dumps(table, default=cyc_to_json, sort_keys=True, indent=2) + "\n"
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
        args = parse_args(["classify", *argv])
        data, _ = cmd_classify(_spec_from_args(args, ""), _spec_from_args(args, "b_"))
        assert stdout == json.dumps(data, sort_keys=True, indent=2) + "\n"
        path = tmp_path / "result.json"
        assert main(["classify", *argv, "--out", str(path)]) == code
        assert path.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("p,q", [(2, 3), (11, 7), (13, 11), (-7, 5)])
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
            text = json.dumps(table, default=cyc_to_json, sort_keys=True, indent=2)
            _write_output((text + "\n",), None)
            whole = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streamed < 2 * 2**20
        # the whole text of (13, 11) is 0.9 MB, and the encoder's list of
        # its 78,136 chunks more than that again
        assert whole > 2 * 2**20

    def test_witness_streams_in_batches(self, monkeypatch):
        import tracemalloc

        args = parse_args(["classify", "--p", "3", "--q", "2", "--b-anchor", "1,0"])
        data, _ = cmd_classify(_spec_from_args(args, ""), _spec_from_args(args, "b_"))
        # the shape of the 130,000-move witness of --b-anchor 10000,0
        data["result"]["witness"] = ["shift", "switch"] * 65_000
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            _write_output(_json_pieces(data), None)
            streamed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _write_output((json.dumps(data, sort_keys=True, indent=2) + "\n",), None)
            whole = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streamed < 2**20
        # the whole text is 2.1 MB
        assert whole > 2 * 2**20

    def test_table_holds_no_coefficient_lists(self):
        import tracemalloc

        cmd_enumerate(13, 11)  # fills the level-143 tables the tables cache
        tracemalloc.start()
        try:
            table = cmd_enumerate(13, 11)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 14,400 exact coordinates; as [str, "1"] lists they took 1.9 MiB
        assert len(table["rows"]) == 120
        assert held < 2**20

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
            assert main(argv) == 2, argv
            assert "must be a positive integer" in capsys.readouterr().err

    def test_bound_flag_removed(self, capsys):
        assert main(["verify", "appendix", "--bound", "2"]) == 2
        assert "unrecognized arguments: --bound 2" in capsys.readouterr().err

    def test_render_format_flag_removed(self, capsys):
        assert main(["render", "--p", "3", "--q", "2", "--format", "svg"]) == 2
        assert "unrecognized arguments: --format svg" in capsys.readouterr().err

    def test_unknown_suite_rejected(self, capsys):
        assert main(["verify", "nonsense"]) == 2
        assert "invalid choice: 'nonsense'" in capsys.readouterr().err

    def test_suite_choices_match_the_suites(self):
        assert list(COMMANDS["verify"]["suite"].choices) == sorted(verify.SUITES)

    def test_check_with_no_cases_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "orbit_bfs", lambda spec, depth: [])
        assert main(["verify", "orbit"]) == 1
        out = capsys.readouterr().out
        assert "FAIL orbit.trochoid-words: no cases\n" in out
        assert out.endswith("suite orbit: 1/2 checks passed\n")

    def test_fail_line_names_first_case_and_count(self, capsys, monkeypatch):
        monkeypatch.setattr(cocycle, "cocycle_phi", lambda o, x, y: Cyc.one())
        assert main(["verify", "cocycle"]) == 1
        pairs, _ = cocycle_cases()
        assert f"FAIL cocycle.QC2: counterexample {pairs[0]} among 200 cases\n" in (
            capsys.readouterr().out
        )

    def test_suites_keep_every_case(self, monkeypatch):
        """The cocycle and weights suites try every case, in order, against
        reference lists built here one case at a time."""
        phi, derive = cocycle.cocycle_phi, trochoid.derive_coloring
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

        monkeypatch.setattr(cocycle, "cocycle_phi", record_phi)
        monkeypatch.setattr(cocycle, "verify_qc1", record_qc1)
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


class TestProgramEntry:
    def test_main_in_process_freezes_nothing(self):
        """`cli.main` leaves the collector alone; only the program entry
        freezes it, as `test_entry_freezes_before_exit` in
        `tests/test_contract.py` checks."""
        before = gc.get_freeze_count()
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "axioms"]) == 0
        assert gc.get_freeze_count() == before


def _fraction(dens):
    return st.builds("{}/{}".format, st.integers(-2, 2), dens)


def _anchor(dens):
    return st.builds("{},{}".format, _fraction(dens), _fraction(dens))


_PAIRS = [(3, 2), (2, 3), (4, 3), (-3, 4), (5, 2), (3, -5), (5, 4)]
# literals no rational flag accepts, and as a direction a session level of
# 100001 digits, then exponents past the bound: each exits 2 with an error
_MALFORMED = ["1,", ",", "a", "nan", "inf", "0x10", "1/2/3", "1/0"]
_EXPONENTS = [f"1e-{MAX_EXPONENT}", f"1e{MAX_EXPONENT + 1}", f"-1E-{MAX_EXPONENT + 1}"]
# wider ranges, invalid values included; one flag per example uses them.
# Anchors stay within a few units: a far anchor builds a group word that
# grows with the distance (ROADMAP item 2), so none is drawn until that
# word is compressed.
_WILD = {
    "p": st.integers(-5, 5),
    "q": st.integers(-5, 5),
    "k": st.integers(-1, 6),
    "l": st.integers(-1, 6),
    "anchor": _anchor(st.integers(0, 3)) | st.sampled_from(_MALFORMED),
    "direction": (
        st.builds("{}/{}".format, st.integers(0, 30), st.integers(0, 30))
        | st.sampled_from(_MALFORMED + _EXPONENTS)
    ),
    "side": st.sampled_from(["0", "-1", "-1/2", "1e400", *_MALFORMED]),
    "size": st.integers(-2, 900),
}
# each flag belongs to one suite and exits 2 on any other; levels stay
# small because the unit scan at level 59 already takes 0.3 s
_VERIFY_FLAGS = {
    "level": st.integers(-1, 24) | st.just(241),
    "grid": st.sampled_from(["small", "full", "none"]),
    "depth": st.integers(-1, 9),
}


@st.composite
def cli_argv(draw):
    """A verify command line with some of its flags, or an enumerate,
    render or classify command line with small valid values, in half of
    the examples with one flag from a wider range."""
    command = draw(st.sampled_from(["classify", "render", "enumerate", "verify"]))
    if command == "verify":
        suite = draw(st.sampled_from(sorted(verify.SUITES)))
        flags = {
            name: draw(values) for name, values in _VERIFY_FLAGS.items() if draw(st.booleans())
        }
        return [command, suite] + [f"--{name}={value}" for name, value in flags.items()]
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


def _literal_examples(test):
    """test with each bad literal in each rational flag as an explicit
    example, which derandomized draws seldom reach."""
    for command in ("classify", "render"):
        for flag, literals in [
            ("anchor", _MALFORMED), ("direction", _MALFORMED + _EXPONENTS), ("side", _MALFORMED)
        ]:
            for literal in literals:
                test = example([command, "--p=3", "--q=2", f"--{flag}={literal}"])(test)
    return test


class TestFuzz:
    @settings(max_examples=100)
    @given(cli_argv())
    @_literal_examples
    def test_exit_codes(self, argv):
        """Any command line exits 0, 2, 10 or 20; 2 always with an error
        line, and 0 never with an empty table or canvas or a failed check."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 10, 20), (argv, err.getvalue())
        if code == 2:
            assert "error:" in err.getvalue(), argv
        text = out.getvalue()
        if code == 0 and argv[0] == "enumerate":
            assert text.count("\n") > 1 and '"rows": []' not in text, argv
        if code == 0 and argv[0] == "render":
            assert 'width="0"' not in text and 'width="-' not in text, argv
        if code == 0 and argv[0] == "verify":
            assert "FAIL" not in text and text.endswith(" checks passed\n"), argv


# ---------------------------------------------------------------------------
# the flag table against a model of its rule


def _model(argv):
    """("args", the attribute values), ("help", None) or ("refused", the
    first fault) for argv, by the documented rule and the table's data
    alone.  A flag takes the next word unless that is -h, --help or a flag
    of the command, alone or before `=`.  A word that starts with `-`
    fills no slot.  Help, a bad command, a bad value ("argument NAME") or
    a flag with no value ends the reading where it stands; then a missing
    required flag is the fault, then any word left over."""
    words, extras, given = list(argv), [], set()
    while words and words[0][:1] == "-":
        if words[0] in ("-h", "--help"):
            return "help", None
        extras.append(words.pop(0))
    if not words:
        return "refused", "the following arguments are required: command"
    if (command := words.pop(0)) not in COMMANDS:
        return "refused", "argument command"
    table = COMMANDS[command]
    flags = [name for name in table if name[0] == "-"]
    slots = [name for name in table if name[0] != "-"]
    values = {name: flag.default for name, flag in table.items()}
    while words:
        word = words.pop(0)
        name, eq, text = word.partition("=")
        if word in ("-h", "--help"):
            return "help", None
        if word[:1] != "-" and slots:
            name, text = slots.pop(0), word
        elif word[:1] != "-" or name not in flags:
            extras.append(word)
            continue
        elif not eq:
            if not words or words[0] in ("-h", "--help") or words[0].partition("=")[0] in flags:
                return "refused", f"argument {name}"
            text = words.pop(0)
        try:
            values[name] = table[name].convert(text)
        except ValueError:
            return "refused", f"argument {name}"
        if table[name].choices and values[name] not in table[name].choices:
            return "refused", f"argument {name}"
        given.add(name)
    missing = [name for name, flag in table.items() if flag.required and name not in given]
    if missing:
        return "refused", f"the following arguments are required: {', '.join(missing)}"
    if extras:
        return "refused", f"unrecognized arguments: {' '.join(extras)}"
    return "args", {
        "command": command, **{n.lstrip("-").replace("-", "_"): v for n, v in values.items()}
    }


def _table(argv):
    """The same outcome from `cli.parse_args`, a fault "argument NAME: ..."
    cut to "argument NAME"."""
    try:
        return "args", vars(parse_args(argv))
    except HelpRequested:
        return "help", None
    except UsageError as exc:
        fault = str(exc)
        return "refused", fault.partition(": ")[0] if fault.startswith("argument ") else fault


# words no table reads as given: unknown flags, prefixes of known ones,
# stray values, help with text attached
_STRAY = [
    "--bound", "--anc", "--b", "--P", "--bogus=1", "-x", "-p", "-", "--", "x", "", "1 2",
    "- 1", "-1", "-1.5", "-.5", "-1,0", "-1/4", "-h", "-hx", "-hh", "--help", "--help=x",
    "-h=1",
]
# values for a flag, those that start with `-` among them
_VALUES = [
    "3", "2", "-2", "-1", "0", "1", "+1", " 1", "1_0", "-.5", "-1.5", "-1,0", "-1/4",
    "-x", "x", "", "-", "- 1", "-1 ,0", "1,0", "json", "csv", "small", "full", "appendix",
    "orbit", "--p", "-h",
]


@st.composite
def noisy_argv(draw):
    """A `cli_argv` command line with parser noise: some `--flag=value`
    words split in two, then a few words inserted anywhere (the command's
    position included): stray words, known flags given again, with an
    empty value, with a value that starts with `-`, or last with no
    value."""
    argv = draw(cli_argv())
    table = [name for name in COMMANDS[argv[0]] if name[0] == "-"]
    words = []
    for word in argv:
        name, eq, value = word.partition("=")
        words += [name, value] if eq and draw(st.booleans()) else [word]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(table))
        value = draw(st.sampled_from(_VALUES))
        chunk = draw(st.sampled_from([
            [draw(st.sampled_from(_STRAY))], [flag, value], [f"{flag}={value}"], [f"{flag}="],
        ]))
        at = draw(st.integers(0, len(words)))
        words[at:at] = chunk
    if draw(st.integers(0, 4)) == 0:
        words.append(draw(st.sampled_from(table)))
    return words


class TestTableParser:
    """`cli.parse_args` against the model of its rule."""

    @settings(max_examples=600)
    @given(noisy_argv())
    @example(["classify", "--p", "3", "--q", "2", "--anchor", "-1,0"])
    @example(["classify", "--p", "3", "--q", "-2", "--b-chirality", "-1"])
    @example(["classify", "--p", "3", "--q", "2", "--anchor", "-1 ,0", "--out", "-"])
    @example(["classify", "--p", "3", "--q", "2", "--out", "--p"])
    @example(["classify", "--p", "3", "--q", "2", "--out", "-h"])
    @example(["classify", "--p", "3", "--q", "2", "--out", "--pp"])
    @example(["render", "--p", "3", "--q", "2", "--anchor", "-h x"])
    @example(["verify", "--level", "3", "appendix", "--level=4"])
    @example(["verify", "--out", "suite", "orbit"])
    @example(["verify", "--bound", "2", "appendix"])
    @example(["verify", "-", "orbit"])
    @example(["-h", "verify"])
    @example(["-hx", "verify"])
    @example(["--bogus", "classify", "-h"])
    def test_reads_by_the_flag_rule(self, argv):
        """Both accept argv with the same value for every attribute, both
        ask for help, or both refuse it for the same first fault."""
        assert _table(argv) == _model(argv), argv

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["verify"], "the following arguments are required: suite"),
        (["enumerate", "--out", "x"], "the following arguments are required: --p, --q"),
        (["classify", "--p", "3", "--q", "2", "--anc", "1,0"], "unrecognized arguments: --anc 1,0"),
        (["classify", "--p", "3", "--q=2", "--p"], "argument --p: expected one argument"),
        (["classify", "--p=", "--q", "2"], "argument --p: invalid int value: ''"),
        (["render", "--p", "3", "--q", "2", "--size", "x"], "argument --size: invalid int value: 'x'"),
        (["classify", "-hx"], "the following arguments are required: --p, --q"),
    ])
    def test_refusal_words(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], *([c, "-h"] for c in COMMANDS)])
    def test_help_lists_the_flags(self, argv, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: rotknot ")
        names = COMMANDS if argv[0] in ("-h", "--help") else COMMANDS[argv[0]]
        for name in names:
            assert name in out
