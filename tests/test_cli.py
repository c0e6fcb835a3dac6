"""Tests for the command-line front end: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from rotknot.cli import (
    EXIT_EQUIVALENT,
    EXIT_NOT_EQUIVALENT,
    EXIT_UNDETERMINED,
    cmd_enumerate,
    main,
    parse_anchor,
    parse_turn,
)
from rotknot.exactnum import Turn
from rotknot.geom import point_xy


def run_cli(argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rotknot", *argv],
        capture_output=True,
        env=env,
    )


class TestParsing:
    def test_anchor(self):
        from fractions import Fraction

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
        ):
            assert main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err


class TestClassify:
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
        assert main(["verify", "appendix", "--level", "4", "--bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS appendix.N=4" in out
        assert "N=12" not in out

    def test_non_positive_flags_exit_2(self, capsys):
        for argv in (
            ["verify", "orbit", "--depth", "0"],
            ["verify", "orbit", "--depth", "-1"],
            ["verify", "appendix", "--level", "0"],
            ["verify", "appendix", "--bound", "0"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "error:" in capsys.readouterr().err

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])


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
