import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lerchzeta
from lerchzeta.cli import build_parser, main
from lerchzeta.suites import SUITE_NAMES, _worst_on_cover, run_suite
from lerchzeta import LerchError, Word, errors, monodromy_generator
from lerchzeta.words import Generator
from conftest import M_X0_500, PI2_12, Z_COVER_500


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_known_constant(self, capsys):
        code, out, _ = run(capsys, "eval", "--s", "2,0", "--a", "0.5,0", "--c", "1,0", "--tol", "1e-11")
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["value"]["re"] - PI2_12) < 1e-9
        assert abs(rec["value"]["im"]) < 1e-9
        assert rec["abs_err"] < 1e-9

    def test_trivial_branch_matches_plain(self, capsys):
        base = ["--s", "0.5,0", "--a", "0.5,0", "--c", "0.5,0"]
        code1, out1, _ = run(capsys, "eval", *base)
        code2, out2, _ = run(capsys, "eval", *base, "--branch", "Y3^7")
        assert code1 == code2 == 0
        v1, v2 = json.loads(out1), json.loads(out2)
        assert v1["value"] == v2["value"]
        assert v2["branch"]["ky"] == {"3": 7}

    def test_winding_branch_shifts_value(self, capsys):
        base = ["--s", "0.5,0", "--a", "0.5,0", "--c", "0.5,0"]
        _, out0, _ = run(capsys, "eval", *base)
        _, out1, _ = run(capsys, "eval", *base, "--branch", "kx[0]=1")
        v0, v1 = json.loads(out0), json.loads(out1)
        delta = complex(v1["value"]["re"] - v0["value"]["re"], v1["value"]["im"] - v0["value"]["im"])
        want = monodromy_generator(Generator("X", 0), 0.5, 0.5, 0.5)
        assert abs(delta - want) < 1e-12

    def test_puncture_is_machine_readable_error(self, capsys):
        code, out, err = run(capsys, "eval", "--s", "0.5,0", "--a", "1,0", "--c", "0.5,0")
        assert code == 2
        assert out == ""
        rec = json.loads(err)
        assert rec["error"] == "InvalidPoint"
        assert "integer puncture" in rec["message"]

    @pytest.mark.parametrize(
        "s, a, c",
        [("nan", "0.3,0.1", "0.5"), ("0.5", "inf", "0.5"), ("0.5", "0.3,0.1", "inf"), ("0.5", "0.3,-inf", "0.5")],
    )
    def test_non_finite_input_is_machine_readable_error(self, capsys, s, a, c):
        code, out, err = run(capsys, "eval", "--s", s, "--a", a, "--c", c)
        assert code == 2
        assert out == ""
        rec = json.loads(err)
        assert rec["error"] == "InvalidPoint"
        assert "not finite" in rec["message"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_bad_tolerance_is_machine_readable_error(self, capsys, tol):
        # --tol nan used to exit 0 with an estimate of 0.20
        code, out, err = run(capsys, "eval", "--s", "2", "--a", "0.3", "--c", "0.5", f"--tol={tol}")
        assert (code, out) == (2, "")
        message = f"tolerance {tol!r} is not a finite nonnegative number"
        assert err == json.dumps({"error": "InvalidPoint", "message": message}) + "\n"

    def test_zero_tolerance_answers(self, capsys):
        code, out, _ = run(capsys, "eval", "--s", "2", "--a", "0.3", "--c", "0.5", "--tol", "0")
        assert code == 0 and json.loads(out)["method"] == "series"

    def test_integer_re_c_takes_the_transform(self, capsys):
        # left of the integral's strip Re s > -4
        code, out, _ = run(capsys, "eval", "--s", "-4.5,0", "--a", "0.3,-0.1", "--c", "1,0.2")
        assert code == 0
        assert json.loads(out)["method"] == "transform"
        code, out, _ = run(capsys, "eval", "--s", "-0.5,0", "--a", "0.3,-0.1", "--c", "1,0.2")
        assert code == 0
        assert json.loads(out)["method"] == "integral"

    def test_seventeen_digit_output(self, capsys):
        _, out, _ = run(capsys, "eval", "--s", "2,0", "--a", "0.5,0", "--c", "1,0")
        rec = json.loads(out)
        # round-trips exactly through the printed representation
        assert float(format(rec["value"]["re"], ".17g")) == rec["value"]["re"]


class TestMonodromyCommand:
    def test_commutator_is_zero(self, capsys):
        code, out, _ = run(
            capsys, "monodromy", "--word", "X0 Y0 X0^-1 Y0^-1",
            "--s", "0.3,0", "--a", "0.4,0", "--c", "0.6,0",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == {"re": 0.0, "im": 0.0}
        assert rec["abelianization"] == {"kx": {}, "ky": {}}
        assert rec["contributions"] == []

    def test_power_word(self, capsys):
        code, out, _ = run(
            capsys, "monodromy", "--word", "X0^2", "--s", "0.3,0", "--a", "0.4,0", "--c", "0.6,0"
        )
        rec = json.loads(out)
        base = monodromy_generator(Generator("X", 0), 0.3, 0.4, 0.6)
        want = (cmath.exp(2j * math.pi * 0.3) + 1) * base
        got = complex(rec["value"]["re"], rec["value"]["im"])
        assert abs(got - want) < 1e-12
        assert rec["contributions"][0]["generator"] == "X0"
        assert rec["contributions"][0]["winding"] == 2

    def test_special_value_is_exact_zero(self, capsys):
        code, out, _ = run(
            capsys, "monodromy", "--word", "Y0", "--s", "-1,0", "--a", "0.4,0", "--c", "0.6,0"
        )
        rec = json.loads(out)
        assert rec["value"] == {"re": 0.0, "im": 0.0}

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "monodromy", "--word", "Q0", "--s", "0.3,0", "--a", "0.4,0", "--c", "0.6,0")
        assert code == 2
        assert json.loads(err)["error"] == "WordParseError"


class TestVerify:
    def test_deterministic_output(self, capsys):
        args = ("verify", "--suite", "monodromy", "--samples", "5", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "PASS" in out1

    def test_residue_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "residue", "--samples", "3", "--seed", "1")
        assert code == 0
        assert out.count("PASS") == 1


class TestErrorRecord:
    @pytest.mark.parametrize(
        "argv",
        [
            ("monodromy", "--word", "X0", "--s", "-400.5,0", "--a", "0.3,0", "--c", "0.4,0"),
            ("monodromy", "--word", "Y-1^2 X-3 Y-1", "--s=59.07131841728972,47.953892785364815",
             "--a=-1.0617544967082417,0.5344863371278934", "--c=0.4472378374730761,-0.9170495795344269"),
        ],
    )
    def test_overflow_is_a_record(self, capsys, argv):
        # M(X_0)'s prefactor (2 pi)^s e^{i pi s/2} / Gamma(s) overflows at the first s;
        # the last word's Y_-1^3 term is inf + nan j, from a complex product that raises nothing
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "NonConvergence"

    def test_gamma_past_binary64_answers(self, capsys):
        # 1/Gamma(s) passes binary64's range at s = 0.5 + 500i and Gamma(s) at s = 400, where M(X_0)'s prefactor
        # does not: it is one exp of s log(2 pi i) - log Gamma(s), and at s = 400 it underflows to 0 (the true
        # M(X_0) is 2.7e-756)
        code, out, _ = run(capsys, "eval", "--s", "0.5,500", "--a", "0.3,0.2", "--c", "0.4,0", "--branch", "X0")
        rec = json.loads(out)
        assert code == 0
        assert abs(complex(rec["value"]["re"], rec["value"]["im"]) - Z_COVER_500) <= rec["abs_err"]
        code, out, _ = run(capsys, "monodromy", "--word", "X0", "--s", "0.5,500", "--a", "0.3,0", "--c", "0.4,0")
        rec = json.loads(out)
        assert code == 0
        assert abs(complex(rec["value"]["re"], rec["value"]["im"]) - M_X0_500) <= 1e-12 * abs(M_X0_500)
        code, out, _ = run(capsys, "monodromy", "--word", "X0", "--s", "400,0", "--a", "0.3,0", "--c", "0.4,0")
        assert code == 0
        assert json.loads(out)["value"] == {"re": 0, "im": 0}

    @pytest.mark.parametrize(
        "s, a, c, word",
        [
            # the cutoff bound of the transform's inner ray divided by Re(c e^{i theta}) = 0 (ZeroDivisionError)
            (-1 + 1e300j, -2.456111286148779 - 1.949553244611852j, -4.411021634493531 + 1e-12j, ""),
            # the three-term coefficients' phase 2 pi i a c passed binary64, where cmath.exp raises ValueError
            (-2 + 0.5j, 1e300 + 1e300j, 0.9999999999999999 + 1e300j, ""),
            # an index shift in c by 1e300 terms, more than numpy can make an array of (ValueError)
            (complex(-0.7130034175697695, 0.0), complex(-1.1976193789174627, -0.0), 1e300 - 2j, ""),
            # a series window of 1e300 terms, where n + Re c rounds to 0 (ZeroDivisionError)
            (23.291976475744796 + 1e-16j, 2.5770762032150376 + 0.999999999j, -1e300 + 1j, ""),
            # rounding at log|e^{2 pi i a}| = 6e300 left the cutoff bound's divisor at 0 (ZeroDivisionError)
            (1e-16 + 1e-16j, 0.5 - 1e300j, 11.896463263052027 - 1e-300j, ""),
            # a monodromy term's phase passed binary64 (ValueError)
            (2 + 1e-16j, 200 + 1e300j, 0.5 + 1e300j, "X2^-2 Y0^-2 Y1^-2"),
            # the ray's ends t0 = 2/|c| and t_max lay 1e308 apart, and its phase count was 0 * inf (ValueError)
            (1e300 + 0j, -2.280477643067659 - 1.5506224583265076j, 4.400443591121629 - 1e300j, "X1^-1"),
        ],
    )
    def test_edge_points_are_records(self, capsys, s, a, c, word):
        # each of these raised a Python error past the package's own, and lerchz eval printed a traceback
        with pytest.raises(LerchError):
            lerchzeta.evaluate_on_cover(lerchzeta.Point3(s, a, c), lerchzeta.parse_branch(word))
        flags = [f"--{name}={z.real!r},{z.imag!r}" for name, z in zip("sac", (s, a, c))]
        code, out, err = run(capsys, "eval", *flags, "--branch", word)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert issubclass(getattr(errors, json.loads(err)["error"]), LerchError)

    def test_verify_non_convergence_is_a_record(self, capsys, monkeypatch):
        def fails(*args):
            raise errors.NonConvergence("no suite converged")

        monkeypatch.setattr(lerchzeta.cli, "run_suite", fails)
        code, out, err = run(capsys, "verify", "--suite", "monodromy")
        assert (code, out) == (2, "")
        assert err == '{"error": "NonConvergence", "message": "no suite converged"}\n'


class TestRunSuite:
    def test_all_suites_pass_and_repeat(self):
        first = run_suite("all", 1, 0)
        assert {r.name.split(".")[0] for r in first} == set(SUITE_NAMES)
        assert all(r.passed for r in first), [r.line() for r in first if not r.passed]
        assert [r.line() for r in run_suite("all", 1, 0)] == [r.line() for r in first]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense", 1, 0)

    def test_worst_on_cover_redraws_on_lerch_error(self):
        # a draw whose second residual raises is not counted: a fresh point replaces it, and the
        # worsts of the draws before it stand
        points = []

        def first(p, b):
            points.append(p)
            return {1: 3.0, 2: 1.0}.get(len(points), 2.0)

        def second(p, b):
            if len(points) == 2:
                raise errors.NonConvergence("no answer at this draw")
            return 0.5 * len(points)

        worst = _worst_on_cover(random.Random(5), 3, (first, second))
        assert len(points) == 4 and len(set(points)) == 4
        assert worst == [3.0, 2.0]


class TestGrid:
    def test_s_grid_shape_and_header(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "grid", "--axis", "s", "--re", "0,1,11", "--im", "0,0,1",
            "--fixed-a", "0.5,0", "--fixed-c", "0.5,0", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "coord_re,coord_im,z_re,z_im,abs_err,method"
        assert len(lines) == 12
        assert not any("skipped" in ln for ln in lines[1:])

    def test_removable_c_row_not_skipped(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "grid", "--axis", "c", "--re", "1.5,2.5,3", "--im", "0,0,1",
            "--fixed-s", "0.7,0", "--fixed-a", "0.3,0.4", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert not any("skipped" in ln for ln in lines)
        # middle row is exactly c = 2
        assert lines[2].startswith("2,0,")

    def test_integer_c_row_at_negative_s(self, tmp_path, capsys):
        # the transform left of the integral's strip Re s > -4, the integral inside it
        out_path = tmp_path / "grid.csv"
        for s, method in (("-4.5,0", "transform"), ("-0.5,0", "integral")):
            code, _, _ = run(
                capsys, "grid", "--axis", "c", "--re", "1.5,2.5,3", "--im", "0,0,1",
                "--fixed-s", s, "--fixed-a", "0.3,-0.1", "--out", str(out_path),
            )
            assert code == 0
            row = out_path.read_text().strip().splitlines()[2]
            assert row.startswith("2,0,") and row.endswith(f",{method}")

    @pytest.mark.parametrize(
        "flag, value",
        [("--re", "0,inf,3"), ("--re", "nan,1,3"), ("--im", "-inf,0,2"), ("--tol", "nan"), ("--tol", "-1e-10")],
    )
    def test_non_finite_range_or_bad_tolerance_is_an_error(self, tmp_path, capsys, flag, value):
        # --re 0,inf,3 used to exit 0 with the rows "nan,0,,,,skipped"; --tol nan would skip every row
        out_path = tmp_path / "grid.csv"
        code, out, err = run(capsys, "grid", "--axis", "s", "--re", "0,1,3", "--fixed-a", "0.3", "--fixed-c", "0.5",
                             "--out", str(out_path), f"{flag}={value}")
        assert (code, out) == (2, "")
        rec = json.loads(err)
        assert err.count("\n") == 1 and rec["error"] == "InvalidPoint" and repr(value) in rec["message"]
        assert not out_path.exists()

    def test_puncture_row_skipped(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "grid", "--axis", "c", "--re", "-1,1,3", "--im", "0,0,1",
            "--fixed-s", "0.7,0", "--fixed-a", "0.3,0.4", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        skipped = [ln for ln in lines[1:] if ln.endswith(",skipped")]
        assert len(skipped) == 2  # c = -1 and c = 0 are punctures
        assert any(ln.startswith("1,0,") and not ln.endswith("skipped") for ln in lines[1:])

    def test_json_format(self, tmp_path, capsys):
        out_path = tmp_path / "grid.json"
        code, _, _ = run(
            capsys, "grid", "--axis", "a", "--re", "0.2,0.8,4", "--im", "0.5,0.5,1",
            "--fixed-s", "1.5,0", "--fixed-c", "0.7,0", "--format", "json",
            "--out", str(out_path),
        )
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert len(rows) == 4
        assert all("z" in row for row in rows)

    def test_json_skipped_rows(self, tmp_path, capsys):
        out_path = tmp_path / "grid.json"
        code, _, _ = run(
            capsys, "grid", "--axis", "c", "--re", "-1,1,3", "--im", "0,0,1",
            "--fixed-s", "0.7,0", "--fixed-a", "0.3,0.4", "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        # c = -1 and c = 0 are punctures; c = 1 is evaluated
        assert text.startswith(
            '[{"coord": {"re": -1, "im": 0}, "method": "skipped"}, '
            '{"coord": {"re": 0, "im": 0}, "method": "skipped"}, {"coord": {"re": 1, "im": 0}, "z": '
        )
        assert text.endswith("}]\n")
        assert json.loads(text)[2]["method"] != "skipped"

    # the puncture grid's exact bytes in both formats; its one answered row takes the series route
    PUNCTURE_GRID = {
        "csv": (
            "coord_re,coord_im,z_re,z_im,abs_err,method\n"
            "-1,0,,,,skipped\n"
            "0,0,,,,skipped\n"
            "1,0,0.98229757961855357,0.045529864962319415,1.1175869334680752e-15,series\n"
        ),
        "json": (
            '[{"coord": {"re": -1, "im": 0}, "method": "skipped"}, '
            '{"coord": {"re": 0, "im": 0}, "method": "skipped"}, '
            '{"coord": {"re": 1, "im": 0}, "z": {"re": 0.98229757961855357, "im": 0.045529864962319415}, '
            '"abs_err": 1.1175869334680752e-15, "method": "series"}]\n'
        ),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_puncture_grid_bytes(self, tmp_path, capsys, fmt):
        out_path = tmp_path / f"grid.{fmt}"
        code, _, _ = run(
            capsys, "grid", "--axis", "c", "--re", "-1,1,3", "--im", "0,0,1",
            "--fixed-s", "0.7,0", "--fixed-a", "0.3,0.4", "--format", fmt, "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_bytes() == self.PUNCTURE_GRID[fmt].encode()

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            capsys, "grid", "--axis", "s", "--re", "0.2,0.8,2", "--im", "0,0,1",
            "--fixed-a", "0.5,0", "--fixed-c", "0.5,0",
            "--out", "/nonexistent-dir/grid.csv",
        )
        assert code == 2
        assert "error" in json.loads(err)

    def test_deterministic_bytes_and_threads(self, tmp_path, capsys):
        args = lambda path: (
            "grid", "--axis", "s", "--re", "0.2,1.4,5", "--im", "-0.3,0.3,2",
            "--fixed-a", "0.3,0.2", "--fixed-c", "0.7,0", "--out", path,
        )
        p1, p2 = str(tmp_path / "g1.csv"), str(tmp_path / "g2.csv")
        assert run(capsys, *args(p1))[0] == 0
        assert run(capsys, *args(p2))[0] == 0
        assert open(p1, "rb").read() == open(p2, "rb").read()


MONODROMY_ARGS = ("monodromy", "--word", "X0 Y-1^2", "--s", "0.3,0.2", "--a", "0.4", "--c", "0.6")
GRID_USAGE = (
    "usage: lerchz grid [-h] --axis {s,a,c,S,A,C} --re RE [--im IM]\n"
    "                   [--fixed-s FIXED_S] [--fixed-a FIXED_A] [--fixed-c FIXED_C]\n"
    "                   [--branch BRANCH] [--tol TOL] [--format {csv,json}] --out\n"
    "                   OUT\n"
)


def run_exit(capsys, *argv):
    """(exit code, stdout, stderr) of a call that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.fixture
def columns80(monkeypatch):
    # argparse wraps usage lines at the terminal width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.usefixtures("columns80")
class TestArgumentErrors:
    def test_bad_complex_value(self, capsys):
        assert run_exit(capsys, "eval", "--s", "1,2,3", "--a", "0.5", "--c", "0.5") == (
            2,
            "",
            "usage: lerchz eval [-h] --s S --a A --c C [--branch BRANCH] [--tol TOL]\n"
            "lerchz eval: error: argument --s: expected 're' or 're,im', got '1,2,3'\n",
        )

    def test_bad_range_value(self, capsys):
        got = run_exit(capsys, "grid", "--axis", "s", "--re", "0,1", "--fixed-a", "0.5", "--fixed-c", "0.5",
                       "--out", "unused.csv")
        assert got == (2, "", GRID_USAGE + "lerchz grid: error: argument --re: expected 'lo,hi,steps', got '0,1'\n")

    def test_range_needs_a_step(self, capsys):
        got = run_exit(capsys, "grid", "--axis", "s", "--re", "0,1,0", "--fixed-a", "0.5", "--fixed-c", "0.5",
                       "--out", "unused.csv")
        assert got == (2, "", GRID_USAGE + "lerchz grid: error: argument --re: steps must be >= 1\n")

    @pytest.mark.parametrize(
        "axis, fixed, missing",
        [("s", ("--fixed-a", "0.5"), "c"), ("c", (), "s/a")],
    )
    def test_grid_missing_fixed_coordinate(self, tmp_path, capsys, axis, fixed, missing):
        out_path = tmp_path / "grid.csv"
        code, out, err = run(capsys, "grid", "--axis", axis, "--re", "0,1,2", *fixed, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == '{"error": "UsageError", "message": "missing --fixed-' + missing + '"}\n'
        assert not out_path.exists()

    def test_grid_bad_branch(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code, out, err = run(capsys, "grid", "--axis", "s", "--re", "0,1,2", "--fixed-a", "0.5", "--fixed-c", "0.5",
                             "--branch", "Q1", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == '{"error": "WordParseError", "message": "bad word token \'Q1\'"}\n'
        assert not out_path.exists()

    def test_parser_is_built_once_and_survives_an_error(self, capsys):
        assert build_parser() is build_parser()
        alone = run(capsys, *MONODROMY_ARGS)
        assert run_exit(capsys, "monodromy", "--word", "X0", "--s", "0.3,x", "--a", "0.4", "--c", "0.6")[0] == 2
        assert run(capsys, *MONODROMY_ARGS) == alone
        assert alone[0] == 0 and alone[2] == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("grid", "--axis", "s", "--re", "0,1", "--fixed-a", "0.5", "--fixed-c", "0.5", "--out", "unused.csv"),
        ("eval", "--s", "1,2,3", "--a", "0.5", "--c", "0.5"),
        ("--help",),
        ("grid", "--help"),
    ],
)
def test_usage_bytes_ignore_terminal_width(monkeypatch, capsys, argv):
    printed = []
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        printed.append(run_exit(capsys, *argv))
    assert printed[0] == printed[1] == printed[2]
    assert printed[0][1] or printed[0][2]


def run_module(*argv):
    """(exit code, stdout, stderr) of `python -m lerchzeta argv` in a new process."""
    src = str(Path(lerchzeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "lerchzeta", *argv], capture_output=True, env=env)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


class TestModuleEntry:
    def test_python_dash_m_matches_main(self, capsys):
        got = run_module(*MONODROMY_ARGS)
        assert got == run(capsys, *MONODROMY_ARGS)
        assert got[0] == 0 and got[1].startswith('{"value": ')

    def test_python_dash_m_error_exit(self):
        got = run_module("monodromy", "--word", "Q0", "--s", "0.3", "--a", "0.4", "--c", "0.6")
        assert got == (2, "", '{"error": "WordParseError", "message": "bad word token \'Q0\'"}\n')


class TestGrammarRoundTrip:
    def test_parse_print_parse(self):
        for text in ("X0", "X0 Y-2^-1 X0^3", "Y5^2 X-3", ""):
            w = Word.parse(text)
            assert Word.parse(str(w)) == w


def _complex_flag(re_lo, re_hi, im_lo, im_hi):
    return st.builds(
        lambda x, y: f"{x!r},{y!r}",
        st.floats(re_lo, re_hi, allow_subnormal=False),
        st.floats(im_lo, im_hi, allow_subnormal=False),
    )


_letter = st.builds(
    lambda axis, k, e: f"{axis}{k}" + ("" if e == 1 else f"^{e}"),
    st.sampled_from("XY"),
    st.integers(-3, 3),
    st.sampled_from([-2, -1, 1, 2]),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    s=_complex_flag(-3.0, 3.0, -40.0, 40.0),
    a=_complex_flag(-2.0, 2.0, -1.0, 1.0),
    c=_complex_flag(-5.0, 5.0, -1.0, 1.0),
    word=st.lists(_letter, max_size=3).map(" ".join),
)
def test_eval_fuzz(s, a, c, word):
    # lerchz eval answers with a finite value and estimate, or exits 2 with the error record;
    # anything else escaping main would print a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--s", s, "--a", a, "--c", c, "--branch", word])
    if code == 0:
        assert err.getvalue() == ""
        rec = json.loads(out.getvalue())
        assert math.isfinite(rec["value"]["re"]) and math.isfinite(rec["value"]["im"])
        assert math.isfinite(rec["abs_err"])
    else:
        assert code == 2 and out.getvalue() == ""
        rec = json.loads(err.getvalue())
        assert set(rec) == {"error", "message"}
        assert issubclass(getattr(errors, rec["error"]), LerchError)
