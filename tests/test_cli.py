"""End-to-end checks of the command line surface via main(argv)."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import kopelcas
from kopelcas.certificates import KINDS
from kopelcas.cli import _build_parser, main
from kopelcas.scanner import ScanSpec, emit_grid, scan


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which strict JSON does not have."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestClassify:
    def test_triple_point_prints_the_pinned_equilibrium(self, capsys):
        rc, out, _ = run(capsys, "classify", "--u", "3", "--v", "3")
        assert rc == 0
        assert out == "OnePositiveTriple (2/3, 2/3)\n"

    def test_plain_class_has_no_suffix(self, capsys):
        rc, out, _ = run(capsys, "classify", "--u", "4", "--v", "4")
        assert rc == 0
        assert out == "ThreePositive\n"

    def test_decimal_parameters_parse_exactly(self, capsys):
        # 3.25 must become 13/4; a float detour would miss the window edge
        rc, out, _ = run(capsys, "classify", "--kind", "stable",
                         "--u", "3.25", "--v", "3.25")
        assert rc == 0
        assert out == "TwoStable\n"

    def test_json_variant(self, capsys):
        rc, out, _ = run(capsys, "classify", "--u", "3", "--v", "3", "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc == {"schema_version": 1, "kind": "count",
                       "u": "3", "v": "3", "class": "OnePositiveTriple"}

    def test_homogeneous_needs_speed(self, capsys):
        rc, _, err = run(capsys, "classify", "--kind", "homogeneous",
                         "--u", "4", "--v", "4")
        assert rc == 2
        assert "--a" in err

    @pytest.mark.parametrize("kind", ["count", "stable"])
    def test_full_speed_kinds_refuse_a_speed(self, capsys, kind):
        # the speed used to be dropped: stable printed the a = 1 TwoStable
        rc, out, err = run(capsys, "classify", "--kind", kind,
                           "--u", "13/4", "--v", "13/4", "--a", "1/2")
        assert rc == 2
        assert out == ""
        assert "--a" in err

    @pytest.mark.parametrize("command", ["classify", "scan"])
    def test_kind_choices_are_the_kinds(self, command):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        kind = next(a for a in sub.choices[command]._actions if a.dest == "kind")
        assert tuple(kind.choices) == KINDS

    def test_homogeneous_json_includes_speed(self, capsys):
        rc, out, _ = run(capsys, "classify", "--kind", "homogeneous",
                         "--u", "4", "--v", "4", "--a", "1/2", "--json")
        assert rc == 0
        assert json.loads(out)["a"] == "1/2"


class TestEquilibria:
    def test_full_speed_symmetric_case(self, capsys):
        rc, out, _ = run(capsys, "equilibria", "--u", "4", "--v", "4")
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["params"] == {"u": "4", "v": "4", "a": "1", "b": "1"}
        assert len(doc["equilibria"]) == 4
        origin = doc["equilibria"][0]
        assert origin["x_interval"] == ["0", "0"]
        assert origin["positive"] is False
        positives = [e for e in doc["equilibria"] if e["positive"]]
        assert len(positives) == 3
        assert all(e["in_unit_square"] for e in doc["equilibria"])
        assert all(e["verdict"] == "unstable" for e in doc["equilibria"])

    def test_speeds_are_accepted(self, capsys):
        rc, out, _ = run(capsys, "equilibria", "--u", "2", "--v", "2",
                         "--a", "1/4", "--b", "3/4")
        assert rc == 0
        assert json.loads(out)["params"] == {"u": "2", "v": "2",
                                             "a": "1/4", "b": "3/4"}

    def test_domain_error_quotes_the_constraint(self, capsys):
        rc, _, err = run(capsys, "equilibria", "--u", "-1", "--v", "4")
        assert rc == 2
        assert "u > 0 and v > 0" in err

    def test_speed_domain_error(self, capsys):
        rc, _, err = run(capsys, "equilibria", "--u", "2", "--v", "2", "--a", "2")
        assert rc == 2
        assert "0 < a <= 1" in err


class TestStability:
    def test_asymmetric_window_point(self, capsys):
        rc, out, _ = run(capsys, "stability", "--u", "13/4", "--v", "13/4")
        assert rc == 0
        doc = json.loads(out)
        verdicts = [r["verdict"] for r in doc["reports"]]
        assert verdicts.count("stable") == 2
        stable = [r for r in doc["reports"] if r["verdict"] == "stable"]
        for rep in stable:
            assert rep["cd_signs"] == [1, 1, 1]
            assert max(rep["eig_moduli"]) < 1
        unstable = [r for r in doc["reports"] if r["verdict"] == "unstable"]
        for rep in unstable:
            assert max(rep["eig_moduli"]) > 1

    def test_float_diagnostics_are_plain_json_numbers(self, capsys):
        rc, out, _ = run(capsys, "stability", "--u", "4", "--v", "4")
        assert rc == 0
        for rep in json.loads(out)["reports"]:
            for key in ("trace", "det"):
                assert isinstance(rep[key], float)
            assert all(isinstance(m, float) for m in rep["eig_moduli"])
            assert all(isinstance(val, float) for val in rep["cd_values"])

    def test_overflowed_diagnostics_print_null(self, capsys):
        # at u = v = 1e200 the float det and condition values overflow; the
        # document must still be strict JSON, with the exact verdicts intact
        rc, out, _ = run(capsys, "stability", "--u", "1e200", "--v", "1e200")
        assert rc == 0
        reports = strict_json(out)["reports"]
        params = kopelcas.ModelParams(Fraction(10**200), Fraction(10**200))
        expected = kopelcas.equilibrium_report(params)["equilibria"]
        assert [r["verdict"] for r in reports] == [e["verdict"] for e in expected]
        assert [r["cd_signs"] for r in reports] == [e["cd_signs"] for e in expected]
        for rep in reports:
            assert rep["det"] is None
            assert None in rep["cd_values"] and None in rep["eig_moduli"]


class TestVerifyIdentities:
    def test_eleven_pass_lines(self, capsys):
        rc, out, _ = run(capsys, "verify-identities")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 11
        assert all(line.startswith("PASS ") for line in lines)
        assert "PASS cubic-discriminant" in lines
        assert "PASS triangular-substitution" in lines

    def test_json_variant(self, capsys):
        rc, out, _ = run(capsys, "verify-identities", "--json")
        assert rc == 0
        doc = strict_json(out)
        assert doc["schema_version"] == 1
        assert doc["all_passed"] is True
        assert len(doc["identities"]) == 11
        assert all(entry["passed"] for entry in doc["identities"])
        # a passing entry carries no difference payload
        assert all("difference" not in entry for entry in doc["identities"])


class TestScan:
    def test_default_filename_and_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, _ = run(capsys, "scan", "--range", "2:4", "--resolution", "3")
        assert rc == 0
        assert (tmp_path / "scan_count_3.csv").exists()
        assert "scan_count_3.csv" in out
        assert "9 cells" in out
        assert "0 disagreements" in out

    def test_out_flag_and_json(self, capsys, tmp_path):
        target = tmp_path / "grid.json"
        rc, out, _ = run(capsys, "scan", "--kind", "stable", "--range", "3:7/2",
                         "--resolution", "3", "--json", "--out", str(target))
        assert rc == 0
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["kind"] == "stable"
        assert len(doc["cells"]) == 9

    def test_homogeneous_kind(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        rc, out, _ = run(capsys, "scan", "--kind", "homogeneous",
                         "--range", "3:4", "--resolution", "2",
                         "--a", "1/2", "--out", str(target))
        assert rc == 0
        header = target.read_text(encoding="utf-8").split("\n", 1)[0]
        assert header.split(",")[4] == "a"

    def test_malformed_range(self, capsys):
        rc, _, err = run(capsys, "scan", "--range", "217")
        assert rc == 2
        assert "LO:HI" in err

    def test_homogeneous_without_speed(self, capsys):
        rc, _, err = run(capsys, "scan", "--kind", "homogeneous",
                         "--range", "3:4", "--resolution", "2")
        assert rc == 2
        assert "--a" in err

    @pytest.mark.parametrize("kind", ["count", "stable"])
    def test_full_speed_kinds_refuse_a_speed(self, capsys, tmp_path, kind):
        # the speed used to be dropped and the JSON wrote "a_value": null
        target = tmp_path / "grid.json"
        rc, _, err = run(capsys, "scan", "--kind", kind, "--range", "3:7/2",
                         "--resolution", "2", "--a", "1/2", "--json", "--out", str(target))
        assert rc == 2
        assert "--a" in err
        assert not target.exists()

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        # exit 1 would claim a disagreement; a bad path is the caller's error
        target = tmp_path / "no" / "such" / "grid.csv"
        rc, out, err = run(capsys, "scan", "--range", "2:4", "--resolution", "2",
                           "--out", str(target))
        assert rc == 2
        assert err.startswith("error: ")
        assert str(target) in err
        assert out == ""


class TestSimulate:
    def test_deterministic_rows(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--u", "4", "--v", "4",
                         "--x0", "0.5", "--y0", "0.5", "--steps", "2")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x,y"
        assert lines[1] == "0,0.5,0.5"
        # one full-speed step from the square's centre lands on (1, 1)
        assert lines[2] == "1,1.0,1.0"
        assert lines[3] == "2,0.0,0.0"

    def test_seed_reproduces_start(self, capsys):
        rc1, out1, _ = run(capsys, "simulate", "--u", "2", "--v", "2",
                           "--seed", "11", "--steps", "3")
        rc2, out2, _ = run(capsys, "simulate", "--u", "2", "--v", "2",
                           "--seed", "11", "--steps", "3")
        assert rc1 == rc2 == 0
        assert out1 == out2
        rc3, out3, _ = run(capsys, "simulate", "--u", "2", "--v", "2",
                           "--seed", "12", "--steps", "3")
        assert out3 != out1

    def test_no_seed_is_seed_zero(self, capsys):
        args = ("simulate", "--u", "4", "--v", "4", "--steps", "0")
        seeded = run(capsys, *args, "--seed", "0")
        assert run(capsys, *args) == run(capsys, *args) == seeded
        assert seeded[1].startswith("t,x,y\n0,")

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        rc, out, _ = run(capsys, "simulate", "--u", "2", "--v", "2",
                         "--x0", "0.25", "--y0", "0.25", "--steps", "5",
                         "--out", str(target))
        assert rc == 0
        assert out == ""
        body = target.read_text(encoding="utf-8")
        assert body.startswith("t,x,y\n0,0.25,0.25\n")
        assert len(body.strip().split("\n")) == 7

    def test_divergence_noted_on_stderr(self, capsys):
        rc, out, err = run(capsys, "simulate", "--u", "40", "--v", "40",
                           "--x0", "-0.5", "--y0", "-0.5", "--steps", "50")
        assert rc == 0
        assert "diverged" in err

    def test_negative_steps_rejected(self, capsys):
        rc, _, err = run(capsys, "simulate", "--u", "2", "--v", "2",
                         "--x0", "0.1", "--y0", "0.1", "--steps", "-1")
        assert rc == 2
        assert "nonnegative" in err

    @pytest.mark.parametrize("x0, y0", [("nan", "0.5"), ("0.5", "nan"), ("inf", "0.5"),
                                        ("0.5", "-inf")])
    def test_non_finite_start_rejected(self, capsys, x0, y0):
        rc, out, err = run(capsys, "simulate", "--u", "2", "--v", "2",
                           f"--x0={x0}", f"--y0={y0}", "--steps", "3")
        assert rc == 2
        assert out == ""
        assert "finite" in err

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "traj.csv"
        rc, out, err = run(capsys, "simulate", "--u", "2", "--v", "2",
                           "--x0", "0.25", "--y0", "0.25", "--steps", "3",
                           "--out", str(target))
        assert rc == 2
        assert err.startswith("error: ")
        assert str(target) in err
        assert out == ""


class TestLargeFixedPoints:
    @pytest.mark.parametrize("command", ["equilibria", "stability"])
    def test_fixed_point_near_the_double_range_prints(self, capsys, command):
        # at u = v = 1e-120 the fixed point off the origin is near -1e120, a
        # double, though its isolating window first reaches past the doubles
        rc, out, _ = run(capsys, command, "--u", "1e-120", "--v", "1e-120")
        assert rc == 0
        doc = strict_json(out)
        far = doc["equilibria" if command == "equilibria" else "reports"][0]
        assert far["x_approx"] == pytest.approx(-1e120, rel=1e-12)
        assert far["y_approx"] == pytest.approx(-1e120, rel=1e-12)


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_rational_literal(self, capsys):
        rc, _, err = run(capsys, "classify", "--u", "zebra", "--v", "4")
        assert rc == 2
        assert "zebra" in err

    def test_missing_required_parameter(self, capsys):
        assert run(capsys, "classify", "--u", "4")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("scan", "--range", "2:4", "--resolution", "2", "--epsilon", "1/7"),
        ("equilibria", "--u", "4", "--v", "4", "--json"),
        ("stability", "--u", "4", "--v", "4", "--json"),
    ], ids=["scan-epsilon", "equilibria-json", "stability-json"])
    def test_retired_flags_are_unrecognized(self, capsys, tmp_path, monkeypatch, argv):
        # the flag width is fixed, and both commands only ever print JSON
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert "unrecognized arguments: --" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("stability", "--u", "1e400", "--v", "1"),
        ("simulate", "--u", "1e400", "--v", "1", "--steps", "2"),
        ("scan", "--range", "1e400:1e401", "--resolution", "2"),
    ], ids=["stability", "simulate", "scan"])
    def test_float_overflow_is_a_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        # the exact side holds 1e400; its float diagnostics, trajectory and
        # scan columns cannot, and exit 1 would claim a disagreement
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["equilibria", "stability"])
    def test_fixed_point_past_the_double_range_is_a_usage_error(self, capsys, command):
        # at u = v = 1e-400 the fixed point off the origin is near -1e400
        rc, out, err = run(capsys, command, "--u", "1e-400", "--v", "1e-400")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["equilibria", "stability"])
    def test_fixed_point_past_the_double_range_names_the_range(self, capsys, command):
        # x = 1 - 10**400 is rational and past the doubles, and overflows as a window does
        rc, _, err = run(capsys, command, "--u", "1e-400", "--v", "1e-400")
        assert rc == 2
        assert err == "error: the root lies beyond the double range\n"

    @pytest.mark.parametrize("command", ["equilibria", "classify"])
    def test_exact_commands_hold_huge_parameters(self, capsys, command):
        rc, out, _ = run(capsys, command, "--u", "1e400", "--v", "1")
        assert rc == 0
        assert out


def _stdout(out, _):
    return out


def _files(_, where):
    return sorted(path.name for path in where.iterdir())


def _written(_, where):
    (path,) = where.iterdir()
    return path.read_bytes()


def _fold_slice(out, where):
    # every cell is TheoremSilent, so agree checks nothing: the stable counts are pinned
    with open(where / "hfold.csv", newline="", encoding="utf-8") as fh:
        return out, [row["numeric_stable"] for row in csv.DictReader(fh)]


def _verdicts(out, _):
    return [r["verdict"] for r in strict_json(out)["reports"]]


def _windows(out, _):
    return [p["x_interval"] for p in strict_json(out)["equilibria"]]


def _lone_twin(out, _):
    points = strict_json(out)["equilibria"]
    return [p["x_interval"] for p in points], points[1]["y_approx"]


def _trajectory(out, _):
    # the header, t = 0..10, and every coordinate in the unit square, which traps orbits
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return (lines[0], [int(r[0]) for r in rows],
            all(0 <= float(c) <= 1 for r in rows for c in r[1:]))


def _half_image(out, _):
    return [p["y_approx"] for p in strict_json(out)["equilibria"]
            if p["x_interval"] == ["1/2", "1/2"]]


def _swapped_pair(out, _):
    # each windowed point lies on y = 4 x (1 - x), and the first has y = (5 + sqrt 5) / 8
    pair = [p for p in strict_json(out)["equilibria"] if p["x_interval"][0] != p["x_interval"][1]]
    on_locus = [math.isclose(p["y_approx"], 4 * p["x_approx"] * (1 - p["x_approx"]),
                             rel_tol=1e-12) for p in pair]
    return on_locus, math.isclose(pair[0]["y_approx"], (5 + math.sqrt(5)) / 8, rel_tol=1e-12)


def _scanned(name, cells, on_zero_set):
    return f"wrote {name}: {cells} cells, 0 disagreements, {on_zero_set} on a zero set\n"


SIDE = (Fraction(3), Fraction(4))

# name: (argv, exit code, what is read from stdout and the working
# directory, what it must be)
CONSOLE = {
    # one scan per kind, the homogeneous one at three speeds, on its default square
    **{"-".join(["scan", kind, *speed, "20"]): (
        ["scan", "--kind", kind, "--resolution", "20", *[f"--a={a}" for a in speed]], 0,
        _stdout, _scanned(f"scan_{kind}_20.csv", 400, 0))
       for kind, *speed in [("count",), ("stable",), ("homogeneous", "1/4"),
                            ("homogeneous", "1/2"), ("homogeneous", "3/4")]},
    # the file is the emission byte for byte, so the scan digests pin what the command writes
    "scan-out-csv": (["scan", "--range", "3:4", "--resolution", "5", "--out", "grid.csv"], 0,
                     _written, emit_grid(scan("count", ScanSpec(SIDE, SIDE, 5)), "csv").encode()),
    "scan-out-json": (["scan", "--kind", "homogeneous", "--a", "1/2", "--range", "3:4",
                       "--resolution", "5", "--json", "--out", "grid.json"], 0, _written,
                      emit_grid(scan("homogeneous",
                                     ScanSpec(SIDE, SIDE, 5, a_value=Fraction(1, 2))),
                                "json").encode()),
    # a speed past 1 is refused before any cell is bound, and no file is written
    "scan-speed-refused": (["scan", "--kind", "homogeneous", "--a", "3/2", "--resolution", "2",
                            "--out", "refused.csv"], 2, _files, []),
    # u v = 1 at (1/2, 2), (1, 1) and (2, 1/2), where the window's end x = 0
    # is a root of the cubic, and disc = 0 at the triple point (3, 3)
    "scan-count-zero-sets": (["scan", "--kind", "count", "--range", "1/2:4", "--resolution", "8",
                              "--out", "zero.csv"], 0, _stdout, _scanned("zero.csv", 64, 4)),
    # coefficients past the float range: the float brackets give way to Sturm isolation
    "scan-count-past-the-doubles": (["scan", "--kind", "count", "--range", "1e200:2e200",
                                     "--resolution", "3", "--out", "big.csv"], 0, _stdout,
                                    _scanned("big.csv", 9, 0)),
    # disc = 0 at (27/8, 4) and (4, 27/8), and (4, 4) on the quadratic cut
    "scan-stable-fold": (["scan", "--kind", "stable", "--range", "27/8:4", "--resolution", "2",
                          "--out", "fold.csv"], 0, _stdout, _scanned("fold.csv", 4, 3)),
    "scan-homogeneous-fold": (["scan", "--kind", "homogeneous", "--a", "1/4", "--range", "27/8:4",
                               "--resolution", "2", "--out", "hfold.csv"], 0, _fold_slice,
                              (_scanned("hfold.csv", 4, 2), ["2", "1", "1", "2"])),
    "stability-verdicts": (["stability", "--u", "13/4", "--v", "13/4"], 0, _verdicts,
                           ["unstable", "stable", "unstable", "stable"]),
    # windows printed when every report counted roots by Sturm chains; x = 9/13
    # is a rational root at (13/4, 13/4)
    "windows-13/4-13/4": (["equilibria", "--u", "13/4", "--v", "13/4", "--a", "1/4",
                           "--b", "1/2"], 0, _windows,
                          [["0", "0"], ["31/64", "1/2"], ["9/13", "9/13"], ["207/256", "13/16"]]),
    "windows-13/4-7/2": (["equilibria", "--u", "13/4", "--v", "7/2", "--a", "1/4", "--b", "1/2"],
                         0, _windows,
                         [["0", "0"], ["13/32", "7/16"], ["25/32", "401/512"],
                          ["411/512", "103/128"]]),
    # the cubic (-4, 90, -162, 81) has disc < 0 and no rational root, and its
    # twin isolates to its root bound's window with no bisection
    "lone-twin": (["equilibria", "--u", "1/5", "--v", "9", "--a", "1/4", "--b", "1/2"], 0,
                  _lone_twin, ([["0", "0"], ["1/32", "1/16"]], 0.4160706319479576)),
    "simulate-trapped": (["simulate", "--u", "4", "--v", "4", "--seed", "7", "--steps", "10"], 0,
                         _trajectory, ("t,x,y", list(range(11)), True)),
    "twin-half": (["equilibria", "--u", "2", "--v", "2", "--a", "1/4", "--b", "3/4"], 0,
                  _half_image, [0.5]),
    # x = 3/4 deflates the cubic; 4 x (1 - x) swaps the pair (5 -+ sqrt 5) / 8
    "twin-deflated": (["equilibria", "--u", "4", "--v", "4", "--a", "1/2", "--b", "3/4"], 0,
                      _swapped_pair, ([True, True], True)),
}


@pytest.mark.parametrize("name", CONSOLE)
def test_console_output(capsys, tmp_path, monkeypatch, name):
    argv, code, read, expected = CONSOLE[name]
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, *argv)
    assert rc == code
    assert read(out, tmp_path) == expected


def test_commands_load_only_the_standard_library(tmp_path):
    # a fresh interpreter: importing the package and running every command
    # adds only kopelcas and standard-library modules; site hooks may load
    # others at startup, so only what is added counts
    script = textwrap.dedent(f"""
        import sys
        def top_level():
            return {{name.partition(".")[0] for name in sys.modules}}
        before = top_level()
        import kopelcas, kopelcas.cli
        from kopelcas.cli import main
        runs = [
            ["equilibria", "--u", "4", "--v", "4", "--a", "1/2", "--b", "3/4"],
            ["stability", "--u", "13/4", "--v", "13/4"],
            ["verify-identities"],
            ["classify", "--u", "3", "--v", "3"],
            ["scan", "--range", "2:4", "--resolution", "3",
             "--out", {str(tmp_path / "grid.csv")!r}],
            ["simulate", "--u", "2", "--v", "2", "--x0", "0.25", "--y0", "0.25",
             "--steps", "3"],
        ]
        for argv in runs:
            assert main(argv) == 0, argv
        added = top_level() - before
        assert "kopelcas" in added, added
        foreign = sorted(name for name in added
                         if name != "kopelcas" and name not in sys.stdlib_module_names)
        assert not foreign, foreign
        print("ok")
    """)
    src = os.path.dirname(os.path.dirname(kopelcas.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_package_import_loads_no_record_or_json_machinery(flags):
    # a fresh interpreter, with and without site hooks, which may preload
    # some of these: importing the package adds none of them (the CLI may
    # load json)
    script = textwrap.dedent("""
        import sys
        before = set(sys.modules)
        import kopelcas
        heavy = {"dataclasses", "inspect", "json", "typing"} & (set(sys.modules) - before)
        assert not heavy, sorted(heavy)
        print("ok")
    """)
    src = os.path.dirname(os.path.dirname(kopelcas.__file__))
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")


class TestInternalFailure:
    def test_refinement_cap_exits_3(self, capsys, monkeypatch):
        # with no refinement budget the root layer gives up at once; that is
        # an internal failure, not a disagreement (1) or a usage error (2)
        monkeypatch.setattr("kopelcas.realroots._REFINE_CAP", 0)
        rc, out, err = run(capsys, "stability", "--u", "4", "--v", "4")
        assert rc == 3
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
