"""End-to-end checks of the command line surface via main(argv)."""

import argparse
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import kopelcas
from kopelcas.certificates import KINDS
from kopelcas.cli import _build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        rc, out, _ = run(capsys, "stability", "--u", "1e200", "--v", "1e200")
        assert rc == 0
        reports = json.loads(out, parse_constant=reject)["reports"]
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
        doc = json.loads(out)
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
        doc = json.loads(out)
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
