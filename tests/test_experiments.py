"""CLI contract: payload schema, exit codes, files, and determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from torsionlab import experiments, geometry


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "torsionlab.experiments", *args],
        capture_output=True, text=True, cwd=cwd)


def test_solve_payload_schema():
    res = run_cli("solve", "--mesh", "disk:1:12", "--gamma", "0.3")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["schema_version"] == 1
    assert payload["experiment"] == "solve"
    assert payload["pass"] is True
    assert set(payload["outputs"]) >= {
        "T_grad", "T_power", "I_gamma", "flux_L1", "flux_L2",
        "gamma", "iterations", "residual"}
    assert payload["inputs"]["mesh"] == "disk:1:12"
    names = [v["name"] for v in payload["verdicts"]]
    assert "two-form-agreement" in names or any("two-form" in n for n in names)
    # runtime goes to stderr so stdout stays parseable and reproducible
    assert "runtime" in res.stderr


def test_isoperimetry_summary_keys():
    # needs ~100 rings: the one-sided flux bias is about 0.8/n relative
    res = run_cli("isoperimetry", "--mesh", "disk:1:100", "--gamma", "0.0")
    assert res.returncode == 0
    out = json.loads(res.stdout)["outputs"]
    assert set(out) >= {"gamma", "tau", "T_grad", "T_power", "I_gamma",
                        "flux_L1", "flux_L2", "iso_ratio_eq2",
                        "iso_ratio_eq3", "kappa"}
    assert out["iso_ratio_eq2"] == pytest.approx(1.0, abs=3e-2)


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("solve", "--mesh", "disk:1").returncode == 2
    assert run_cli("solve", "--mesh", "disk:1:12", "--gamma", "1.5").returncode == 2
    # csv output needs a directory to land in
    assert run_cli("monotonicity", "--metric", "flat", "--grid", "0.5:2:3",
                   "--format", "csv").returncode == 2
    bad = tmp_path / "p.cfg"
    bad.write_text("no_such_knob=1\n")
    assert run_cli("solve", "--mesh", "disk:1:12", "--params", str(bad)).returncode == 2


def test_bad_stopping_knobs_exit_2():
    for argv in (("solve", "--max-iter", "0"),
                 ("eigen-isoperimetry", "--max-iter", "0"),
                 ("solve", "--tol", "-1")):
        res = run_cli(*argv, "--mesh", "disk:1:8")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1


def test_damping_option_removed(tmp_path):
    res = run_cli("solve", "--mesh", "disk:1:8", "--damping", "0.5")
    assert res.returncode == 2
    cfg = tmp_path / "p.cfg"
    cfg.write_text("damping=0.5\n")
    res = run_cli("solve", "--mesh", "disk:1:8", "--params", str(cfg))
    assert res.returncode == 2
    assert "unknown parameter" in res.stderr
    # the key stays in the report, null, so schema-1 payloads keep their keys
    res = run_cli("solve", "--mesh", "disk:1:8", "--gamma", "0.3")
    payload = json.loads(res.stdout)
    assert payload["inputs"]["damping"] is None
    assert [v["name"] for v in payload["verdicts"]] == [
        "two-form-agreement", "newton-converged"]


@pytest.mark.parametrize("gamma", ["0.9", "0.95"])
def test_solve_near_gamma_one_exits_0(gamma):
    # damped Picard stalled here at its 200-step cap (exit 3)
    res = run_cli("solve", "--mesh", "disk:1:80", "--gamma", gamma)
    assert res.returncode == 0
    assert json.loads(res.stdout)["outputs"]["iterations"] <= 20


@pytest.mark.parametrize("mode", [["--gamma", "0.3"], ["--eigen"]])
def test_variation_without_interior_exits_2(mode):
    # rect:1:1:1:1 has no interior vertex: rejected before any factor is built
    res = run_cli("variation", "--mesh", "rect:1:1:1:1", "--flow", "radial",
                  *mode)
    assert res.returncode == 2
    assert "no interior vertices" in res.stderr


def test_numerical_failure_exit_3():
    res = run_cli("solve", "--mesh", "disk:1:16", "--gamma", "0.6",
                  "--max-iter", "2")
    assert res.returncode == 3
    assert "iterations" in res.stderr or "converge" in res.stderr.lower()


def test_verdict_failure_exit_1():
    # coarse 40-ring mesh leaves the fd check outside its 1e-2 tolerance
    res = run_cli("variation", "--mesh", "disk:1:40", "--gamma", "0.0",
                  "--flow", "radial", "--tol-rel", "0.01")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["pass"] is False


def test_levelsets_csv(tmp_path):
    res = run_cli("levelsets", "--mesh", "disk:1:20", "--gamma", "0.0",
                  "--levels", "6", "--out", str(tmp_path), "--format", "both")
    assert res.returncode == 0
    assert (tmp_path / "levelsets.json").exists()
    csv_files = list(tmp_path.glob("*.csv"))
    assert len(csv_files) == 1
    header, *rows = csv_files[0].read_text().strip().splitlines()
    assert header.split(",") == ["t", "a", "I", "flux"]
    assert len(rows) == 6
    # areas decrease with the level
    a = [float(r.split(",")[1]) for r in rows]
    assert a == sorted(a, reverse=True)


def test_solve_solution_file(tmp_path):
    res = run_cli("solve", "--mesh", "disk:1:8", "--gamma", "0.0",
                  "--out", str(tmp_path))
    assert res.returncode == 0
    lines = (tmp_path / "solution.txt").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 8 * 9  # vertex count of an 8-ring disk
    idx, val = lines[0].split()
    assert idx == "0"
    assert float(val) == pytest.approx(0.25, rel=5e-3)


def test_double_run_byte_identity():
    a = run_cli("monotonicity", "--metric", "flat", "--gamma", "0.3",
                "--grid", "0.5:2:4")
    b = run_cli("monotonicity", "--metric", "flat", "--gamma", "0.3",
                "--grid", "0.5:2:4")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_levelsets_byte_identity_in_process(capsys):
    argv = ["levelsets", "--mesh", "disk:1:60", "--gamma", "0.3",
            "--levels", "40"]
    outs = []
    for _ in range(2):
        assert experiments.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert len(json.loads(outs[0])["outputs"]["rows"]) == 40
    assert outs[0] == outs[1]


def test_params_file_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma=0.3  # comment survives\nmax_iter=150\n")
    res = run_cli("solve", "--mesh", "disk:1:12", "--params", str(cfg))
    assert res.returncode == 0
    inputs = json.loads(res.stdout)["inputs"]
    assert inputs["gamma"] == 0.3
    assert inputs["max_iter"] == 150


def test_help_and_unknown_command():
    assert run_cli("-h").returncode == 0
    assert run_cli("frobnicate").returncode == 2


def test_schwarz_subcommand():
    res = run_cli("schwarz", "--map", "linear:2", "--gamma", "0.0",
                  "--grid", "0.3,0.6", "--n-rings", "16")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    phis = [row["Phi"] for row in payload["outputs"]["rows"]]
    assert phis == pytest.approx([16.0, 16.0], rel=2e-2)


def test_scaling_subcommand_flat_only():
    res = run_cli("scaling", "--metric", "sphere", "--gamma", "0.0",
                  "--radii", "0.5,2")
    assert res.returncode == 2


def test_parse_grid():
    np.testing.assert_allclose(experiments._parse_grid("0:1:3"), [0, 0.5, 1])
    np.testing.assert_allclose(experiments._parse_grid("0.5,2"), [0.5, 2])
    with pytest.raises(ValueError):
        experiments._parse_grid("0:1:1")
    with pytest.raises(ValueError):
        experiments._parse_grid("0:1:2:5")
    for bad in ("0.5:inf:4", "nan:1:3", "0.5,nan", "inf,inf,2"):
        with pytest.raises(ValueError, match="finite"):
            experiments._parse_grid(bad)


def test_coerce():
    assert experiments._coerce("0.5", 1.0) == 0.5
    assert experiments._coerce("7", 3) == 7
    assert experiments._coerce("yes", False) is True
    assert experiments._coerce("off", True) is False
    with pytest.raises(ValueError):
        experiments._coerce("maybe", True)
    # knobs with no typed default stay strings; consumers parse them
    assert experiments._coerce("2.5", None) == "2.5"


def test_resolve_tau():
    grid = np.array([0.5, 1.0])
    assert experiments._resolve_tau(geometry.flat_metric(), None, grid) == \
        pytest.approx(4 * math.pi)
    assert experiments._resolve_tau(geometry.flat_metric(), 7.0, grid) == 7.0
    cone = geometry.cone_metric(0.25)
    assert experiments._resolve_tau(cone, None, grid) == pytest.approx(math.pi)
    sphere = experiments._resolve_tau(geometry.sphere_metric(), None, grid)
    assert sphere < 4 * math.pi
    assert sphere == geometry.tau_circle_upper_bound(geometry.sphere_metric(),
                                                     grid)


def test_py_sanitizer():
    blob = {"a": np.float64(1.5), "b": np.arange(3), "c": [np.bool_(True)],
            "d": np.int32(4)}
    clean = experiments._py(blob)
    assert clean == {"a": 1.5, "b": [0, 1, 2], "c": [True], "d": 4}
    assert json.dumps(clean)  # round-trips through the serializer


def test_internal_error_exit_4(monkeypatch, capsys):
    def broken(args):
        raise IndexError("list index out of range")
    monkeypatch.setitem(experiments._COMMANDS, "solve", broken)
    code = experiments.main(["solve", "--mesh", "disk:1:8"])
    assert code == experiments.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "error: internal: IndexError: list index out of range\n"


@pytest.mark.parametrize("argv", [
    ("isoperimetry", "--mesh", "disk:1:8", "--gamma", "0.3", "--tau", "nan"),
    ("isoperimetry", "--mesh", "disk:1:8", "--gamma", "0.3", "--tau", "0"),
    ("eigen-isoperimetry", "--mesh", "disk:1:8", "--tau", "inf"),
    ("monotonicity", "--metric", "flat", "--grid", "0.5:2:3", "--tau", "nan"),
])
def test_bad_tau_exit_2(argv):
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.strip().splitlines() == [res.stderr.strip()]
    assert res.stderr.startswith("error: tau must be finite and positive")


@pytest.mark.parametrize("argv", [
    ("solve", "--mesh", "disk:nan:5"),
    ("solve", "--mesh", "disk:inf:5"),
    ("solve", "--mesh", "rect:nan:1:3:3"),
    ("solve", "--mesh", "ellipse:1:nan:5"),
    ("solve", "--mesh", "image:quad:0.2:nan:5"),
    ("variation", "--mesh", "disk:1:8", "--h", "0"),
    ("variation", "--mesh", "disk:1:8", "--h", "nan"),
    ("variation", "--mesh", "disk:1:8", "--flow", "translate:nan,0"),
])
def test_non_finite_and_zero_inputs_exit_2(argv, capsys):
    # these reached the solver and exited 3 or 4 before being rejected
    assert experiments.main(list(argv)) == experiments.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_negative_fd_step_gives_the_same_difference(capsys):
    argv = ["variation", "--mesh", "disk:1:16", "--gamma", "0.3"]
    reports = []
    for h in ("1e-3", "-1e-3"):
        assert experiments.main(argv + [f"--h={h}"]) in (0, 1)
        reports.append(json.loads(capsys.readouterr().out)["outputs"])
    assert reports[1]["fd"] == pytest.approx(reports[0]["fd"], rel=1e-12)
    assert reports[1]["analytic"] == reports[0]["analytic"]


def test_radial_flat_gamma_0_9_exits_0(capsys):
    # the centre value is ~3.5e-8 here; an absolute floor of 1e-14 on the
    # integration tolerance left the landing test unmeetable (exit 3)
    assert experiments.main(["radial", "--metric", "flat", "--gamma", "0.9"]) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["alpha"] == pytest.approx(3.5e-8, rel=0.1)


def test_monotonicity_uses_the_cone_tau_unrounded(capsys):
    # the display name rounds beta to six digits; the metric's tau does not
    argv = ["monotonicity", "--metric", "cone:0.1234567:0.02", "--grid", "0.5,1"]
    experiments.main(argv)
    out = json.loads(capsys.readouterr().out)
    assert out["outputs"]["tau"] == 4.0 * math.pi * 0.1234567
    assert out["inputs"]["tau"] == out["outputs"]["tau"]


@pytest.mark.parametrize("argv, code", [
    # argparse reads "--flag=--" as an empty list, which no parser accepted
    (("solve", "--mesh=--"), 2),
    (("monotonicity", "--metric", "flat", "--grid", "0.5:2:3", "--gamma", "1"),
     2),
])
def test_cli_fuzz_findings(argv, code, capsys):
    # each of these exited 4 with a ZeroDivisionError or AttributeError
    assert experiments.main(list(argv)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, failed", [
    (("solve", "--mesh", "disk:0.2:4", "--gamma", "0.9"), []),
    (("solve", "--mesh", "disk:0.2:4", "--gamma", "0.95"), []),
    # two rings resolve the small-r limit of phi too coarsely: a true verdict
    (("schwarz", "--map", "quad:0.5", "--grid", "0.2:0.8:3", "--n-rings", "2",
      "--gamma", "0.9"), ["phi-small-r-limit"]),
])
def test_tiny_solutions_reach_a_verdict(argv, failed, capsys):
    # u is of order 1e-14 on these small disks and Newton's right-hand sides
    # fell below float32 range: the preconditioner returned zero and CG
    # broke down (exit 3) until the factor solve scaled them
    code = experiments.main(list(argv))
    payload = json.loads(capsys.readouterr().out)
    assert [v["name"] for v in payload["verdicts"] if not v["pass"]] == failed
    assert code == (1 if failed else 0)


@pytest.mark.parametrize("argv", [
    ("--mesh", "disk:1e100:5"),
    ("--mesh", "disk:1e-100:5", "--gamma", "0.5"),
    ("--mesh", "disk:1e-10:5", "--gamma", "0.9"),
    ("--mesh", "disk:1e-78:5", "--gamma", "0"),
])
def test_out_of_range_solutions_exit_3_in_one_line(argv):
    # the load's norm overflows (1e100) or underflows (1e-100), or does so
    # in a later Newton step (1e-10 at gamma 0.9, where u ~ 3e-208), or u
    # is normal but T ~ 4e-313 is not (1e-78).  The first printed five
    # overflow warnings before its exit 3; the others must not report a
    # pass with T = 0
    res = run_cli("solve", *argv)
    assert res.returncode == experiments.EXIT_NUMERICAL
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    assert len(res.stderr.splitlines()) == 1


@pytest.mark.parametrize("spec", ["disk:1e200:5", "disk:1e155:5"])
def test_huge_coordinates_exit_2_without_warnings(spec):
    # the area products overflowed: three numpy warnings, then the spec
    # parser's "unrecognized mesh spec"
    res = run_cli("solve", "--mesh", spec)
    assert res.returncode == experiments.EXIT_USAGE
    assert res.stdout == ""
    assert res.stderr == "error: mesh coordinates too large\n"
