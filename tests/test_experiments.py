"""CLI contract: payload schema, exit codes, files, and determinism."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import experiments, geometry, solver


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


def test_variation_eigen_takes_the_solver_knobs():
    # --tol and --max-iter reach the eigensolve, as they reach Newton
    base = ("variation", "--mesh", "disk:1:20", "--eigen")
    res = run_cli(*base, "--max-iter", "1")
    assert res.returncode == 3
    assert "inverse iteration stalled" in res.stderr
    res = run_cli(*base, "--tol", "-1")
    assert res.returncode == 2
    assert "tol must be positive" in res.stderr


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


@pytest.mark.parametrize("argv", [
    ("solve", "--mesh", "disk:1:60", "--gamma", "0.3"),
    ("eigen-isoperimetry", "--mesh", "disk:1:80"),
])
def test_stdout_does_not_depend_on_the_blas_thread_count(argv):
    # OpenBLAS splits a dot product of over 10^4 entries across its threads,
    # and the sum rounds by their count; the solver's reductions keep off
    # BLAS.  OpenBLAS caps its threads at the CPU count, so on a one-CPU
    # machine both runs use one thread and the test cannot tell them apart
    outs = []
    for threads in ("1", "2"):
        res = subprocess.run(
            [sys.executable, "-m", "torsionlab.experiments", *argv],
            capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert res.returncode == 0
        outs.append(res.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["monotonicity", "eigen-monotonicity",
                                     "radial", "scaling"])
def test_oracle_search_rounds_go_to_stderr(command, capsys, monkeypatch):
    from torsionlab import radial_oracle
    integrations = []
    solve_ivp = radial_oracle.solve_ivp

    def counted(*args, **kwargs):
        integrations.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(radial_oracle, "solve_ivp", counted)
    assert experiments.main([command]) == 0
    out, err = capsys.readouterr()
    assert "oracle" not in out
    lines = [line for line in err.splitlines() if line.startswith("# oracle")]
    assert len(lines) == 1
    found = re.fullmatch(r"# oracle: (\d+) search rounds, (\d+) integrations",
                         lines[0])
    rounds, ivps = map(int, found.groups())
    # each round shoots once, and the roots get one final shot
    assert ivps == len(integrations) and 0 < rounds < ivps


def test_fem_stderr_is_the_runtime_line_with_cpu_time(capsys):
    # no oracle line either: a FEM subcommand shoots nothing
    assert experiments.main(["solve", "--mesh", "disk:1:8"]) == 0
    assert re.fullmatch(r"# runtime \d+\.\d\ds, cpu \d+\.\d\ds\n",
                        capsys.readouterr().err)


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


def _params_run(tmp_path, capsys, text, *argv):
    """Exit code, payload inputs (None unless one was printed) and stderr
    lines of an in-process run with ``text`` as its --params file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    try:
        code = experiments.main([*argv, "--params", str(cfg)])
    except SystemExit as exc:  # argparse rejected a value
        code = exc.code
    out, err = capsys.readouterr()
    inputs = json.loads(out)["inputs"] if out else None
    return code, inputs, [l for l in err.splitlines() if not l.startswith("#")]


def test_params_file_supplies_defaults_only(tmp_path, capsys):
    # the file's values go ahead of the command line's options, which win
    code, inputs, _ = _params_run(tmp_path, capsys, "gamma=0.3\n",
                                  "solve", "--mesh", "disk:1:8", "--gamma",
                                  "0.6")
    assert code == 0 and inputs["gamma"] == 0.6
    code, inputs, _ = _params_run(tmp_path, capsys, "gamma=0.3\n", "solve",
                                  "--mesh", "disk:1:8")
    assert code == 0 and inputs["gamma"] == 0.3


@pytest.mark.parametrize("text, argv, expected", [
    # each typed as its option: float, int, string, a None default
    ("gamma=0.5\n", ("solve",), {"gamma": 0.5}),
    ("max-iter=7\n", ("solve",), {"max_iter": 7}),
    ("grid=0.5,2\n", ("monotonicity", "--metric", "flat"), {"grid": "0.5,2"}),
    ("tau=2.5\n", ("isoperimetry",), {"tau": 2.5}),
    # a flag is present for 1/true/yes/on and absent for 0/false/no/off
    ("eigen=yes\n", ("variation",), {"eigen": True, "gamma": None}),
    ("eigen=ON\n", ("variation",), {"eigen": True, "gamma": None}),
    ("eigen=off\n", ("variation",), {"eigen": False, "gamma": 0.3}),
    ("eigen=0\n", ("variation",), {"eigen": False, "gamma": 0.3}),
])
def test_params_values_typed_like_options(tmp_path, capsys, text, argv,
                                          expected):
    mesh = () if argv[0] == "monotonicity" else ("--mesh", "disk:1:8")
    code, inputs, _ = _params_run(tmp_path, capsys, text, *argv, *mesh)
    assert code in (0, 1)
    assert {key: inputs[key] for key in expected} == expected


@pytest.mark.parametrize("text, argv, message", [
    ("format=xml\n", ("solve",), "invalid choice: 'xml'"),
    ("format=csv\n", ("solve",), "error: --format csv/both requires --out"),
    ("levels=1e3\n", ("levelsets",), "invalid int value: '1e3'"),
    ("gamma=abc\n", ("solve",), "invalid float value: 'abc'"),
    ("mesh=--\n", ("solve",), "run.cfg:1: mesh needs a value"),
    ("eigen=maybe\n", ("variation",), "run.cfg:1: cannot read 'maybe' as a flag"),
    ("\n# a comment\ndamping=0.5\n", ("solve",),
     "run.cfg:3: unknown parameter 'damping'"),
    ("gamma 0.3\n", ("solve",), "run.cfg:1: expected key=value"),
])
def test_bad_params_exit_2(tmp_path, capsys, text, argv, message):
    # a file value is checked as the same option on the command line is;
    # format=xml and format=csv without --out exited 0 without a report.
    # A bad value in the file is reported in one line at its file:line,
    # without argparse's usage block naming an option nobody typed
    code, inputs, err = _params_run(tmp_path, capsys, text, *argv)
    assert code == experiments.EXIT_USAGE
    assert inputs is None and err == [err[-1]] and message in err[-1]
    if "csv" not in text:  # format=csv is a good value, without --out
        assert err[-1].startswith(f"error: {tmp_path / 'run.cfg'}:")
    if "invalid" in message or "needs a value" in message:
        assert f":1: {text.split('=')[0]}" in err[-1]


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
        experiments._parse_grid("0:1:2:5")
    for one in ("0.5", "0.5,", "0:1:1"):
        with pytest.raises(ValueError, match="at least two points"):
            experiments._parse_grid(one)
    for bad in ("0.5:inf:4", "nan:1:3", "0.5,nan", "inf,inf,2"):
        with pytest.raises(ValueError, match="finite"):
            experiments._parse_grid(bad)


@pytest.mark.parametrize("argv", [
    ("monotonicity", "--metric", "flat"),
    ("eigen-monotonicity", "--metric", "flat"),
    ("schwarz", "--map", "linear:2", "--n-rings", "4"),
])
def test_one_point_grid_exits_2(argv, capsys):
    # no step, so no monotone verdict: exit 2 as for a one-point linspace
    assert experiments.main([*argv, "--grid", "0.5"]) == experiments.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: grid needs at least two points\n"


_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE, min_size=2, max_size=12), st.booleans())
def test_monotone_check_is_the_old_formula(values, nonnegative):
    # the six np.diff blocks that _monotone replaced, bit for bit; the
    # superlevel and cone checks took max(v) for max|v|, which is the same
    # on their nonnegative sequences
    q = np.abs(values) if nonnegative else np.array(values)
    scale = float(q.max()) if nonnegative else float(np.abs(q).max())
    old = {
        True: (-float(np.diff(q).min()), 1e-9 * scale),
        False: (float(np.diff(q).max()), 1e-9 * scale),
    }
    for increasing, (measured, tolerance) in old.items():
        check = experiments._monotone("q", q, 1e-9, increasing=increasing)
        assert (np.float64(check["measured"]).tobytes()
                == np.float64(measured).tobytes())
        assert check["tolerance"] == tolerance
        assert check["pass"] == (measured <= tolerance)


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


@pytest.mark.parametrize("tol_rel", ["nan", "0", "-1", "inf"])
def test_bad_tol_rel_exit_2(tol_rel):
    # nan, 0 and -1 failed every verdict (exit 1) and inf passed any
    res = run_cli("variation", "--mesh", "disk:1:8", "--tol-rel", tol_rel)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.strip().splitlines() == [res.stderr.strip()]
    assert res.stderr.startswith("error: tol-rel must be finite and positive")


@pytest.mark.parametrize("eps", ["1e200", "1e308", "1e-300", "1e-160",
                                 "inf", "nan"])
def test_out_of_range_cone_width_exits_2(eps):
    # e**2 raised OverflowError (exit 4) from 1e155 up, (r/e)**2 overflowed
    # with a numpy warning for 1e-300, and inf shot the flat warp f = r
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "torsionlab.experiments", "radial", "--metric", f"cone:0.5:{eps}",
         "--gamma", "0.3", "--radius", "1"],
        capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: smoothing width")
    assert res.stderr.count("\n") == 1


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


@pytest.mark.parametrize("name", ["missing.mesh", "."])
def test_unreadable_mesh_file_exits_2_with_its_os_error(name, tmp_path, capsys):
    # a missing file and a directory both read "unrecognized mesh spec"
    # until mesh_from_spec let the OSError through, as user: metrics and
    # --params files do
    path = tmp_path / name
    with pytest.raises(OSError) as exc:
        open(path)
    code = experiments.main(["solve", "--mesh", f"file:{path}"])
    out, err = capsys.readouterr()
    assert code == experiments.EXIT_USAGE
    assert out == "" and err == f"error: {exc.value}\n"


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


@pytest.mark.parametrize("argv", [
    ("solve", "--mesh", "disk:1:8", "--gamma", "0.6"),
    ("isoperimetry", "--mesh", "rect:1:1:8:8", "--gamma", "0.3"),
    ("levelsets", "--mesh", "disk:1:8", "--gamma", "0", "--levels", "5"),
    ("schwarz", "--map", "quad:0.2", "--gamma", "0.5", "--grid", "0.2:0.9:3",
     "--n-rings", "6"),
    ("schwarz", "--map", "quad:0.2", "--gamma", "0.5", "--grid", "0.2:0.9:3",
     "--n-rings", "6", "--route", "direct"),
    ("variation", "--mesh", "disk:1:8", "--gamma", "0.6", "--flow", "radial"),
    ("variation", "--mesh", "disk:1:8", "--eigen", "--flow", "stretch-x"),
    ("solve", "--mesh", "disk:1:16", "--gamma", "0.6", "--max-iter", "2"),
])
def test_cli_leaves_no_operator_behind(argv, capsys):
    # every mesh a subcommand builds is gone when main returns, and the
    # solver's operators, edge numberings and factor with it, also after an
    # exit 3.  main may drop a factor kept from before, so the factor's key
    # is compared with those from before
    before = len(solver._OPERATORS), len(solver._EDGES)
    kept = list(solver._FACTORS.keys())
    experiments.main(list(argv))
    capsys.readouterr()
    assert (len(solver._OPERATORS), len(solver._EDGES)) == before
    assert all(any(key is k for k in kept) for key in solver._FACTORS.keys())


def test_schwarz_flat_disk_underflow_exits_3_in_one_line():
    # T(B_0.02) = 0.02^200 T(B_1) at gamma 0.98 underflows to 0, and the
    # ratio Phi = T_image / T_disk divided by it: exit 4 on a
    # ZeroDivisionError until the oracle raised on the underflow
    res = run_cli("schwarz", "--map", "linear:30", "--gamma", "0.98",
                  "--grid", "0.02,0.9", "--n-rings", "4")
    assert res.returncode == experiments.EXIT_NUMERICAL
    assert res.stdout == ""
    assert res.stderr == ("error: T of the flat disk of radius 0.02 at "
                          "gamma=0.98 leaves float64 range (0)\n")


@pytest.mark.parametrize("spec", ["disk:1e200:5", "disk:1e155:5"])
def test_huge_coordinates_exit_2_without_warnings(spec):
    # the area products overflowed: three numpy warnings, then the spec
    # parser's "unrecognized mesh spec"
    res = run_cli("solve", "--mesh", spec)
    assert res.returncode == experiments.EXIT_USAGE
    assert res.stdout == ""
    assert res.stderr == "error: mesh coordinates too large\n"


@pytest.mark.parametrize("radius", ["1e-150", "1e-100", "1e-78", "1e-50",
                                    "1e-20", "1e-10", "1e-7", "1e-3", "1",
                                    "1e3", "1e10", "1e30", "1e50", "1e77",
                                    "1e100", "1e150"])
def test_disk_scale_sweep_solves_or_exits_3_in_one_line(radius, capsys):
    # T scales as R^(4/(1-gamma)): a T in the normal float64 range is
    # reported, any other ends in exit 3 with one line.  disk:1e-7:5 at
    # gamma 0.9 (T ~ 4.5e-295) exited 3 when CG's dot products underflowed,
    # and R >= 1e30 at gamma 0.9 printed numpy overflow warnings
    for gamma in ("0", "0.3", "0.5", "0.9"):
        code = experiments.main(["solve", "--mesh", f"disk:{radius}:5",
                                 "--gamma", gamma])
        out, err = capsys.readouterr()
        if code == experiments.EXIT_PASS:
            T = json.loads(out)["outputs"]["T_grad"]
            assert np.finfo(float).tiny <= T < np.inf
        else:
            assert code == experiments.EXIT_NUMERICAL
            assert out == "" and err.startswith("error: ")
            assert err.count("\n") == 1
    if radius == "1e-7":
        assert code == experiments.EXIT_PASS
