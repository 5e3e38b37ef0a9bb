"""Tests for the benchmark's own code, on task lists that take a second.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = [["solve", "--mesh", "disk:1:8"], ["radial", "--radius", "0.5"]]


def _benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """run.py pointed at this repository's sources, writing under tmp_path,
    with a ``tiny`` workload."""
    monkeypatch.setattr(run, "SRC", os.path.join(REPO, "src"))
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", lambda draw: TINY)
    return _benchmark_json()


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_by_name_and_unit(bench, capsys, trace,
                                                      section):
    code = run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)])
    result = _last_json(capsys.readouterr().out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == len(TINY) * (1 + trace)
    expected = {m["name"]: m["unit"] for m in bench[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_nonzero_exit_counts_as_failed(bench):
    tasks = TINY + [
        ["solve", "--mesh", "disk:1:8", "--gamma", "1.5"],  # exit 2
        ["variation", "--mesh", "disk:1:10", "--flow", "radial",
         "--tol-rel", "1e-12"],  # a verdict fails: exit 1
    ]
    result, _ = run.measure(tasks, 0, trace=False, setup_probes=1)
    assert result["attempted"] == 4 and result["failed"] == 2
    assert result["metrics"]["ok_frac"]["value"] == 0.5
    # exit 2 prints no report; exit 1 with a failing verdict is well formed
    assert result["correct"] is False
    result, _ = run.measure(tasks[:2] + tasks[3:], 0, trace=False,
                            setup_probes=1)
    assert result["failed"] == 1 and result["correct"] is True


def test_stdout_that_differs_from_the_first_run_fails(bench):
    result, rounds = run.measure(TINY, 0, trace=False, setup_probes=1)
    assert result["failed"] == 0
    attempted, failed, correct, _ = run.check(rounds, ["0" * 64] * len(TINY))
    assert (attempted, failed, correct) == (2, 2, False)


def test_digest_store_keeps_the_first_run(bench):
    assert run._first_run_digests("k", ["a"]) == ["a"]
    assert run._first_run_digests("k", ["b"]) == ["a"]
    assert run._first_run_digests("other", ["b"]) == ["b"]


def test_traced_run_matches_untraced_stdout_and_counts_layers(bench):
    result, rounds = run.measure(TINY, 0, trace=True)
    assert result["correct"] is True and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["solver.torsion.calls"] == 1 and m["solver.linear.calls"] >= 1
    assert m["mesh.build.calls"] == 1  # mesh_from_spec -> build -> from_arrays
    assert m["mesh.unknowns"] == 1 + 3 * 7 * 8
    assert m["radial_oracle.shoot.calls"] == 1
    assert m["radial_oracle.ivp.nfev"] > m["radial_oracle.ivp.calls"] > 0
    assert m["experiments.solve.s"] > 0 and m["experiments.schwarz.s"] == 0
    # patches are undone after the traced pass
    import torsionlab.shape
    import torsionlab.solver
    assert torsionlab.shape.solve_torsion is torsionlab.solver.solve_torsion
    assert not hasattr(torsionlab.solver.solve_torsion, "__wrapped__")


def test_missing_trace_target_reads_missing(bench, monkeypatch):
    monkeypatch.setitem(tracing.SPAN_TARGETS, "solver.linear",
                        ("solver:cg_solve_removed",))
    result, _ = run.measure(TINY, 0, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("solver.linear.calls", "solver.linear.s",
                 "solver.linear.iters", "solver.failed"):
        assert m[name] == "missing"
    assert m["solver.torsion.calls"] == 1
    assert result["correct"] is True and result["failed"] == 0


def test_layer_metrics_count_outermost_spans_and_self_time():
    spans = [
        ["mesh.build", 0.0, 4.0, None, 0, None],
        ["mesh.build", 1.0, 2.0, 0, 0, None],
        ["solver.torsion", 5.0, 9.0, None, 0, {"iters": 7, "unknowns": 10}],
        ["solver.linear", 6.0, 7.0, 2, 0, {"iters": 3}],
        ["solver.linear", 7.0, 8.5, 2, 0, {"failed": True}],
    ]
    m = tracing.layer_metrics(spans)
    assert m["mesh.build.calls"] == 1 and m["mesh.build.s"] == 4.0
    assert m["solver.torsion.self_s"] == 1.5
    assert m["solver.torsion.cold_iters"] == 7 and m["solver.linear.iters"] == 3
    assert m["solver.failed"] == 1 and m["mesh.unknowns"] == 10


def test_seed_zero_gives_the_nominal_argv_and_seeds_repeat():
    assert workloads.tasks("fem-reference", 0)[0] == [
        "solve", "--mesh", "disk:1:140", "--gamma", "0.6"]
    assert workloads.tasks("fem-sweep", 0)[2][2] == "linear:3"
    for name in workloads.WORKLOADS:
        assert workloads.tasks(name, 7) == workloads.tasks(name, 7)
        assert workloads.tasks(name, 7) != workloads.tasks(name, 8)
        assert [len(t) for t in workloads.tasks(name, 7)] == [
            len(t) for t in workloads.tasks(name, 0)]


def test_benchmark_json_matches_the_code():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)


def test_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
