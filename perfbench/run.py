"""Benchmark for torsionlab: time one workload's CLI task list, check its output.

    python3 perfbench/run.py --workload fem-sweep --seed 3 --seconds 35 --trace 0

Run it from the root of a torsionlab checkout; it imports the package from
``src/``.  A run is one fresh process.  It first times a few fresh-process
imports of the package (the set-up), then runs the workload's task list in
process through ``torsionlab.experiments.main`` with stdout captured, pass
after pass, one task at a time (a closed loop with one client), until the
next pass would overrun ``--seconds``.  At least one pass runs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
pass times as means over the passes, set-up as the median of the probes.
With ``--trace 1`` each round runs one untraced
and one traced pass, and the last line reports the per-layer metrics from
the spans (see ``tracing.py``); the spans go to ``.perfbench/`` as JSON
lines.  The traced pass follows the untraced one in the same process, so
values the package caches per process (the flat-disk oracle torsion) are
already cached in it.

A task run fails if it exits non-zero, raises, or prints stdout bytes that
differ from the first run of the same task with the same seed on the same
sources: the first pass of this process, the first run recorded in
``.perfbench/digests.json``, and, with tracing, the untraced pass.  The run
is correct when every task printed a well-formed report whose exit code
agrees with its verdicts and every stdout matched.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

import tracing
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 3
# Verdicts that use under a thousandth of their tolerance sit at roundoff
# level, where the ratio moves with the last digits of the inputs; they
# read as this floor so that the metric tracks accuracy, not roundoff.
ACCURACY_FLOOR = 1e-3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "accuracy_ratio_max": "ratio",
}


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def setup_times(count):
    """Wall times of ``count`` fresh processes that import the package."""
    cmd = [sys.executable, "-c", "import torsionlab.experiments"]
    env = _env_with_src()
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in threads},
    }


def run_task(cli, argv):
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli(list(argv))
    except SystemExit as exc:  # argparse reports bad usage this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a raising task fails; the run goes on
        code, error = None, traceback.format_exc()
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "wall": time.perf_counter() - start, "error": error}


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(cli, task_list, tracer=None):
    cpu, start = _cpu_seconds(), time.perf_counter()
    results = []
    for index, argv in enumerate(task_list):
        if tracer is not None:
            tracer.task = index
        results.append(run_task(cli, argv))
    return {"wall": time.perf_counter() - start, "cpu": _cpu_seconds() - cpu,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tasks": results}


def run_rounds(cli, task_list, seconds, trace):
    """Rounds of one untraced pass (and one traced pass when tracing) until
    the next round would overrun ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain = run_pass(cli, task_list)
        traced = tracer = patch = None
        if trace:
            tracer = tracing.Tracer()
            patch = tracing.Patch(tracer)
            try:
                traced = run_pass(cli, task_list, tracer)
            finally:
                patch.restore()
        rounds.append({"plain": plain, "traced": traced, "tracer": tracer,
                       "missing": patch.missing if patch else set()})
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return rounds


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def source_hash():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _report(task):
    """The task's JSON report, or None if stdout is not one."""
    try:
        payload = json.loads(task["stdout"])
    except ValueError:
        return None
    if not isinstance(payload, dict) or not isinstance(
            payload.get("verdicts"), list):
        return None
    return payload


def check(rounds, expected):
    """Judge every task run against ``expected``, one stdout digest per task.

    Returns (attempted, failed, correct, accuracy_ratio_max).
    """
    attempted = failed = 0
    correct = True
    accuracy = ACCURACY_FLOOR
    for rnd in rounds:
        for pass_ in (rnd["plain"], rnd["traced"]):
            if pass_ is None:
                continue
            for task, digest in zip(pass_["tasks"], expected):
                attempted += 1
                same = _digest(task["stdout"]) == digest
                report = _report(task)
                well_formed = (report is not None and task["code"] in (0, 1)
                               and report.get("pass") is (task["code"] == 0))
                correct = correct and same and well_formed
                if task["code"] != 0 or not same or task["error"]:
                    failed += 1
                    continue
                for v in report["verdicts"]:
                    if v["tolerance"] > 0.0:
                        accuracy = max(accuracy, v["measured"] / v["tolerance"])
    return attempted, failed, correct, accuracy


def _first_run_digests(key, digests):
    """The digests that the first run under ``key`` recorded in the store;
    records ``digests`` when this is that run."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    except FileNotFoundError:
        store = {}
    if key not in store:
        store[key] = digests
        os.makedirs(OUT, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return store[key]


def _median(values):
    if any(v == "missing" for v in values):
        return "missing"
    return statistics.median(values)


def end_to_end(rounds, setup, attempted, failed, accuracy):
    plain = [r["plain"] for r in rounds]
    return {
        # Means, not medians, over the passes: the machine's speed changes
        # from one pass to the next, and the mean averages it over the run.
        "wall_s": statistics.fmean(p["wall"] for p in plain),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.fmean(p["cpu"] for p in plain),
        # up to the end of the first pass, however many passes fit
        "peak_rss_mb": plain[0]["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
        "accuracy_ratio_max": accuracy,
    }


def per_layer(rounds):
    per_round = []
    for r in rounds:
        values = tracing.layer_metrics(r["tracer"].spans, r["missing"])
        by_cmd = collections.Counter()
        for task in r["plain"]["tasks"]:
            by_cmd[task["argv"][0]] += task["wall"]
        for cmd in tracing.SUBCOMMANDS:
            values[f"experiments.{cmd}.s"] = float(by_cmd[cmd])
        values["trace.overhead_s"] = r["traced"]["wall"] - r["plain"]["wall"]
        per_round.append(values)
    return {m: _median([v[m] for v in per_round]) for m in tracing.LAYER_METRICS}


def measure(task_list, seconds, trace, seed_key=None,
            setup_probes=SETUP_PROBES):
    """One benchmark run of ``task_list``; returns (result object, rounds).

    ``seed_key`` names the task list in the digest store; None judges
    against the first pass only.  Expects ``src/`` to be importable.
    """
    setup = [] if trace else setup_times(setup_probes)
    from torsionlab.experiments import main as cli

    rounds = run_rounds(cli, task_list, seconds, trace)
    expected = [_digest(t["stdout"]) for t in rounds[0]["plain"]["tasks"]]
    if seed_key is not None:
        expected = _first_run_digests(seed_key, expected)
    attempted, failed, correct, accuracy = check(rounds, expected)
    for k, rnd in enumerate(rounds, 1):
        p = rnd["plain"]
        line = f"# round {k}: wall {p['wall']:.3f} s, cpu {p['cpu']:.3f} s"
        if rnd["traced"] is not None:
            line += f", traced wall {rnd['traced']['wall']:.3f} s"
        print(line)
        for task in p["tasks"]:
            if task["code"] != 0:
                print(f"#   exit {task['code']}: " + " ".join(task["argv"]))
            if task["error"]:
                print(task["error"], file=sys.stderr)
    if trace:
        values = per_layer(rounds)
        units = {m: unit for m, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        values = end_to_end(rounds, setup, attempted, failed, accuracy)
        units = END_TO_END
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": values[m], "unit": units[m]}
                          for m in units}}
    return result, rounds


def _write_spans(path, rounds):
    with open(path, "w", encoding="utf-8") as fh:
        for k, rnd in enumerate(rounds, 1):
            rnd["tracer"].write(fh, round_=k)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "torsionlab", "__init__.py")):
        print(f"error: no src/torsionlab under {ROOT}; run from the root of "
              f"a torsionlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    task_list = workloads.tasks(args.workload, args.seed)
    print("# env " + json.dumps(environment()))
    print("# tasks " + json.dumps(task_list))
    key = f"{source_hash()}/{args.workload}/{args.seed}"
    result, rounds = measure(task_list, args.seconds, bool(args.trace),
                             seed_key=key)
    if args.trace:
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        _write_spans(path, rounds)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
