"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads fem-sweep,oracle]
        [--save runs.json]

Run from the root of a checkout.  Each round runs every workload once with
the round's seed, interleaving the workloads so that a slow spell of the
machine hits all of them alike.  For each end-to-end metric and workload it
prints the median over the seeds and the spread, the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def main(argv=None):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--save", default=None,
                        help="write every run's result and environment here")
    args = parser.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        for workload in args.workloads.split(","):
            cmd = [sys.executable, *bench["command"][1:], "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            started = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=True)
            lines = proc.stdout.strip().splitlines()
            env = next(json.loads(line[len("# env "):]) for line in lines
                       if line.startswith("# env "))
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, "env": env,
                         "run_s": time.time() - started, "result": result})
            m = result["metrics"]
            print(f"seed {seed:3d} {workload:14s} run {runs[-1]['run_s']:6.1f} s "
                  f"load {env['loadavg'][0]:.2f} correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()),
                  flush=True)
            if args.save:
                with open(args.save, "w", encoding="utf-8") as fh:
                    json.dump(runs, fh, indent=1)

    print(f"\n{'workload':14s} {'metric':20s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}")
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload]
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in mine]
            if len(values) < 2:
                continue
            s = spread(values)
            flag = "" if s <= metric["bound"] / 3 else (
                " over bound/3" if s <= metric["bound"] else " OVER BOUND")
            print(f"{workload:14s} {metric['name']:20s} "
                  f"{statistics.median(values):12.5g} {s:8.4f} "
                  f"{metric['bound']:6.3f}{flag}")
    total = sum(r["run_s"] for r in runs)
    print(f"\n{len(runs)} runs, {total:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
