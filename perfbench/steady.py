"""Steadiness report: two sets of runs of every workload in fresh processes.

    python3 perfbench/steady.py [--seconds 20] [--first-seed 1] [--trace]

Runs ``run.py`` on every workload for ten seeds in each of two sets, A on
the seeds from ``--first-seed`` and B on the ten after them, alternating
between the sets seed by seed and cycling through the workloads, so that
slow stretches of the machine fall on both sets and on every workload.
Prints for each set and every end-to-end metric its median, quartiles and
spread (the distance between the quartiles as a share of the median), then
how far B's median lies from A's.  With ``--trace`` it also makes one
traced run per workload and prints the tracing overhead: the traced run's
cpu_ref against set A's untraced median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure
import workloads

HERE = Path(__file__).resolve().parent
RUNS = 10  # seeds per set


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=900, cwd=str(workloads.ROOT),
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(label: str, results: dict) -> None:
    print(f"set {label}")
    print(f"{'workload':16} {'metric':12} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}")
    for name, runs in results.items():
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"{name:16} {metric:12} {statistics.median(values):11.4f} {q1:11.4f} "
                  f"{q3:11.4f} {measure.spread(values):7.3f}")
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name:16} {'failed share':12} {failed}, "
              f"all correct: {all(r['correct'] for r in runs)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sets = {"A": args.first_seed, "B": args.first_seed + RUNS}
    results = {label: {name: [] for name in workloads.WORKLOADS} for label in sets}
    for i in range(RUNS):
        for label, first in sets.items():
            for name in workloads.WORKLOADS:
                result = run_once(name, first + i, args.seconds, 0)
                results[label][name].append(result)
                print(f"# set {label} {name} seed {first + i}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
    traced = {name: run_once(name, args.first_seed, args.seconds, 1)
              for name in workloads.WORKLOADS} if args.trace else {}

    for label in sets:
        report(label, results[label])
    print("B against A")
    print(f"{'workload':16} {'metric':12} {'median A':>11} {'median B':>11} {'B/A-1':>7}")
    for name in workloads.WORKLOADS:
        a_runs, b_runs = results["A"][name], results["B"][name]
        for metric in a_runs[0]["metrics"]:
            a = statistics.median(r["metrics"][metric]["value"] for r in a_runs)
            b = statistics.median(r["metrics"][metric]["value"] for r in b_runs)
            print(f"{name:16} {metric:12} {a:11.4f} {b:11.4f} {b / a - 1:+7.3f}")
        shares = {label: sorted({r["failed"] / r["attempted"] for r in results[label][name]})
                  for label in sets}
        print(f"{name:16} {'failed share':12} A {shares['A']} B {shares['B']}")
        if name in traced:
            untraced = statistics.median(r["metrics"]["cpu_ref"]["value"] for r in a_runs)
            with_trace = traced[name]["metrics"]["trace.cpu_ref"]["value"]
            print(f"{name:16} {'tracing':12} cpu_ref {with_trace:.4f} traced against "
                  f"{untraced:.4f} untraced: overhead {with_trace / untraced - 1:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
