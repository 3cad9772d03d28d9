"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's inputs from the seed, times set-up in fresh
processes against reference imports, then runs whole rounds of the
workload's operations for about S seconds in this process, single-threaded,
with the reference loop between operations.  Checks every output after the timed phase and prints, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a run with every module's public functions wrapped with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import measure
import workloads

SETUP_PROBES = 11
OUT = Path(__file__).resolve().parent / "out"


def setup_seconds(name: str, workdir: Path) -> float:
    """Median set-up time over fresh processes.  The probes keep their byte
    code in ``workdir``, written by one discarded warm-up probe, so none of
    them compiles source, whatever the environment says about byte code."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(workloads.HERE / "probe.py"), name],
            check=True, capture_output=True, text=True, timeout=60,
            cwd=str(workloads.ROOT), env=env,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples[1:])


class Runner:
    """Runs whole rounds and keeps the timing of every operation."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        # per attempt: wall and CPU seconds of the operation, and of one
        # reference pass right after it
        self.walls = []
        self.cpus = []
        self.ref_walls = []
        self.ref_cpus = []
        self.passes = 0
        self.first = {}  # key -> output in the first round
        self.keys = []  # key of every attempt
        self.changed = []  # attempts whose output differs from the first round's
        self.peak_rss_mb = 0.0
        self.rounds = 0

    def run(self, seconds: float) -> None:
        for _ in range(20):  # let the reference loop warm up
            measure.reference_pass()
        started = time.perf_counter()
        while True:
            round_started = time.perf_counter()
            self._round()
            self.workload.end_round()
            self.rounds += 1
            now = time.perf_counter()
            if now - started + (now - round_started) > seconds:
                break

    def _round(self) -> None:
        for op in self.workload.round():
            c0 = time.process_time()
            w0 = time.perf_counter()
            try:
                out = op.fn()
            except Exception:  # an operation that raises is counted as failed
                out = workloads.OpError(traceback.format_exc())
            w1 = time.perf_counter()
            c1 = time.process_time()
            passes, ref_cpu, ref_wall = measure.reference_after(c1 - c0)
            self.walls.append(w1 - w0)
            self.cpus.append(c1 - c0)
            self.ref_walls.append(ref_wall / passes)
            self.ref_cpus.append(ref_cpu / passes)
            self.passes += passes
            self.workload.last_output = out
            self.keys.append(op.key)
            if self.rounds == 0:
                if op.key in self.first:
                    raise RuntimeError(f"operation {op.key} appears twice in a round")
                self.first[op.key] = out
            elif out != self.first.get(op.key):
                self.changed.append(len(self.keys) - 1)
        if self.rounds == 0:
            # the peak of one round: later rounds repeat it
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def failed(self) -> int:
        """Attempts whose output fails its check or differs from round one."""
        bad = self.workload.check(self.first)
        for key, out in self.first.items():
            if isinstance(out, workloads.OpError):
                print(f"operation {key} raised:\n{out.text}", file=sys.stderr)
                bad.add(key)
        changed = set(self.changed)
        return sum(1 for i, key in enumerate(self.keys) if key in bad or i in changed)

    def cpu_ref(self) -> float:
        """Mean CPU time of one operation, in reference passes."""
        return statistics.fmean(measure.in_passes(self.cpus, self.ref_cpus))

    def latencies(self) -> list:
        """Each operation's wall time in reference passes, its median over
        the rounds: one value per operation of a round."""
        per_op = {}
        for key, t in zip(self.keys, measure.in_passes(self.walls, self.ref_walls)):
            per_op.setdefault(key, []).append(t)
        return [statistics.median(ts) for ts in per_op.values()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.require_program()
    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload.make_inputs(args.seed, workdir)
        workload.setup()
        setup_s = setup_seconds(args.workload, workdir) if not args.trace else None

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        runner = Runner(workload)
        try:
            runner.run(args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failed = runner.failed()
        rounds_ok = workload.check_rounds()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.walls)
    if tracer is not None:
        tracer.dump(str(OUT / f"spans-{args.workload}.jsonl"))
        metrics = tracer.layer_metrics(runner.rounds)
        metrics["trace.cpu_ref"] = (runner.cpu_ref(), "ref")
    else:
        latencies = runner.latencies()
        metrics = {
            "setup_s": (setup_s, "s"),
            "cpu_ref": (runner.cpu_ref(), "ref"),
            "call_p50_ref": (statistics.median(latencies), "ref"),
            "call_p90_ref": (measure.percentile(latencies, 0.9), "ref"),
            "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        }
    walls_ms = [1000 * w for w in runner.walls]
    print(f"{args.workload}: seed {args.seed}, {runner.rounds} rounds, {attempted} operations, "
          f"{runner.passes} reference passes; wall time (not normalised): "
          f"{attempted / sum(runner.walls):.2f} ops/s, p50 {statistics.median(walls_ms):.3f} ms, "
          f"p90 {measure.percentile(walls_ms, 0.9):.3f} ms", file=sys.stderr)
    result = {
        "correct": rounds_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
