"""Timing arithmetic: the reference loop and imports, percentiles, cpu_ref.

The machine this benchmark was tuned on shares its cores, and the CPU time
of the same work drifts by 20 % and more between processes and within one.
A fixed pure-Python reference loop run between the operations samples that
drift; cpu_ref expresses the operations' CPU time in passes of the loop,
which cancels most of it.  Set-up is compared in the same way with fixed
reference imports run around it in the same process.
"""

from __future__ import annotations

import importlib.util
import math
import statistics
import sys
import time
from typing import List, Sequence, Tuple

REF_ITERATIONS = 250

# Share of each operation's CPU time that the reference loop spends right
# after it, so that slow stretches of the machine are sampled as often as
# the operations that run in them.
REF_SHARE = 0.25

# A memo-like table: keys shaped like the engine's (class, alpha, beta) keys.
_REF_TABLE = {((i % 7, i % 11, i % 13), (i & 3,), ((i >> 2) & 1,)): i for i in range(4096)}
_REF_START = (3, -1, -1, -1, -1, -1, -1)


def _squares(t: Tuple[int, ...]):
    for a in t:
        if a:
            yield a * a


def reference_pass() -> int:
    """One pass of the fixed reference work, shaped like the program's inner
    loops: lookups of tuple keys in a dict of 4 096 entries, coordinate
    tuples built from a generator expression over zip, and a generator.
    Against this loop the CPU time of the same workload repeats about twice
    as closely as against plain arithmetic."""
    acc = 0
    x = 12345
    for _ in range(REF_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = ((x % 7, x % 11, x % 13), ((x >> 3) & 3,), ((x >> 5) & 1,))
        acc += _REF_TABLE.get(key, 0)
        step = (x & 3, -(x & 1), 0, -((x >> 1) & 1), 0, 0, -1)
        t = tuple(a - b for a, b in zip(_REF_START, step))
        acc += sum(_squares(t))
    return acc


def reference_after(op_cpu_s: float) -> Tuple[int, float, float]:
    """Reference passes right after an operation: at least one, and until
    REF_SHARE of the operation's CPU time is spent.  Returns the number of
    passes and their CPU and wall time."""
    passes = 0
    cpu = wall = 0.0
    target = REF_SHARE * op_cpu_s
    while passes == 0 or cpu < target:
        c0 = time.process_time()
        w0 = time.perf_counter()
        reference_pass()
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        passes += 1
    return passes, cpu, wall


# Set-up is mostly imports: reading byte code and running module bodies that
# build classes, dataclasses and tables.  The dict loop above tracks that work
# poorly (set-up over a reference pass still spread by about 20 % between
# processes), so set-up is compared with a reference of its own kind: running
# the bodies of these pure-Python standard-library modules.
REF_IMPORT_MODULES = (
    "argparse", "dataclasses", "fractions", "inspect", "enum", "typing", "textwrap",
    "tarfile", "logging", "ast", "_pydecimal", "configparser", "csv", "difflib",
    "pprint", "calendar",
)

# CPU seconds of one pass of the reference imports on the machine the bounds
# were set on (Python 3.11.7, shared 2-core x86-64): setup_s is set-up CPU
# time in reference-import passes, expressed in seconds at that speed.
REF_IMPORT_SECONDS = 0.035


def forget_modules(keep: set) -> None:
    """Drop every module imported since ``keep = set(sys.modules)``, so the
    next import of it runs its body again."""
    for name in set(sys.modules) - keep:
        del sys.modules[name]


def reference_imports() -> float:
    """CPU seconds of one pass of the reference imports: each module's body
    runs afresh; the modules it imports in turn are forgotten afterwards, so
    every pass does the same work."""
    keep = set(sys.modules)
    c0 = time.process_time()
    for name in REF_IMPORT_MODULES:
        spec = importlib.util.find_spec(name)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    spent = time.process_time() - c0
    forget_modules(keep)
    return spent


def setup_in_seconds(setup_cpu_s: float, ref_cpu_s: Sequence[float]) -> float:
    """Set-up CPU time over the mean reference-import pass around it, in
    seconds of the machine where a pass takes REF_IMPORT_SECONDS."""
    if not ref_cpu_s:
        raise ValueError("need at least one reference-import pass")
    return setup_cpu_s / statistics.fmean(ref_cpu_s) * REF_IMPORT_SECONDS


def in_passes(times: Sequence[float], pass_times: Sequence[float]) -> List[float]:
    """Each operation's time divided by the time of one reference pass
    measured right after it."""
    if len(times) != len(pass_times) or not times:
        raise ValueError("need one reference sample per operation")
    return [t / p for t, p in zip(times, pass_times)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, refused unless ten samples lie beyond it.

    Above the median a percentile is only a tail when at least ten samples
    exceed it, so p90 needs 100 samples.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if q > 0.5 and n * (1 - q) < 10 - 1e-9:
        raise ValueError(f"p{round(100 * q)} needs {math.ceil(10 / (1 - q))} samples, got {n}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile, as a share of the median
    (the quartiles of statistics.quantiles with n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
