"""Smoke runs of the experiment drivers under scripts/ at small bounds, and
a check that the benchmark's traced mode finds every name it wraps."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name,args,last_line", [
    ("run_property_suites.py",
     ("--positivity-bound", "5", "--epath-bound", "5", "--eindep-bound", "4"),
     r"total \d+\.\ds, 0 failures"),
    ("reproduce_table.py", (), r"-2K  \[1000, 522, 236, 78, 0, 512, 0, 160\]  \[ok\]"),
], ids=["run_property_suites", "reproduce_table"])
def test_script_runs(name, args, last_line):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(last_line, proc.stdout.splitlines()[-1])


def test_property_suites_reject_too_small_bound():
    proc = run_script("run_property_suites.py", "--positivity-bound", "4")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "validation error: monotone pairs need a bound of at least 5: "
        "no nef-big class has -K.D <= 2"
    ]


def test_benchmark_tracer_patches_existing_names(monkeypatch):
    # The traced benchmark run wraps program functions by name; a renamed
    # or removed function must fail here rather than in the benchmark.
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()  # getattr on every patched name raises if one is gone
    finally:
        tracer.uninstall()
