#!/usr/bin/env python3
"""Run the structural property suites at configurable bounds.

Covers positivity over the nef-and-big cone, chain monotonicity,
relabeling symmetry, blow-down consistency, independence of the auxiliary
curve, and agreement of the two evaluation routes on the twisted cubic.
Bounds default to the acceptance-gate values; pass smaller ones for a
quick smoke run.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from welschinger import Evaluator, ValidationError, make_surface  # noqa: E402
from welschinger.invariants import (  # noqa: E402
    blowdown_scan,
    e_independence_scan,
    monotonicity_check,
    path_equivalence_scan,
    positivity_scan,
    sample_monotone_pairs,
    symmetry_scan,
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--positivity-bound", type=int, default=8)
    parser.add_argument("--epath-bound", type=int, default=9)
    parser.add_argument("--eindep-bound", type=int, default=6)
    args = parser.parse_args()

    failures = 0

    started = time.perf_counter()
    for model, a, b, twist in (
        ("P2", 6, 0, "0"), ("P2", 4, 1, "0"), ("P2", 2, 2, "0"), ("B1", 0, 0, "F"),
    ):
        spec = make_surface(model, a, b, twist=twist)
        ev = Evaluator(spec)
        rows = positivity_scan(spec, args.positivity_bound, ev)
        bad = [r for r in rows if not r[2]]
        failures += len(bad)
        print(f"positivity {spec.surface_id}: {len(rows)} classes, "
              f"{len(bad)} non-positive")

        pairs = sample_monotone_pairs(spec, 10, antik_cap=args.positivity_bound)
        mono_bad = sum(
            0 if monotonicity_check(spec, d, dp, ev).holds else 1
            for dp, d in pairs
        )
        failures += mono_bad
        print(f"monotonicity {spec.surface_id}: {len(pairs)} pairs, "
              f"{mono_bad} violations")

    spec60 = make_surface("P2", 6, 0)
    sym = symmetry_scan(spec60, 6)
    sym_bad = [r for r in sym if not r[4]]
    failures += len(sym_bad)
    print(f"symmetry: {len(sym)} relabelings, {len(sym_bad)} violations")

    blow = blowdown_scan(6)
    blow_bad = [r for r in blow if not r[3]]
    failures += len(blow_bad)
    print(f"blow-down: {len(blow)} classes, {len(blow_bad)} disagreements")

    eind = e_independence_scan(args.eindep_bound)
    eind_bad = [r for r in eind if not r[2]]
    failures += len(eind_bad)
    print(f"E-independence: {len(eind)} classes, {len(eind_bad)} disagreements")

    epath = path_equivalence_scan(args.epath_bound)
    epath_bad = [r for r in epath if not r[3]]
    failures += len(epath_bad)
    print(f"route equivalence: {len(epath)} classes, {len(epath_bad)} "
          "disagreements")

    print(f"total {time.perf_counter() - started:.1f}s, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        sys.exit(3)
