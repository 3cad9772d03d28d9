#!/usr/bin/env python3
"""Recompute the eight-column reference table of invariants from scratch.

Equivalent to `welschinger table`, but prints per-column timings and memo
sizes, which is useful when profiling the evaluator.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from welschinger import Evaluator, parse_surface, welschinger  # noqa: E402
from welschinger.cli import CONIC_ROWS, GOLDEN_TABLE, TABLE_COLUMNS  # noqa: E402


def main() -> int:
    rows = {row: [] for row in GOLDEN_TABLE}
    for surface, twist, kind in TABLE_COLUMNS:
        spec = parse_surface(surface, twist=twist)
        ev = Evaluator(spec)
        started = time.perf_counter()
        for row in rows:
            text = CONIC_ROWS[row] if kind == "conic" else row
            rows[row].append(welschinger(spec, spec.parse_class(text), ev))
        elapsed = time.perf_counter() - started
        name = f"{surface},{twist}"
        print(f"{name:9s} {elapsed:7.2f}s  memo={ev.cache_stats()['entries']}")
    ok = True
    for row, values in rows.items():
        expected = list(GOLDEN_TABLE[row])
        status = "ok" if values == expected else "MISMATCH"
        ok = ok and values == expected
        print(f"{row:4s} {values}  [{status}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
