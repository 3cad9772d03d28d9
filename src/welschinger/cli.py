"""Command-line front end.

Verbs: compute a single invariant, reproduce the reference value table,
dump the term-level trace of one evaluation, run property scans, build
monotonicity chains, and inspect cache files.  Exit codes: 0 success,
1 property violation, 2 parse error, 3 validation error, 4 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Callable, FrozenSet, List, Optional, Tuple

from .engine import Evaluator, make_key
from .errors import (
    CacheError,
    InternalCheckError,
    ParseError,
    ValidationError,
)
from .invariants import (
    blowdown_scan,
    growth_report,
    invariant_report,
    monotonicity_check,
    nef_chain,
    path_equivalence_scan,
    positivity_scan,
    sample_monotone_pairs,
    symmetry_scan,
    top_key,
    welschinger,
)
from .picard import CUBIC_LATTICE, P2_LATTICE, class_to_str
from .store import cache_load, cache_save
from .surfaces import SurfaceSpec, parse_surface
from .tangency import TangencyVector

GOLDEN_TABLE = {
    # (column, class shorthand) -> value; columns are fixed surface/twist
    # configurations, rows the first two anticanonical multiples.
    "-K": (8, 6, 4, 2, 0, 4, 0, 4),
    "-2K": (1000, 522, 236, 78, 0, 512, 0, 160),
}

TABLE_COLUMNS: List[Tuple[str, str, str]] = [
    ("P2[6,0]", "0", "p2"),
    ("P2[4,1]", "0", "p2"),
    ("P2[2,2]", "0", "p2"),
    ("P2[0,3]", "0", "p2"),
    ("B", "0", "conic"),
    ("B", "F", "conic"),
    ("B1", "0", "cubic"),
    ("B1", "F", "cubic"),
]

# On the contracted model the anticanonical rows pull back to these classes.
CONIC_ROWS = {"-K": "2,1,1", "-2K": "4,2,2"}


@functools.cache
def build_parser() -> Tuple[argparse.ArgumentParser, FrozenSet[str]]:
    """The parser of every verb, built on first use, and the flags that take
    a value.  Each verb takes only the flags its cmd_* function reads."""
    parser = argparse.ArgumentParser(
        prog="welschinger",
        description="Exact Welschinger invariants of real del Pezzo surfaces "
        "of degree >= 3",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    value_flags = set()

    def value(p: argparse.ArgumentParser, flag: str, **kwargs) -> None:
        p.add_argument(flag, **kwargs)
        value_flags.add(flag)

    def verb(name: str, func: Callable, help: str, surface: bool = True,
             store: bool = True, output: Optional[str] = "json",
             timing: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if surface:
            value(p, "--surface", required=True, help="P2[a,b], B1 or B")
            value(p, "--twist", default="0", choices=["0", "F"])
            value(p, "--blowdown", default="", help="indices i,j,...")
            value(p, "--E", dest="e_choice", default=None,
                  help="auxiliary (-1)-curve, class DSL")
        if store:
            value(p, "--cache", default=None, help="persistent store path")
            p.add_argument("--no-cache", action="store_true")
        if output == "rows":  # printed by _emit_rows
            fmt = p.add_mutually_exclusive_group()
            fmt.add_argument("--json", action="store_true")
            fmt.add_argument("--csv", action="store_true")
        elif output == "json":
            p.add_argument("--json", action="store_true")
        if timing:
            p.add_argument("--no-timing", action="store_true")
        return p

    p = verb("compute", cmd_compute, "one invariant value", timing=True)
    value(p, "--class", dest="class_text", required=True)

    verb("table", cmd_table, "reproduce the reference value table",
         surface=False, timing=True)

    p = verb("trace", cmd_trace, "term-level dump of one evaluation", output=None)
    value(p, "--class", dest="class_text", required=True)
    value(p, "--alpha", default=None, help="fixed tangencies, k:c,... or 0")
    value(p, "--beta", default=None, help="moving tangencies, k:c,... or 0")

    p = verb("scan", cmd_scan, "property verification suites", output="rows")
    value(p, "--bound", type=int, required=True)
    value(p, "--mode", required=True,
          choices=["positivity", "monotonicity", "symmetry", "blowdown", "epath"])

    # chain evaluates nothing, so it takes no store
    p = verb("chain", cmd_chain, "nef-big chain between two classes",
             store=False, output="rows")
    value(p, "--from", dest="from_text", required=True)
    value(p, "--to", dest="to_text", required=True)

    p = verb("growth", cmd_growth, "exact values of W(nD)", output="rows")
    value(p, "--class", dest="class_text", required=True)
    value(p, "--n-max", type=int, required=True)

    p = verb("cache", cmd_cache, "inspect a persistent store",
             surface=False, store=False, output=None)
    p.add_argument("action", choices=["info"])
    p.add_argument("path")
    return parser, frozenset(value_flags)


def _spec(args) -> SurfaceSpec:
    return parse_surface(
        args.surface, twist=args.twist, blowdown=args.blowdown, e_choice=args.e_choice
    )


def _evaluators(
    args, specs: List[SurfaceSpec]
) -> Tuple[List[Evaluator], Callable[[], None]]:
    """Evaluators of the specs, reading the store's records of their
    surfaces on memo misses, and the function that writes those records
    back beside the other surfaces' lines."""
    path = None if args.no_cache else args.cache or os.environ.get("WELSCHINGER_CACHE")
    sids = {spec.surface_id for spec in specs}
    store = cache_load(path, surface_ids=sids) if path else {}
    evs = [Evaluator(spec, store) for spec in specs]

    def save() -> None:
        # A miss is a key found neither in the memo nor in the store, so a
        # memo holds a record the store lacks exactly when it has missed.
        if path and any(ev.misses for ev in evs):
            for ev in evs:
                ev.dump(store)
            cache_save(store, path, surface_ids=sids)

    return evs, save


def cmd_compute(args) -> int:
    spec = _spec(args)
    d = spec.parse_class(args.class_text)
    (ev,), save = _evaluators(args, [spec])
    report = invariant_report(spec, d, ev)
    save()
    if args.json:
        payload = {
            "surface": report.surface_id,
            "class": report.class_text,
            "value": str(report.value),
            "point_count": report.point_count,
            "cache": report.cache_stats,
        }
        if not args.no_timing:
            payload["elapsed_s"] = round(report.elapsed, 6)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(report.value)
    return 0


def cmd_table(args) -> int:
    specs = [parse_surface(surface, twist=twist) for surface, twist, _ in TABLE_COLUMNS]
    evs, save = _evaluators(args, specs)
    rows = {}
    started = time.perf_counter()
    for row_name in ("-K", "-2K"):
        values = []
        for spec, ev, (_, _, kind) in zip(specs, evs, TABLE_COLUMNS):
            text = CONIC_ROWS[row_name] if kind == "conic" else row_name
            values.append(welschinger(spec, spec.parse_class(text), ev))
        rows[row_name] = tuple(values)
    elapsed = time.perf_counter() - started
    save()

    mismatches = []
    for row_name, values in rows.items():
        if values != GOLDEN_TABLE[row_name]:
            mismatches.append((row_name, values, GOLDEN_TABLE[row_name]))
    header = [f"{s},{t}" for s, t, _ in TABLE_COLUMNS]
    if args.json:
        payload = {
            "columns": header,
            "rows": {k: [str(v) for v in vals] for k, vals in rows.items()},
            "golden_match": not mismatches,
        }
        if not args.no_timing:
            payload["elapsed_s"] = round(elapsed, 3)
        print(json.dumps(payload, sort_keys=True))
    else:
        width = max(len(h) for h in header) + 2
        label = "D"
        print(label.ljust(8) + "".join(h.rjust(width) for h in header))
        for row_name, values in rows.items():
            print(
                row_name.ljust(8)
                + "".join(str(v).rjust(width) for v in values)
            )
        if not args.no_timing:
            print(f"# elapsed: {elapsed:.2f}s", file=sys.stderr)
    if mismatches:
        for row_name, got, want in mismatches:
            print(f"MISMATCH {row_name}: got {got}, reference {want}",
                  file=sys.stderr)
        return 1
    if not args.json:
        print("all 16 values match the reference table")
    return 0


def cmd_trace(args) -> int:
    spec = _spec(args)
    d = spec.parse_class(args.class_text)
    (ev,), save = _evaluators(args, [spec])
    if args.alpha is None and args.beta is None:
        key = top_key(spec, d)
    else:
        try:
            alpha = TangencyVector.parse(args.alpha or "0")
            beta = TangencyVector.parse(args.beta or "0")
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        key = make_key(spec, d, alpha, beta)
    records = ev.expand(key)
    total = ev.eval(key)
    save()
    for record in records:
        print(json.dumps(record.to_dict(spec), sort_keys=True))
    print(json.dumps({"total": str(total)}))
    contributions = sum(r.contribution for r in records)
    if contributions != total:
        raise InternalCheckError(
            f"trace total {contributions} differs from eval {total}"
        )
    return 0


def _emit_rows(args, header: List[str], rows: List[tuple]) -> None:
    if args.json:
        print(json.dumps([dict(zip(header, r)) for r in rows]))
    elif args.csv:
        print(",".join(header))
        for r in rows:
            print(",".join(str(x) for x in r))
    else:
        for r in rows:
            print("  ".join(str(x) for x in r))


def cmd_scan(args) -> int:
    if args.bound < 1:
        raise ValidationError("scan bound must be >= 1")
    mode = args.mode
    spec = _spec(args)
    if mode in ("blowdown", "epath"):
        # Verification runs comparing two fresh evaluators of a fixed model,
        # whatever --surface says; the store is neither read nor written.
        if mode == "blowdown":
            lat, second, rows = P2_LATTICE, "filtered", blowdown_scan(args.bound)
        else:
            rows = path_equivalence_scan(args.bound)
            lat, second = CUBIC_LATTICE, "reduced"
        out = [(class_to_str(lat, d), v1, v2, "ok" if same else "VIOLATION")
               for d, v1, v2, same in rows]
        _emit_rows(args, ["class", "full", second, "status"], out)
        return 0 if all(r[3] for r in rows) else 1
    if mode == "symmetry":
        # A fresh raw-keyed evaluator; the store is neither read nor written.
        rows = symmetry_scan(spec, args.bound)
        out = [(spec.class_str(a), spec.class_str(b), v1, v2,
                "ok" if same else "VIOLATION") for a, b, v1, v2, same in rows]
        _emit_rows(args, ["class", "relabeled", "value", "value2", "status"], out)
        return 0 if all(r[4] for r in rows) else 1
    (ev,), save = _evaluators(args, [spec])
    violations = 0
    if mode == "positivity":
        rows = positivity_scan(spec, args.bound, ev)
        out = [(spec.class_str(d), str(v), "ok" if pos else "NON-POSITIVE")
               for d, v, pos in rows]
        violations = sum(1 for _, _, pos in rows if not pos)
        _emit_rows(args, ["class", "value", "status"], out)
        if violations and spec.lattice.model == "cubic" and spec.twist == "0":
            print("note: expected: outside theorem scope (untwisted, "
                  "disconnected real part)", file=sys.stderr)
    else:  # monotonicity
        pairs = sample_monotone_pairs(spec, 10, antik_cap=args.bound)
        out = []
        for d_prime, d in pairs:
            rep = monotonicity_check(spec, d, d_prime, ev)
            out.append(
                (spec.class_str(d_prime), spec.class_str(d), rep.product,
                 rep.lhs, rep.rhs, "ok" if rep.holds else "VIOLATION")
            )
            violations += 0 if rep.holds else 1
        _emit_rows(
            args, ["from", "to", "product", "W(D)", "bound", "status"], out
        )
    save()
    return 1 if violations else 0


def cmd_chain(args) -> int:
    spec = _spec(args)
    d_prime = spec.parse_class(args.from_text)
    d = spec.parse_class(args.to_text)
    chain = nef_chain(spec, d_prime, d)
    cur = d_prime
    rows = []
    for line in chain:
        step = spec.intersect(cur, line)
        cur = cur + line
        rows.append((spec.class_str(line), step, spec.class_str(cur)))
    _emit_rows(args, ["line", "meets", "partial_sum"], rows)
    return 0


def cmd_growth(args) -> int:
    spec = _spec(args)
    d = spec.parse_class(args.class_text)
    (ev,), save = _evaluators(args, [spec])
    rows = growth_report(spec, d, args.n_max, ev)
    save()
    out = [
        (r.n, str(r.value), "" if r.ratio is None else f"{r.ratio:.6f}")
        for r in rows
    ]
    _emit_rows(args, ["n", "value", "log_ratio"], out)
    return 0


def cmd_cache(args) -> int:
    store = cache_load(args.path)
    by_surface: dict = {}
    for key in store:
        sid = key.split("|", 1)[0]
        by_surface[sid] = by_surface.get(sid, 0) + 1
    print(f"records: {len(store)}")
    for sid in sorted(by_surface):
        print(f"  {sid}: {by_surface[sid]}")
    return 0


def _fuse_values(argv: List[str], value_flags: FrozenSet[str]) -> List[str]:
    """Join value-taking flags with their argument so classes like -2K parse."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in value_flags else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser, value_flags = build_parser()
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(_fuse_values(raw, value_flags))
    print("# welschinger " + " ".join(raw), file=sys.stderr)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, CacheError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
