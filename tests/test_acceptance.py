"""Acceptance gate: each test runs one criterion at its stated bound and
tolerance (exact integer arithmetic throughout) and prints a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time
from concurrent.futures import ThreadPoolExecutor

from conftest import get_evaluator

from welschinger.engine import Evaluator, make_key
from welschinger.store import cache_load, cache_save
from welschinger.invariants import (
    blowdown_scan,
    e_independence_scan,
    monotonicity_check,
    path_equivalence_scan,
    positivity_scan,
    sample_monotone_pairs,
    symmetry_scan,
    top_key,
    welschinger,
)
from welschinger.surfaces import make_surface
from welschinger.tangency import TangencyVector, theta

ZERO = TangencyVector.zero()

GOLDEN = {
    "-K": (8, 6, 4, 2, 0, 4, 0, 4),
    "-2K": (1000, 522, 236, 78, 0, 512, 0, 160),
}

COLUMNS = [
    ("P2", 6, 0, "0", None),
    ("P2", 4, 1, "0", None),
    ("P2", 2, 2, "0", None),
    ("P2", 0, 3, "0", None),
    ("B", 0, 0, "0", "conic"),
    ("B", 0, 0, "F", "conic"),
    ("B1", 0, 0, "0", None),
    ("B1", 0, 0, "F", None),
]

CONIC_ROWS = {"-K": "2,1,1", "-2K": "4,2,2"}


def _report(number: int, ok: bool, message: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {message}")


def _table_values(evaluators):
    rows = {}
    for row in ("-K", "-2K"):
        values = []
        for (model, a, b, twist, kind), (spec, ev) in evaluators:
            text = CONIC_ROWS[row] if kind == "conic" else row
            values.append(welschinger(spec, spec.parse_class(text), ev))
        rows[row] = tuple(values)
    return rows


def test_criterion_1_golden_table():
    started = time.perf_counter()
    evaluators = [
        (col, (make_surface(col[0], col[1], col[2], twist=col[3]),))
        for col in COLUMNS
    ]
    evaluators = [(col, (spec[0], Evaluator(spec[0]))) for col, spec in evaluators]
    rows = _table_values(evaluators)
    elapsed = time.perf_counter() - started
    ok = rows == GOLDEN and elapsed < 120
    _report(1, ok, f"all 16 reference values exact, cold, in {elapsed:.2f}s")
    assert rows["-K"] == GOLDEN["-K"]
    assert rows["-2K"] == GOLDEN["-2K"]
    assert elapsed < 120


def test_criterion_2_hand_expansion_oracle():
    spec, ev = get_evaluator("B1", twist="F")
    key = make_key(spec, spec.parse_class("-K"), theta(1), ZERO)
    value = ev.eval(key)
    records = ev.expand(key)
    consumption = [
        r for r in records
        if r.kind == "split" and not r.factors and not r.pair_ids
        and r.alpha0 == theta(1)
    ]
    factor_terms = [r for r in records if r.factors]
    pair_terms = [r for r in records if r.pair_ids]
    ok = (
        value == 2
        and [r.contribution for r in consumption] == [1]
        and len(factor_terms) == 1
        and factor_terms[0].contribution == 1
        and sorted(spec.class_str(f.d) for f in factor_terms[0].factors)
        == ["0,0,1", "0,1,0"]
        and sorted(r.contribution for r in pair_terms) == [-1, -1, 1, 1]
        and sum(r.contribution for r in records) == value
    )
    _report(2, ok, "trace of the twisted-cubic key (-K, theta1, 0) equals the "
                   "hand expansion: +1 consumption, +1 two-line split, "
                   "pair terms +1+1-1-1, total 2")
    assert ok


def test_criterion_3_e_independence():
    started = time.perf_counter()
    rows = e_independence_scan(6)
    elapsed = time.perf_counter() - started
    bad = [r for r in rows if not r[2]]
    asym = [r for r in rows if len(set(r[0].coords)) > 1]
    ok = rows and not bad and asym and elapsed < 60
    _report(3, ok, f"{len(rows)} classes agree for E = L1, L2, L3 "
                   f"({len(asym)} asymmetric) in {elapsed:.1f}s")
    assert not bad and asym
    assert elapsed < 60


def test_criterion_4_path_equivalence():
    started = time.perf_counter()
    rows = path_equivalence_scan(9)
    elapsed = time.perf_counter() - started
    bad = [r for r in rows if not r[3]]
    ok = rows and not bad and elapsed < 120
    _report(4, ok, f"full and reduced routes agree on {len(rows)} nef-big "
                   f"classes up to degree 9 in {elapsed:.1f}s")
    assert not bad
    assert elapsed < 120


def test_criterion_5_positivity():
    started = time.perf_counter()
    total = 0
    bad = []
    for args in (("P2", 6, 0, "0"), ("P2", 4, 1, "0"), ("P2", 2, 2, "0"),
                 ("B1", 0, 0, "F")):
        spec, ev = get_evaluator(args[0], args[1], args[2], twist=args[3])
        rows = positivity_scan(spec, 8, ev)
        total += len(rows)
        bad += [(spec.surface_id, spec.class_str(d), v)
                for d, v, pos in rows if not pos]
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 300
    _report(5, ok, f"{total} nef-big classes with degree <= 8 all positive "
                   f"in {elapsed:.1f}s")
    assert not bad, bad[:5]
    assert elapsed < 300


def test_criterion_6_monotonicity():
    failures = []
    checked = 0
    for args in (("P2", 6, 0, "0"), ("B1", 0, 0, "F")):
        spec, ev = get_evaluator(args[0], args[1], args[2], twist=args[3])
        for d_prime, d in sample_monotone_pairs(spec, 10, antik_cap=8):
            rep = monotonicity_check(spec, d, d_prime, ev)
            checked += 1
            if not rep.holds:
                failures.append((spec.surface_id, spec.class_str(d_prime),
                                 spec.class_str(d), rep.lhs, rep.rhs))
    ok = checked == 20 and not failures
    _report(6, ok, f"W(D) >= chain-product * W(D') on {checked} sampled pairs")
    assert checked == 20 and not failures, failures


def test_criterion_7_symmetry_and_blowdown():
    spec = make_surface("P2", 6, 0)
    sym = symmetry_scan(spec, 6, n_classes=5, n_perms=10)
    sym_bad = [r for r in sym if not r[4]]
    blow = blowdown_scan(6)
    blow_bad = [r for r in blow if not r[3]]
    ok = len(sym) == 50 and not sym_bad and blow and not blow_bad
    _report(7, ok, f"{len(sym)} relabeling checks and {len(blow)} blow-down "
                   "comparisons all exact")
    assert len(sym) == 50 and not sym_bad
    assert blow and not blow_bad


def test_criterion_8_determinism():
    # criteria 1-4 core values: one worker / two workers, cold / warm store
    cold_evals = [
        (col, (make_surface(col[0], col[1], col[2], twist=col[3]),))
        for col in COLUMNS
    ]
    cold_evals = [(col, (s[0], Evaluator(s[0]))) for col, s in cold_evals]
    table_cold = _table_values(cold_evals)

    store = {}
    for _, (spec, ev) in cold_evals:
        ev.dump(store)
    warm_evals = [
        (col, (spec, Evaluator(spec, store=store)))
        for col, (spec, ev) in cold_evals
    ]
    table_warm = _table_values(warm_evals)

    spec_f = make_surface("B1", twist="F")
    ev_shared = Evaluator(spec_f)
    classes = spec_f.nef_big_classes(6)

    def value(d):
        return ev_shared.eval(top_key(spec_f, d))

    sequential = [value(d) for d in classes]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(value, classes))

    trace_cold = Evaluator(spec_f).expand(
        make_key(spec_f, spec_f.parse_class("-K"), theta(1), ZERO)
    )
    trace_warm = Evaluator(spec_f, store=ev_shared.dump()).expand(
        make_key(spec_f, spec_f.parse_class("-K"), theta(1), ZERO)
    )

    ok = (
        table_cold == table_warm == GOLDEN
        and sequential == threaded
        and trace_cold == trace_warm
    )
    _report(8, ok, "identical values with 1 and 2 workers, cold and warm store")
    assert table_cold == table_warm == GOLDEN
    assert sequential == threaded
    assert trace_cold == trace_warm


def test_cache_file_round_trip_through_disk(tmp_path):
    # supporting check for criterion 8's warm-cache leg through the file format
    spec = make_surface("B1", twist="F")
    ev = Evaluator(spec)
    ev.eval(top_key(spec, spec.parse_class("-2K")))
    path = tmp_path / "store.txt"
    cache_save(ev.dump(), str(path))
    warm = Evaluator(spec, store=cache_load(str(path)))
    assert warm.eval(top_key(spec, spec.parse_class("-2K"))) == 160
    assert warm.misses == 0
