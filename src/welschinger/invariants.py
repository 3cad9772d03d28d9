"""Public invariant API, structural property checks, growth reports.

The invariant of a real class D is the count through -K.D - 1 real generic
points on the marked component, evaluated through the recursion at the key
(D, alpha = 0, beta = (D.E) theta_1).  On top of single values this module
provides the verification suites the acceptance gate runs: positivity over
the nef-and-big cone, monotonicity along chains of (-1)-curves, invariance
under relabeling of same-reality blow-up points, blow-down consistency,
agreement of the two evaluation routes on the twisted cubic, and exact
growth tables for the sequence n -> W(nD).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from random import Random
from typing import Iterable, List, Optional, Tuple

from .engine import Evaluator, make_key
from .errors import InternalCheckError, ValidationError
from .picard import DivisorClass
from .surfaces import SurfaceSpec, make_surface
from .tangency import TangencyVector, theta

DEFAULT_SEED = 271828

_ZERO = TangencyVector.zero()


@dataclass(frozen=True)
class InvariantReport:
    surface_id: str
    class_text: str
    value: int
    point_count: int
    elapsed: float
    cache_stats: dict


def top_key(spec: SurfaceSpec, d: DivisorClass):
    de = spec.e_degree(d)
    if de < 0:
        raise ValidationError(
            f"class {spec.class_str(d)} meets the auxiliary curve negatively"
        )
    return make_key(spec, d, _ZERO, theta(1, de) if de else _ZERO)


def welschinger(
    spec: SurfaceSpec, d: DivisorClass, evaluator: Optional[Evaluator] = None
) -> int:
    """The invariant of D: all tangencies with E moving and simple."""
    ev = evaluator or Evaluator(spec)
    return ev.eval(top_key(spec, d))


def invariant_report(
    spec: SurfaceSpec, d: DivisorClass, evaluator: Optional[Evaluator] = None
) -> InvariantReport:
    ev = evaluator or Evaluator(spec)
    started = time.perf_counter()
    value = ev.eval(top_key(spec, d))
    elapsed = time.perf_counter() - started
    return InvariantReport(
        surface_id=spec.surface_id,
        class_text=spec.class_str(d),
        value=value,
        point_count=spec.antik_degree(d) - 1,
        elapsed=elapsed,
        cache_stats=ev.cache_stats(),
    )


# -- chains and monotonicity -------------------------------------------------------


def _line_decompositions(
    spec: SurfaceSpec, target: DivisorClass, k: int
) -> Iterable[Tuple[DivisorClass, ...]]:
    """Multisets of k line classes summing to target (every line has -K.L = 1)."""
    lines = sorted(spec.lattice.lines)
    lat = spec.lattice
    probes = [-(lat.canonical), DivisorClass([1] + [0] * (lat.rank - 1))]

    def plausible(rem: DivisorClass) -> bool:
        # a non-empty sum of lines meets every nef class non-negatively
        return all(lat.intersect(rem, p) >= 0 for p in probes)

    def rec(rem: DivisorClass, start: int, depth: int, acc: list):
        if depth == 0:
            if rem.is_zero():
                yield tuple(acc)
            return
        if not plausible(rem):
            return
        for i in range(start, len(lines)):
            acc.append(lines[i])
            yield from rec(rem - lines[i], i, depth - 1, acc)
            acc.pop()

    yield from rec(target, 0, k, [])


def _require_chain_model(spec: SurfaceSpec) -> None:
    if spec.model == "B":
        raise ValidationError(
            "chains run on the uncontracted models (the conic-bundle cone "
            "is not stable under adding single lines)"
        )


def nef_chain(
    spec: SurfaceSpec, d_prime: DivisorClass, d: DivisorClass
) -> List[DivisorClass]:
    """Lines E(1)..E(k) with D = D' + sum E(j), every partial sum nef and
    big, and each step meeting the next line positively."""
    _require_chain_model(spec)
    if not spec.is_nef_big(d_prime) or not spec.is_nef_big(d):
        raise ValidationError("chain endpoints must be nef and big")
    diff = d - d_prime
    k = spec.antik_degree(diff)
    if d == d_prime:
        return []
    if k < 0:
        raise ValidationError("difference has negative anticanonical degree")

    if spec.lattice.model == "cubic":
        # Real effective classes are non-negative line combinations, so the
        # difference must dominate componentwise.  Walk down from D, always
        # removing the largest coefficient still above its target; every
        # intermediate stays nef and big.
        dp = d_prime.coords
        if any(x < y for x, y in zip(d.coords, dp)):
            raise ValidationError("difference is not effective")
        cur = d
        rev: List[DivisorClass] = []
        while cur != d_prime:
            cc = cur.coords
            over = [(cc[j], -j) for j in range(3) if cc[j] > dp[j]]
            if not over:
                raise ValidationError("difference is not effective")
            j = -max(over)[1]
            line = spec.lattice.lines[j]
            nxt = cur - line
            if not spec.is_nef_big(nxt):
                raise InternalCheckError(
                    f"greedy chain left the nef-big cone at {spec.class_str(nxt)}"
                )
            if spec.intersect(nxt, line) <= 0:
                raise InternalCheckError("greedy chain lost positivity of steps")
            rev.append(line)
            cur = nxt
        return list(reversed(rev))

    found_decomposition = False
    for multiset in _line_decompositions(spec, diff, k):
        found_decomposition = True
        chain = _order_chain(spec, d_prime, list(multiset))
        if chain is not None:
            return chain
    if not found_decomposition:
        raise ValidationError("difference is not effective")
    raise InternalCheckError(
        "an effective difference of nef-big classes admitted no admissible "
        "chain ordering; this contradicts the chain lemma"
    )


def _order_chain(
    spec: SurfaceSpec, start: DivisorClass, lines: List[DivisorClass]
) -> Optional[List[DivisorClass]]:
    if not lines:
        return []
    seen = set()

    def rec(cur: DivisorClass, remaining: List[DivisorClass]):
        if not remaining:
            return []
        state = (cur.coords, tuple(sorted(l.coords for l in remaining)))
        if state in seen:
            return None
        seen.add(state)
        tried = set()
        for i, line in enumerate(remaining):
            if line.coords in tried:
                continue
            tried.add(line.coords)
            if spec.intersect(cur, line) <= 0:
                continue
            nxt = cur + line
            if not spec.is_nef_big(nxt):
                continue
            rest = remaining[:i] + remaining[i + 1:]
            tail = rec(nxt, rest)
            if tail is not None:
                return [line] + tail
        return None

    return rec(start, lines)


@dataclass(frozen=True)
class MonotonicityReport:
    holds: bool
    product: int
    lhs: int
    rhs: int
    chain: Tuple[str, ...]


def monotonicity_check(
    spec: SurfaceSpec,
    d: DivisorClass,
    d_prime: DivisorClass,
    evaluator: Optional[Evaluator] = None,
) -> MonotonicityReport:
    """Exact check of W(D) >= prod(D(i-1).E(i)) * W(D')."""
    ev = evaluator or Evaluator(spec)
    chain = nef_chain(spec, d_prime, d)
    product = 1
    cur = d_prime
    for line in chain:
        product *= spec.intersect(cur, line)
        cur = cur + line
    lhs = welschinger(spec, d, ev)
    rhs = product * welschinger(spec, d_prime, ev)
    return MonotonicityReport(
        holds=lhs >= rhs,
        product=product,
        lhs=lhs,
        rhs=rhs,
        chain=tuple(spec.class_str(l) for l in chain),
    )


# -- scans -------------------------------------------------------------------------


def positivity_scan(
    spec: SurfaceSpec,
    antik_bound: int,
    evaluator: Optional[Evaluator] = None,
) -> List[Tuple[DivisorClass, int, bool]]:
    """All nef-and-big real classes with -K.D <= bound, with their invariants.

    One representative per orbit of spec.orbit_map(move_e=True) is
    evaluated, and every class of the orbit receives that exact value.
    That mode admits any permutation of the real blow-up points and of the
    conjugate pairs that are not blown down, E1 and E2 included; none on
    the cubic.  The symmetry suite checks the invariance on raw classes.
    """
    if antik_bound < 1:
        raise ValidationError("scan bound must be >= 1")
    ev = evaluator or Evaluator(spec)
    canon = spec.orbit_map(move_e=True)
    classes = spec.nef_big_classes(antik_bound)
    reps = [canon(d.coords) if canon else d.coords for d in classes]
    values = {c: welschinger(spec, DivisorClass(c), ev) for c in sorted(set(reps))}
    return [(d, values[c], values[c] > 0) for d, c in zip(classes, reps)]


def symmetry_scan(
    spec: SurfaceSpec,
    antik_bound: int,
    n_classes: int = 5,
    n_perms: int = 10,
) -> List[Tuple[DivisorClass, DivisorClass, int, int, bool]]:
    """Invariance under random relabelings of the six real points.

    Both sides are evaluated on a fresh evaluator whose memo is keyed by
    raw classes, reading no store: where sigma fixes E, a memo keyed by
    relabelling orbit would read W(sigma D) back from W(D).  So this is a
    genuine consistency check of the recursion, which does single out the
    two points supporting E.
    """
    if spec.model != "P2" or spec.n_real != 6 or spec.blown_down:
        raise ValidationError("the symmetry scan runs on the all-real model")
    ev = Evaluator(spec, canonicalize=False)
    rng = Random(DEFAULT_SEED)
    classes = [d for d in spec.nef_big_classes(antik_bound)]
    rng.shuffle(classes)
    rows = []
    for d in classes[:n_classes]:
        m = [-x for x in d.coords[1:]]
        for _ in range(n_perms):
            perm = list(range(6))
            rng.shuffle(perm)
            pm = [m[perm[i]] for i in range(6)]
            pd = DivisorClass([d.coords[0]] + [-x for x in pm])
            v1 = welschinger(spec, d, ev)
            v2 = welschinger(spec, pd, ev)
            rows.append((d, pd, v1, v2, v1 == v2))
    return rows


def blowdown_scan(antik_bound: int) -> List[Tuple[DivisorClass, int, int, bool]]:
    """Exact agreement of the full model and the filtered blow-down model
    on classes not crossing the two contracted curves."""
    full = make_surface("P2", 6, 0)
    filtered = make_surface("P2", 4, 0)
    ev_full = Evaluator(full)
    ev_filt = Evaluator(filtered)
    rows = []
    for d in full.nef_big_classes(antik_bound):
        if not filtered.class_allowed(d):
            continue
        v1 = welschinger(full, d, ev_full)
        v2 = welschinger(filtered, d, ev_filt)
        rows.append((d, v1, v2, v1 == v2))
    return rows


def e_independence_scan(
    antik_bound: int,
) -> List[Tuple[DivisorClass, Tuple[int, int, int], bool]]:
    """The cubic invariant, with the component twist F, computed with each of
    the three real lines as E."""
    specs = [
        make_surface("B1", twist="F", e_choice=e) for e in ("1,0,0", "0,1,0", "0,0,1")
    ]
    evs = [Evaluator(s) for s in specs]
    rows = []
    for d in specs[0].nef_big_classes(antik_bound):
        vals = tuple(welschinger(s, d, ev) for s, ev in zip(specs, evs))
        rows.append((d, vals, len(set(vals)) == 1))
    return rows


def path_equivalence_scan(
    antik_bound: int,
) -> List[Tuple[DivisorClass, int, int, bool]]:
    """Full recursion against the reduced cubic route on all nef-big keys."""
    spec = make_surface("B1", twist="F")
    ev = Evaluator(spec)
    rows = []
    for d in spec.nef_big_classes(antik_bound):
        key = top_key(spec, d)
        v_full = ev.eval(key)
        v_fast = ev.eval_cubic_fast(key)
        rows.append((d, v_full, v_fast, v_full == v_fast))
    return rows


def sample_monotone_pairs(
    spec: SurfaceSpec, count: int, antik_cap: int = 8
) -> List[Tuple[DivisorClass, DivisorClass]]:
    """Deterministic sample of nef-big pairs (D', D) with effective difference.

    D' has -K.D' <= antik_cap - 2, so that one or two lines fit on top.
    Every pair is checked along a chain, so the model must admit chains.
    """
    _require_chain_model(spec)
    base_cap = max(antik_cap - 2, 1)
    base = spec.nef_big_classes(base_cap)
    if not base:
        smallest = base_cap + 1
        while not spec.nef_big_classes(smallest):
            smallest += 1
        raise ValidationError(
            f"monotone pairs need a bound of at least {smallest + 2}: "
            f"no nef-big class has -K.D <= {base_cap}"
        )
    rng = Random(DEFAULT_SEED)
    lines = sorted(spec.lattice.lines)
    pairs = []
    guard = 0
    while len(pairs) < count and guard < 10000:
        guard += 1
        d_prime = base[rng.randrange(len(base))]
        d = d_prime
        for _ in range(rng.randint(1, 2)):
            line = lines[rng.randrange(len(lines))]
            cand = d + line
            if spec.is_real_class(cand):
                d = cand
        if d == d_prime:
            continue
        if not spec.is_nef_big(d) or spec.antik_degree(d) > antik_cap:
            continue
        pairs.append((d_prime, d))
    if len(pairs) < count:
        raise InternalCheckError("monotone pair sampling starved")
    return pairs


# -- growth -------------------------------------------------------------------------


def _log_big(n: int) -> float:
    s = n.bit_length()
    if s <= 53:
        return math.log(n)
    top = n >> (s - 53)
    return math.log(top) + (s - 53) * math.log(2.0)


@dataclass(frozen=True)
class GrowthRow:
    n: int
    value: int
    ratio: Optional[float]  # log W(nD) / (n log n), empty at n = 1


def growth_report(
    spec: SurfaceSpec,
    d: DivisorClass,
    n_max: int,
    evaluator: Optional[Evaluator] = None,
) -> List[GrowthRow]:
    """Exact values of W(nD) with the logarithmic-growth ratio column."""
    if n_max < 1:
        raise ValidationError("growth report needs n_max >= 1")
    if not spec.is_nef_big(d):
        raise ValidationError("growth reports run on nef and big classes")
    ev = evaluator or Evaluator(spec)
    rows = []
    for n in range(1, n_max + 1):
        value = welschinger(spec, d * n, ev)
        if n == 1 or value <= 0:
            ratio = None
        else:
            ratio = _log_big(value) / (n * math.log(n))
        rows.append(GrowthRow(n, value, ratio))
    return rows
