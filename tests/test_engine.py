import collections
import functools
import itertools
import json
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from welschinger import engine
from welschinger.engine import Evaluator, FactorRecord, TermRecord, make_key
from welschinger import cli
from welschinger.errors import CacheError, ValidationError
from welschinger.invariants import positivity_scan, top_key, welschinger
from welschinger.picard import (
    P2_LATTICE, DivisorClass, candidate_factors, feasible, nef_classes_up_to,
)
from welschinger.store import CACHE_HEADER, cache_load, cache_save
from welschinger.surfaces import make_surface
from welschinger.tangency import (
    TangencyVector, enumerate_le, iweight, norm, odd_partitions, theta,
)

ZERO = TangencyVector.zero()


def key_of(spec, text, alpha=ZERO, beta=None):
    d = spec.parse_class(text)
    if beta is None:
        de = spec.e_degree(d)
        beta = theta(1, de) if de else ZERO
    return make_key(spec, d, alpha, beta)


# -- hand-expanded oracle values -------------------------------------------------
# The right-hand sides below were expanded by hand, term by term, from the
# recursion before the evaluator existed; they gate the term enumerator.


def test_cubic_twist_hand_values(shared):
    spec, ev = shared("B1", twist="F")
    assert ev.eval(key_of(spec, "-K", alpha=theta(1), beta=ZERO)) == 2
    assert ev.eval(key_of(spec, "-K")) == 4


def test_cubic_trivial_hand_values(shared):
    spec, ev = shared("B1", twist="0")
    # the four pair terms all carry weight -1 here and no longer cancel
    assert ev.eval(key_of(spec, "-K", alpha=theta(1), beta=ZERO)) == -2
    assert ev.eval(key_of(spec, "-K")) == 0


def test_cubic_alternate_e_hand_values(shared):
    spec, ev = shared("B1", twist="F", e_choice="0,1,0")
    d = "2,1,1"
    assert ev.eval(key_of(spec, d, alpha=theta(1, 2), beta=ZERO)) == 2
    assert ev.eval(key_of(spec, d, alpha=theta(1), beta=theta(1))) == 4
    assert ev.eval(key_of(spec, d)) == 4


def test_p2_hand_values(shared):
    expected = {(6, 0): 6, (4, 1): 4, (2, 2): 2, (0, 3): 0}
    for (a, b), want in expected.items():
        spec, ev = shared("P2", a, b)
        got = ev.eval(key_of(spec, "-K", alpha=theta(1), beta=ZERO))
        assert got == want, (a, b, got)


def test_reference_values(shared):
    spec, ev = shared("B1", twist="F")
    assert ev.eval(key_of(spec, "-2K")) == 160
    spec, ev = shared("P2", 6, 0)
    assert ev.eval(key_of(spec, "-2K")) == 1000
    e2 = spec.parse_class("0;0,-1,0,0,0,0")
    assert ev.eval(make_key(spec, e2, ZERO, theta(1))) == 1


def test_vanishing_guard(shared):
    spec, ev = shared("B1", twist="F")
    l2 = spec.parse_class("0,1,0")
    # moving the only tangency to a fixed point drops the dimension below 0
    assert ev.eval(make_key(spec, l2, theta(1), ZERO)) == 0


def test_expand_matches_hand_expansion(shared):
    spec, ev = shared("B1", twist="F")
    records = ev.expand(key_of(spec, "-K", alpha=theta(1), beta=ZERO))
    assert [r.kind for r in records].count("first_sum") == 0
    contributions = sorted(r.contribution for r in records)
    assert contributions == [-1, -1, 1, 1, 1, 1]
    assert sum(contributions) == 2
    pair_terms = [r for r in records if r.pair_ids]
    assert sorted(r.contribution for r in pair_terms) == [-1, -1, 1, 1]
    assert all(len(r.pair_ids) == 1 for r in pair_terms)
    factor_terms = [r for r in records if r.factors]
    assert len(factor_terms) == 1
    names = sorted(spec.class_str(f.d) for f in factor_terms[0].factors)
    assert names == ["0,0,1", "0,1,0"]


def test_expand_first_sum_single_record(shared):
    spec, ev = shared("B1", twist="F")
    records = ev.expand(key_of(spec, "-K"))
    firsts = [r for r in records if r.kind == "first_sum"]
    assert len(firsts) == 1 and firsts[0].k == 1
    assert sum(r.contribution for r in records) == 4


def test_expand_totals_match_eval(shared):
    cases = []
    spec, ev = shared("B1", twist="F")
    cases += [(spec, ev, key_of(spec, t)) for t in ("-K", "-2K", "2,1,1")]
    spec, ev = shared("P2", 2, 2)
    cases += [(spec, ev, key_of(spec, "-K")), (spec, ev, key_of(spec, "-2K"))]
    spec, ev = shared("P2", 6, 0)
    cases += [(spec, ev, key_of(spec, "-K", alpha=theta(1), beta=ZERO))]
    for spec, ev, key in cases:
        records = ev.expand(key)
        assert sum(r.contribution for r in records) == ev.eval(key)


def test_expand_initial_key(shared):
    spec, ev = shared("P2", 6, 0)
    e2 = spec.parse_class("0;0,-1,0,0,0,0")
    records = ev.expand(make_key(spec, e2, ZERO, theta(1)))
    assert len(records) == 1 and records[0].kind == "initial"
    assert records[0].contribution == 1


def test_key_validation():
    spec = make_surface("P2", 4, 1)
    e5 = spec.parse_class("0;0,0,0,0,-1,0")
    with pytest.raises(ValidationError):
        make_key(spec, e5, ZERO, theta(1))  # not conjugation-invariant
    with pytest.raises(ValidationError):
        make_key(spec, -spec.lattice.canonical, ZERO, theta(2))  # even support
    with pytest.raises(ValidationError):
        make_key(spec, -spec.lattice.canonical, ZERO, theta(1, 2))  # degree mismatch
    conic = make_surface("B", twist="F")
    l1 = conic.parse_class("1,0,0")
    with pytest.raises(ValidationError):
        make_key(conic, l1, ZERO, theta(1))  # crosses the contracted line


def _vector_factorial(v):
    return math.prod(math.factorial(c) for _, c in v)


def _coefficient_from_record(spec, d, alpha, beta, record):
    """A split record's coefficient, recomputed in Fractions from the record
    and its state alone, and its stabilizer:

        2^|beta0| (n-1)! / (prod n_i! beta0!) * (l + 1)
        * alpha! / (alpha0! prod alpha_i! (alpha - alpha0 - sum alpha_i)!)
        * prod (beta_i)_{j_i} / |Stab|,

    gamma_i = theta_{j_i}, and |Stab| the product of m! over the
    multiplicities m of equal (class, alpha_i, beta_i, gamma_i) factors."""
    n = spec.r_dim_class(d, norm(beta))
    frac = Fraction(2 ** norm(record.beta0) * math.factorial(n - 1))
    frac /= _vector_factorial(record.beta0)
    frac *= record.l + 1
    rest = alpha - record.alpha0
    frac *= Fraction(_vector_factorial(alpha), _vector_factorial(record.alpha0))
    for f in record.factors:
        n_i = spec.r_dim_class(f.d, norm(f.beta))
        assert f.n_i == n_i
        (j,) = f.gamma.support()
        frac *= Fraction(f.beta[j], math.factorial(n_i) * _vector_factorial(f.alpha))
        rest -= f.alpha
    frac /= _vector_factorial(rest)
    repeats = collections.Counter(
        (f.d.coords, f.alpha.key(), f.beta.key(), f.gamma.key())
        for f in record.factors
    )
    stabilizer = math.prod(math.factorial(m) for m in repeats.values())
    return frac / stabilizer, stabilizer


@pytest.mark.parametrize(
    "surface, text",
    [(("B1", 0, 0, "F"), "-3K"), (("P2", 4, 1, "0"), "3;1,1,0,2,0,0"),
     (("P2", 6, 0, "0"), "5;1,3,2,2,2,0")],
    ids=["B1-F", "P2-4-1", "P2-6-0"],
)
def test_split_coefficients_recomputed_from_records(surface, text):
    model, a, b, twist = surface
    spec = make_surface(model, a, b, twist=twist)
    ev = Evaluator(spec)
    ev.eval(top_key(spec, spec.parse_class(text)))
    pair_weight = {item.item_id: item.weight for item in spec.pair_menu}
    largest_stabilizer = 1
    for coords, a_key, b_key in list(ev._full.memo):
        d, alpha, beta = DivisorClass(coords), TangencyVector(a_key), TangencyVector(b_key)
        key = make_key(spec, d, alpha, beta)
        records = ev.expand(key)
        assert sum(r.contribution for r in records) == ev.eval(key)
        for record in records:
            if record.kind != "split":
                continue
            coeff, stabilizer = _coefficient_from_record(spec, d, alpha, beta, record)
            assert coeff == record.coefficient, (key, record)
            largest_stabilizer = max(largest_stabilizer, stabilizer)
            contribution = record.coefficient
            for item_id in record.pair_ids:
                contribution *= pair_weight[item_id]
            for f in record.factors:
                contribution *= f.value
            assert contribution == record.contribution
    assert largest_stabilizer > 1  # a repeated factor was met


def test_eval_builds_no_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval built a trace record")

    cases = [
        (make_surface("B1", twist="F"), "-3K"),
        (make_surface("P2", 6, 0), "5;1,3,2,2,2,0"),
    ]
    keys = [top_key(spec, spec.parse_class(text)) for spec, text in cases]
    monkeypatch.setattr(engine, "TermRecord", refuse)
    monkeypatch.setattr(engine, "FactorRecord", refuse)
    values = [Evaluator(spec).eval(key) for (spec, _), key in zip(cases, keys)]
    monkeypatch.undo()
    for (spec, _), key, value in zip(cases, keys, values):
        records = Evaluator(spec).expand(key)
        assert records and all(isinstance(r, engine.TermRecord) for r in records)
        assert sum(r.contribution for r in records) == value


class _ShuffledEvaluator(Evaluator):
    """Evaluator walking the factor search in a scrambled class order.

    The search stops at the first block over the anticanonical budget, so
    it relies on ascending degree; the order among equal degrees is free.
    """

    def __init__(self, spec, seed):
        super().__init__(spec)
        self._seed = seed

    def _table(self, route, budget, target):
        blocks = list(super()._table(route, budget, target)[0])
        random.Random(self._seed).shuffle(blocks)
        blocks.sort(key=lambda b: b.antik)  # stable: shuffled within a degree
        return tuple(blocks), {}  # a fit memo of its own for the new order


def test_shuffled_table_moves_blocks_only_within_a_degree():
    spec = make_surface("P2", 2, 2)
    # the whole cone, and the candidates of -2K's c = 0 target
    for target in (None, _target(spec, "-2K")):
        plain = Evaluator(spec)._table(Evaluator(spec)._full, 6, target)[0]
        shuffled = _ShuffledEvaluator(spec, 1)
        scrambled = shuffled._table(shuffled._full, 6, target)[0]
        assert scrambled != plain
        assert [b.antik for b in scrambled] == [b.antik for b in plain]
        for deg in {b.antik for b in plain}:
            assert (
                sorted(b.coords for b in scrambled if b.antik == deg)
                == [b.coords for b in plain if b.antik == deg]
            )


def test_eval_independent_of_enumeration_order():
    spec = make_surface("P2", 2, 2)
    reference = Evaluator(spec)
    want = {t: reference.eval(key_of(spec, t)) for t in ("-K", "-2K")}
    for seed in (1, 2, 3):
        shuffled = _ShuffledEvaluator(spec, seed)
        for text, value in want.items():
            assert shuffled.eval(key_of(spec, text)) == value
    spec_f = make_surface("B1", twist="F")
    want_f = Evaluator(spec_f).eval(key_of(spec_f, "-2K"))
    shuffled = _ShuffledEvaluator(spec_f, 7)
    assert shuffled.eval(key_of(spec_f, "-2K")) == want_f


def _relabellings(spec, coords, move_e=False):
    """Every image of a class's coordinates under the relabellings that fix
    E = L - E1 - E2, written out one permutation at a time: E1 <-> E2 when
    both are real, any permutation of the real E_i with i >= 3, and of the
    conjugate pairs (E_i, E_i+1) with i >= 3, blown-down slots left alone.
    With move_e, E1 and E2 move too: any permutation of all the real E_i
    and of all the conjugate pairs, (E1, E2) included, blown-down slots
    still left alone.  The cubic has none."""
    if spec.lattice.model == "cubic":
        return {coords}
    first = 1 if move_e else 3
    free = [i for i in range(first, 7) if i not in spec.blown_down]
    reals = [i for i in free if i <= spec.n_real]
    pairs = [(i, i + 1) for i in free if i > spec.n_real and (i - spec.n_real) % 2]
    heads = [(1, 2), (2, 1)] if spec.n_real >= 2 and not move_e else [(1, 2)]
    images = set()
    for head in heads:
        for real_perm in itertools.permutations(reals):
            for pair_perm in itertools.permutations(pairs):
                out = list(coords)
                out[1], out[2] = coords[head[0]], coords[head[1]]
                for i, j in zip(reals, real_perm):
                    out[i] = coords[j]
                for (i, i2), (j, j2) in zip(pairs, pair_perm):
                    out[i], out[i2] = coords[j], coords[j2]
                images.add(tuple(out))
    return images


def _orbit_representative(spec, coords):
    """The least member of the relabelling orbit, in tuple order."""
    return min(_relabellings(spec, coords))


def _pack(v):
    """The packed form the factor search compares, written out from its
    layout: count c of odd order k in the byte (k - 1) / 2."""
    return sum(c << 8 * (k // 2) for k, c in v)


def _per_class_options(spec, cls, rigid_lines_only):
    """Reference for Evaluator._picks: the per-class loop it replaced,
    recomputing the odd partitions, r_dim_class, the real-line rule and the
    gammas for this one class, as (option, its gamma rows) in canonical
    order; the memo key holds the class's orbit representative, and the
    packed fields come from _pack."""
    e_deg = spec.e_degree(cls)
    real_line = cls in spec.lattice.lines and cls != spec.e_class
    rep = _orbit_representative(spec, cls.coords)
    opts = []
    for ia in range(e_deg):
        for av in odd_partitions(ia):
            for bv in odd_partitions(e_deg - ia):
                n_i = spec.r_dim_class(cls, norm(bv))
                if n_i < 0:
                    continue
                if rigid_lines_only and n_i == 0 and not (
                    real_line and not av and bv == theta(1)
                ):
                    continue
                gammas = [
                    (theta(j), _pack(bv - theta(j)), iweight(bv) - j, bv[j])
                    for j in bv.support()
                ]
                opt = engine._Option(
                    cls, av, _pack(av), bv, n_i, memo_key=(rep, av.key(), bv.key())
                )
                opts.append((opt, gammas))
    opts.sort(key=lambda o: (o[0].alpha.key(), o[0].beta.key()))
    return opts


def _by_option(picks):
    """A block's picks regrouped per option: (option, its picks), in pick
    order."""
    return [
        (opt, list(group))
        for opt, group in itertools.groupby(picks, key=lambda pick: pick[0])
    ]


@pytest.mark.parametrize(
    "model, a, b, twist",
    [
        ("P2", 6, 0, "0"), ("P2", 4, 1, "0"), ("P2", 2, 2, "0"), ("P2", 0, 3, "0"),
        ("B1", 0, 0, "0"), ("B1", 0, 0, "F"), ("B", 0, 0, "F"),
    ],
)
def test_options_match_per_class_loop(model, a, b, twist):
    spec = make_surface(model, a, b, twist=twist)
    ev = Evaluator(spec)
    classes = candidate_factors(
        spec.lattice, spec.conj_perm, spec.e_class, 7,
        blocked=spec.candidate_blocked(),
    )
    for cls in classes:
        for rigid_lines_only in (False, True):
            want = _per_class_options(spec, cls, rigid_lines_only)
            picks = ev._picks(
                cls, spec.e_degree(cls), spec.antik_degree(cls), rigid_lines_only
            )
            got = [
                (opt, [row for _, row, _ in group]) for opt, group in _by_option(picks)
            ]
            assert got == want, (cls, rigid_lines_only)


def _splittable(spec, t):
    """Necessary conditions for the raw coordinates t to be a sum of
    candidate factors, written out apart from the engine: on the cubic every
    candidate has non-negative coordinates; on rank 7 a candidate has
    degree >= 0 and E_i coefficients <= 0, except the exceptional curves
    E_1 and E_2 themselves, each at most once."""
    if spec.lattice.model == "cubic":
        return min(t) >= 0
    return t[0] >= 0 and t[1] <= 1 and t[2] <= 1 and max(t[3:]) <= 0


class _LinearScanEvaluator(Evaluator):
    """Evaluator with a split sum and a factor search of its own.

    Its split sum walks every (alpha0, beta0, l, pair subset) and hands its
    search every target T = D - E + c (K + E) - P, c = 2l + I(alpha0) +
    I(beta0), P the subset's class sum, until E.(D - E + c (K + E)) < 0:
    the targets Evaluator._split_terms refuses at admission included.  The
    search keeps its own root test (_splittable, both degrees >= 1 and the
    beta balance I(beta target) <= E.T - 1 unless T = 0), takes the
    target's degrees from the lattice, subtracts every block from the
    remainder and then tests the difference with _splittable: the scan the
    inline fit test of the engine's search replaced.  It searches every
    candidate of the whole cone up to the budget, not only the blocks the
    table holds for the c = 0 target, so it also checks that no complete
    collection uses a block the target leaves out.  It regroups each
    block's picks by option and walks the options and their gammas in
    loops of its own, with the rule the picks' restart indices replaced: a
    collection restarts at its last (option, gamma), and a rigid option
    (n_i = 0, alpha = 0) is taken at most once; it emits the block's own
    pick objects.  Its alpha budget and beta target are TangencyVector
    objects, never the packed forms the engine's search takes.  It keeps
    no search memo: every search of every state runs afresh, so a search
    key that left out a field the collections depend on would show as a
    difference.  It yields a term per collection whether or not records
    are asked for, so its eval sums the terms the engine folds into one
    weight per search."""

    def __init__(self, spec):
        super().__init__(spec)
        # id(block) -> (block, its options and their picks); holding the
        # block keeps its id from being reused
        self._grouped = {}

    def _options_of(self, blk):
        entry = self._grouped.get(id(blk))
        if entry is None:
            entry = self._grouped[id(blk)] = (blk, _by_option(blk.picks))
        return entry[1]

    def _split_terms(self, route, d, alpha, beta, n, records=False):
        spec = self.spec
        t_base, ke = d - spec.e_class, spec.k_plus_e()
        budget = spec.antik_degree(d) - 1
        blocks = ()
        if budget >= 1:
            blocks = tuple(
                b for b in self._table(route, budget, None)[0] if b.antik <= budget
            )
        for alpha0 in enumerate_le(alpha):
            for beta0 in enumerate_le(beta):
                nb0 = norm(beta0)
                if nb0 > n - 1:
                    continue
                l = 0
                while l <= route.l_max:
                    t = t_base + ke * (2 * l + iweight(alpha0) + iweight(beta0))
                    if spec.e_degree(t) < 0:
                        break
                    for pair_ids, p_coords, _, _, p_weight in route.pair_subsets:
                        for chosen in self._search(
                            route, (t - DivisorClass(p_coords)).coords,
                            alpha - alpha0, beta - beta0, n - 1 - nb0, blocks,
                        ):
                            yield self._term(
                                route, d, alpha, beta, l, alpha0, beta0, chosen,
                                pair_ids, p_weight,
                            )
                    l += 1

    def _term(self, route, d, alpha, beta, l, alpha0, beta0, chosen, pair_ids,
              p_weight):
        """The split summand of one collection, its coefficient recomputed in
        Fractions from the collection and the state alone
        (_coefficient_from_record), never by the engine's code."""
        factors = tuple(
            FactorRecord(
                opt.cls, opt.alpha, opt.beta, row[0], opt.n_i,
                self._value(route, opt.cls, opt.alpha, opt.beta),
            )
            for opt, row, _ in chosen
        )
        record = TermRecord("split", None, l, alpha0, beta0, factors, pair_ids, 0, 0)
        coeff, _ = _coefficient_from_record(self.spec, d, alpha, beta, record)
        assert coeff.denominator == 1, (d, alpha, beta, record)
        coeff = coeff.numerator
        contribution = coeff * p_weight * math.prod(f.value for f in factors)
        return ("split", None, l, alpha0, beta0, chosen, pair_ids, coeff, contribution)

    def _search(self, route, t0, alpha_budget, bm_target, ns_target, blocks):
        spec = self.spec
        if not _splittable(spec, t0):
            return
        t_class = DivisorClass(t0)
        te0 = spec.e_degree(t_class)
        ak0 = spec.antik_degree(t_class)
        zero_t = self._zero_coords
        feasible = functools.partial(_splittable, spec)
        n_blocks = len(blocks)

        def dfs(b0, o0, g0, repick, t_rem, te_rem, ak_rem, a_rem, bm_rem,
                ibm_rem, ns_rem, acc):
            if t_rem == zero_t:
                if not bm_rem and ns_rem == 0:
                    yield tuple(acc)
                return
            if te_rem < 1 or ak_rem < 1 or ibm_rem > te_rem - 1:
                return
            if not feasible(t_rem):
                return
            for bi in range(b0, n_blocks):
                blk = blocks[bi]
                new_ak = ak_rem - blk.antik
                if new_ak < 0:
                    break
                new_te = te_rem - blk.e_deg
                if new_te < 0:
                    continue
                new_t = tuple(x - y for x, y in zip(t_rem, blk.coords))
                if new_t != zero_t and (
                    new_te < 1 or new_ak < 1 or not feasible(new_t)
                ):
                    continue
                opts = self._options_of(blk)
                o_begin = o0 if bi == b0 else 0
                for oi in range(o_begin, len(opts)):
                    opt, picks = opts[oi]
                    same = repick and bi == b0 and oi == o0
                    if opt.n_i > ns_rem:
                        continue
                    if opt.n_i == 0 and not opt.alpha and same:
                        continue
                    if opt.alpha and not opt.alpha <= a_rem:
                        continue
                    value = self._value(route, opt.cls, opt.alpha, opt.beta)
                    if value == 0:
                        continue
                    new_a = a_rem - opt.alpha
                    g_begin = g0 if same else 0
                    for g_idx in range(g_begin, len(picks)):
                        gamma, _, ibm_d, _ = picks[g_idx][1]
                        beta_minus = opt.beta - gamma
                        if ibm_d > ibm_rem or not beta_minus <= bm_rem:
                            continue
                        acc.append(picks[g_idx])
                        yield from dfs(
                            bi, oi, g_idx, True, new_t, new_te, new_ak, new_a,
                            bm_rem - beta_minus, ibm_rem - ibm_d,
                            ns_rem - opt.n_i, acc,
                        )
                        acc.pop()

        yield from dfs(
            0, 0, 0, False, t0, te0, ak0, alpha_budget, bm_target,
            iweight(bm_target), ns_target, [],
        )


# surface -> -K degree bound of the drawn classes
_SEARCH_SURFACES = {("P2", 6, 0, "0"): 5, ("P2", 2, 2, "0"): 6, ("B1", 0, 0, "F"): 10}
_search_pairs = {}


def _search_pair(surface):
    """A fast and a linear-scan evaluator of one surface and the classes
    drawn on it, built once and kept warm across examples."""
    if surface not in _search_pairs:
        model, a, b, twist = surface
        spec = make_surface(model, a, b, twist=twist)
        bound = _SEARCH_SURFACES[surface]
        classes = sorted(
            set(spec.nef_big_classes(bound)) | set(candidate_factors(
                spec.lattice, spec.conj_perm, spec.e_class, bound,
                blocked=spec.candidate_blocked(),
            ))
        )
        _search_pairs[surface] = (
            Evaluator(spec), _LinearScanEvaluator(spec), tuple(classes)
        )
    return _search_pairs[surface]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_factor_search_matches_linear_scan(data):
    # A split sum with records yields one term per factor collection, and
    # the term lists the collection's decorated factors (class, alpha,
    # beta, gamma): equal term lists mean equal collections, in the same
    # order.  Without records the engine folds each search into one
    # weight; its total must be the oracle's sum over the collections.
    surface = data.draw(st.sampled_from(sorted(_SEARCH_SURFACES)))
    fast, slow, classes = _search_pair(surface)
    spec = fast.spec
    d = data.draw(st.sampled_from(classes))
    de = spec.e_degree(d)
    ia = data.draw(st.integers(0, de))
    alpha = data.draw(st.sampled_from(odd_partitions(ia)))
    beta = data.draw(st.sampled_from(odd_partitions(de - ia)))
    n = spec.r_dim_class(d, norm(beta))
    assume(n >= 1 and spec.class_allowed(d))
    route = data.draw(st.sampled_from(("_full", "_reduced")))
    want = list(slow._split_terms(getattr(slow, route), d, alpha, beta, n))
    got = list(fast._split_terms(getattr(fast, route), d, alpha, beta, n, True))
    assert got == want
    folded = fast._split_terms(getattr(fast, route), d, alpha, beta, n)
    assert sum(s[-1] for s in folded) == sum(s[-1] for s in want)


def _draw_key(data, spec, classes):
    d = data.draw(st.sampled_from(classes))
    de = spec.e_degree(d)
    ia = data.draw(st.integers(0, de))
    alpha = data.draw(st.sampled_from(odd_partitions(ia)))
    beta = data.draw(st.sampled_from(odd_partitions(de - ia)))
    assume(spec.class_allowed(d))
    return make_key(spec, d, alpha, beta)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_shared_searches_trace_like_fresh_ones(data):
    # An evaluator warmed on random keys serves a further key's searches
    # from its search memo wherever an earlier state made them; its trace
    # must be the one a fresh evaluator and the unshared oracle print.
    surface = data.draw(st.sampled_from(sorted(_SEARCH_SURFACES)))
    _, oracle, classes = _search_pair(surface)
    spec = oracle.spec
    key = _draw_key(data, spec, classes)
    warm = Evaluator(spec)
    for _ in range(data.draw(st.integers(1, 3))):
        warm.eval(_draw_key(data, spec, classes))
    if data.draw(st.booleans()):
        # expand searches the key's split sum afresh and leaves the search
        # memo as it was; once the key has been expanded, its children's
        # values are in the memo, so a second expand adds no entry.  (An
        # eval would not do: it may read the key's value from its orbit
        # representative without evaluating the key's children.)
        warm.expand(key)
        searches = dict(warm._full.searches)
        got = warm.expand(key)
        assert warm._full.searches == searches
    else:
        got = warm.expand(key)
    want = [r.to_dict(spec) for r in Evaluator(spec).expand(key)]
    assert [r.to_dict(spec) for r in got] == want
    assert [r.to_dict(spec) for r in oracle.expand(key)] == want
    assert not oracle._full.searches  # the oracle searches afresh


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eval_is_the_sum_of_the_expanded_terms(data):
    # eval folds each search into one weight; expand searches afresh and
    # lists a term per collection.  Fresh and warm evaluators alike, and on
    # the cubic's reduced route, which expand does not reach, the split
    # sum's folded and per-collection totals.
    surface = data.draw(st.sampled_from(sorted(_SEARCH_SURFACES)))
    warm, _, classes = _search_pair(surface)
    spec = warm.spec
    key = _draw_key(data, spec, classes)
    for ev in (Evaluator(spec), warm):
        assert ev.eval(key) == sum(r.contribution for r in ev.expand(key))
    n = spec.r_dim_class(key.d, norm(key.beta))
    if spec.lattice.model == "cubic" and n >= 1:
        for ev in (Evaluator(spec), warm):
            args = (ev._reduced, key.d, key.alpha, key.beta, n)
            folded = sum(s[-1] for s in ev._split_terms(*args))
            assert folded == sum(s[-1] for s in ev._split_terms(*args, True))


def test_warm_evaluator_matches_oracle_on_every_cubic_key():
    # One evaluator takes every key of every class of the twisted cubic up
    # to -K.D 11 in class order, on both routes, so that later keys read
    # searches that earlier ones made; the oracle searches each afresh.
    # Collisions are rare: a search memo keyed without its beta target
    # reads back wrong weights for 18 of these 848 keys, and for 3 of them
    # when each is evaluated alone, on a fresh evaluator.
    spec = make_surface("B1", twist="F")
    classes = sorted(
        set(spec.nef_big_classes(11)) | set(candidate_factors(
            spec.lattice, spec.conj_perm, spec.e_class, 11,
            blocked=spec.candidate_blocked(),
        ))
    )
    warm, oracle = Evaluator(spec), _LinearScanEvaluator(spec)
    keys = [
        make_key(spec, d, alpha, beta)
        for d in classes
        for ia in range(spec.e_degree(d) + 1)
        for alpha in odd_partitions(ia)
        for beta in odd_partitions(spec.e_degree(d) - ia)
    ]
    assert len(keys) == 848
    for key in keys:
        assert warm.eval(key) == oracle.eval(key), key
        assert warm.eval_cubic_fast(key) == oracle.eval_cubic_fast(key), key


def test_engine_evaluates_the_oracles_states_on_the_cubic():
    # The search reads a factor's value before it tests the branch, so it
    # evaluates a state whenever the state's option fits the n and alpha
    # budgets and its block is in the node's fit list; the live-pick memo
    # reads those values in another order.  The oracle reads each value
    # where it tests the option, also in blocks after which no later block
    # finishes the remainder, which the engine's fit lists leave out.  So
    # on the cubic the engine reads a subset of the oracle's states, with
    # equal values.  (Rank 7 is left out: there the oracle searches the
    # whole cone without the conic cut, so it reads more still.)
    spec = make_surface("B1", twist="F")
    for text, states in (("-3K", 105), ("-4K", 342)):
        key = key_of(spec, text)
        fast, oracle = Evaluator(spec), _LinearScanEvaluator(spec)
        for ev in (fast, oracle):
            assert ev.eval(key) == ev.eval_cubic_fast(key)
        for route in ("_full", "_reduced"):
            got, want = getattr(fast, route).memo, getattr(oracle, route).memo
            assert set(got) <= set(want), (text, route)
            assert all(got[k] == want[k] for k in got), (text, route)
            assert len(got) == states


@pytest.mark.parametrize(
    "surface, text, states, value",
    [(("P2", 6, 0, "0"), "-3K", 355, 1766080),
     (("B1", 0, 0, "F"), "-5K", 936, 435194068992)],
    ids=["P2-6-0-3K", "B1-F-5K"],
)
def test_cold_state_counts_and_values(surface, text, states, value):
    # A cold evaluation evaluates exactly the states whose values its
    # searches read: a change in which factor values the search reads moves
    # the count even where the value stays.
    model, a, b, twist = surface
    spec = make_surface(model, a, b, twist=twist)
    ev = Evaluator(spec)
    assert ev.eval(top_key(spec, spec.parse_class(text))) == value
    assert ev.cache_stats()["entries"] == states


_CONICS = [-P2_LATTICE.canonical - line for line in P2_LATTICE.lines]


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(-2, 8), *[st.integers(-6, 2)] * 6))
def test_root_cut_is_the_fit_and_the_27_conics(t):
    # The root test of the rank-7 factor search keeps a target exactly when
    # it fits (_splittable) and meets every conic -K - l non-negatively.
    spec = make_surface("P2", 6, 0)
    want = _splittable(spec, t) and all(
        P2_LATTICE.intersect(DivisorClass(t), c) >= 0 for c in _CONICS
    )
    assert feasible(spec.lattice, t) == want


def _fitting_blocks(spec, blocks, r):
    """The (index, r - b) of the blocks b a search node with the nonzero
    remainder r may descend into, by a plain filter of the table: -K.b <=
    -K.r and E.b <= E.r, then r - b = 0 where either degree of r - b is 0,
    and otherwise r - b feasible and a sum of blocks from b's index on
    (_last_start)."""
    memo = _last_starts.setdefault(tuple(b.coords for b in blocks), {})
    rem = DivisorClass(r)
    kept = []
    for i, b in enumerate(blocks):
        if b.antik > spec.antik_degree(rem) or b.e_deg > spec.e_degree(rem):
            continue
        diff = rem - DivisorClass(b.coords)
        if spec.antik_degree(diff) == 0 or spec.e_degree(diff) == 0:
            if any(diff.coords):
                continue
        elif not feasible(spec.lattice, diff.coords):
            continue
        elif _last_start(spec, blocks, diff, memo) < i:
            continue
        kept.append((i, diff.coords))
    return kept


# the block coordinates of a table -> {class coords: _last_start of it}
_last_starts = {}


def _last_start(spec, blocks, r, memo):
    """The largest index j with r - b_j zero or a sum of blocks of index >=
    j, -1 if there is none: r is a sum of blocks from index i on exactly
    when this is >= i.  A plain recursive decomposition over the table,
    apart from the engine's fit memo.  Every block has both degrees >= 1,
    so a nonzero sum of blocks does too, and each step takes at least 1
    off -K.r: the recursion ends.  A nonzero sum of blocks also passes
    _splittable, which cuts the branches that leave the cone."""
    got = memo.get(r.coords)
    if got is None:
        got = -1
        ak, te = spec.antik_degree(r), spec.e_degree(r)
        for j in reversed(range(len(blocks))):
            if blocks[j].antik > ak or blocks[j].e_deg > te:
                continue
            rest = r - DivisorClass(blocks[j].coords)
            if not any(rest.coords) or (
                spec.antik_degree(rest) >= 1 and spec.e_degree(rest) >= 1
                and _splittable(spec, rest.coords)
                and _last_start(spec, blocks, rest, memo) >= j
            ):
                got = j
                break
        memo[r.coords] = got
    return got


def _check_fit(spec, route, blocks, r, fit):
    """A fit memo entry, block indices then remainders, is the plain
    filter of its table, its remainders interned through the route."""
    half = len(fit) // 2
    assert list(zip(fit[:half], fit[half:])) == _fitting_blocks(spec, blocks, r), r
    assert all(route.targets[k] is k for k in fit[half:])


def _check_fit_memo(spec, route):
    """Every entry of the route's fit memo matches the table it is stored
    with."""
    _, _, blocks, fits = route.table
    for r, fit in fits.items():
        _check_fit(spec, route, blocks, r, fit)


# surface -> the -K degree bound of its whole-cone tables and drawn classes
_FIT_SURFACES = {("P2", 6, 0, "0"): 6, ("P2", 4, 1, "0"): 7, ("B1", 0, 0, "F"): 10}
_fit_evaluators = {}


def _fit_evaluator(surface):
    """An evaluator of one surface with whole-cone tables on both routes,
    and the nef-big classes its tables cover, built once."""
    if surface not in _fit_evaluators:
        model, a, b, twist = surface
        spec = make_surface(model, a, b, twist=twist)
        bound = _FIT_SURFACES[surface]
        ev = Evaluator(spec)
        for route in (ev._full, ev._reduced):
            ev._table(route, bound, None)
        _fit_evaluators[surface] = (ev, sorted(spec.nef_big_classes(bound + 1)))
    return _fit_evaluators[surface]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fit_memo_matches_plain_filter(data):
    # A remainder is an admitted nonzero target T = D - E + c (K + E) - P of
    # a drawn class, less a few blocks that fit along the way; the memo's
    # list for it must be the plain filter of the whole table.
    surface = data.draw(st.sampled_from(sorted(_FIT_SURFACES)))
    ev, classes = _fit_evaluator(surface)
    spec = ev.spec
    route = ev._full
    if spec.lattice.model == "cubic" and data.draw(st.booleans()):
        route = ev._reduced
    blocks = route.table[2]
    d = data.draw(st.sampled_from(classes))
    c = data.draw(st.integers(0, (spec.e_degree(d) + 1) // 2))
    p_coords = data.draw(st.sampled_from(route.pair_subsets))[1]
    r = d - spec.e_class + spec.k_plus_e() * c - DivisorClass(p_coords)
    assume(spec.e_degree(r) >= 1 and spec.antik_degree(r) >= 1)
    assume(feasible(spec.lattice, r.coords))
    r = r.coords
    for _ in range(data.draw(st.integers(0, 3))):
        kids = [k for _, k in _fitting_blocks(spec, blocks, r) if any(k)]
        if not kids:
            break
        r = data.draw(st.sampled_from(kids))
    # built from an empty fit memo, with the entries of its remainders
    rem, fits = DivisorClass(r), {}
    fit = ev._fitting(
        route, blocks, fits, r, spec.e_degree(rem), spec.antik_degree(rem)
    )
    assert fits[r] is fit
    for k, entry in fits.items():
        _check_fit(spec, route, blocks, k, entry)


def test_fit_memo_belongs_to_its_table():
    # Each table, target or whole cone, has a fit memo of its own: after
    # every key, and so across the switch from -2K's target table to the
    # whole cone, each entry is the plain filter of the blocks it is stored
    # with.
    spec = make_surface("P2", 4, 1)
    ev = Evaluator(spec)
    memos = []
    for text in ("-2K", "3;0,0,3,0,0,0", "-K"):
        welschinger(spec, spec.parse_class(text), ev)
        _check_fit_memo(spec, ev._full)
        memos.append(ev._full.table[3])
    assert memos[0] and memos[1] is not memos[0] and memos[2] is memos[1]
    spec_f = make_surface("B1", twist="F")
    ev_f = Evaluator(spec_f)
    for text in ("-2K", "-3K"):
        key = key_of(spec_f, text)
        ev_f.eval(key)
        ev_f.eval_cubic_fast(key)
        for route in (ev_f._full, ev_f._reduced):
            assert route.table[3]
            _check_fit_memo(spec_f, route)


def _live_indices(blk, n, a, memo):
    """The indices of the picks of blk a search node with n budget n and
    packed alpha budget a may take, by a plain filter of the block: n_i <=
    n, alpha_i <= the budget order by order (_pack's layout), and a nonzero
    value, which the memo must hold."""
    return [
        i for i, (opt, _, _) in enumerate(blk.picks)
        if opt.n_i <= n
        and all(c <= a >> 8 * (k // 2) & 0xFF for k, c in opt.alpha)
        and memo[opt.memo_key]
    ]


def _check_live_memo(route):
    """Every live-pick entry of every block of the route's table matches
    the plain filter, and the number of entries checked."""
    checked = 0
    for blk in route.table[2]:
        for key, entry in blk.live.items():
            # n is clamped to n_max; a block keyed by n alone reads no alpha
            a, n = divmod(key, blk.a_step) if blk.a_step else (0, key)
            assert n >= blk.n_min
            want = tuple(_live_indices(blk, n, a, route.memo))
            assert entry == want, (blk.coords, n, a)
            checked += 1
    return checked


def test_live_memo_matches_plain_filter():
    # Each block's live entries, built along the searches of a few warm
    # keys, against a plain filter of the block's picks under the memo the
    # entries were built from.
    for model, a, b, twist in sorted(_FIT_SURFACES):
        spec = make_surface(model, a, b, twist=twist)
        ev = Evaluator(spec)
        texts = ("-K", "-2K", "-3K") if model == "B1" else ("-K", "-2K")
        for text in texts:
            key = key_of(spec, text)
            ev.eval(key)
            if model == "B1":
                ev.eval_cubic_fast(key)
        assert _check_live_memo(ev._full) > 0
        # one-pick blocks go through the memo like every other block
        assert any(len(b.picks) == 1 and b.live for b in ev._full.table[2])
        if model == "B1":
            assert _check_live_memo(ev._reduced) > 0


def test_live_memo_keyed_by_n_alone_where_no_pick_fixes_a_tangency():
    # A block none of whose picks has alpha_i != 0, as every block of
    # E-degree 1, keys its live picks by the n budget alone.  Each such entry
    # must be the one the (n, alpha)-keyed build gives under every alpha
    # budget the cold searches used.
    checked = collections.Counter()
    for (model, a, b, twist), texts in (
        (("P2", 2, 2, "0"), ("-2K", "3;1,1,1,1,1,1")),
        (("P2", 4, 1, "0"), ("-2K", "4;2,1,1,1,1,1")),
        (("P2", 6, 0, "0"), ("-2K",)),
        (("B1", 0, 0, "F"), ("-3K", "4,3,2")),
    ):
        spec = make_surface(model, a, b, twist=twist)
        for text in texts:
            ev = Evaluator(spec)
            ev.eval(key_of(spec, text))
            route = ev._full
            blocks = route.table[2]
            budgets = {0}
            for blk in blocks:
                assert blk.a_step == (
                    blk.n_max + 1 if any(opt.palpha for opt, _, _ in blk.picks) else 0
                )
                if blk.e_deg == 1:
                    assert blk.a_step == 0
                if blk.a_step:
                    budgets.update(key // blk.a_step for key in blk.live)
            checked["alpha budgets"] += len(budgets) - 1
            for blk in blocks:
                if blk.a_step:
                    continue
                for n, entry in blk.live.items():
                    assert n <= blk.n_max
                    for budget in budgets:
                        assert ev._live_picks(route, blk, n, budget) == entry
                    checked["entries"] += 1
            assert _check_live_memo(route)
    assert checked["alpha budgets"] and checked["entries"], checked


def test_split_lists_are_one_process_table():
    # The alpha0 and beta0 lists of a tangency vector depend on the vector
    # alone: one tuple per vector for the whole process, whichever evaluator
    # or equal vector asks, and the basis vectors are one object per order.
    rng = random.Random(30)
    for _ in range(60):
        v = rng.choice(odd_partitions(rng.randint(0, 9)))
        want = tuple(
            (v0, norm(v0), iweight(v0), _pack(v) - _pack(v0))
            for v0 in enumerate_le(v)
        )
        got = engine._split_list(v)
        assert got == want
        assert engine._split_list(TangencyVector(dict(v.key()))) is got
    assert theta(3) is theta(3) and theta(1, 2) is theta(1, 2)


def test_evaluators_of_one_spec_share_no_memo():
    # Two evaluators of one spec read the spec's constants, and share nothing
    # that depends on a value: memos, tables, fit memos, live-pick entries,
    # search memos and split targets.
    for (model, a, b, twist), text in (
        (("P2", 4, 1, "0"), "-2K"), (("B1", 0, 0, "F"), "-3K"),
    ):
        spec = make_surface(model, a, b, twist=twist)
        one, two = Evaluator(spec), Evaluator(spec)
        key = key_of(spec, text)
        for ev in (one, two):
            ev.eval(key)
            if model == "B1":
                ev.eval_cubic_fast(key)
        assert one._full.pair_subsets is two._full.pair_subsets is spec.pair_subsets
        assert one._canon is two._canon is spec.state_map
        assert one._live_entries is not two._live_entries
        routes = [(one._full, two._full)]
        if model == "B1":
            routes.append((one._reduced, two._reduced))
        for mine, theirs in routes:
            assert mine.memo and mine.memo == theirs.memo
            for name in ("memo", "searches", "targets", "split_targets"):
                assert getattr(mine, name) is not getattr(theirs, name)
            assert mine.table is not theirs.table
            assert mine.table[3] is not theirs.table[3]
            ids = {id(blk) for blk in mine.table[2]}
            assert ids.isdisjoint(id(blk) for blk in theirs.table[2])
            assert {id(blk.live) for blk in mine.table[2]}.isdisjoint(
                id(blk.live) for blk in theirs.table[2]
            )


def test_warm_search_reads_no_block_under_the_state_floors():
    # On the whole-cone table a block can fit a node's remainder, coordinates
    # and conics, yet miss the asking state's D - E on slot 1 or 2: after
    # E_1 is picked, the remainder's slack on slot 1 adds to it.  No run of
    # blocks from such a block on finishes what it leaves, so the fit list
    # leaves it out and the search reads no value for it: the floors follow
    # from completability (the proof is at Evaluator._collections).  -K,
    # -2K and -3K on one evaluator evaluate 196 states in 347 searches.
    spec = make_surface("P2", 2, 2)
    ev = Evaluator(spec)
    got = [welschinger(spec, spec.parse_class(t), ev) for t in ("-K", "-2K", "-3K")]
    assert got == [4, 236, 154688]
    assert ev._full.table[1] is None
    assert len(ev._full.memo) == 196 and len(ev._full.searches) == 347


def test_search_keys_keep_the_beta_balance():
    # Evaluator._split_terms searches a nonzero target T only with the beta
    # balance I(beta target) <= E.T - 1.  A target with I(beta target) = E.T
    # has no complete collection, so no value shows the bound; the search
    # memo's keys do.
    for model, a, b, twist, texts in (
        ("P2", 2, 2, "0", ("-K", "-2K", "-3K")),
        ("B1", 0, 0, "F", ("-2K", "-3K", "-4K")),
    ):
        spec = make_surface(model, a, b, twist=twist)
        ev = Evaluator(spec)
        for text in texts:
            key = key_of(spec, text)
            ev.eval(key)
            if model == "B1":
                ev.eval_cubic_fast(key)
        keys = [key for route in (ev._full, ev._reduced) for key in route.searches]
        assert keys
        for t, _, bm in keys:
            # I(beta target), unpacked from _pack's layout
            ibm = sum((2 * f + 1) * (bm >> 8 * f & 0xFF) for f in range(32))
            te = spec.e_degree(DivisorClass(t))
            assert not any(t) or ibm <= te - 1, (model, t, te, ibm)


def _counted_candidates(monkeypatch):
    """Record the (budget, target) of every candidate_factors call the
    engine makes."""
    calls = []
    real = engine.candidate_factors

    def counted(lat, conj_perm, e_class, budget, **kwargs):
        calls.append((budget, kwargs.get("target")))
        return real(lat, conj_perm, e_class, budget, **kwargs)

    monkeypatch.setattr(engine, "candidate_factors", counted)
    return calls


def test_cold_eval_enumerates_candidates_once(monkeypatch):
    calls = _counted_candidates(monkeypatch)
    spec = make_surface("P2", 6, 0)
    assert welschinger(spec, spec.parse_class("-2K"), Evaluator(spec)) == 1000
    # The top key's -K.(D - E) and its c = 0 target D - E = 5L - E1 - E2 -
    # 2(E3 + ... + E6); every state below it is covered by that target.
    assert calls == [(5, (5, -1, -1, -2, -2, -2, -2))]


def _table_rows(blocks):
    return [
        (DivisorClass(b.coords), b.antik,
         [(o.alpha, o.beta, row[0], p) for o, row, p in b.picks])
        for b in blocks
    ]


def _target(spec, text):
    """The c = 0 target D - E of a class, on the coordinates."""
    return (spec.parse_class(text) - spec.e_class).coords


def _fits(spec, coords, t):
    """Whether a class can be a factor under the c = 0 target t, written
    out apart from the engine: t minus the class fits on the coordinates
    (rank 7 b_0 <= t_0, b_i >= t_i - 1 for i = 1, 2 and b_i >= t_i for
    i >= 3; rank 3 b_i <= t_i) and, on rank 7, meets each of the 27 conics
    -K - l non-negatively."""
    if spec.lattice.model == "cubic":
        return all(b <= x for b, x in zip(coords, t))
    rem = DivisorClass(t) - DivisorClass(coords)
    return (
        coords[0] <= t[0]
        and all(b >= x - 1 for b, x in zip(coords[1:3], t[1:3]))
        and all(b >= x for b, x in zip(coords[3:], t[3:]))
        and all(spec.lattice.intersect(rem, c) >= 0 for c in _CONICS)
    )


def test_grown_table_equals_direct_table():
    p2 = make_surface("P2", 4, 1)
    cases = (
        # a first target, one it covers (its difference is the line
        # L - E5 - E6), and one it does not: 3L - 3E3 leaves slot 3 of -K's
        (p2, _target(p2, "-K"), _target(p2, "2;1,1,1,1,0,0"),
         _target(p2, "3;0,0,3,0,0,0")),
        (make_surface("B1", twist="F"), (0, 2, 2), (0, 1, 1), (1, 1, 1)),
    )
    for spec, target, inside, outside in cases:
        for route in ("_full", "_reduced"):
            # whole-cone tables grow by their new degrees
            grown = Evaluator(spec)
            small = grown._table(getattr(grown, route), 3, None)[0]
            assert small and max(b.antik for b in small) <= 3
            big = grown._table(getattr(grown, route), 6, None)[0]
            assert big[: len(small)] == small  # growing only appends
            assert getattr(grown, route).table[:3] == (6, None, big)
            direct = Evaluator(spec)
            want = direct._table(getattr(direct, route), 6, None)[0]
            assert _table_rows(big) == _table_rows(want)
            # a smaller budget or any target reads the whole cone, unchanged
            assert grown._table(getattr(grown, route), 2, None)[0] is big
            assert grown._table(getattr(grown, route), 4, target)[0] is big
            # a first table holds its target's candidates; a target it does
            # not cover switches to the whole cone, reusing the blocks built
            targeted_ev = Evaluator(spec)
            targeted = targeted_ev._table(getattr(targeted_ev, route), 3, target)[0]
            assert getattr(targeted_ev, route).table[:3] == (3, target, targeted)
            assert 0 < len(targeted) < len(small)
            assert _table_rows(targeted) == _table_rows(
                [b for b in small if _fits(spec, b.coords, target)]
            )
            assert targeted_ev._table(getattr(targeted_ev, route), 2, inside)[0] is targeted
            whole = targeted_ev._table(getattr(targeted_ev, route), 2, outside)[0]
            assert getattr(targeted_ev, route).table[:3] == (3, None, whole)
            assert _table_rows(whole) == _table_rows(small)
            assert all(any(b is w for w in whole) for b in targeted)


def test_cold_table_holds_the_top_key_box(monkeypatch):
    calls = _counted_candidates(monkeypatch)
    spec = make_surface("P2", 6, 0)
    d = spec.parse_class("-3K")
    ev = Evaluator(spec)
    assert welschinger(spec, d, ev) == 1766080
    assert len(calls) == 1
    t = _target(spec, "-3K")
    direct = Evaluator(spec)
    whole = direct._table(direct._full, 8, None)[0]
    want = [b for b in whole if _fits(spec, b.coords, t)]
    assert ev._full.table[:2] == (8, t)
    assert _table_rows(ev._full.table[2]) == _table_rows(want)
    assert len(want) == 1027 and len(whole) == 11055


def test_warm_table_leaving_the_box_switches_to_whole_cone(monkeypatch):
    calls = _counted_candidates(monkeypatch)
    spec = make_surface("P2", 4, 1)
    # 3L - 3E3 has the budget of -2K, but its target has m_3 = 3 where
    # -2K's has 2
    texts = ("-2K", "3;0,0,3,0,0,0", "-K")
    ev = Evaluator(spec)
    got = []
    for text in texts:
        got.append(welschinger(spec, spec.parse_class(text), ev))
        if text == "-2K":
            first = ev._full.table[2]
            assert ev._full.table[:2] == (5, _target(spec, "-2K"))
    assert [target is None for _, target in calls] == [False, True]
    budget, target, blocks, _ = ev._full.table
    assert (budget, target) == (5, None)
    direct = Evaluator(spec)
    assert _table_rows(blocks) == _table_rows(direct._table(direct._full, 5, None)[0])
    assert all(any(b is w for w in blocks) for b in first)
    fresh = [welschinger(spec, spec.parse_class(text), Evaluator(spec)) for text in texts]
    assert got == fresh


def test_warm_table_covers_only_targets_in_its_cone():
    # A later key is covered by the first key's table only when the
    # difference of their c = 0 targets passes the coordinate fit with no
    # slack and meets every conic -K - l >= 0.  Each second key fails one
    # half of that, and a table that covered it anyway would miss blocks
    # its collections use and read the value in brackets.
    spec = make_surface("P2", 6, 0)
    cases = (
        # coordinates nest, 2L - E1 - E3 - E4 - E5 meets the difference -1: [0]
        ("5;2,1,2,1,3,2", "2;0,1,0,0,1,1", 1, False),
        # the difference is E2, inside the slack of slot 2 only: [7]
        ("3;0,0,1,1,1,1", "3;0,1,1,1,1,1", 8, True),
    )
    for first, second, want, slack_only in cases:
        w = DivisorClass(_target(spec, first)) - DivisorClass(_target(spec, second))
        nested = w.coords[0] >= 0 and max(w.coords[1:]) <= 0
        conic = min(spec.lattice.intersect(w, c) for c in _CONICS)
        assert (nested, conic >= 0) == ((False, True) if slack_only else (True, False))
        ev = Evaluator(spec)
        welschinger(spec, spec.parse_class(first), ev)
        assert ev._full.table[1] == _target(spec, first)
        assert welschinger(spec, spec.parse_class(second), ev) == want
        assert ev._full.table[1] is None  # switched to the whole cone
        assert welschinger(spec, spec.parse_class(second), Evaluator(spec)) == want


# The surfaces the target tables are checked on: name -> (model, a, b,
# twist, blow-down, E, the -K degree bound of the drawn keys, seed).
_TARGET_SPECS = {
    "P2[6,0]": ("P2", 6, 0, "0", (), None, 6, 1),
    "P2[4,1]": ("P2", 4, 1, "0", (), None, 7, 2),
    "P2[2,2]": ("P2", 2, 2, "0", (), None, 7, 3),
    "P2[0,3]": ("P2", 0, 3, "0", (), None, 8, 4),
    "P2[6,0] --blowdown 5,6": ("P2", 6, 0, "0", (5, 6), None, 6, 5),
    "B1 --twist F --E 0,1,0": ("B1", 0, 0, "F", (), "0,1,0", 10, 6),
}


def _target_spec(name):
    model, a, b, twist, blowdown, e_choice, bound, seed = _TARGET_SPECS[name]
    spec = make_surface(model, a, b, twist=twist, blowdown=blowdown, e_choice=e_choice)
    return spec, bound, seed


def _drawn_keys(spec, bound, seed, count=8):
    """Seeded keys of -K degree <= bound: nef-big classes with their top
    tangencies, then internal keys, candidate classes with drawn alpha and
    beta."""
    rng = random.Random(seed)
    tops = sorted(spec.nef_big_classes(bound))
    keys = [top_key(spec, d) for d in rng.sample(tops, min(count, len(tops)))]
    inner = candidate_factors(
        spec.lattice, spec.conj_perm, spec.e_class, bound,
        blocked=spec.candidate_blocked(),
    )
    while len(keys) < 2 * count:
        d = rng.choice(inner)
        de = spec.e_degree(d)
        ia = rng.randint(0, de)
        alpha = rng.choice(odd_partitions(ia))
        beta = rng.choice(odd_partitions(de - ia))
        if spec.r_dim_class(d, norm(beta)) >= 1:
            keys.append(make_key(spec, d, alpha, beta))
    return keys


@pytest.mark.parametrize("canonicalize", [True, False])
@pytest.mark.parametrize("name", sorted(_TARGET_SPECS))
def test_target_tables_match_whole_cone_tables(name, canonicalize):
    # A fresh evaluator builds each key's own target table; the reference
    # evaluator's tables are forced to the whole cone before its first key.
    spec, bound, seed = _target_spec(name)
    routes = ["_full"]
    if spec.lattice.model == "cubic" and spec.twist == "F":
        routes.append("_reduced")
    whole = Evaluator(spec, canonicalize=canonicalize)
    for route in routes:
        whole._table(getattr(whole, route), bound, None)
    targeted = 0
    for key in _drawn_keys(spec, bound, seed):
        for route in routes:
            fresh = Evaluator(spec, canonicalize=canonicalize)
            got = fresh._value(getattr(fresh, route), key.d, key.alpha, key.beta)
            want = whole._value(getattr(whole, route), key.d, key.alpha, key.beta)
            assert got == want, (key, route)
            budget, target, _, _ = getattr(fresh, route).table
            if budget:
                assert (budget, target) == (
                    spec.antik_degree(key.d) - 1, (key.d - spec.e_class).coords
                )
                targeted += 1
    assert targeted >= 5
    for route in routes:
        assert getattr(whole, route).table[:2] == (bound, None)


@pytest.mark.parametrize("name", sorted(_TARGET_SPECS))
def test_facts_behind_the_target_tables(name):
    # A block b of a key with c = 0 target t can appear in a complete
    # collection only if t - b is feasible, since every candidate and pair
    # sum meets each conic -K - l >= 0 and (K + E) meets it <= 0 (rank 3:
    # candidates and pair sums are >= 0, K + E <= 0); a table stays valid
    # for the states below its key since E meets each conic >= 0 (E >= 0).
    spec, bound, seed = _target_spec(name)
    lat, blocked = spec.lattice, spec.candidate_blocked()
    cands = candidate_factors(lat, spec.conj_perm, spec.e_class, bound, blocked=blocked)
    pair_sums = [DivisorClass(p[1]) for p in Evaluator(spec)._full.pair_subsets]
    ke = spec.k_plus_e()
    if lat.model == "cubic":
        assert max(ke.coords) <= 0 and min(spec.e_class.coords) >= 0
        assert all(min(d.coords) >= 0 for d in cands + tuple(pair_sums))
    else:
        conics = [-lat.canonical - line for line in lat.lines]
        assert len(set(conics)) == 27
        for c in conics:
            assert lat.intersect(ke, c) <= 0
            assert lat.intersect(spec.e_class, c) >= 0
            assert all(lat.intersect(d, c) >= 0 for d in cands + tuple(pair_sums))
        assert all(m in lat.lines for item in spec.pair_menu for m in item.members)
    for key in _drawn_keys(spec, bound, seed):
        budget = spec.antik_degree(key.d) - 1
        if budget < 1:
            continue
        t = (key.d - spec.e_class).coords
        plain = candidate_factors(lat, spec.conj_perm, spec.e_class, budget, blocked)
        want = tuple(d for d in plain if _fits(spec, d.coords, t))
        assert candidate_factors(
            lat, spec.conj_perm, spec.e_class, budget, blocked, target=t
        ) == want


def test_values_independent_of_table_growth_order():
    spec = make_surface("P2", 4, 1)
    classes = sorted(spec.nef_big_classes(5), key=spec.antik_degree)
    ascending = Evaluator(spec)
    up = {d: welschinger(spec, d, ascending) for d in classes}
    descending = Evaluator(spec)
    down = {d: welschinger(spec, d, descending) for d in reversed(classes)}
    fresh = {d: welschinger(spec, d, Evaluator(spec)) for d in classes}
    assert up == down == fresh
    # both end with the whole-cone table, whichever key came first
    assert ascending._full.table[:2] == descending._full.table[:2] == (4, None)
    assert _table_rows(ascending._full.table[2]) == _table_rows(
        descending._full.table[2]
    )


@pytest.mark.parametrize("model, a, b, twist, bound", [
    ("B1", 0, 0, "F", 9), ("P2", 2, 2, "0", 7), ("P2", 4, 1, "0", 7),
])
def test_split_memos_do_not_depend_on_evaluation_order(
    monkeypatch, model, a, b, twist, bound
):
    # The split targets (per route and class) and the split lists (per
    # tangency vector) are built by whichever state asks first.  Internal
    # keys, evaluated in shuffled order on one evaluator, both routes
    # interleaved on the cubic, must give what a fresh evaluator per key
    # and the raw-keyed evaluator give.  Half the classes are drawn with
    # E-degree >= 3, so that split summands with l >= 1 occur.
    spec = make_surface(model, a, b, twist=twist)
    rng = random.Random(25)
    classes = candidate_factors(
        spec.lattice, spec.conj_perm, spec.e_class, bound,
        blocked=spec.candidate_blocked(),
    )
    wide = [d for d in classes if spec.e_degree(d) >= 3]
    keys = []
    while len(keys) < 40:
        d = rng.choice(wide if rng.random() < 0.5 else classes)
        de = spec.e_degree(d)
        ia = rng.randint(0, de)
        alpha = rng.choice(odd_partitions(ia))
        beta = rng.choice(odd_partitions(de - ia))
        key = make_key(spec, d, alpha, beta)
        top = not alpha and beta == theta(1, de)
        if not top and spec.r_dim_class(d, norm(beta)) >= 1 and key not in keys:
            keys.append(key)
    methods = ["eval", "eval_cubic_fast"] if model == "B1" else ["eval"]
    jobs = [(key, method) for key in keys for method in methods]
    raw = Evaluator(spec, canonicalize=False)
    want = [getattr(raw, method)(key) for key, method in jobs]
    shared = Evaluator(spec)
    seen = collections.Counter()
    split_terms = Evaluator._split_terms

    def recording(self, *args):
        for summand in split_terms(self, *args):
            if self is shared:
                seen["l >= 1"] += summand[2] >= 1
                seen["pairs"] += bool(summand[6])
            yield summand

    monkeypatch.setattr(Evaluator, "_split_terms", recording)
    order = list(range(len(jobs)))
    rng.shuffle(order)
    for i in order:
        key, method = jobs[i]
        got = getattr(shared, method)(key)
        assert got == want[i] == getattr(Evaluator(spec), method)(key), (key, method)
    assert seen["l >= 1"] and seen["pairs"], seen


def test_concurrent_table_growth():
    # Four threads grow one evaluator's tables from different first keys:
    # the first table holds one key's candidates, and the others switch it
    # to the whole cone and grow it; a torn or lost table would show as a
    # wrong value.
    spec = make_surface("P2", 2, 2)
    classes = sorted(spec.nef_big_classes(5), key=spec.antik_degree)
    want = {d: welschinger(spec, d, Evaluator(spec)) for d in classes}
    shared = Evaluator(spec)
    orders = [classes, classes[::-1], classes[1::2] + classes[::2], classes[::-2]]
    results = [{} for _ in orders]

    def work(order, out):
        for d in order:
            out[d] = welschinger(spec, d, shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(order, out))
            for order, out in zip(orders, results)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for order, out in zip(orders, results):
        assert out == {d: want[d] for d in order}


def test_store_round_trip(tmp_path):
    spec = make_surface("B1", twist="F")
    ev = Evaluator(spec)
    want = ev.eval(key_of(spec, "-2K"))
    store = ev.dump()
    assert store  # contains every memoized key
    path = tmp_path / "cache.txt"
    cache_save(store, str(path))
    loaded = cache_load(str(path))
    assert loaded == store

    warm = Evaluator(spec, store=loaded)
    assert warm.eval(key_of(spec, "-2K")) == want
    assert warm.misses == 0  # everything came from the preloaded store


def test_store_isolated_by_surface(tmp_path):
    spec_f = make_surface("B1", twist="F")
    spec_0 = make_surface("B1", twist="0")
    store = Evaluator(spec_f).dump()
    Evaluator(spec_0, store=store)  # must not adopt twisted values
    ev0 = Evaluator(spec_0, store=store)
    assert ev0.eval(key_of(spec_0, "-2K")) == 0


def test_store_is_read_on_demand():
    spec = make_surface("B1", twist="F")
    ev = Evaluator(spec)
    ev.eval(key_of(spec, "-2K"))
    ev.eval(key_of(spec, "3,2,2"))
    store = ev.dump()
    want = Evaluator(spec).eval(key_of(spec, "-K"))
    warm = Evaluator(spec, store=store)
    assert warm.eval(key_of(spec, "-K")) == want
    stats = warm.cache_stats()
    assert stats["misses"] == 0 and stats["hits"] >= 1
    assert stats["entries"] < len(store)  # every record is of B1/F


def test_reduced_route_never_reads_store():
    spec = make_surface("B1", twist="F")
    key = key_of(spec, "-K")
    ev = Evaluator(spec)
    want = ev.eval(key)
    store = ev.dump()
    top = f"{spec.surface_id}|{spec.class_str(key.d)}|{key.alpha}|{key.beta}"
    assert store[top] == want
    store[top] = want + 1000
    warm = Evaluator(spec, store=store)
    assert warm.eval(key) == want + 1000  # the full route serves the record
    assert warm.eval_cubic_fast(key) == want


def test_cache_file_errors(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("SOMETHING ELSE\n")
    with pytest.raises(CacheError):
        cache_load(str(path))

    spec = make_surface("B1", twist="F")
    ev = Evaluator(spec)
    ev.eval(key_of(spec, "-K"))
    good = tmp_path / "good.txt"
    cache_save(ev.dump(), str(good))

    lines = good.read_text().splitlines()
    truncated = tmp_path / "trunc.txt"
    truncated.write_text("\n".join(lines[:-2] + [lines[-1]]) + "\n")
    with pytest.raises(CacheError):
        cache_load(str(truncated))

    mangled = tmp_path / "bad.txt"
    bad_lines = list(lines)
    bad_lines[1] = bad_lines[1].replace("\t", " ")
    mangled.write_text("\n".join(bad_lines) + "\n")
    with pytest.raises(CacheError, match="line 2"):
        cache_load(str(mangled))
    bad_lines = list(lines)
    bad_lines[-2] = "|" + bad_lines[-2]  # the last record, empty surface id
    mangled.write_text("\n".join(bad_lines) + "\n")
    with pytest.raises(CacheError, match=f"line {len(lines) - 1}"):
        cache_load(str(mangled))

    notint = tmp_path / "notint.txt"
    for value in ("xyz", "9" * 5000):  # the second is past int()'s digit limit
        bad_lines = list(lines)
        bad_lines[1] = bad_lines[1].split("\t")[0] + "\t" + value
        notint.write_text("\n".join(bad_lines) + "\n")
        with pytest.raises(CacheError):
            cache_load(str(notint))


def _four_surface_store(path):
    specs = [make_surface("B1", twist="F"), make_surface("P2", 6, 0),
             make_surface("P2", 4, 1), make_surface("P2", 2, 2)]
    store = {}
    for spec in specs:
        ev = Evaluator(spec)
        welschinger(spec, spec.parse_class("-K"), ev)
        ev.dump(store)
    cache_save(store, str(path))
    return specs, store


def test_section_load_and_save_agree_with_the_whole_store(tmp_path):
    # the whole-store load and save are the oracle of the section ones
    path = tmp_path / "store.txt"
    specs, whole = _four_surface_store(path)
    sids = [spec.surface_id for spec in specs]
    assert cache_load(str(path)) == whole
    for r in range(len(sids) + 1):
        for chosen in itertools.combinations(sids, r):
            assert cache_load(str(path), surface_ids=chosen) == {
                k: v for k, v in whole.items() if k.split("|", 1)[0] in chosen
            }
    oracle = tmp_path / "oracle.txt"
    for spec in specs:
        section = cache_load(str(path), surface_ids=[spec.surface_id])
        ev = Evaluator(spec, section)
        welschinger(spec, spec.parse_class("-2K"), ev)
        ev.dump(section)
        full = cache_load(str(path))
        full.update(section)
        cache_save(full, str(oracle))
        before = path.stat().st_size
        cache_save(section, str(path), surface_ids=[spec.surface_id])
        assert path.read_bytes() == oracle.read_bytes()
        assert path.stat().st_size > before


def test_interleaved_writers_of_two_surfaces_keep_both(tmp_path):
    path = tmp_path / "store.txt"
    (spec_a, _, _, spec_b), whole = _four_surface_store(path)
    a = cache_load(str(path), surface_ids=[spec_a.surface_id])
    b = cache_load(str(path), surface_ids=[spec_b.surface_id])
    for spec, store in ((spec_b, b), (spec_a, a)):  # b saves between a's load and save
        ev = Evaluator(spec, store)
        welschinger(spec, spec.parse_class("-2K"), ev)
        assert ev.misses
        ev.dump(store)
        cache_save(store, str(path), surface_ids=[spec.surface_id])
    assert cache_load(str(path)) == {**whole, **a, **b}


# The store loader before it read one range of the sorted file: every line
# split out of the whole file, the own lines filtered by prefix, one search
# for the first bad line.  The oracle of cache_load and cache_save's re-read.
_ORACLE_BAD_RECORD = (
    r"\n(?![^|\t\n]+\|-?[0-9]+(?:;-?[0-9]+(?:,-?[0-9]+){5}|,-?[0-9]+,-?[0-9]+)"
    r"\|(?:0|[0-9]+:[0-9]+(?:,[0-9]+:[0-9]+)*)\|(?:0|[0-9]+:[0-9]+(?:,[0-9]+:[0-9]+)*)"
    r"\t-?[0-9]+(?:\n|\Z))"
)


def _oracle_records(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError(f"cannot read cache file {path!r}: {exc}") from None
    if not raw or raw[0] != CACHE_HEADER:
        raise CacheError(f"unsupported cache header in {path!r}")
    if not raw[-1].startswith("#count="):
        raise CacheError(f"cache file {path!r} is truncated (missing record count)")
    try:
        count = int(raw[-1][len("#count="):])
    except ValueError:
        raise CacheError(f"cache file {path!r} has a malformed record count") from None
    records = raw[1:-1]
    if len(records) != count:
        raise CacheError(
            f"cache file {path!r} is truncated: {len(records)} records, "
            f"trailer says {count}"
        )
    return records


def _oracle_load(path, surface_ids=None):
    records = lines = _oracle_records(path)
    if surface_ids is not None:
        own = tuple(f"{sid}|" for sid in surface_ids)
        lines = [r for r in records if r.startswith(own)]
    body = "\n".join(["", *lines])
    bad = re.search(_ORACLE_BAD_RECORD, body)
    if bad:
        lineno = records.index(lines[body.count("\n", 0, bad.start())]) + 2
        raise CacheError(f"malformed cache record at line {lineno}")
    store = {}
    try:
        for line in lines:
            key, _, value = line.rpartition("\t")
            store[key] = int(value)
    except ValueError as exc:
        raise CacheError(f"malformed cache value in {path!r}: {exc}") from None
    return store


def _oracle_save_text(store, path, surface_ids):
    own = tuple(f"{sid}|" for sid in surface_ids)
    lines = sorted([r for r in _oracle_records(path) if not r.startswith(own)]
                   + [f"{key}\t{value}" for key, value in store.items()])
    return "\n".join([CACHE_HEADER, *lines, f"#count={len(lines)}"]) + "\n"


# an id absent from the file, and one that is a string prefix of a stored id
_EXTRA_IDS = ("P2[0,3]/t0/bd-/E1;1,1,0,0,0,0", "B1/tF/bd-/E1,0")


def _shuffled(text, rng):
    header, *records, trailer = text.split("\n")[:-1]
    return "\n".join([header, *rng.sample(records, len(records)), trailer]) + "\n"


def _store_mutations(text, rng):
    """The store file text itself and the texts it becomes when a record is
    mangled or repeated, a line break is another one, or the header or
    trailer is cut, as (name, text)."""
    header, *records, trailer = text.split("\n")[:-1]

    def file(lines, end=trailer):
        return "\n".join([header, *lines, end]) + "\n"

    out = [("as is", text), ("crlf", text.replace("\n", "\r\n"))]
    for mangle in (lambda r: r.replace("\t", " "), lambda r: "|" + r,
                   lambda r: r.replace("|", "|x", 1),
                   lambda r: r.split("\t")[0] + "\t" + "9" * 5000):
        bad = list(records)
        i = rng.randrange(len(bad))
        bad[i] = mangle(bad[i])
        out.append((f"line {i + 2} mangled", file(bad)))
    i = rng.randrange(len(records))
    again = list(records)
    again.insert(rng.randrange(len(records)), records[i].split("\t")[0] + "\t12345")
    out.append((f"record {i + 2} again", file(again)))
    lines = text.split("\n")
    for brk in ("\x1c", "\u2028", "\v", "\x85"):
        for i in (1, rng.randrange(2, len(records) + 2)):
            out.append((f"newline {i} as {brk!r}",
                        "\n".join(lines[:i]) + brk + "\n".join(lines[i:])))
        i = rng.randrange(len(records))
        at = rng.randrange(1, len(records[i]))
        inside = list(records)
        inside[i] = inside[i][:at] + brk + inside[i][at:]
        out.append((f"{brk!r} inside line {i + 2}", file(inside)))
    return out + [
        ("header only", header + "\n"),
        ("no trailer", "\n".join([header, *records]) + "\n"),
        ("trailer off by one", file(records, f"#count={len(records) + 1}")),
        ("trailer not a number", file(records, "#count=many")),
        ("no records", file([], "#count=0")),
        ("no final newline", text[:-1]),
        ("blank line at the end", text + "\n"),
    ]


def _outcome(call):
    try:
        out = call()
    except CacheError as exc:
        return f"CacheError: {exc}"
    return list(out.items()) if isinstance(out, dict) else out  # in insertion order


def _check_against_oracle(path, name, text, sids, saves):
    path.write_bytes(text.encode("utf-8"))
    ids = [*sids, *_EXTRA_IDS]
    subsets = [None] + [c for r in range(len(ids) + 1) for c in itertools.combinations(ids, r)]
    for chosen in subsets:
        want = _outcome(lambda: _oracle_load(str(path), chosen))
        assert _outcome(lambda: cache_load(str(path), surface_ids=chosen)) == want, (name, chosen)
        if not saves or chosen is None or len(chosen) > 2 or isinstance(want, str):
            continue
        store = dict(want, **{f"{sid}|1,0,0|0|0": 1 for sid in chosen})
        want = _outcome(lambda: _oracle_save_text(store, str(path), chosen))

        def save():
            cache_save(store, str(path), surface_ids=chosen)
            return path.read_text(encoding="utf-8")

        assert _outcome(save) == want, (name, chosen)
        path.write_bytes(text.encode("utf-8"))


@pytest.fixture(scope="module")
def four_surface_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "base.txt"
    specs, _ = _four_surface_store(path)
    return path.read_text(encoding="utf-8"), [spec.surface_id for spec in specs]


def test_section_load_and_save_match_the_whole_file_loader(four_surface_text, tmp_path):
    text, sids = four_surface_text
    rng = random.Random(0)
    for base in (text, _shuffled(text, rng)):
        for name, mutated in _store_mutations(base, rng):
            _check_against_oracle(tmp_path / "store.txt", name, mutated, sids, saves=True)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_section_load_matches_the_whole_file_loader_on_random_files(
    four_surface_text, tmp_path_factory, rng
):
    text, sids = four_surface_text
    name, mutated = rng.choice(_store_mutations(_shuffled(text, rng), rng))
    path = tmp_path_factory.getbasetemp() / "random-store.txt"
    _check_against_oracle(path, name, mutated, sids, saves=False)


def test_save_through_symlink_replaces_its_target(tmp_path):
    spec = make_surface("B1", twist="F")
    ev = Evaluator(spec)
    ev.eval(key_of(spec, "-K"))
    target = tmp_path / "store.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    cache_save(ev.dump(), str(link))
    assert link.is_symlink()
    assert cache_load(str(target)) == ev.dump()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "store.txt"]


def test_fast_route_guard():
    spec = make_surface("B1", twist="0")
    ev = Evaluator(spec)
    with pytest.raises(ValidationError):
        ev.eval_cubic_fast(key_of(spec, "-K"))
    spec_p2 = make_surface("P2", 6, 0)
    ev_p2 = Evaluator(spec_p2)
    with pytest.raises(ValidationError):
        ev_p2.eval_cubic_fast(key_of(spec_p2, "-K"))


def test_fast_route_values(shared):
    spec, ev = shared("B1", twist="F")
    assert ev.eval_cubic_fast(key_of(spec, "-K")) == 4
    assert ev.eval_cubic_fast(key_of(spec, "-2K")) == 160
    d = key_of(spec, "2,1,1")
    assert ev.eval_cubic_fast(d) == ev.eval(d)


def test_routes_agree_on_every_internal_key():
    # Every state of every nef-big class up to -K.D 8, not only the top key.
    spec = make_surface("B1", twist="F")
    ev = Evaluator(spec)
    keys = []
    for d in spec.nef_big_classes(8):
        de = spec.e_degree(d)
        for ia in range(de + 1):
            for alpha in odd_partitions(ia):
                for beta in odd_partitions(de - ia):
                    keys.append(make_key(spec, d, alpha, beta))
    assert len(keys) == 166
    assert [k for k in keys if ev.eval(k) != ev.eval_cubic_fast(k)] == []
    # The routes keep separate memos and reach the same states.
    for d in spec.nef_big_classes(10):
        key = make_key(spec, d, ZERO, theta(1, spec.e_degree(d)))
        ev.eval(key)
        ev.eval_cubic_fast(key)
    assert ev._full.memo is not ev._reduced.memo
    assert len(ev._full.memo) == 397
    assert ev._full.memo == ev._reduced.memo


def test_repeated_identical_factors_are_symmetrized(shared):
    # The unique curve of this rigid class splits off the auxiliary curve
    # plus twice the pencil through the sixth point; the two identical
    # decorated factors describe one unordered configuration, so the term
    # carries weight 1, not the ordered point-distribution count 2.
    spec, ev = shared("P2", 6, 0)
    d = spec.parse_class("3;1,1,0,0,0,2")
    key = make_key(spec, d, theta(1), ZERO)
    assert ev.eval(key) == 1
    records = [r for r in ev.expand(key) if r.factors]
    assert len(records) == 1
    rec = records[0]
    assert len(rec.factors) == 2
    assert rec.factors[0].d == rec.factors[1].d == spec.parse_class("1;0,0,0,0,0,1")
    assert rec.coefficient == 1 and rec.contribution == 1
    # and the whole relabeling orbit agrees
    for text in ("3;2,1,1,0,0,0", "3;1,2,0,1,0,0", "3;0,0,1,1,2,0"):
        dd = spec.parse_class(text)
        de = spec.e_degree(dd)
        assert ev.eval(make_key(spec, dd, ZERO, theta(1, de))) == 1


def test_rational_class_values_are_one(shared):
    # Independent oracle: a nef-and-big class of arithmetic genus zero has a
    # linear system all of whose irreducible members are smooth rational, so
    # the point conditions cut out exactly one curve, counted with sign +1.
    spec, ev = shared("P2", 6, 0)
    k_cls = spec.lattice.canonical
    checked = 0
    for d in spec.nef_big_classes(6):
        pa = 1 + (spec.intersect(d, d) + spec.intersect(k_cls, d)) // 2
        if pa != 0:
            continue
        checked += 1
        de = spec.e_degree(d)
        assert ev.eval(make_key(spec, d, ZERO, theta(1, de) if de else ZERO)) == 1
    assert checked > 10


# -- orbit-canonical memo keys -----------------------------------------------------

_P2_PATTERNS = [
    (a, b) for b in range(4) for a in range(7 - 2 * b) if a != 1 and (a, b) != (0, 0)
]


_ALL_MODELS = [("P2", a, b, "0", ()) for a, b in _P2_PATTERNS] + [
    ("P2", 6, 0, "0", (3, 4)), ("P2", 4, 1, "0", (3,)),
    ("B1", 0, 0, "F", ()), ("B", 0, 0, "F", ()),
]


@pytest.mark.parametrize("model, a, b, twist, blowdown", _ALL_MODELS)
def test_orbit_map_properties(model, a, b, twist, blowdown):
    spec = make_surface(model, a, b, twist=twist, blowdown=blowdown)
    canon = spec.orbit_map()
    if spec.lattice.model == "cubic":
        assert canon is None
        return
    assert Evaluator(spec, canonicalize=False)._canon is None
    # Classes of the whole lattice, also those crossing a blown-down curve,
    # so that the blown-down slots hold values the map could move.
    classes = set(nef_classes_up_to(spec.lattice, spec.conj_perm, 5))
    classes |= set(candidate_factors(spec.lattice, spec.conj_perm, spec.e_class, 5))
    seen = {}
    for d in sorted(classes):
        image = canon(d.coords) if canon else d.coords
        orbit = _relabellings(spec, d.coords)
        assert image == min(orbit), d  # one written-out representative
        assert (canon(image) if canon else image) == image  # idempotent
        for member in orbit:  # one image per orbit
            assert (canon(member) if canon else member) == image, (d, member)
        assert seen.setdefault(image, frozenset(orbit)) == frozenset(orbit)
        rep = DivisorClass(image)
        assert spec.antik_degree(rep) == spec.antik_degree(d)
        assert spec.e_degree(rep) == spec.e_degree(d)
        assert spec.is_nef_big(rep) == spec.is_nef_big(d)
        assert all(image[i] == d.coords[i] for i in spec.blown_down)
    assert any(len(orbit) > 1 for orbit in seen.values()) == (canon is not None)


@pytest.mark.parametrize("model, a, b, twist, blowdown", _ALL_MODELS)
def test_search_key_fixes_its_n_budget(model, a, b, twist, blowdown):
    # The search memo's key leaves out the n budget ns = n - 1 - |beta0|,
    # as ns = -T.(K + E) + |beta target| for every target T = D - E +
    # c (K + E) - P: that takes E.(K + E) = -2, (K + E)^2 = 0 and P.(K + E)
    # = 0 for every pair item P (the proof is at Evaluator._split_terms).
    spec = make_surface(model, a, b, twist=twist, blowdown=blowdown)
    lat, ke = spec.lattice, spec.k_plus_e()
    assert lat.intersect(spec.e_class, ke) == -2
    assert lat.intersect(ke, ke) == 0
    for item in spec.pair_menu:
        assert lat.intersect(item.class_sum, ke) == 0, item.item_id


@pytest.mark.parametrize(
    "a, b, blowdown",
    [(a, b, ()) for a, b in _P2_PATTERNS] + [(6, 0, (3, 4)), (4, 1, (3,))],
)
def test_wide_orbit_map_takes_the_least_member(a, b, blowdown):
    # The scans' map, which also moves E1 and E2, sends every member of a
    # written-out orbit to its least member, blown-down models (every
    # pattern with a + 2b < 6, and --blowdown) included; it is None only
    # where every orbit is a single class (P2[0,1]).
    spec = make_surface("P2", a, b, blowdown=blowdown)
    canon = spec.orbit_map(move_e=True)
    classes = set(nef_classes_up_to(spec.lattice, spec.conj_perm, 6))
    classes |= set(candidate_factors(spec.lattice, spec.conj_perm, spec.e_class, 6))
    seen = set()
    moved = 0
    for d in sorted(classes):
        if d.coords in seen:
            continue
        orbit = _relabellings(spec, d.coords, move_e=True)
        seen |= orbit
        least = min(orbit)
        for member in orbit:
            assert (canon(member) if canon else member) == least, (d, member)
            assert all(member[i] == d.coords[i] for i in spec.blown_down)
        moved += any(member[1:3] != least[1:3] for member in orbit)
    # the map moves E1 and E2 wherever it exists
    assert bool(moved) == (canon is not None)


@pytest.mark.parametrize("a, b, blowdown", [(4, 0, ()), (6, 0, (3, 4))])
def test_scan_on_a_blown_down_model_matches_raw_values(a, b, blowdown):
    # The scan evaluates one class per orbit of the wide map and hands the
    # value to every member; each row equals the class's own value on a
    # raw-keyed evaluator.
    spec = make_surface("P2", a, b, blowdown=blowdown)
    rows = positivity_scan(spec, 7)
    raw = Evaluator(spec, canonicalize=False)
    assert len({spec.orbit_map(move_e=True)(d.coords) for d, _, _ in rows}) < len(rows)
    for d, value, _ in rows:
        assert value == welschinger(spec, d, raw), spec.class_str(d)


@pytest.mark.parametrize(
    "a, b, blowdown", [(6, 0, ()), (4, 1, ()), (2, 2, ()), (0, 3, ()), (6, 0, (3, 4))]
)
def test_canonical_memo_matches_raw_memo(a, b, blowdown):
    # Every state the raw-keyed evaluator visits, internal ones included,
    # has its value under its orbit representative in the canonical memo;
    # and every canonical key is one of those representatives, itself a
    # state of the surface.
    spec = make_surface("P2", a, b, blowdown=blowdown)
    raw = Evaluator(spec, canonicalize=False)
    canonical = Evaluator(spec)
    keys = [top_key(spec, d) for d in spec.nef_big_classes(5)]
    assert [raw.eval(k) for k in keys] == [canonical.eval(k) for k in keys]
    canon = canonical._canon
    raw_memo, canon_memo = raw._full.memo, canonical._full.memo
    for (coords, a_key, b_key), value in raw_memo.items():
        assert canon_memo[(canon(coords), a_key, b_key)] == value, coords
    assert set(canon_memo) == {(canon(c), ak, bk) for c, ak, bk in raw_memo}
    assert set(canon_memo) <= set(raw_memo)
    assert len(canon_memo) < len(raw_memo)


def test_raw_keyed_store_gives_the_same_values(capsys, tmp_path):
    # A store written with raw keys, as before the memo was keyed by orbit,
    # stays valid: representative records are read, the others never are.
    spec = make_surface("P2", 6, 0)
    raw = Evaluator(spec, canonicalize=False)
    members = ("4;1,2,1,0,1,1", "4;2,1,0,1,1,1")  # neither is a representative
    want = [welschinger(spec, spec.parse_class(t), raw) for t in members + ("-2K",)]
    store = raw.dump()
    for text in members:
        top = f"{spec.surface_id}|{text}|0|1:1"
        assert store[top] == want[0]
        store[top] = -1
    path = tmp_path / "raw.txt"
    cache_save(store, str(path))
    got = []
    for text in members + ("-2K",):
        code = cli.main(["compute", "--surface", "P2[6,0]", "--class", text,
                         "--cache", str(path), "--json", "--no-timing"])
        assert code == 0
        got.append(json.loads(capsys.readouterr().out))
    assert [int(g["value"]) for g in got] == want
    # -2K is its own representative: its stored record serves it
    assert (got[2]["cache"]["hits"], got[2]["cache"]["misses"]) == (1, 0)
