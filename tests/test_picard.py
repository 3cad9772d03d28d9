import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from welschinger.errors import ParseError
from welschinger.picard import (
    CUBIC_LATTICE,
    P2_LATTICE,
    DivisorClass,
    candidate_factors,
    class_to_str,
    conj_class,
    conj_perm_p2,
    is_nef,
    is_nef_big,
    nef_classes_up_to,
    parse_class,
    r_dim,
)

L = DivisorClass((1, 0, 0, 0, 0, 0, 0))
E_AUX = DivisorClass((1, -1, -1, 0, 0, 0, 0))  # L - E1 - E2


def e_(i):
    c = [0] * 7
    c[i] = 1
    return DivisorClass(c)


def test_intersection_examples():
    assert P2_LATTICE.intersect(L, L) == 1
    assert P2_LATTICE.intersect(e_(1), e_(1)) == -1
    assert CUBIC_LATTICE.intersect(
        CUBIC_LATTICE.lines[0], CUBIC_LATTICE.lines[1]
    ) == 1


def test_canonical_classes():
    assert P2_LATTICE.canonical == DivisorClass((-3, 1, 1, 1, 1, 1, 1))
    assert CUBIC_LATTICE.canonical == DivisorClass((-1, -1, -1))
    for lat in (P2_LATTICE, CUBIC_LATTICE):
        assert lat.intersect(lat.canonical, lat.canonical) == 3


def test_conjugation_examples():
    perm41 = conj_perm_p2(4)
    assert conj_class(perm41, e_(5)) == e_(6)
    assert conj_class(perm41, L) == L
    perm22 = conj_perm_p2(2)
    l35 = parse_class(P2_LATTICE, "1;0,0,1,0,1,0")
    l46 = parse_class(P2_LATTICE, "1;0,0,0,1,0,1")
    assert conj_class(perm22, l35) == l46


def test_r_dim_examples():
    mk = -(P2_LATTICE.canonical + E_AUX)
    assert r_dim(P2_LATTICE, E_AUX, mk, 1, pair=False) == 0
    assert r_dim(P2_LATTICE, E_AUX, -P2_LATTICE.canonical, 1, pair=False) == 2
    # conjugate pair {-(K+E), -(K+E)} with a double imaginary branch
    assert r_dim(P2_LATTICE, E_AUX, mk * 2, 2, pair=True) == 0


def test_line_classes():
    p2 = P2_LATTICE.lines
    assert len(p2) == 27
    assert parse_class(P2_LATTICE, "1;1,1,0,0,0,0") in p2
    assert len(CUBIC_LATTICE.lines) == 3
    for lat in (P2_LATTICE, CUBIC_LATTICE):
        for line in lat.lines:
            assert lat.intersect(line, line) == -1
            assert lat.intersect(lat.canonical, line) == -1


def test_nef_examples():
    assert is_nef(P2_LATTICE, -P2_LATTICE.canonical)
    assert not is_nef(P2_LATTICE, e_(1))
    assert is_nef(CUBIC_LATTICE, DivisorClass((1, 1, 2)))
    assert is_nef(P2_LATTICE, DivisorClass((0,) * 7))


def test_nef_big_examples():
    assert is_nef_big(CUBIC_LATTICE, DivisorClass((1, 1, 1)))
    assert is_nef_big(CUBIC_LATTICE, DivisorClass((1, 1, 2)))
    assert not is_nef_big(CUBIC_LATTICE, DivisorClass((0, 1, 1)))


def test_cubic_nef_big_criterion_equals_general_rule():
    # The general rule (nef with positive square) decides the cubic: D is nef
    # and big there exactly when its coefficients are positive and satisfy
    # the triangle inequalities.
    for d1, d2, d3 in itertools.product(range(-6, 16), repeat=3):
        triangle = (
            d1 > 0 and d2 > 0 and d3 > 0
            and d1 + d2 >= d3 and d1 + d3 >= d2 and d2 + d3 >= d1
        )
        assert is_nef_big(CUBIC_LATTICE, DivisorClass((d1, d2, d3))) == triangle


@functools.lru_cache(maxsize=None)
def _product_nef(budget):
    """The plain product of multiplicities 0 <= m_i <= d <= 5B/3, kept
    inside the window 1 <= -K.D <= B when the 27-line test calls it nef."""
    nef = []
    for deg in range(5 * budget // 3 + 1):
        for m in itertools.product(range(deg + 1), repeat=6):
            if 1 <= 3 * deg - sum(m) <= budget:
                d = DivisorClass((deg,) + tuple(-x for x in m))
                if is_nef(P2_LATTICE, d):
                    nef.append(d)
    return tuple(nef)


def test_nef_enumeration_matches_brute_force_oracle():
    # Oracle: the product enumeration; the conjugation-invariant part is
    # then taken for each reality pattern.
    budget = 5
    nef = _product_nef(budget)
    for n_real in (6, 4, 2, 0):
        perm = conj_perm_p2(n_real)
        real = sorted(d for d in nef if conj_class(perm, d) == d)
        for b in range(1, budget + 1):
            want = tuple(
                d for d in real
                if -P2_LATTICE.intersect(P2_LATTICE.canonical, d) <= b
            )
            assert nef_classes_up_to(P2_LATTICE, perm, b) == want


def test_cubic_nef_enumeration_matches_brute_force_oracle():
    # Oracle: the product box 0 <= d_i <= B, kept inside the window
    # 1 <= -K.D <= B when the line test calls it nef; a target t keeps the
    # classes D <= t, the caps of the old box min(B, t_i).
    targets = [None] + list(itertools.product(range(-2, 10), repeat=3))
    for budget in range(14):
        box = [
            d for d in map(DivisorClass, itertools.product(range(budget + 1), repeat=3))
            if 1 <= sum(d.coords) <= budget and is_nef(CUBIC_LATTICE, d)
        ]
        for target in targets:
            want = tuple(
                d for d in box
                if target is None or all(x <= t for x, t in zip(d.coords, target))
            )
            got = nef_classes_up_to(CUBIC_LATTICE, (0, 1, 2), budget, target)
            assert got == want, (budget, target)


@pytest.mark.parametrize("n_real, count", [(6, 2639), (4, 769), (2, 219), (0, 53)])
def test_nef_class_counts_at_budget_six(n_real, count):
    assert len(nef_classes_up_to(P2_LATTICE, conj_perm_p2(n_real), 6)) == count


def test_candidates_cubic():
    e1 = CUBIC_LATTICE.lines[0]
    cands = candidate_factors(CUBIC_LATTICE, (0, 1, 2), e1, 2)
    assert set(cands) == {
        DivisorClass((0, 1, 0)),
        DivisorClass((0, 0, 1)),
        DivisorClass((0, 1, 1)),
    }
    with pytest.raises(ValueError):
        candidate_factors(CUBIC_LATTICE, (0, 1, 2), e1, 0)


def test_candidates_p2_budget_one_against_brute_force():
    perm = conj_perm_p2(6)
    cands = candidate_factors(P2_LATTICE, perm, E_AUX, 1)
    # brute-force oracle: scan the full line list for E-degree exactly one
    expected = {
        line for line in P2_LATTICE.lines
        if P2_LATTICE.intersect(line, E_AUX) == 1
    }
    assert set(cands) == expected
    assert len(expected) == 10


def test_candidates_duplicate_free_conj_invariant():
    for n_real, b in ((6, 0), (4, 1), (2, 2), (0, 3)):
        perm = conj_perm_p2(n_real)
        cands = candidate_factors(P2_LATTICE, perm, E_AUX, 4)
        assert len(cands) == len(set(cands))
        for d in cands:
            assert conj_class(perm, d) == d
            assert P2_LATTICE.intersect(d, E_AUX) >= 1


def test_blocked_candidates():
    perm = conj_perm_p2(6)
    blocked = (e_(5), e_(6))
    cands = candidate_factors(P2_LATTICE, perm, E_AUX, 3, blocked=blocked)
    for d in cands:
        assert P2_LATTICE.intersect(d, e_(5)) == 0
        assert P2_LATTICE.intersect(d, e_(6)) == 0


_CONICS = [-P2_LATTICE.canonical - line for line in P2_LATTICE.lines]


def _fits(lat, t, d):
    # t - d is a sum of candidates as far as the coordinates and, on rank
    # 7, the 27 conics -K - l can tell
    rem = DivisorClass(t) - d
    if lat.model == "cubic":
        return min(rem.coords) >= 0
    r = rem.coords
    return (
        r[0] >= 0 and r[1] <= 1 and r[2] <= 1 and max(r[3:]) <= 0
        and all(lat.intersect(rem, c) >= 0 for c in _CONICS)
    )


_nef_classes = functools.lru_cache(maxsize=None)(nef_classes_up_to)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([6, 4, 2, 0, "cubic"]), st.integers(1, 7), st.data())
def test_targeted_enumeration_equals_filtered_enumeration(pattern, budget, data):
    # Every conjugation pattern of P2 and the cubic; random targets near a
    # nef class of a slightly larger budget, random blocked lines.
    if pattern == "cubic":
        lat, perm = CUBIC_LATTICE, (0, 1, 2)
        e_cls = CUBIC_LATTICE.lines[data.draw(st.integers(0, 2))]
        lines = CUBIC_LATTICE.lines
    else:
        lat, perm, e_cls = P2_LATTICE, conj_perm_p2(pattern), E_AUX
        # E_3, ..., E_6, which hold a slot at 0, and L - E_3 - E_4, which
        # does not
        lines = P2_LATTICE.lines[2:6] + (parse_class(P2_LATTICE, "1;0,0,1,1,0,0"),)
    near = data.draw(st.sampled_from(_nef_classes(lat, perm, budget + 2)))
    shift = data.draw(st.tuples(*[st.integers(-1, 1)] * lat.rank))
    target = data.draw(
        st.none() | st.just(tuple(x + y for x, y in zip(near.coords, shift))),
        label="target",
    )
    blocked = tuple(data.draw(st.sets(st.sampled_from(lines)), label="blocked"))
    plain = nef_classes_up_to(lat, perm, budget)
    if target is not None:
        want = tuple(d for d in plain if _fits(lat, target, d))
        assert nef_classes_up_to(lat, perm, budget, target) == want
    want = tuple(
        d for d in candidate_factors(lat, perm, e_cls, budget)
        if (target is None or _fits(lat, target, d))
        and all(lat.intersect(d, b) == 0 for b in blocked)
    )
    assert candidate_factors(lat, perm, e_cls, budget, blocked, target) == want


@pytest.mark.parametrize("n_real", [6, 4, 2, 0])
def test_target_cut_and_e_cap_match_product_and_filter(n_real):
    # Oracle: the conjugation-invariant classes of the product enumeration,
    # filtered after the fact by the budget, the zero slots, E.D >= 1 and
    # _fits.  Targets are D - E for classes D of the product, shifted by
    # -1..1 on each E_i and by -1..2 in degree, so that -K.t falls below,
    # at and above the budget; every case also runs without a target.
    lat, perm = P2_LATTICE, conj_perm_p2(n_real)
    rng = random.Random(n_real)
    cone = sorted(d for d in _product_nef(5) if conj_class(perm, d) == d)
    sides = set()
    for budget in range(1, 6):
        plain = [d for d in cone if -lat.intersect(lat.canonical, d) <= budget]
        targets = [None]
        for d in rng.sample(cone, 12):
            shift = [rng.randint(-1, 2)] + [rng.randint(-1, 1) for _ in range(6)]
            targets.append(tuple(map(operator.add, (d - E_AUX).coords, shift)))
        for target in targets:
            if target is not None:
                antik_t = -lat.intersect(lat.canonical, DivisorClass(target))
                sides.add((antik_t > budget) - (antik_t < budget))
            fit = [d for d in plain if target is None or _fits(lat, target, d)]
            for zero_slots in ((), (4,), (5, 6)):
                blocked = tuple(e_(j) for j in zero_slots)
                held = [d for d in fit if all(d.coords[j] == 0 for j in zero_slots)]
                assert nef_classes_up_to(lat, perm, budget, target, zero_slots) == tuple(held)
                e_pos = [d for d in held if lat.intersect(d, E_AUX) >= 1]
                got = nef_classes_up_to(lat, perm, budget, target, zero_slots, (1, 2))
                assert got == tuple(e_pos), (budget, target, zero_slots)
                lines = [
                    line for line in lat.lines
                    if conj_class(perm, line) == line
                    and lat.intersect(line, E_AUX) >= 1
                    and all(lat.intersect(line, b) == 0 for b in blocked)
                    and (target is None or _fits(lat, target, line))
                ]
                got = candidate_factors(lat, perm, E_AUX, budget, blocked, target)
                assert got == tuple(sorted(set(lines + e_pos))), (budget, target)
    assert sides == {-1, 0, 1}


coords7 = st.tuples(*[st.integers(min_value=-4, max_value=4)] * 7)
coords3 = st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3)


def _intersect_gram(lat, a, b):
    """The pairing through the lattice's stored Gram matrix, the reference
    for Lattice.intersect."""
    return sum(
        a.coords[i] * lat.gram[i][j] * b.coords[j]
        for i in range(lat.rank)
        for j in range(lat.rank)
    )


@given(coords7, coords7)
def test_gram_symmetry_and_reference_p2(a, b):
    x, y = DivisorClass(a), DivisorClass(b)
    assert P2_LATTICE.intersect(x, y) == P2_LATTICE.intersect(y, x)
    assert P2_LATTICE.intersect(x, y) == _intersect_gram(P2_LATTICE, x, y)


@given(coords3, coords3)
def test_gram_symmetry_and_reference_cubic(a, b):
    x, y = DivisorClass(a), DivisorClass(b)
    assert CUBIC_LATTICE.intersect(x, y) == CUBIC_LATTICE.intersect(y, x)
    assert CUBIC_LATTICE.intersect(x, y) == _intersect_gram(CUBIC_LATTICE, x, y)


@given(coords7, coords7, st.sampled_from([6, 4, 2, 0]))
def test_conj_is_gram_isometry(a, b, n_real):
    perm = conj_perm_p2(n_real)
    x, y = DivisorClass(a), DivisorClass(b)
    sx, sy = conj_class(perm, x), conj_class(perm, y)
    assert conj_class(perm, sx) == x
    assert P2_LATTICE.intersect(sx, sy) == P2_LATTICE.intersect(x, y)


@given(coords7, coords3, st.integers(0, 2), st.integers(0, 6), st.booleans())
def test_r_dim_pairs_with_k_plus_e(a, c, line, beta_norm, pair):
    # r_dim pairs the class with K and with E separately; one pairing with
    # the sum K + E must give the same count.
    cases = (
        (P2_LATTICE, E_AUX, DivisorClass(a)),
        (CUBIC_LATTICE, CUBIC_LATTICE.lines[line], DivisorClass(c)),
    )
    for lat, e_cls, d in cases:
        want = -lat.intersect(d, lat.canonical + e_cls) + beta_norm - (2 if pair else 1)
        assert r_dim(lat, e_cls, d, beta_norm, pair) == want


def test_k_plus_e_identities():
    # used by the recursion's bound derivations on every supported pair
    cases = [(P2_LATTICE, E_AUX)] + [(CUBIC_LATTICE, l) for l in CUBIC_LATTICE.lines]
    for lat, e_cls in cases:
        ke = lat.canonical + e_cls
        assert lat.intersect(ke, ke) == 0
        assert lat.intersect(e_cls, ke) == -2


def _conics():
    """The 27 conic classes -K - l of the rank-7 lattice, from its own lines."""
    anti_k = -P2_LATTICE.canonical
    return [anti_k - line for line in P2_LATTICE.lines]


def test_conics_are_the_27_classes_of_degree_two_and_square_zero():
    conics = _conics()
    assert len(set(conics)) == 27
    for c in conics:
        assert P2_LATTICE.intersect(c, c) == 0
        assert -P2_LATTICE.intersect(P2_LATTICE.canonical, c) == 2
        assert all(P2_LATTICE.intersect(c, line) >= 0 for line in P2_LATTICE.lines)


@pytest.mark.parametrize("n_real", [6, 4, 2, 0])
def test_every_candidate_meets_every_conic_non_negatively(n_real):
    # The premise of the engine's conic cut, on P2[6,0], P2[4,1], P2[2,2]
    # and P2[0,3]: the whole cone up to -K degree 6, lines included (the
    # once-only E_1 and E_2 among them where they are real).  Blocking a
    # blown-down curve only removes candidates from this list.
    perm = conj_perm_p2(n_real)
    cands = candidate_factors(P2_LATTICE, perm, E_AUX, 6)
    if n_real >= 2:
        assert e_(1) in cands and e_(2) in cands
    conics = _conics()
    for d in cands:
        assert all(P2_LATTICE.intersect(d, c) >= 0 for c in conics), d


@settings(max_examples=400, deadline=None)
@given(st.integers(-3, 8), st.tuples(*[st.integers(-6, 2)] * 6))
def test_conic_inequalities_equal_the_27_conic_pairings(d, raw_e):
    # t = dL + sum raw_e[i] E_i, so m_i = -raw_e[i].
    t = DivisorClass((d,) + raw_e)
    meets_all = all(P2_LATTICE.intersect(t, c) >= 0 for c in _conics())
    m = sorted((-x for x in raw_e), reverse=True)
    three = d >= m[0] and 2 * d >= sum(m[:4]) and 3 * d >= sum(m) + m[0]
    assert three == meets_all
    # the same cut through -K.t: min(d, -K.t) >= max m and -K.t - d >= the
    # two largest raw E_i coefficients
    ak = -P2_LATTICE.intersect(P2_LATTICE.canonical, t)
    top = sorted(raw_e)
    assert (min(d, ak) >= m[0] and ak - d >= top[4] + top[5]) == meets_all


def test_class_text_round_trip():
    for lat, texts in (
        (P2_LATTICE, ["3;1,1,1,1,1,1", "0;0,-1,0,0,0,0", "2;1,0,1,1,1,0"]),
        (CUBIC_LATTICE, ["1,1,1", "4,2,2", "0,1,0"]),
    ):
        for text in texts:
            assert class_to_str(lat, parse_class(lat, text)) == text
    assert parse_class(P2_LATTICE, "-K") == -P2_LATTICE.canonical
    assert parse_class(CUBIC_LATTICE, "-2K") == DivisorClass((2, 2, 2))
    with pytest.raises(ParseError):
        parse_class(P2_LATTICE, "1;2,3")
