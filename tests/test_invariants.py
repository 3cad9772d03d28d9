import math

import pytest

from welschinger import invariants
from welschinger.engine import Evaluator
from welschinger.errors import ValidationError
from welschinger.invariants import (
    blowdown_scan,
    growth_report,
    invariant_report,
    monotonicity_check,
    nef_chain,
    path_equivalence_scan,
    positivity_scan,
    sample_monotone_pairs,
    symmetry_scan,
    welschinger,
)
from welschinger.picard import DivisorClass
from welschinger.surfaces import make_surface


def test_anticanonical_row(shared):
    expected = {(6, 0): 8, (4, 1): 6, (2, 2): 4, (0, 3): 2}
    for (a, b), want in expected.items():
        spec, ev = shared("P2", a, b)
        assert welschinger(spec, spec.parse_class("-K"), ev) == want


def test_cubic_and_conic_values(shared):
    spec, ev = shared("B1", twist="0")
    assert welschinger(spec, spec.parse_class("-2K"), ev) == 0
    spec, ev = shared("B1", twist="F")
    assert welschinger(spec, spec.parse_class("-2K"), ev) == 160
    spec, ev = shared("B", twist="F")
    assert welschinger(spec, spec.parse_class("2,1,1"), ev) == 4


# The Welschinger invariants W_d of the real plane, which count real rational
# curves of degree d through 3d - 1 real points (Itenberg-Kharlamov-Shustin,
# IMRN 2003, "Welschinger invariant and enumeration of real rational curves";
# Arroyo-Brugalle-Lopez de Medrano, IMRN 2011, "Recursive formulas for
# Welschinger invariants of the projective plane").  On P2[6,0] the class dL
# with every m_i = 0 holds the curves that miss the six blown-up points.  Its
# D - E has t_1 = t_2 = 1, the boundary of the nef enumeration's E cap.
PLANE = {1: 1, 2: 1, 3: 8, 4: 240, 5: 18264, 6: 2845440, 7: 792731520,
         8: 359935488000}
PLANE_STATES = {1: 3, 2: 6, 3: 10, 4: 17, 5: 27, 6: 42, 7: 65, 8: 98}


@pytest.mark.parametrize("d", sorted(PLANE))
def test_plane_welschinger_numbers_cold(d):
    spec = make_surface("P2", 6, 0)
    ev = Evaluator(spec)
    assert welschinger(spec, spec.parse_class(f"{d};0,0,0,0,0,0"), ev) == PLANE[d]
    assert ev.cache_stats()["entries"] == PLANE_STATES[d]


def test_invariant_report(shared):
    spec, ev = shared("P2", 6, 0)
    rep = invariant_report(spec, spec.parse_class("-K"), ev)
    assert rep.value == 8
    assert rep.point_count == 2  # K^2 - 1 real point conditions
    assert rep.cache_stats["entries"] > 0


def test_welschinger_preconditions():
    spec = make_surface("B", twist="F")
    with pytest.raises(ValidationError):
        welschinger(spec, spec.parse_class("1,1,1"))  # crosses contracted line
    spec41 = make_surface("P2", 4, 1)
    with pytest.raises(ValidationError):
        welschinger(spec41, spec41.parse_class("0;0,0,0,0,-1,0"))  # not real
    with pytest.raises(ValidationError):
        welschinger(spec41, spec41.parse_class("0;1,0,0,0,0,0"))  # D.E < 0


def test_nef_chain_cubic(shared):
    spec, _ = shared("B1", twist="F")
    one = spec.parse_class("1,1,1")
    two = spec.parse_class("2,2,2")
    chain = nef_chain(spec, one, two)
    assert len(chain) == 3
    assert sorted(spec.class_str(c) for c in chain) == ["0,0,1", "0,1,0", "1,0,0"]
    assert nef_chain(spec, one, one) == []
    with pytest.raises(ValidationError):
        nef_chain(spec, two, one)
    with pytest.raises(ValidationError):
        nef_chain(spec, spec.parse_class("2,2,2"), spec.parse_class("3,3,1"))


def test_nef_chain_p2(shared):
    spec, _ = shared("P2", 6, 0)
    mk = spec.parse_class("-K")
    m2k = spec.parse_class("-2K")
    chain = nef_chain(spec, mk, m2k)
    assert len(chain) == 3  # -K has anticanonical degree 3
    cur = mk
    for line in chain:
        assert spec.intersect(cur, line) > 0
        cur = cur + line
        assert spec.is_nef_big(cur)
    assert cur == m2k


def test_monotonicity_cubic(shared):
    spec, ev = shared("B1", twist="F")
    rep = monotonicity_check(spec, spec.parse_class("-2K"), spec.parse_class("-K"), ev)
    assert rep.holds
    assert rep.product == 6  # steps meet the chain with degrees 1, 2, 3
    assert rep.lhs == 160 and rep.rhs == 24


def test_monotonicity_p2(shared):
    spec, ev = shared("P2", 6, 0)
    rep = monotonicity_check(spec, spec.parse_class("-2K"), spec.parse_class("-K"), ev)
    assert rep.holds
    assert rep.lhs == 1000 and rep.rhs == rep.product * 8


def test_sampled_pairs_are_valid(shared):
    for args in (("B1",), ("P2", 6, 0)):
        spec, _ = shared(*args, twist="F") if args[0] == "B1" else shared(*args)
        pairs = sample_monotone_pairs(spec, 6, antik_cap=6)
        assert len(pairs) == 6
        again = sample_monotone_pairs(spec, 6, antik_cap=6)
        assert pairs == again  # deterministic sampling
        for d_prime, d in pairs:
            assert spec.is_nef_big(d_prime) and spec.is_nef_big(d)
            assert d != d_prime


def test_positivity_scan_small(shared):
    spec, ev = shared("P2", 6, 0)
    rows = positivity_scan(spec, 4, ev)
    assert rows and all(pos for _, _, pos in rows)
    spec0, ev0 = shared("B1", twist="0")
    rows = positivity_scan(spec0, 3, ev0)
    assert [(spec0.class_str(d), v, pos) for d, v, pos in rows] == [
        ("1,1,1", 0, False)
    ]


def test_positivity_scan_matches_direct_values(shared):
    # canonicalization must hand every class its own exact value
    spec, ev = shared("P2", 4, 1)
    rows = positivity_scan(spec, 5, ev)
    for d, v, _ in rows[:12]:
        assert welschinger(spec, d, ev) == v


def test_wide_orbit_map_properties(shared):
    spec, _ = shared("P2", 4, 1)
    canon = spec.orbit_map(move_e=True)
    for d in spec.nef_big_classes(5)[:20]:
        rep = DivisorClass(canon(d.coords))
        assert DivisorClass(canon(rep.coords)) == rep
        assert spec.is_nef_big(rep)
        assert spec.antik_degree(rep) == spec.antik_degree(d)
    # blown-down and cubic specs pass through untouched
    conic = make_surface("B", twist="F")
    assert conic.orbit_map(move_e=True) is None


def test_symmetry_scan(shared):
    spec, _ = shared("P2", 6, 0)
    rows = symmetry_scan(spec, 5, n_classes=2, n_perms=4)
    assert rows and all(ok for *_, ok in rows)


def test_blowdown_scan():
    rows = blowdown_scan(5)
    assert rows and all(same for *_, same in rows)


def test_path_equivalence_scan():
    rows = path_equivalence_scan(5)
    assert rows and all(ok for *_, ok in rows)


def test_growth_report(shared):
    spec, ev = shared("B1", twist="F")
    rows = growth_report(spec, spec.parse_class("-K"), 3, ev)
    # 63488 is pinned three ways: the reduced route, and the full recursion
    # with each of the three auxiliary lines
    assert [r.value for r in rows] == [4, 160, 63488]
    assert rows[0].ratio is None and rows[1].ratio is not None
    assert welschinger(spec, spec.parse_class("-K"), ev) == rows[0].value
    values = [r.value for r in rows]
    assert all(a < b for a, b in zip(values, values[1:]))  # monotone chain
    with pytest.raises(ValidationError):
        growth_report(spec, spec.parse_class("0,1,1"), 2, ev)  # not big


@pytest.mark.parametrize("n, value, ratio", [
    (7, 65335840566939746304, "3.349595"),  # W(-7K) on B1/F, above 2**53
    (9, 3**700, f"{700 * math.log(3) / (9 * math.log(9)):.6f}"),  # above 2**1000
], ids=["W(-7K)", "3**700"])
def test_growth_ratio_of_large_values(shared, monkeypatch, n, value, ratio):
    spec, ev = shared("B1", twist="F")
    monkeypatch.setattr(invariants, "welschinger", lambda *_: value)
    rows = growth_report(spec, spec.parse_class("-K"), n, ev)
    assert f"{rows[-1].ratio:.6f}" == ratio


def test_e_independence_high_degree(shared):
    # asymmetric classes where the three E-choices give structurally
    # different recursions (different tangency degrees with E)
    specs = [
        make_surface("B1", twist="F", e_choice=e)
        for e in ("1,0,0", "0,1,0", "0,0,1")
    ]
    from welschinger.engine import Evaluator

    evs = [Evaluator(s) for s in specs]
    expected = {"4,3,2": 12288, "3,3,2": 4096, "4,4,1": 256, "2,2,1": 16}
    for text, frozen in expected.items():
        vals = [welschinger(s, s.parse_class(text), e) for s, e in zip(specs, evs)]
        assert vals == [frozen] * 3, (text, vals)
