import pytest

from welschinger.errors import ParseError, ValidationError
from welschinger.surfaces import make_surface, parse_surface
from welschinger.tangency import TangencyVector, theta

ZERO = TangencyVector.zero()


def test_twist_validation():
    with pytest.raises(ValidationError):
        make_surface("P2", 4, 1, twist="F")
    make_surface("B1", twist="F")
    make_surface("B", twist="F")


def test_e_choice_validation():
    make_surface("B1", e_choice="0,1,0")
    with pytest.raises(ValidationError):
        make_surface("B1", e_choice="1,1,0")
    with pytest.raises(ValidationError):
        make_surface("B", e_choice="1,0,0")  # the blow-down removes E
    with pytest.raises(ValidationError):
        make_surface("P2", 6, 0, e_choice="1;0,0,1,1,0,0")


def test_blowdown_validation():
    make_surface("P2", 6, 0, blowdown=(5, 6))
    with pytest.raises(ValidationError):
        make_surface("P2", 6, 0, blowdown=(1,))
    with pytest.raises(ValidationError):
        make_surface("P2", 4, 1, blowdown=(5,))  # half of a conjugate pair
    with pytest.raises(ValidationError):
        make_surface("P2", 4, 0, blowdown=(3,))  # derived models fix their own
    with pytest.raises(ValidationError):
        make_surface("B1", blowdown=(1,))  # spelled B instead


def test_derived_low_degree_models():
    s31 = make_surface("P2", 3, 1)
    assert s31.blown_down == (4,)
    assert s31.n_real == 4
    s40 = make_surface("P2", 4, 0)
    assert s40.blown_down == (5, 6)
    s02 = make_surface("P2", 0, 2)
    assert s02.blown_down == (5, 6) and s02.n_real == 0
    with pytest.raises(ValidationError):
        make_surface("P2", 1, 1)
    with pytest.raises(ValidationError):
        make_surface("P2", 0, 0)


def test_surface_ids_distinct():
    ids = {
        make_surface("P2", 6, 0).surface_id,
        make_surface("P2", 4, 1).surface_id,
        make_surface("B1", twist="0").surface_id,
        make_surface("B1", twist="F").surface_id,
        make_surface("B1", twist="F", e_choice="0,1,0").surface_id,
        make_surface("B", twist="F").surface_id,
    }
    assert len(ids) == 6


def test_pair_menus():
    assert make_surface("P2", 6, 0).pair_menu == ()

    s41 = make_surface("P2", 4, 1)
    assert len(s41.pair_menu) == 2
    assert all(item.weight == 1 for item in s41.pair_menu)
    sums = {s41.class_str(item.class_sum) for item in s41.pair_menu}
    assert sums == {"2;0,0,2,0,1,1", "2;0,0,0,2,1,1"}

    s22 = make_surface("P2", 2, 2)
    assert len(s22.pair_menu) == 2
    assert all(item.weight == -1 for item in s22.pair_menu)
    assert {s22.class_str(i.class_sum) for i in s22.pair_menu} == {"2;0,0,1,1,1,1"}
    members = {
        frozenset(s22.class_str(m) for m in item.members) for item in s22.pair_menu
    }
    assert members == {
        frozenset({"1;0,0,1,0,1,0", "1;0,0,0,1,0,1"}),
        frozenset({"1;0,0,1,0,0,1", "1;0,0,0,1,1,0"}),
    }

    s03 = make_surface("P2", 0, 3)
    kinds = sorted(item.item_id.split(".")[0] for item in s03.pair_menu)
    assert kinds == ["2i", "2iii", "2iv", "2iv"]
    weights = sorted(item.weight for item in s03.pair_menu)
    assert weights == [-1, -1, 1, 1]


def test_cubic_menus_and_weight_sums():
    for twist, weights, total in (("0", [-1, -1, -1, -1], -4), ("F", [-1, -1, 1, 1], 0)):
        s = make_surface("B1", twist=twist)
        assert sorted(i.weight for i in s.pair_menu) == sorted(weights)
        assert sum(i.weight for i in s.pair_menu) == total
        for item in s.pair_menu:
            assert item.class_sum == s.minus_k_plus_e()
            assert item.beta_im == theta(1)


def test_conic_menu_survives_filter():
    s = make_surface("B", twist="F")
    assert len(s.pair_menu) == 4
    assert all(s.class_allowed(i.class_sum) for i in s.pair_menu)
    assert {i.weight for i in s.pair_menu} == {-1, 1}


def test_menu_items_dimension_zero():
    for spec in (
        make_surface("P2", 4, 1),
        make_surface("P2", 2, 2),
        make_surface("P2", 0, 3),
        make_surface("B1", twist="F"),
    ):
        for item in spec.pair_menu:
            assert spec.e_degree(item.class_sum) >= 1
            assert spec.r_dim_pair(item.class_sum, 2) == 0
            if item.members is not None:
                assert spec.conj(item.members[0]) == item.members[1]


def test_initial_weights_p2_basic():
    s = make_surface("P2", 6, 0)
    e1 = s.parse_class("0;-1,0,0,0,0,0")
    assert s.initial_weight(e1, ZERO, theta(1)) == 1
    line34 = s.parse_class("1;0,0,1,1,0,0")
    assert s.initial_weight(line34, ZERO, theta(1)) == 1
    mke = s.minus_k_plus_e()
    assert s.initial_weight(mke - e1, ZERO, theta(1)) == 1
    assert s.initial_weight(mke, theta(1), theta(1)) == 1


def test_initial_weights_reality_conditions():
    s03 = make_surface("P2", 0, 3)
    e1 = s03.parse_class("0;-1,0,0,0,0,0")
    # the first exceptional curve is imaginary here, so no contribution
    assert s03.initial_weight(e1, ZERO, theta(1)) == 0
    line34 = s03.parse_class("1;0,0,1,1,0,0")
    assert s03.initial_weight(line34, ZERO, theta(1)) == 1  # conjugate pair
    line35 = s03.parse_class("1;0,0,1,0,1,0")
    assert s03.initial_weight(line35, ZERO, theta(1)) == 0  # mixed pair


def test_initial_weight_pattern_series():
    s = make_surface("P2", 6, 0)
    # -(K+E) + L - E1 - E2 - E3 carries one fixed simple tangency
    d = s.parse_class("3;1,1,2,1,1,1")
    assert s.initial_weight(d, theta(1), ZERO) == 1
    # the even-degree series at s = 1: -(K+E) + E3, two fixed branches
    d2 = s.parse_class("2;0,0,0,1,1,1")
    assert s.initial_weight(d2, theta(1, 2), ZERO) == 1
    # any odd-support profile with the right weight is accepted
    d3 = s.parse_class("5;1,1,3,2,2,2")
    assert s.initial_weight(d3, theta(3), ZERO) == 1
    assert s.initial_weight(d3, theta(1, 3), ZERO) == 1


def test_initial_weight_preconditions():
    s = make_surface("P2", 6, 0)
    e1 = s.parse_class("0;-1,0,0,0,0,0")
    with pytest.raises(ValidationError):
        s.initial_weight(e1, ZERO, theta(2))  # even support
    with pytest.raises(ValidationError):
        s.initial_weight(e1, theta(1), theta(1))  # degree mismatch
    with pytest.raises(ValidationError):
        s.initial_weight(-s.lattice.canonical, ZERO, theta(1))  # dimension 2, not 0


def test_initial_weights_cubic():
    for twist in ("0", "F"):
        s = make_surface("B1", twist=twist)
        l2 = s.parse_class("0,1,0")
        l3 = s.parse_class("0,0,1")
        assert s.initial_weight(l2, ZERO, theta(1)) == 1
        assert s.initial_weight(l3, ZERO, theta(1)) == 1
        assert s.initial_weight(s.minus_k_plus_e(), theta(1), theta(1)) == 1
    # with E = L2 the other two real lines carry the simple families
    s = make_surface("B1", twist="F", e_choice="0,1,0")
    assert s.initial_weight(s.parse_class("1,0,0"), ZERO, theta(1)) == 1
    assert s.initial_weight(s.parse_class("0,0,1"), ZERO, theta(1)) == 1


def test_parse_surface_dsl():
    assert parse_surface("P2[6,0]").surface_id.startswith("P2[6,0]")
    assert parse_surface("B1", twist="F").twist == "F"
    assert parse_surface("B").blown_down == (1,)
    with pytest.raises(ParseError):
        parse_surface("P3[1,2]")
    with pytest.raises(ParseError):
        parse_surface("P2[a,b]")
    with pytest.raises(ParseError):
        parse_surface("P2[6,0]", blowdown="x,y")
