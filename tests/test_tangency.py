import math

import pytest
from hypothesis import given, strategies as st

from welschinger.errors import InternalCheckError
from welschinger.tangency import (
    GUARD,
    MAX_PACKED_ORDER,
    TangencyVector,
    enumerate_le,
    is_odd_support,
    iweight,
    multinomial,
    norm,
    odd_partitions,
    pack,
    theta,
)

ZERO = TangencyVector.zero()


def vec(**kw):
    return TangencyVector({int(k[1:]): v for k, v in kw.items()})


small_vectors = st.dictionaries(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    max_size=4,
).map(TangencyVector)


def test_norm_examples():
    assert norm(theta(1)) == 1
    assert norm(theta(1) + theta(3, 2)) == 3
    assert norm(ZERO) == 0


def test_iweight_examples():
    assert iweight(theta(3)) == 3
    assert iweight(theta(1, 2) + theta(5)) == 7
    assert iweight(ZERO) == 0


def test_multinomial_examples():
    assert multinomial(theta(1, 2), [theta(1), theta(1)]) == 2
    assert multinomial(vec(k1=1, k3=2), []) == 1
    assert multinomial(theta(1) + theta(3), [theta(1) + theta(3)]) == 1
    with pytest.raises(ValueError):
        multinomial(theta(1), [theta(1), theta(1)])


def test_odd_support_examples():
    assert not is_odd_support(theta(2))
    assert is_odd_support(theta(1) + theta(3))
    assert is_odd_support(ZERO)


def test_enumerate_le_examples():
    assert set(enumerate_le(theta(1))) == {ZERO, theta(1)}
    assert len(list(enumerate_le(theta(1, 2)))) == 3
    assert len(list(enumerate_le(theta(1) + theta(3)))) == 4


def test_canonical_form_and_text():
    v = TangencyVector({3: 1, 1: 2})
    assert str(v) == "1:2,3:1"
    assert TangencyVector.parse("1:2,3:1") == v
    assert TangencyVector.parse("0") == ZERO
    assert str(ZERO) == "0"
    with pytest.raises(ValueError):
        TangencyVector.parse("3:1,1:2")
    with pytest.raises(ValueError):
        TangencyVector({0: 1})


def test_subtraction_guards():
    with pytest.raises(ValueError):
        _ = theta(1) - theta(2)
    with pytest.raises(ValueError):
        _ = theta(2) - theta(2, 2)
    assert (theta(2, 2) - theta(2)) == theta(2)


@given(small_vectors, small_vectors)
def test_norm_iweight_additive(v, w):
    assert norm(v + w) == norm(v) + norm(w)
    assert iweight(v + w) == iweight(v) + iweight(w)


@given(small_vectors)
def test_enumerate_le_cardinality_and_oddness(v):
    items = list(enumerate_le(v))
    expected = math.prod(c + 1 for _, c in v)
    assert len(items) == expected
    assert len(set(items)) == expected
    assert all(w <= v for w in items)
    # each is the vector the validating constructor builds from its entries
    for w in items:
        built = TangencyVector(w.key())
        assert w == built and hash(w) == hash(built) and str(w) == str(built)
    if is_odd_support(v):
        assert all(is_odd_support(w) for w in items)


@given(small_vectors, st.data())
def test_multinomial_permutation_invariant(v, data):
    # three parts exhausting v: each count c splits as a + b + (c - a - b)
    counts = []
    for k, c in v:
        a = data.draw(st.integers(min_value=0, max_value=c))
        b = data.draw(st.integers(min_value=0, max_value=c - a))
        counts.append((k, (a, b, c - a - b)))
    parts = [TangencyVector({k: split[i] for k, split in counts}) for i in range(3)]
    base = multinomial(v, parts)
    assert multinomial(v, list(reversed(parts))) == base
    assert multinomial(v, [parts[1], parts[2], parts[0]]) == base

    def vfact(w):
        return math.prod(math.factorial(c) for _, c in w)

    # the three parts exhaust v, so the leftover factorial is 0! = 1
    assert base * math.prod(vfact(p) for p in parts) == vfact(v)


def _multinomial_per_order(v, parts):
    """The vector multinomial as it was first computed: the parts summed,
    the sum checked against v, then per order of v one binomial per part,
    each part's count read by order."""
    total = ZERO
    for p in parts:
        total = total + p
    if not total <= v:
        raise ValueError("parts exceed the vector componentwise")
    result = 1
    for k, c in v:
        remaining = c
        for p in parts:
            result *= math.comb(remaining, p[k])
            remaining -= p[k]
    return result


def _check_multinomial(v, parts):
    try:
        want = _multinomial_per_order(v, parts)
    except ValueError:
        with pytest.raises(ValueError):
            multinomial(v, parts)
    else:
        assert multinomial(v, parts) == want
        assert multinomial(v, iter(parts)) == want


@given(small_vectors, st.lists(small_vectors, max_size=4))
def test_multinomial_matches_per_order_formula(v, parts):
    # Drawn parts often exceed v, an order v lacks included: both forms
    # must then refuse them.
    _check_multinomial(v, parts)


@given(small_vectors, st.data())
def test_multinomial_matches_per_order_formula_on_parts_below_v(v, data):
    # each part drawn below v, so that the parts often fit together
    below = list(enumerate_le(v))
    _check_multinomial(v, data.draw(st.lists(st.sampled_from(below), max_size=4)))


def test_odd_partitions():
    assert odd_partitions(0) == (ZERO,)
    assert {str(v) for v in odd_partitions(4)} == {"1:4", "1:1,3:1"}
    for v in odd_partitions(9):
        assert is_odd_support(v) and iweight(v) == 9


# -- packed form ---------------------------------------------------------------


def unpack(packed):
    """Decode a packed vector by the layout alone: odd order 2i + 1 in the
    byte i, whose top bit must be clear."""
    entries = {}
    i = 0
    while packed:
        field = packed & 0xFF
        assert field < 0x80, (i, field)
        entries[2 * i + 1] = field
        packed >>= 8
        i += 1
    return TangencyVector(entries)


# odd-support vectors over every order the packed form holds, with counts up
# to the largest a field holds
packable_vectors = st.dictionaries(
    st.sampled_from(range(1, MAX_PACKED_ORDER + 1, 2)),
    st.integers(min_value=0, max_value=127),
    max_size=8,
).map(TangencyVector)


@st.composite
def packable_pairs(draw):
    """Two packable vectors, the second often a near copy of the first, so
    that both outcomes of <= are common."""
    a = draw(packable_vectors)
    if draw(st.booleans()):
        return a, draw(packable_vectors)
    near = st.integers(min_value=-2, max_value=2)
    return a, TangencyVector((k, min(max(c + draw(near), 0), 127)) for k, c in a)


@given(packable_pairs())
def test_packed_arithmetic_matches_vectors(pair):
    a, b = pair
    pa, pb = pack(a), pack(b)
    assert unpack(pa) == a and unpack(pb) == b
    assert pa & GUARD == 0 and pb & GUARD == 0
    for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa)):
        fits = ((py | GUARD) - px) & GUARD == GUARD
        assert fits == (x <= y)
        if fits:
            assert unpack(py - px) == y - x


def test_packed_fields_and_limits():
    assert pack(ZERO) == 0
    assert pack(theta(1)) == 1
    assert pack(theta(3, 2)) == 2 << 8
    top = theta(MAX_PACKED_ORDER, 127)
    assert unpack(pack(top)) == top
    assert GUARD.bit_length() == 8 * (MAX_PACKED_ORDER // 2 + 1)
    for bad in (theta(1, 128), theta(MAX_PACKED_ORDER, 128),
                theta(MAX_PACKED_ORDER + 2), theta(2)):
        with pytest.raises(InternalCheckError):
            pack(bad)
