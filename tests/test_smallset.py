import pytest
from hypothesis import given, strategies as st

from bitsudoku.smallset import (
    WORD_WIDTH,
    CapacityError,
    ElementRangeError,
    ShiftRangeError,
    SmallSet,
    bit_value,
    power2,
)

from oracles import (
    members_of_word,
    ref_difference,
    ref_insert,
    ref_intersect,
    ref_is_subset,
    ref_remove,
    ref_union,
)


def sset(elements, capacity):
    return SmallSet.from_elements(elements, capacity)


# -- constructors -----------------------------------------------------------

def test_empty_is_all_zero_bits():
    assert SmallSet.empty(9).bits == 0
    assert SmallSet.empty(4).cardinality() == 0
    assert not SmallSet.empty(25).contains(1)


def test_full_is_all_ones_word():
    assert SmallSet.full(4).bits == 15
    assert SmallSet.full(9).bits == 511
    assert list(SmallSet.full(1).elements()) == [1]


@pytest.mark.parametrize("capacity", [0, -3, WORD_WIDTH + 1])
def test_capacity_out_of_range_rejected(capacity):
    with pytest.raises(CapacityError):
        SmallSet.empty(capacity)
    with pytest.raises(CapacityError):
        SmallSet.full(capacity)


def test_stray_bits_above_capacity_rejected():
    with pytest.raises(ValueError):
        SmallSet(0b100, 2)
    with pytest.raises(ValueError):
        SmallSet(-1, 4)


# -- word helpers -----------------------------------------------------------

def test_power2():
    assert power2(0) == 1
    assert power2(3) == 8
    assert power2(24) == 16777216


def test_power2_shift_range():
    with pytest.raises(ShiftRangeError):
        power2(WORD_WIDTH)
    with pytest.raises(ShiftRangeError):
        power2(-1)


def test_bit_value():
    assert bit_value(5, 0) == 1
    assert bit_value(5, 1) == 0
    assert bit_value(2 ** 31, 31) == 1


def test_bit_value_shift_range():
    with pytest.raises(ShiftRangeError):
        bit_value(1, WORD_WIDTH)
    with pytest.raises(ValueError):
        bit_value(-1, 0)


@given(st.integers(1, WORD_WIDTH - 1))
def test_power2_doubles(k):
    assert power2(k) == 2 * power2(k - 1)


@given(st.integers(0, WORD_WIDTH - 1), st.integers(0, WORD_WIDTH - 1))
def test_bit_value_of_power2(k, j):
    assert bit_value(power2(k), j) == (1 if j == k else 0)


# -- binary operations ------------------------------------------------------

def test_intersect_example_words():
    a = sset([1, 3, 5], 9)
    b = sset([3, 5, 7], 9)
    assert a.bits == 21 and b.bits == 84
    assert a.intersect(b).bits == 20
    assert list(a.intersect(b)) == [3, 5]


def test_intersect_identities():
    a = sset([2, 4, 9], 9)
    assert a.intersect(SmallSet.empty(9)) == SmallSet.empty(9)
    assert a.intersect(SmallSet.full(9)) == a


def test_union_examples():
    assert sset([1], 4).union(sset([2], 4)).bits == 3
    a = sset([1, 3, 5], 9)
    assert a.union(SmallSet.empty(9)) == a
    assert list(a.union(sset([3, 5, 7], 9))) == [1, 3, 5, 7]


def test_difference_examples():
    a = sset([1, 2, 3], 4)
    assert a.bits == 7
    assert a.difference(sset([2], 4)).bits == 5
    assert a.difference(SmallSet.empty(4)) == a
    assert a.difference(a) == SmallSet.empty(4)


def test_equals_and_subset():
    assert SmallSet.empty(4).equals(SmallSet.empty(4))
    assert sset([1, 2], 9).equals(sset([2, 1], 9))
    assert not sset([1], 9).equals(sset([2], 9))
    assert SmallSet.empty(9).is_subset(sset([4, 7], 9))
    assert sset([1, 3], 9).is_subset(sset([1, 2, 3], 9))
    assert not sset([4], 9).is_subset(sset([1, 2, 3], 9))


@pytest.mark.parametrize("op", ["intersect", "union", "difference",
                                "equals", "is_subset"])
def test_capacity_mismatch_rejected(op):
    a = SmallSet.full(9)
    b = SmallSet.full(16)
    with pytest.raises(CapacityError):
        getattr(a, op)(b)


# -- element operations -----------------------------------------------------

def test_insert():
    assert SmallSet.empty(4).insert(3).bits == 4
    assert sset([3], 4).insert(3) == sset([3], 4)
    assert sset([1], 9).insert(9).bits == 257


def test_remove():
    assert list(sset([1, 2, 3], 4).remove(2)) == [1, 3]
    assert sset([1, 3], 4).remove(2) == sset([1, 3], 4)
    assert sset([5], 9).remove(5) == SmallSet.empty(9)


def test_contains():
    a = sset([1, 3], 9)
    assert a.contains(3)
    assert not a.contains(2)
    assert SmallSet.full(9).contains(9)
    assert 3 in a and 2 not in a


@pytest.mark.parametrize("d", [0, 10, -1])
def test_element_out_of_universe_rejected(d):
    a = SmallSet.full(9)
    for op in (a.insert, a.remove, a.contains):
        with pytest.raises(ElementRangeError):
            op(d)


def test_cardinality():
    assert SmallSet.empty(4).cardinality() == 0
    assert sset([2, 7, 9], 9).cardinality() == 3
    assert SmallSet.full(25).cardinality() == 25
    assert len(sset([2, 7], 9)) == 2
    for capacity in (1, 9, 25):
        assert not SmallSet.empty(capacity)
        assert sset([capacity], capacity) and SmallSet.full(capacity)


def test_elements_ascending():
    assert list(SmallSet.empty(4).elements()) == []
    assert list(sset([3, 1], 4).elements()) == [1, 3]
    assert list(SmallSet.full(4).elements()) == [1, 2, 3, 4]


def test_display_form():
    assert str(SmallSet.empty(9)) == "{}"
    assert str(sset([3, 1, 9], 9)) == "{1,3,9}"


# -- algebraic laws over random sets ----------------------------------------

@st.composite
def set_pair(draw, max_capacity=25):
    m = draw(st.integers(1, max_capacity))
    a = draw(st.integers(0, (1 << m) - 1))
    b = draw(st.integers(0, (1 << m) - 1))
    return SmallSet(a, m), SmallSet(b, m)


@st.composite
def set_triple(draw, max_capacity=25):
    m = draw(st.integers(1, max_capacity))
    words = [draw(st.integers(0, (1 << m) - 1)) for _ in range(3)]
    return tuple(SmallSet(w, m) for w in words)


@given(set_pair())
def test_commutativity(pair):
    a, b = pair
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)


@given(set_triple())
def test_associativity(triple):
    a, b, c = triple
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(set_pair())
def test_difference_is_intersection_with_complement(pair):
    a, b = pair
    complement = SmallSet.full(a.capacity).difference(b)
    assert a.difference(b) == a.intersect(complement)


@given(set_pair())
def test_subset_iff_intersection_fixes_left(pair):
    a, b = pair
    assert a.is_subset(b) == a.intersect(b).equals(a)


@given(set_pair(), st.data())
def test_insert_remove_idempotence(pair, data):
    a, _ = pair
    d = data.draw(st.integers(1, a.capacity))
    assert a.insert(d).remove(d) == a.remove(d)
    assert a.remove(d).insert(d) == a.insert(d)


@given(set_pair())
def test_no_bits_escape_capacity(pair):
    a, b = pair
    mask = (1 << a.capacity) - 1
    for result in (a.union(b), a.intersect(b), a.difference(b),
                   a.insert(1), a.remove(1)):
        assert result.bits & ~mask == 0


# -- agreement with the list-based reference (sampled; exhaustive run is in
# the acceptance suite) ------------------------------------------------------

@given(st.integers(0, 255), st.integers(0, 255))
def test_matches_list_reference_m8(wa, wb):
    m = 8
    a, b = SmallSet(wa, m), SmallSet(wb, m)
    la, lb = members_of_word(wa, m), members_of_word(wb, m)
    assert list(a.intersect(b)) == ref_intersect(la, lb)
    assert list(a.union(b)) == ref_union(la, lb)
    assert list(a.difference(b)) == ref_difference(la, lb)
    assert a.equals(b) == (la == lb)
    assert a.is_subset(b) == ref_is_subset(la, lb)
    assert a.cardinality() == len(la)
    for d in range(1, m + 1):
        assert a.contains(d) == (d in la)
        assert list(a.insert(d)) == ref_insert(la, d)
        assert list(a.remove(d)) == ref_remove(la, d)
