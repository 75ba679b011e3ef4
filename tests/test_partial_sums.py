"""Searchable partial sums: worked examples, bounds on work, oracle fuzz."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsc.partial_sums import PartialSums


def build_example():
    # entries 1..5 hold [0, 8, 4, 0, 4]
    ps = PartialSums(5)
    ps.add(2, 8)
    ps.add(3, 4)
    ps.add(5, 4)
    return ps


def test_values_and_prefixes():
    ps = build_example()
    assert [ps.value(i) for i in range(1, 6)] == [0, 8, 4, 0, 4]
    assert [ps.prefix(i) for i in range(6)] == [0, 0, 8, 12, 12, 16]
    assert ps.total() == 16


def test_search_picks_largest_prefix_not_exceeding():
    ps = build_example()
    assert ps.search_with_prefix(7)[0] == 1
    assert ps.search_with_prefix(14)[0] == 4
    assert ps.search_with_prefix(16)[0] == 5
    assert ps.search_with_prefix(10**9)[0] == 5
    assert ps.search_with_prefix(0)[0] == 1  # prefix(1) = 0 <= 0 < prefix(2)


def test_search_ties_resolve_to_the_largest_index():
    ps = build_example()
    # prefix(3) = prefix(4) = 12: the zero-width entry 4 is skipped over
    assert ps.search_with_prefix(12)[0] == 4
    assert ps.search_with_prefix(8)[0] == 2


def test_search_with_prefix_returns_the_accumulated_sum():
    ps = build_example()
    assert ps.search_with_prefix(7) == (1, 0)
    assert ps.search_with_prefix(8) == (2, 8)
    assert ps.search_with_prefix(14) == (4, 12)
    assert ps.search_with_prefix(16) == (5, 16)


def test_search_on_all_zero_entries_reaches_the_end():
    ps = PartialSums(7)
    assert ps.search_with_prefix(0)[0] == 7
    assert ps.search_with_prefix(5) == (7, 0)


def test_add_supports_negative_deltas_down_to_zero():
    ps = build_example()
    ps.add(3, -4)
    assert ps.value(3) == 0
    assert ps.total() == 12
    with pytest.raises(ValueError):
        ps.add(3, -1)


def test_index_guards():
    ps = PartialSums(4)
    for bad in (0, 5, -1):
        with pytest.raises(IndexError):
            ps.value(bad)
        with pytest.raises(IndexError):
            ps.add(bad, 1)
    with pytest.raises(IndexError):
        ps.prefix(5)
    with pytest.raises(IndexError):
        ps.prefix(-1)
    with pytest.raises(ValueError):
        ps.search_with_prefix(-1)
    with pytest.raises(ValueError):
        PartialSums(0)


def test_prefix_zero_touches_nothing():
    ps = build_example()
    before = ps.touches
    assert ps.prefix(0) == 0
    assert ps.touches == before


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 33, 64])
def test_per_operation_touches_within_log_bound(k):
    bound = k.bit_length()  # floor(log2 k) + 1
    ps = PartialSums(k)
    rng = random.Random(k)
    for _ in range(300):
        op = rng.randrange(3)
        if op == 0:
            i = rng.randrange(1, k + 1)
            delta = max(rng.randrange(0, 50) - 20, -ps.value(i))
            before = ps.touches
            ps.add(i, delta)
        elif op == 1:
            i = rng.randrange(0, k + 1)
            before = ps.touches
            ps.prefix(i)
        else:
            b = rng.randrange(0, ps.total() + 10)
            before = ps.touches
            ps.search_with_prefix(b)
        assert ps.touches - before <= bound


class FlatReference:
    """Plain-list mirror of the partial-sums contract."""

    def __init__(self, k):
        self.vals = [0] * (k + 1)  # 1-indexed

    def add(self, i, delta):
        self.vals[i] += delta

    def prefix(self, i):
        return sum(self.vals[1:i + 1])

    def search(self, b):
        best = 0
        for i in range(len(self.vals)):
            if self.prefix(i) <= b:
                best = i
        return best


@settings(max_examples=120, deadline=None)
@given(k=st.integers(1, 20), data=st.data())
def test_matches_flat_reference(k, data):
    ps = PartialSums(k)
    ref = FlatReference(k)
    ops = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, k),
                                       st.integers(0, 30)), max_size=40))
    for op, i, x in ops:
        if op == 0:
            delta = x - 15
            if ref.vals[i] + delta >= 0:
                ps.add(i, delta)
                ref.add(i, delta)
        elif op == 1:
            assert ps.prefix(i) == ref.prefix(i)
        else:
            assert ps.search_with_prefix(x)[0] == ref.search(x)
            pos, acc = ps.search_with_prefix(x)
            assert acc == ref.prefix(pos)
    assert ps.total() == ref.prefix(k)
    assert [ps.value(i) for i in range(1, k + 1)] == ref.vals[1:]
