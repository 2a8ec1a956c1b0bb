"""Unit and property tests for the Fenwick tree behind the reuse oracle."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))
from fenwick_oracle import FenwickTree  # noqa: E402


class TestBasics:
    def test_empty_tree(self):
        t = FenwickTree(0)
        assert t.size == 0
        assert t.total() == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FenwickTree(-1)

    def test_single_slot(self):
        t = FenwickTree(1)
        t.add(0, 5)
        assert t.prefix_sum(0) == 5
        assert t.total() == 5

    def test_point_updates_accumulate(self):
        t = FenwickTree(4)
        t.add(2, 3)
        t.add(2, 4)
        assert t.range_sum(2, 2) == 7

    def test_negative_deltas(self):
        t = FenwickTree(8)
        t.add(3, 1)
        t.add(3, -1)
        assert t.total() == 0

    def test_prefix_sum_empty_prefix(self):
        t = FenwickTree(4)
        t.add(0, 9)
        assert t.prefix_sum(-1) == 0

    def test_range_sum_empty_range(self):
        t = FenwickTree(4)
        t.add(1, 7)
        assert t.range_sum(3, 2) == 0

    def test_out_of_range_add(self):
        t = FenwickTree(4)
        with pytest.raises(IndexError):
            t.add(4, 1)
        with pytest.raises(IndexError):
            t.add(-1, 1)

    def test_out_of_range_query(self):
        t = FenwickTree(4)
        with pytest.raises(IndexError):
            t.prefix_sum(4)


@given(
    updates=st.lists(
        st.tuples(st.integers(0, 63), st.integers(-5, 5)), min_size=0, max_size=80
    ),
    query=st.tuples(st.integers(0, 63), st.integers(0, 63)),
)
def test_matches_naive_array(updates, query):
    """Property: prefix and range sums match a plain array."""
    t = FenwickTree(64)
    ref = np.zeros(64, dtype=np.int64)
    for i, d in updates:
        t.add(i, d)
        ref[i] += d
    lo, hi = min(query), max(query)
    assert t.prefix_sum(hi) == ref[: hi + 1].sum()
    assert t.range_sum(lo, hi) == ref[lo : hi + 1].sum()
    assert t.total() == ref.sum()
