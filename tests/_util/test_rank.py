"""Exactness tests for the batched left-rank kernel.

:func:`repro._util.rank.count_le_left` is the primitive under the
vectorised reuse-distance kernel; its contract is *exact integer*
agreement with the obvious O(n^2) definition for any values, any
grouping, any size — including the adversarial shapes (all-equal
values, singleton groups, one giant group) the mergesort levels must
handle.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro._util.rank import count_le_left


def _naive(values, groups=None):
    values = list(values)
    n = len(values)
    out = [0] * n
    for i in range(n):
        for j in range(i):
            if groups is not None and groups[j] != groups[i]:
                continue
            if values[j] <= values[i]:
                out[i] += 1
    return out


class TestUngrouped:
    def test_empty_and_singleton(self):
        assert list(count_le_left(np.empty(0, dtype=np.int64))) == []
        assert list(count_le_left(np.array([7]))) == [0]

    def test_sorted_input_counts_everything(self):
        a = np.arange(10)
        assert list(count_le_left(a)) == list(range(10))

    def test_reverse_sorted_counts_nothing(self):
        a = np.arange(10)[::-1].copy()
        assert list(count_le_left(a)) == [0] * 10

    def test_all_equal_ties_count(self):
        a = np.zeros(6, dtype=np.int64)
        assert list(count_le_left(a)) == [0, 1, 2, 3, 4, 5]

    def test_large_magnitudes_densified(self):
        # values near int64 extremes must not overflow the merge encoding
        a = np.array([2**62, -(2**62), 0, 2**62, -(2**62)], dtype=np.int64)
        assert list(count_le_left(a)) == _naive(a)


class TestGrouped:
    def test_counting_never_crosses_groups(self):
        vals = np.array([5, 1, 5, 1])
        groups = np.array([0, 0, 1, 1])
        assert list(count_le_left(vals, groups)) == [0, 0, 0, 0]

    def test_singleton_groups(self):
        vals = np.arange(8)
        groups = np.arange(8)
        assert list(count_le_left(vals, groups)) == [0] * 8

    def test_length_mismatch_raises(self):
        import pytest

        with pytest.raises(ValueError):
            count_le_left(np.arange(4), np.arange(3))


@settings(max_examples=120)
@given(
    vals=st.lists(st.integers(-8, 8), max_size=150),
    group_lens=st.lists(st.integers(1, 40), max_size=12),
)
def test_matches_naive_reference(vals, group_lens):
    """Property: the batched mergesort equals the O(n^2) definition."""
    n = len(vals)
    a = np.array(vals, dtype=np.int64)
    groups = np.repeat(np.arange(len(group_lens)), group_lens)[:n]
    if len(groups) < n:
        groups = np.concatenate([groups, np.full(n - len(groups), len(group_lens))])
    got = count_le_left(a, groups if n else None)
    assert list(got) == _naive(vals, list(groups[:n]) if n else None)


@settings(max_examples=60)
@given(vals=st.lists(st.integers(0, 1000), max_size=200))
def test_ungrouped_matches_naive(vals):
    got = count_le_left(np.array(vals, dtype=np.int64))
    assert list(got) == _naive(vals)


# -- against the Fenwick oracle ----------------------------------------------------

sys.path.insert(0, str(Path(__file__).resolve().parent))
from fenwick_oracle import count_le_left_fenwick  # noqa: E402


def _check(values, groups=None):
    got = count_le_left(values, groups)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, count_le_left_fenwick(values, groups))


def test_one_long_cache_set_group():
    """One window as the cache model sees a set: ``prev_local`` of a long
    access stream over few lines (-1 for each line's first touch)."""
    rng = np.random.default_rng(7)
    lines = rng.integers(0, 48, 3000)
    last: dict[int, int] = {}
    prev = np.empty(len(lines), dtype=np.int64)
    for i, line in enumerate(lines.tolist()):
        prev[i] = last.get(line, -1)
        last[line] = i
    _check(prev)
    _check(prev, np.zeros(len(prev), dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.integers(-(2**62), 2**62), min_size=2, max_size=120),
    group_len=st.integers(1, 50),
)
def test_values_spanning_more_than_n(vals, group_len):
    """Values spread wider than the array is long take the densify path."""
    _check(np.array(vals, dtype=np.int64), np.arange(len(vals)) // group_len)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 300), v=st.integers(-5, 5), n_groups=st.integers(1, 4))
def test_all_equal_values(n, v, n_groups):
    groups = np.sort(np.arange(n) % n_groups)
    _check(np.full(n, v, dtype=np.int64), groups)
    _check(np.full(n, v, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=150),
    narrow=st.booleans(),
)
def test_uint64_values(vals, narrow):
    """uint64 input, both near the top of the range (a narrow span shifts,
    a wide one densifies) and across it."""
    a = np.array(vals, dtype=np.uint64)
    if narrow:
        a = np.uint64(2**64 - 1) - a % np.uint64(len(vals))
    groups = np.sort(np.arange(len(a)) % 3)
    _check(a, groups)
    _check(a)
