"""Unit and property tests for reuse intervals and reuse distance."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reuse import (
    max_reuse_distance,
    mean_reuse_distance,
    region_reuse,
    reuse_distances,
    reuse_intervals,
)
from repro.trace.event import make_events

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "_util"))
from fenwick_oracle import reuse_distances_fenwick  # noqa: E402


def _ev(addrs, cls=2):
    return make_events(ip=1, addr=np.asarray(addrs, dtype=np.uint64), cls=cls)


def _naive_distance(addrs, block=1):
    """Reference O(n^2) stack-distance implementation."""
    ids = [a // block for a in addrs]
    out = []
    last: dict[int, int] = {}
    for i, b in enumerate(ids):
        if b in last:
            out.append(len(set(ids[last[b] + 1 : i])))
        else:
            out.append(-1)
        last[b] = i
    return out


class TestReuseIntervals:
    def test_basic(self):
        assert list(reuse_intervals(_ev([1, 2, 1, 1]))) == [-1, -1, 2, 1]

    def test_blocks(self):
        # 0 and 8 share a 64 B block
        assert list(reuse_intervals(_ev([0, 8]), block=64)) == [-1, 1]

    def test_sample_boundary_resets(self):
        ev = _ev([5, 5, 5, 5])
        sid = np.array([0, 0, 1, 1])
        assert list(reuse_intervals(ev, sample_id=sid)) == [-1, 1, -1, 1]

    def test_empty(self):
        assert len(reuse_intervals(_ev([]))) == 0


class TestReuseDistances:
    def test_immediate_reuse_is_zero(self):
        assert list(reuse_distances(_ev([4, 4]))) == [-1, 0]

    def test_counts_unique_between(self):
        # between the two 1s: blocks {2, 3} -> D = 2
        assert list(reuse_distances(_ev([1, 2, 3, 2, 1]))) == [-1, -1, -1, 1, 2]

    def test_distance_le_interval(self):
        ev = _ev([1, 2, 2, 2, 1])
        d = reuse_distances(ev)
        ri = reuse_intervals(ev)
        mask = d >= 0
        assert np.all(d[mask] <= ri[mask])

    def test_sample_boundary_resets(self):
        ev = _ev([1, 2, 1, 1, 2, 1])
        sid = np.array([0, 0, 0, 1, 1, 1])
        d = reuse_distances(ev, sample_id=sid)
        assert list(d) == [-1, -1, 1, -1, -1, 1]

    def test_mismatched_sample_id(self):
        with pytest.raises(ValueError):
            reuse_distances(_ev([1, 2]), sample_id=np.array([0]))


class TestAggregates:
    def test_mean_over_reusing_only(self):
        # distances: -1, -1, 1, 0 -> mean of (1, 0) = 0.5
        assert mean_reuse_distance(_ev([1, 2, 1, 1]), block=1) == 0.5

    def test_mean_no_reuse(self):
        assert mean_reuse_distance(_ev([1, 2, 3]), block=1) == 0.0

    def test_max(self):
        assert max_reuse_distance(_ev([1, 2, 3, 1]), block=1) == 2
        assert max_reuse_distance(_ev([1, 2]), block=1) == 0

    def test_region_restriction(self):
        # region [0, 10): only addresses 1 and 2
        ev = _ev([1, 100, 1, 2, 100, 2])
        d_mean, d_max, a = region_reuse(ev, 0, 10, block=1)
        assert a == 4
        # the 1-reuse spans {100} -> D=1; the 2-reuse spans {100} -> D=1
        assert d_mean == 1.0
        assert d_max == 1

    def test_region_excludes_constants(self):
        ev = make_events(ip=1, addr=[5, 5], cls=[0, 0])
        _, _, a = region_reuse(ev, 0, 10)
        assert a == 0


@settings(max_examples=60)
@given(
    addrs=st.lists(st.integers(0, 30), max_size=120),
    block=st.sampled_from([1, 4, 64]),
)
def test_matches_naive_reference(addrs, block):
    """Property: Fenwick algorithm equals the O(n^2) reference."""
    got = reuse_distances(_ev(addrs), block=block)
    want = _naive_distance(addrs, block)
    assert list(got) == want


@given(addrs=st.lists(st.integers(0, 20), max_size=100))
def test_distance_bounded_by_footprint(addrs):
    """Property: every D is below the number of distinct blocks."""
    d = reuse_distances(_ev(addrs))
    if len(addrs):
        assert d.max() < max(1, len(set(addrs)))


# -- kernel equivalence -------------------------------------------------------


class TestKernelEquivalence:
    """The vectorised kernel and the Fenwick oracle are bit-identical."""

    def _random_trace(self, rng, n=3000):
        ev = _ev(rng.integers(0, 200, n))
        sid = np.sort(rng.integers(0, 17, n)).astype(np.int32)
        return ev, sid

    @pytest.mark.parametrize("block", [1, 64, 4096])
    def test_vector_equals_fenwick(self, make_rng, block):
        rng = make_rng(f"kernel-eq-{block}")
        ev, sid = self._random_trace(rng)
        v = reuse_distances(ev, block, sid)
        f = reuse_distances_fenwick(ev, block, sid)
        assert np.array_equal(v, f)

    def test_vector_equals_fenwick_no_samples(self, make_rng):
        rng = make_rng("kernel-eq-flat")
        ev = _ev(rng.integers(0, 50, 2000))
        assert np.array_equal(
            reuse_distances(ev),
            reuse_distances_fenwick(ev),
        )

    def test_block_ids_spanning_the_whole_range(self, make_rng):
        """Ids from both ends of uint64 across several windows: too wide
        for the one (window, id) sort key, so the kernel groups them by a
        two-key sort instead."""
        rng = make_rng("kernel-eq-wide")
        base = np.array([0, 2**40, 2**64 - 2**20], dtype=np.uint64)
        addrs = base[rng.integers(0, 3, 1500)] + rng.integers(0, 40, 1500).astype(np.uint64)
        sid = np.sort(rng.integers(0, 6, 1500)).astype(np.int32)
        assert np.array_equal(
            reuse_distances(_ev(addrs), 1, sid),
            reuse_distances_fenwick(_ev(addrs), 1, sid),
        )

    def test_non_monotone_sample_ids(self, make_rng):
        """Boundaries come from id *changes*, not sorted ids — both
        kernels must cut windows identically for non-monotone ids."""
        rng = make_rng("kernel-eq-nonmono")
        ev = _ev(rng.integers(0, 30, 500))
        sid = rng.integers(0, 5, 500).astype(np.int32)  # deliberately unsorted
        assert np.array_equal(
            reuse_distances(ev, 1, sid),
            reuse_distances_fenwick(ev, 1, sid),
        )


@settings(max_examples=60)
@given(
    addrs=st.lists(st.integers(0, 30), max_size=120),
    block=st.sampled_from([1, 4, 64]),
)
def test_vector_kernel_matches_naive(addrs, block):
    """Property: the vectorised kernel equals the O(n^2) reference."""
    got = reuse_distances(_ev(addrs), block=block)
    assert list(got) == _naive_distance(addrs, block)
