"""Reference reuse-distance oracle: the classic Fenwick-tree walk.

The production kernel (:func:`repro.core.reuse.stack_distances`) is a
vectorised rank sweep. This module keeps the independently derived
per-event algorithm it must equal bit for bit: one marker bit per trace
position holds "this position is the most recent access to its block",
and the distance of an access is the marker count strictly between the
previous access to its block and now — an O(n log n) walk over a
:class:`FenwickTree` (binary-indexed tree).

:func:`count_le_left_fenwick` is the same walk for the rank primitive
under the kernel (:func:`repro._util.rank.count_le_left`): one Fenwick
tree of value counts per group, queried before each insert.

Import it from a test after putting this directory on ``sys.path``::

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "_util"))
    from fenwick_oracle import reuse_distances_fenwick
"""

from __future__ import annotations

import numpy as np

from repro._util.validate import check_power_of_two
from repro.core.metrics import block_ids
from repro.core.reuse import _boundaries
from repro.trace.event import EVENT_DTYPE

__all__ = ["FenwickTree", "count_le_left_fenwick", "reuse_distances_fenwick"]


class FenwickTree:
    """Prefix-sum tree over ``n`` integer-valued slots, 0-indexed externally.

    Supports point update and prefix/range queries in O(log n). Values may
    be negative (needed to *unmark* a position when a block is re-accessed).
    """

    __slots__ = ("_n", "_tree")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"size must be non-negative, got {n}")
        self._n = n
        # slot 0 unused internally; 1-indexed tree
        self._tree = np.zeros(n + 1, dtype=np.int64)

    @property
    def size(self) -> int:
        """Number of slots."""
        return self._n

    def add(self, i: int, delta: int) -> None:
        """Add ``delta`` to slot ``i`` (0-indexed)."""
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range [0, {self._n})")
        tree = self._tree
        i += 1
        while i <= self._n:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, i: int) -> int:
        """Sum of slots ``[0, i]`` (0-indexed, inclusive).

        ``i == -1`` returns 0 (the empty prefix).
        """
        if i >= self._n:
            raise IndexError(f"index {i} out of range [0, {self._n})")
        total = 0
        tree = self._tree
        i += 1
        while i > 0:
            total += int(tree[i])
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of slots ``[lo, hi]`` inclusive; empty when ``lo > hi``."""
        if lo > hi:
            return 0
        return self.prefix_sum(hi) - (self.prefix_sum(lo - 1) if lo > 0 else 0)

    def total(self) -> int:
        """Sum of every slot."""
        if self._n == 0:
            return 0
        return self.prefix_sum(self._n - 1)


def reuse_distances_fenwick(
    events: np.ndarray, block: int = 1, sample_id: np.ndarray | None = None
) -> np.ndarray:
    """Per-access reuse distance D by the per-event Fenwick walk.

    Same contract as :func:`repro.core.reuse.reuse_distances`: ``-1`` for
    first touches, tracking reset at every sample boundary.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    check_power_of_two("block", block)
    n = len(events)
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    ids = block_ids(events, block)
    starts = _boundaries(n, sample_id)
    ends = np.append(starts[1:], n)
    for lo, hi in zip(starts, ends):
        window = ids[lo:hi]
        tree = FenwickTree(len(window))
        last: dict[int, int] = {}
        for i, b in enumerate(window):
            b = int(b)
            prev = last.get(b)
            if prev is not None:
                # unique blocks since prev = markers in (prev, i)
                out[lo + i] = tree.range_sum(prev + 1, i - 1)
                tree.add(prev, -1)
            tree.add(i, 1)
            last[b] = i
    return out


def count_le_left_fenwick(values: np.ndarray, groups: np.ndarray | None = None) -> np.ndarray:
    """Per position, the earlier same-group elements ``<=`` it, by Fenwick walk.

    Same contract as :func:`repro._util.rank.count_le_left`: ``groups``
    holds contiguous group ids. Values are ranked among the distinct
    values (Python ints, so any integer dtype works) and counted in a
    tree of value counts that restarts at every group boundary.
    """
    vals = [int(v) for v in np.asarray(values).tolist()]
    n = len(vals)
    out = np.zeros(n, dtype=np.int64)
    gids = [None] * n if groups is None else np.asarray(groups).tolist()
    rank = {v: r for r, v in enumerate(sorted(set(vals)))}
    tree = FenwickTree(len(rank))
    for i, (v, g) in enumerate(zip(vals, gids)):
        if i and g != gids[i - 1]:
            tree = FenwickTree(len(rank))
        out[i] = tree.prefix_sum(rank[v])
        tree.add(rank[v], 1)
    return out
