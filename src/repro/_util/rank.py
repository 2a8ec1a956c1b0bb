"""Vectorised left-rank counting (the engine room of the stack-distance kernel).

:func:`count_le_left` answers, for every position ``i`` of an integer
array ``a`` — optionally segmented into contiguous groups — the query

    ``rank(i) = #{ j < i : group[j] == group[i] and a[j] <= a[i] }``

without a Python-level loop. It is the exact-integer primitive behind
the vectorised reuse-distance kernel (:mod:`repro.core.reuse`): with
``prev[i]`` the index of the previous same-block access inside the
window, the spatio-temporal reuse distance collapses to
``D[i] = rank(i) - prev[i] - 1`` (see ``docs/performance.md`` for the
derivation), so one rank sweep replaces the per-event Fenwick walk.

The algorithm is a bottom-up mergesort run on all groups at once, in
which each level is one stable ``argsort`` plus gathers:

* runs of width ``w`` are kept sorted in place; encoding each element
  as ``value + pair_start * K`` (``K`` larger than the value range,
  ``pair_start`` the slot where the element's (left, right) run pair
  begins — the group start plus the local position rounded down to a
  pair boundary, so no per-level ``cumsum``) makes one stable
  ``argsort`` per level *be* the merge of every run pair at once — a
  run-aware merge sort on int64 keys, no comparisons in Python;
* stability puts tied left-run elements before right-run elements, so
  a right-run element's merged slot minus its old slot plus the run
  width is exactly "how many left-sibling elements are <= me" — the
  count the rank needs — for free. The counts ride along with the
  elements (one gather per level) and land in input order once, at the
  end.

Levels stop at the longest group, so the cost is
O(log(max group length)) sorts of ``n`` keys. All arithmetic is int64
and exact: results are bit-identical to the reference Fenwick loop for
any input.
"""

from __future__ import annotations

import numpy as np

__all__ = ["count_le_left"]


def count_le_left(values: np.ndarray, groups: np.ndarray | None = None) -> np.ndarray:
    """Per-position count of earlier same-group elements ``<=`` this one.

    ``groups``, when given, must hold contiguous group ids (equal values
    adjacent, e.g. a non-decreasing window index); counting never
    crosses a group boundary. Returns an int64 array of ``len(values)``.
    Values may be any integer dtype (values spanning more than ``n`` are
    densified internally, so magnitude never overflows the merge
    encoding).
    """
    a = np.asarray(values)
    n = a.size
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)
    if groups is None:
        lpos = pos
        maxlen = n
    else:
        g = np.asarray(groups)
        if g.size != n:
            raise ValueError("groups length must match values")
        starts = np.flatnonzero(g[1:] != g[:-1]) + 1
        # local position within the group, a property of the slot alone
        gstart = np.zeros(n, dtype=np.int64)
        gstart[starts] = np.diff(starts, prepend=0)
        lpos = pos - np.cumsum(gstart)
        maxlen = int(np.diff(starts, prepend=0, append=n).max())

    # values spanning <= n slots shift to [0, n); wider ones are replaced
    # by their sorted-unique rank. Either way k * pair_start <= n * n
    # stays well inside int64 for any array that fits in memory
    lo = int(a.min())
    if int(a.max()) - lo < n:
        val = (a - a.dtype.type(lo)).astype(np.int64)
    else:
        val = np.unique(a, return_inverse=True)[1].astype(np.int64).reshape(n)
    k = int(val.max()) + 1
    orig = pos
    acc = np.zeros(n, dtype=np.int64)
    # per-level scratch, reused in place (the arrays are the level's cost)
    key = np.empty(n, dtype=np.int64)
    tmp = np.empty(n, dtype=np.int64)
    right = np.empty(n, dtype=bool)

    shift = 0  # current run width is 2**shift (bit ops beat int64 div/mod)
    while (1 << shift) < maxlen:
        half = 1 << shift
        # tmp = the slot each (left, right) run pair starts at: monotone
        # and unique per pair, restarting at group boundaries
        np.bitwise_and(lpos, (half << 1) - 1, out=tmp)
        np.subtract(pos, tmp, out=tmp)
        # one stable sort merges every run pair at once; the element at
        # sorted rank r lands in slot r (pairs are contiguous slot ranges)
        np.multiply(tmp, k, out=key)
        key += val
        order = np.argsort(key, kind="stable")
        val = val[order]
        orig = orig[order]
        acc = acc[order]
        # a right-run element (old slot past its pair's midpoint) moved
        # from run index order - start - half to pair index pos - start,
        # the difference counting the left-sibling elements <= it
        # (stability keeps tied left elements first)
        np.subtract(order, tmp, out=tmp)
        np.greater_equal(tmp, half, out=right)
        np.subtract(pos, order, out=tmp)
        tmp += half
        tmp *= right
        acc += tmp
        shift += 1
    out = np.empty(n, dtype=np.int64)
    out[orig] = acc
    return out
