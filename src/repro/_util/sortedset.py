"""Set algebra over sorted-unique arrays, without re-sorting from scratch.

The engine's mergeable partials (`DiagnosticsPartial`, `CapturesPartial`
— see ``repro.core.passes``) keep their block-id state as **sorted
unique** arrays; that invariant is established once per chunk and every
merge preserves it. ``np.union1d`` and friends cannot exploit it — they
re-sort the concatenation from scratch on every fold, which made the
merge stage O(chunks x footprint log footprint) and, on large traces,
as expensive as the scans themselves.

These kernels assume the invariant instead: concatenating two sorted
runs and sorting with ``kind="stable"`` (timsort) is a galloping merge,
linear in practice, and membership against a sorted array is one
``searchsorted``. Outputs are bit-identical to the ``np.*1d``
equivalents — same values, same dtype, same (sorted unique) order —
pinned by ``tests/_util/test_sortedset.py``.

Preconditions are the caller's contract: each input must be sorted and
duplicate-free. Nothing here checks (a check would cost the O(n) the
kernels save).

:func:`sorted_unique` establishes the invariant in the first place. A
plain ``np.unique(x)`` (no ``return_*`` flag) runs through a hash table
in numpy 2.x, several times slower on integer block ids than one sort
plus an adjacent-difference mask, which is what it does instead.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sorted_unique",
    "union_sorted",
    "intersect_sorted",
    "setxor_sorted",
    "setdiff_sorted",
]


def _dedupe(c: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array (drops adjacent repeats)."""
    if len(c) == 0:
        return c
    keep = np.empty(len(c), dtype=bool)
    keep[0] = True
    np.not_equal(c[1:], c[:-1], out=keep[1:])
    return c[keep]


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` for an integer array, by sort: same values, dtype, order.

    Like ``np.unique`` it flattens and never aliases its input.
    """
    return _dedupe(np.sort(a, axis=None))


def _merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted concatenation of two sorted arrays (stable = galloping merge)."""
    c = np.concatenate([a, b])
    c.sort(kind="stable")
    return c


def union_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a | b`` for sorted-unique inputs; equals ``np.union1d(a, b)``."""
    return _dedupe(_merged(a, b))


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a & b`` for sorted-unique inputs; equals ``np.intersect1d``.

    Each value appears at most once per side, so a cross-side duplicate
    in the merged run marks exactly one intersection element.
    """
    c = _merged(a, b)
    if len(c) == 0:
        return c
    return c[:-1][c[1:] == c[:-1]]


def setxor_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a ^ b`` for sorted-unique inputs; equals ``np.setxor1d``."""
    c = _merged(a, b)
    if len(c) == 0:
        return c
    dup = c[1:] == c[:-1]
    solo = np.ones(len(c), dtype=bool)
    solo[1:] &= ~dup
    solo[:-1] &= ~dup
    return c[solo]


def setdiff_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a - b`` for sorted-unique inputs; equals ``np.setdiff1d(...,
    assume_unique=True)`` on such inputs."""
    if len(a) == 0 or len(b) == 0:
        return a
    idx = np.searchsorted(b, a)
    idx[idx == len(b)] = len(b) - 1
    return a[b[idx] != a]
