"""The sorted-set kernels must be bit-identical to numpy's ``*1d`` ops.

The merge path of the engine's partials (``DiagnosticsPartial``,
``CapturesPartial``) replaced ``np.union1d``-family calls with these
kernels, relying on the sorted-unique invariant of partial state; this
suite pins the substitution: same values, same dtype, same order, for
every operator, including empty and disjoint inputs. ``sorted_unique``
replaces plain ``np.unique`` on the analysis paths, and a guard keeps
plain ``np.unique`` out of them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.sortedset import (
    intersect_sorted,
    setdiff_sorted,
    setxor_sorted,
    sorted_unique,
    union_sorted,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

PAIRS = [
    (union_sorted, np.union1d),
    (intersect_sorted, np.intersect1d),
    (setxor_sorted, np.setxor1d),
    (setdiff_sorted, lambda a, b: np.setdiff1d(a, b, assume_unique=True)),
]


def _sets(rng, na, nb, lo=0, hi=1000):
    a = np.unique(rng.integers(lo, hi, na).astype(np.uint64))
    b = np.unique(rng.integers(lo, hi, nb).astype(np.uint64))
    return a, b


@pytest.mark.parametrize("ours,ref", PAIRS, ids=["union", "intersect", "xor", "diff"])
class TestAgainstNumpy:
    def test_overlapping(self, ours, ref, rng):
        a, b = _sets(rng, 400, 300)
        got, want = ours(a, b), ref(a, b)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_disjoint(self, ours, ref):
        a = np.arange(0, 100, 2, dtype=np.uint64)
        b = np.arange(1, 101, 2, dtype=np.uint64)
        assert np.array_equal(ours(a, b), ref(a, b))

    def test_identical(self, ours, ref):
        a = np.arange(50, dtype=np.uint64)
        assert np.array_equal(ours(a, a), ref(a, a))

    @pytest.mark.parametrize("na,nb", [(0, 0), (0, 5), (5, 0)])
    def test_empty_sides(self, ours, ref, na, nb):
        a = np.arange(na, dtype=np.uint64)
        b = np.arange(nb, dtype=np.uint64)
        got, want = ours(a, b), ref(a, b)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_extreme_values(self, ours, ref):
        m = np.iinfo(np.uint64).max
        a = np.array([0, 1, m - 1, m], dtype=np.uint64)
        b = np.array([1, 2, m], dtype=np.uint64)
        assert np.array_equal(ours(a, b), ref(a, b))


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(st.integers(0, 200), max_size=80),
    b=st.lists(st.integers(0, 200), max_size=80),
)
def test_property_equivalence(a, b):
    sa = np.unique(np.asarray(a, dtype=np.uint64))
    sb = np.unique(np.asarray(b, dtype=np.uint64))
    for ours, ref in PAIRS:
        assert np.array_equal(ours(sa, sb), ref(sa, sb))


UNIQUE_DTYPES = [np.uint32, np.uint64, np.int64]


class TestSortedUnique:
    @pytest.mark.parametrize("dtype", UNIQUE_DTYPES)
    @pytest.mark.parametrize(
        "values",
        [[], [7], [3, 3, 3, 3], [5, 1, 4, 1, 5, 9, 2, 6, 5, 3]],
        ids=["empty", "single", "all-equal", "mixed"],
    )
    def test_equals_np_unique(self, dtype, values):
        a = np.asarray(values, dtype=dtype)
        got, want = sorted_unique(a), np.unique(a)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_extreme_values(self):
        m = np.iinfo(np.uint64).max
        a = np.array([m, 0, m, 1, m - 1], dtype=np.uint64)
        assert np.array_equal(sorted_unique(a), np.unique(a))
        lo = np.iinfo(np.int64).min
        b = np.array([0, lo, -1, lo, 5], dtype=np.int64)
        assert np.array_equal(sorted_unique(b), np.unique(b))

    def test_leaves_its_input_alone(self):
        a = np.array([3, 1, 2, 1], dtype=np.uint64)
        out = sorted_unique(a)
        assert a.tolist() == [3, 1, 2, 1]
        out[0] = 99
        assert a.tolist() == [3, 1, 2, 1]


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=120),
)
def test_sorted_unique_property(values):
    a = np.asarray(values, dtype=np.int64)
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _plain_unique_calls(source: str) -> list[int]:
    """Lines calling ``np.unique(...)`` without any ``return_*`` keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not any((k.arg or "").startswith("return_") for k in node.keywords)
        ):
            lines.append(node.lineno)
    return lines


def test_the_guard_flags_only_plain_calls():
    source = (
        "import numpy as np\n"
        "np.unique(x)\n"
        "np.unique(x, return_counts=True)\n"
        "sorted_unique(x)\n"
        "numpy.unique(y, axis=0)\n"
    )
    assert _plain_unique_calls(source) == [2, 5]


def test_no_plain_np_unique_on_the_analysis_paths():
    """numpy 2.x runs a plain ``np.unique`` through a hash table, several
    times slower than :func:`sorted_unique` on integer ids."""
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for package in ("core", "trace")
        for path in sorted((SRC / package).rglob("*.py"))
        for line in _plain_unique_calls(path.read_text(encoding="utf-8"))
    ]
    assert offenders == [], f"use repro._util.sortedset.sorted_unique: {offenders}"
