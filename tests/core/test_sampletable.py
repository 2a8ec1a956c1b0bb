"""The per-sample partial table against the per-sample builders it replaced.

:class:`repro.core.sampletable.SampleTable` feeds the interval tree and
the phase detection from one grouped pass; ``persample_oracle`` keeps
the builders that computed every sample's, half's and function leaf's
partial from its own events. Every node, phase and feature must be
equal — exact floats included — on random collections, including a
single sample, Constant-only samples, sid-less collections (one
sample id for everything), block ids too wide for the direct key, and
``intra_splits`` from 0 to 2.
"""

from __future__ import annotations

import numpy as np
import persample_oracle as oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.interval_tree import ExecutionIntervalTree
from repro.core.phases import detect_phases, sample_features
from repro.core.sampletable import SampleTable
from repro.trace.collector import CollectionResult
from repro.trace.event import LoadClass, make_events
from repro.trace.sampler import SamplingConfig

#: one record: (block index, load class, suppressed Constant loads, function, t gap)
_RECORD = st.tuples(
    st.integers(0, 40),
    st.sampled_from(list(LoadClass)),
    st.sampled_from([0, 0, 0, 3]),
    st.sampled_from([0, 1, 2, 7]),
    st.integers(1, 3),
)
_SAMPLES = st.lists(st.lists(_RECORD, min_size=1, max_size=14), min_size=1, max_size=11)

_CONST_ONLY = [[(0, LoadClass.CONSTANT, 3, 0, 1), (5, LoadClass.CONSTANT, 0, 1, 1)]]
_MIXED = [(1, LoadClass.STRIDED, 2, 0, 1), (9, LoadClass.IRREGULAR, 0, 1, 2)]

#: address bases: a narrow trace, and one whose block ids span ~2**62
_BASES = {False: (0,), True: (0, 2**40, 2**62)}


def _collection(samples, *, sidless=False, wide=False) -> CollectionResult:
    records = [r for sample in samples for r in sample]
    blk, cls, n_const, fn, gap = (np.array(col) for col in zip(*records))
    bases = np.array(_BASES[wide], dtype=np.uint64)
    addr = bases[np.arange(len(blk)) % len(bases)] + blk.astype(np.uint64) * np.uint64(24)
    ev = make_events(
        ip=1, addr=addr, t=np.cumsum(gap), cls=cls, n_const=n_const, fn=fn.astype(np.uint32)
    )
    if sidless:
        sid = np.zeros(len(ev), dtype=np.int32)
    else:
        sid = np.repeat(np.arange(len(samples), dtype=np.int32), [len(s) for s in samples])
    return CollectionResult(
        events=ev,
        sample_id=sid,
        n_samples=int(sid.max()) + 1,
        n_loads_total=4 * int(ev["t"][-1] + 1),
        config=SamplingConfig(period=100, buffer_capacity=32),
    )


_FN_NAMES = {0: "alpha", 2: "gamma"}


@settings(max_examples=80, deadline=None)
@given(
    samples=_SAMPLES,
    rho=st.sampled_from([1.0, 2.5, 10.0]),
    block=st.sampled_from([1, 8, 64]),
    intra_splits=st.integers(0, 2),
    sidless=st.booleans(),
    wide=st.booleans(),
)
@example(samples=[_MIXED], rho=1.0, block=1, intra_splits=0, sidless=False, wide=False)
@example(samples=_CONST_ONLY * 3, rho=10.0, block=64, intra_splits=2, sidless=False, wide=False)
@example(samples=[_MIXED] * 5, rho=3.0, block=8, intra_splits=1, sidless=True, wide=True)
def test_tree_equals_the_per_sample_build(samples, rho, block, intra_splits, sidless, wide):
    col = _collection(samples, sidless=sidless, wide=wide)
    kwargs = dict(rho=rho, block=block, intra_splits=intra_splits, fn_names=_FN_NAMES)
    root, leaves = oracle.build_tree(col, **kwargs)
    tree = ExecutionIntervalTree.build(col, **kwargs)
    assert tree.samples == leaves
    assert tree.root == root
    # the shared table gives the same tree
    shared = ExecutionIntervalTree.build(col, table=SampleTable.of(col, block), **kwargs)
    assert shared.root == root


@settings(max_examples=80, deadline=None)
@given(
    samples=_SAMPLES,
    threshold=st.sampled_from([0.05, 0.25, 0.6]),
    min_phase_samples=st.integers(1, 3),
    block=st.sampled_from([1, 64]),
    sidless=st.booleans(),
    wide=st.booleans(),
)
@example(samples=[_MIXED], threshold=0.25, min_phase_samples=2, block=1, sidless=False, wide=False)
@example(
    samples=_CONST_ONLY * 4, threshold=0.25, min_phase_samples=1, block=64, sidless=False, wide=True
)
def test_phases_equal_the_per_sample_build(
    samples, threshold, min_phase_samples, block, sidless, wide
):
    col = _collection(samples, sidless=sidless, wide=wide)
    kwargs = dict(threshold=threshold, min_phase_samples=min_phase_samples, block=block)
    expected = oracle.detect_phases(col, **kwargs)
    assert detect_phases(col, **kwargs) == expected
    assert detect_phases(col, table=SampleTable.of(col, block), **kwargs) == expected
    np.testing.assert_array_equal(sample_features(col), oracle.sample_features(col))


def test_a_table_at_another_block_is_refused():
    col = _collection([_MIXED])
    table = SampleTable.of(col, 8)
    with pytest.raises(ValueError):
        detect_phases(col, block=1, table=table)
    with pytest.raises(ValueError):
        ExecutionIntervalTree.build(col, rho=1.0, block=1, table=table)


def test_grouped_totals_skip_uncovered_segments():
    """Segments outside every group (``-1``) add nothing to any group."""
    col = _collection([_MIXED, _CONST_ONLY[0], _MIXED, _MIXED])
    table = SampleTable.of(col)
    got = SampleTable.diagnostics(table.totals(np.array([0, -1, 1, 1])))
    lone, pair = (
        oracle.detect_phases(_collection(part), threshold=0.5, min_phase_samples=9)[0].diagnostics
        for part in ([_MIXED], [_MIXED, _MIXED])
    )
    assert got == [lone, pair]
