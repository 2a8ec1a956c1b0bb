"""Tests for the execution interval tree and access-interval metrics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.diagnostics import compute_diagnostics
from repro.core.interval_tree import ExecutionIntervalTree, access_interval_metrics
from repro.core.reuse import mean_reuse_distance
from repro.trace.collector import CollectionResult, collect_sampled_trace
from repro.trace.event import LoadClass, make_events
from repro.trace.sampler import SamplingConfig


def _collection(n=4000, period=500, cap=50):
    ev = make_events(ip=1, addr=np.arange(n) % 256, cls=2, fn=(np.arange(n) // (n // 2)))
    cfg = SamplingConfig(period=period, buffer_capacity=cap, fill_mean=1.0, fill_jitter=0.0)
    return collect_sampled_trace(ev, config=cfg)


class TestBuild:
    def test_leaves_are_samples(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        assert len(tree.samples) == col.n_samples
        assert all(n.exact for n in tree.samples)

    def test_root_spans_everything(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        assert tree.root.t_start == tree.samples[0].t_start
        assert tree.root.t_end == tree.samples[-1].t_end
        assert not tree.root.exact

    def test_merged_metrics_are_estimates(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        # root sees all samples; estimated accesses scale with rho
        assert tree.root.diagnostics.A_est == pytest.approx(
            10.0 * len(col.events)
        )

    def test_function_leaf_nodes(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0, fn_names={0: "a", 1: "b"})
        fns = {c.function for s in tree.samples for c in s.children}
        assert fns <= {"a", "b"}
        assert len(fns) >= 1

    def test_intra_splits(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0, intra_splits=1)
        sample = tree.samples[0]
        assert len(sample.children) == 2
        assert all(c.level == -1 for c in sample.children)

    def test_empty_collection_rejected(self):
        ev = make_events(ip=1, addr=np.arange(0))
        cfg = SamplingConfig(period=10, buffer_capacity=4)
        col = collect_sampled_trace(ev, config=cfg)
        with pytest.raises(ValueError):
            ExecutionIntervalTree.build(col, rho=1.0)


# -- the partial-fold tree against a re-unique oracle ---------------------------

#: one record: (block index, load class, suppressed Constant loads, function)
_RECORD = st.tuples(
    st.integers(0, 40),
    st.sampled_from(list(LoadClass)),
    st.sampled_from([0, 0, 0, 2]),
    st.integers(0, 2),
)


def _random_collection(samples: list[list[tuple]]) -> CollectionResult:
    """A sampled collection with one consecutive run of records per sample."""
    records = [r for sample in samples for r in sample]
    blk, cls, n_const, fn = (np.array(col) for col in zip(*records))
    ev = make_events(ip=1, addr=blk * 24, cls=cls, n_const=n_const, fn=fn)
    sid = np.repeat(np.arange(len(samples), dtype=np.int32), [len(s) for s in samples])
    return CollectionResult(
        events=ev,
        sample_id=sid,
        n_samples=len(samples),
        n_loads_total=4 * len(ev),
        config=SamplingConfig(period=100, buffer_capacity=32),
    )


def _oracle_events(node, leaf_events: dict) -> np.ndarray:
    """A node's records: a sample leaf's own, an upper node's children's
    concatenated — the construction the partial fold replaces."""
    if node.level == 0:
        return leaf_events[id(node)]
    return np.concatenate([_oracle_events(c, leaf_events) for c in node.children])


def _check_below(node, events: np.ndarray, block: int) -> None:
    """Exact nodes (a sample and everything under it) against the oracle."""
    assert node.exact
    assert node.diagnostics == compute_diagnostics(events, rho=1.0, block=block)
    if not node.children:
        return
    if node.children[0].function is None:  # intra-sample halves
        half = len(events) // 2
        parts = [events[:half], events[half:]]
    else:  # function leaves
        parts = [events[events["fn"] == fid] for fid in np.unique(events["fn"])]
    assert len(parts) == len(node.children)
    for child, part in zip(node.children, parts):
        _check_below(child, part, block)


_CONST_ONLY = [[(0, LoadClass.CONSTANT, 3, 0), (5, LoadClass.CONSTANT, 0, 1)]]
_SUPPRESSED = [(1, LoadClass.STRIDED, 2, 0), (9, LoadClass.IRREGULAR, 0, 1)]


@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(st.lists(_RECORD, min_size=1, max_size=12), min_size=1, max_size=9),
    rho=st.sampled_from([1.0, 2.5, 10.0]),
    block=st.sampled_from([1, 8, 64]),
    intra_splits=st.integers(0, 2),
)
@example(samples=[_SUPPRESSED], rho=1.0, block=1, intra_splits=0)  # one sample
@example(samples=[_SUPPRESSED] * 5, rho=3.0, block=8, intra_splits=0)  # unpaired
@example(samples=_CONST_ONLY * 3, rho=10.0, block=64, intra_splits=1)
def test_partial_fold_matches_reunique_oracle(samples, rho, block, intra_splits):
    """Every node of the partial-fold tree equals ``compute_diagnostics``
    over the node's concatenated records (rho-scaled above the samples)."""
    col = _random_collection(samples)
    tree = ExecutionIntervalTree.build(
        col, rho=rho, block=block, intra_splits=intra_splits
    )
    sample_events = list(col.samples())
    assert len(tree.samples) == len(sample_events) == len(samples)
    leaf_events = {id(n): ev for n, ev in zip(tree.samples, sample_events)}
    for leaf, ev in zip(tree.samples, sample_events):
        _check_below(leaf, ev, block)

    level = [tree.root]
    while level[0].level > 0:
        for node in level:
            ev = _oracle_events(node, leaf_events)
            assert not node.exact
            assert (node.t_start, node.t_end) == (int(ev["t"][0]), int(ev["t"][-1]) + 1)
            assert node.diagnostics == compute_diagnostics(ev, rho=rho, block=block)
        level = [c for node in level for c in node.children]
    assert level == tree.samples


class TestZoom:
    def test_zoom_path_descends(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        path = tree.zoom()
        assert path[0] is tree.root
        assert len(path) >= 2
        for parent, child in zip(path, path[1:]):
            assert child in parent.children

    def test_max_depth(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        assert len(tree.zoom(max_depth=1)) == 2

    def test_custom_criterion(self):
        col = _collection()
        tree = ExecutionIntervalTree.build(col, rho=10.0)
        path = tree.zoom(criterion=lambda n: -n.t_start)  # always leftmost
        assert path[1] is tree.root.children[0]


class TestAccessIntervals:
    def test_row_count_and_fields(self):
        ev = make_events(ip=1, addr=np.arange(800), cls=2)
        rows = access_interval_metrics(ev, 8)
        assert len(rows) == 8
        assert {"interval", "F", "dF", "D", "A"} <= set(rows[0])

    def test_equal_record_counts(self):
        ev = make_events(ip=1, addr=np.arange(100), cls=2)
        rows = access_interval_metrics(ev, 4)
        assert all(r["A_obs"] == 25 for r in rows)

    def test_locality_shift_detected(self):
        # first half streams, second half hammers one block
        addr = np.concatenate([np.arange(500) * 64, np.zeros(500)])
        ev = make_events(ip=1, addr=addr, cls=2)
        rows = access_interval_metrics(ev, 2)
        assert rows[0]["dF"] > rows[1]["dF"]

    def test_bad_args(self):
        ev = make_events(ip=1, addr=np.arange(4))
        with pytest.raises(ValueError):
            access_interval_metrics(ev, 0)

    @pytest.mark.parametrize("n", [6, 1000])
    def test_engine_scans_each_interval_once(self, tmp_path, n):
        """Both metrics of an interval ride one fused scan; empty
        intervals are never scanned, and the rows — with or without a
        caller's engine — equal the serial oracle's."""
        from repro.core.parallel import ParallelEngine
        from repro.obs import Obs, RunJournal, read_journal

        ev = make_events(ip=1, addr=(np.arange(n) * 37) % 512, cls=2)
        sid = (np.arange(n) // 50).astype(np.int32)
        journal = RunJournal(tmp_path / "j.jsonl")
        with ParallelEngine(workers=1, obs=Obs(journal)) as eng:
            rows = access_interval_metrics(ev, 8, rho=3.0, sample_id=sid, engine=eng)
        journal.close()
        scans = [
            r for r in read_journal(tmp_path / "j.jsonl") if r["event"] == "shard-analyzed"
        ]
        non_empty = [r for r in rows if r["A_obs"]]
        assert len(scans) == len(non_empty) == min(n, 8)
        assert all(s["n_passes"] == 2 for s in scans)
        assert [s["n_events"] for s in scans] == [r["A_obs"] for r in non_empty]
        assert rows == _serial_interval_rows(ev, 8, rho=3.0, sample_id=sid)
        assert rows == access_interval_metrics(ev, 8, rho=3.0, sample_id=sid)


def _serial_interval_rows(events, n_intervals, *, rho, block=1, reuse_block=64, sample_id=None):
    """Oracle for :func:`access_interval_metrics`: each interval through the
    serial ``compute_diagnostics`` and ``mean_reuse_distance``."""
    edges = np.linspace(0, len(events), n_intervals + 1).astype(np.int64)
    rows = []
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        part = events[lo:hi]
        if len(part) == 0:
            rows.append({"interval": k, "F": 0.0, "dF": 0.0, "D": 0.0, "A": 0.0, "A_obs": 0})
            continue
        sid = sample_id[lo:hi] if sample_id is not None else None
        diag = compute_diagnostics(part, rho=rho, block=block)
        rows.append(
            {
                "interval": k,
                "F": diag.F_est,
                "dF": diag.dF,
                "D": mean_reuse_distance(part, block=reuse_block, sample_id=sid),
                "A": diag.A_est,
                "A_obs": diag.A_obs,
            }
        )
    return rows
