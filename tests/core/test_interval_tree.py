"""Tests for the execution interval tree and access-interval metrics."""

import numpy as np
import pytest

from repro.core.interval_tree import ExecutionIntervalTree, access_interval_metrics
from repro.trace.collector import collect_sampled_trace
from repro.trace.event import make_events
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
        intervals are never scanned, and the rows equal the serial ones."""
        from repro.core.parallel import ParallelEngine
        from repro.obs.journal import RunJournal, read_journal

        ev = make_events(ip=1, addr=(np.arange(n) * 37) % 512, cls=2)
        sid = (np.arange(n) // 50).astype(np.int32)
        journal = RunJournal(tmp_path / "j.jsonl")
        with ParallelEngine(workers=1, journal=journal) as eng:
            rows = access_interval_metrics(ev, 8, rho=3.0, sample_id=sid, engine=eng)
        journal.close()
        scans = [
            r for r in read_journal(tmp_path / "j.jsonl") if r["event"] == "shard-analyzed"
        ]
        non_empty = [r for r in rows if r["A_obs"]]
        assert len(scans) == len(non_empty) == min(n, 8)
        assert all(s["n_passes"] == 2 for s in scans)
        assert [s["n_events"] for s in scans] == [r["A_obs"] for r in non_empty]
        assert rows == access_interval_metrics(ev, 8, rho=3.0, sample_id=sid)
