"""Parallel == serial property tests for the sharded analysis engine.

The engine's contract is *bit-identical* output: for any shard split,
worker count, and block size, every merged metric must equal what the
serial functions in :mod:`repro.core.metrics` / :mod:`repro.core.reuse`
/ :mod:`repro.core.heatmap` / :mod:`repro.core.diagnostics` produce.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util.rng import derive_rng
from repro.core.diagnostics import compute_diagnostics
from repro.core.heatmap import access_heatmap, heatmap_request
from repro.core.metrics import captures_survivals, footprint, footprint_by_class
from repro.core.parallel import (
    CapturesPartial,
    DiagnosticsPartial,
    ParallelEngine,
    plan_shards,
)
from repro.core.reuse import ReuseHistogram, mean_reuse_distance, reuse_histogram
from repro.core.windows import code_windows
from repro.trace.event import LoadClass, make_events

BLOCKS = [1, 64, 4096]
WORKERS = [1, 2, 8]


def _trace(n=4000, seed=0, n_samples=13, const_frac=0.2):
    """A deterministic mixed-class trace with sample ids."""
    rng = derive_rng(seed, "parallel-engine-trace")
    ev = make_events(
        ip=rng.integers(0, 40, n),
        addr=rng.integers(0, 1 << 18, n),
        cls=rng.choice(
            [0, 1, 2], n, p=[const_frac, (1 - const_frac) / 2, (1 - const_frac) / 2]
        ).astype(np.uint8),
        n_const=rng.choice([0, 0, 0, 4], n).astype(np.uint16),
        fn=rng.integers(0, 6, n),
    )
    sid = np.sort(rng.integers(0, n_samples, n)).astype(np.int32)
    return ev, sid


def _analyze(eng, ev, requests, sid=None, **kwargs) -> dict:
    """Finalized results of an in-memory, unaddressed analysis."""
    return eng.analyze((ev, sid, None), requests, **kwargs).results


def _footprints(d) -> tuple[int, int, int]:
    """(F, F_str, F_irr) of a diagnostics result."""
    return d.F, d.F_str, d.F_irr


def _serial_footprints(ev, block) -> tuple[int, int, int]:
    by_cls = footprint_by_class(ev, block)
    return (
        footprint(ev, block),
        by_cls[LoadClass.STRIDED],
        by_cls[LoadClass.IRREGULAR],
    )


# -- shard planning -----------------------------------------------------------


class TestPlanShards:
    def test_covers_range_contiguously(self):
        shards = plan_shards(100, n_shards=7)
        assert shards[0][0] == 0 and shards[-1][1] == 100
        assert all(a[1] == b[0] for a, b in zip(shards, shards[1:]))

    def test_empty(self):
        assert plan_shards(0, chunk_size=10) == []

    def test_never_splits_a_sample(self, rng):
        sid = np.sort(rng.integers(0, 20, 500))
        for chunk in (1, 7, 64, 500, 1000):
            for lo, hi in plan_shards(500, sid, chunk_size=chunk):
                if hi < 500:
                    assert sid[hi - 1] != sid[hi], (lo, hi, chunk)

    def test_oversized_sample_lands_whole(self):
        sid = np.zeros(50, dtype=np.int64)
        assert plan_shards(50, sid, chunk_size=5) == [(0, 50)]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            plan_shards(10)
        with pytest.raises(ValueError):
            plan_shards(10, n_shards=2, chunk_size=3)
        with pytest.raises(ValueError):
            plan_shards(10, chunk_size=0)

    @given(
        n=st.integers(1, 300),
        chunk=st.integers(1, 80),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_partition(self, n, chunk, seed):
        rng = derive_rng(seed, "plan-shards-property")
        sid = np.sort(rng.integers(0, 9, n))
        shards = plan_shards(n, sid, chunk_size=chunk)
        flat = [i for lo, hi in shards for i in range(lo, hi)]
        assert flat == list(range(n))


# -- merge-operator algebra ---------------------------------------------------


class TestMergeOperators:
    def test_diagnostics_merge_associative(self):
        ev, _ = _trace(900, seed=5)
        parts = [
            DiagnosticsPartial.from_events(ev[i : i + 300], 64) for i in (0, 300, 600)
        ]
        left = parts[0].merge(parts[1]).merge(parts[2])
        right = parts[0].merge(parts[1].merge(parts[2]))
        assert left.finalize(2.0) == right.finalize(2.0)

    def test_diagnostics_identity(self):
        ev, _ = _trace(200, seed=6)
        p = DiagnosticsPartial.from_events(ev, 1)
        assert DiagnosticsPartial.identity().merge(p).finalize() == p.finalize()

    def test_captures_merge_associative_and_commutative(self):
        ev, _ = _trace(900, seed=7)
        a, b, c = (
            CapturesPartial.from_events(ev[i : i + 300], 64) for i in (0, 300, 600)
        )
        assert a.merge(b).merge(c).finalize() == a.merge(b.merge(c)).finalize()
        assert a.merge(b).finalize() == b.merge(a).finalize()

    def test_captures_saturation_across_shards(self):
        # the same block once in each of two shards => one capture, no survival
        ev = make_events(ip=1, addr=[10, 10], cls=LoadClass.IRREGULAR)
        a = CapturesPartial.from_events(ev[:1], 1)
        b = CapturesPartial.from_events(ev[1:], 1)
        assert a.merge(b).finalize() == (1, 0)

    def test_reuse_histogram_merge_matches_whole(self):
        ev, sid = _trace(1200, seed=8, n_samples=6)
        starts = np.concatenate([[0], np.flatnonzero(np.diff(sid)) + 1, [len(ev)]])
        merged = ReuseHistogram.identity()
        for lo, hi in zip(starts[:-1], starts[1:]):
            merged = merged.merge(reuse_histogram(ev[lo:hi], 64, sid[lo:hi]))
        whole = reuse_histogram(ev, 64, sid)
        assert np.array_equal(merged.counts, whole.counts)
        assert (merged.n_cold, merged.n_reuse, merged.d_sum, merged.d_max) == (
            whole.n_cold, whole.n_reuse, whole.d_sum, whole.d_max,
        )
        assert merged.mean == whole.mean

    def test_reuse_histogram_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReuseHistogram.identity(8).merge(ReuseHistogram.identity(16))


# -- engine == serial, the headline property ----------------------------------


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("block", BLOCKS)
class TestParallelEqualsSerial:
    def test_all_metrics(self, workers, block):
        ev, sid = _trace(3000, seed=workers * 31 + block)
        with ParallelEngine(workers=workers, chunk_size=257) as eng:
            res = _analyze(
                eng,
                ev,
                [("diagnostics", {"block": block}), ("captures", {"block": block})],
                rho=4.25,
            )
        assert _footprints(res["diagnostics"]) == _serial_footprints(ev, block)
        assert res["captures"] == captures_survivals(ev, block)
        assert res["diagnostics"] == compute_diagnostics(ev, rho=4.25, block=block)

    def test_reuse_histogram(self, workers, block):
        ev, sid = _trace(2500, seed=workers + block)
        with ParallelEngine(workers=workers, chunk_size=199) as eng:
            par = _analyze(eng, ev, [("reuse", {"block": block})], sid)["reuse"]
        ser = reuse_histogram(ev, block, sid)
        assert np.array_equal(par.counts, ser.counts)
        assert par.d_sum == ser.d_sum and par.d_max == ser.d_max
        assert par.mean == ser.mean == mean_reuse_distance(ev, block, sid)


class TestParallelEqualsSerialMore:
    @pytest.mark.parametrize("chunk", [1, 13, 100, 2500, 10_000])
    def test_random_window_splits(self, chunk):
        ev, sid = _trace(2500, seed=chunk)
        with ParallelEngine(workers=1, chunk_size=chunk) as eng:
            res = _analyze(eng, ev, ["diagnostics", "reuse"], sid, rho=2.0)
        assert res["diagnostics"] == compute_diagnostics(ev, rho=2.0)
        assert np.array_equal(res["reuse"].counts, reuse_histogram(ev, 64, sid).counts)

    def test_constant_only_trace_counts_one_block(self):
        # the Constant class counts as one footprint unit however it is sharded
        ev = make_events(
            ip=1, addr=np.arange(100), cls=LoadClass.CONSTANT, n_const=2
        )
        with ParallelEngine(workers=1, chunk_size=7) as eng:
            res = _analyze(
                eng, ev, [("diagnostics", {"block": 64}), ("captures", {"block": 64})]
            )
        assert _footprints(res["diagnostics"]) == _serial_footprints(ev, 64) == (1, 0, 0)
        assert res["captures"] == (0, 0)

    def test_suppressed_constants_seen_across_shards(self):
        # only one shard carries the proxy record's n_const; merged F still +1
        ev = make_events(ip=1, addr=[1, 2, 3, 4], cls=LoadClass.STRIDED)
        ev["n_const"][3] = 5
        with ParallelEngine(workers=1, chunk_size=2) as eng:
            d = _analyze(eng, ev, ["diagnostics"])["diagnostics"]
        assert d.F == footprint(ev, 1) == 5
        assert d == compute_diagnostics(ev)
        assert d.A_implied == 9

    def test_empty_trace(self):
        ev, _ = _trace(0)
        with ParallelEngine(workers=2, chunk_size=10) as eng:
            res = _analyze(eng, ev, ["diagnostics", "captures"])
        assert res["diagnostics"].F == 0
        assert res["captures"] == (0, 0)
        assert res["diagnostics"] == compute_diagnostics(ev)

    def test_heatmap(self):
        ev, sid = _trace(3000, seed=17, const_frac=0.1)
        with ParallelEngine(workers=1, chunk_size=333) as eng:
            par = _analyze(eng, ev, [heatmap_request(ev, 0, 1 << 17)], sid)["heatmap"]
        ser = access_heatmap(ev, 0, 1 << 17, sample_id=sid)
        assert np.array_equal(par.counts, ser.counts)
        assert np.array_equal(par.reuse, ser.reuse, equal_nan=True)
        assert np.array_equal(par.t_edges, ser.t_edges)

    def test_code_windows(self):
        ev, sid = _trace(20_000, seed=21)
        fn_names = {i: f"f{i}" for i in range(6)}
        serial = code_windows(ev, rho=3.0, block=64, fn_names=fn_names)
        # enough events and shards to take the pooled path
        with ParallelEngine(workers=2, chunk_size=3000) as eng:
            par = _analyze(
                eng, ev, [("windows", {"block": 64})], sid, rho=3.0, fn_names=fn_names
            )["windows"]
        assert par == serial

    def test_reuse_without_sample_ids_single_window(self):
        # no sample ids => one reuse window; sharding must not cut it
        ev, _ = _trace(2000, seed=23)
        with ParallelEngine(workers=1, chunk_size=100) as eng:
            par = _analyze(eng, ev, ["reuse"])["reuse"]
        ser = reuse_histogram(ev, 64, None)
        assert np.array_equal(par.counts, ser.counts) and par.mean == ser.mean

    @given(
        n=st.integers(0, 400),
        chunk=st.integers(1, 120),
        block_exp=st.sampled_from([0, 6, 12]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_diagnostics(self, n, chunk, block_exp, seed):
        ev, sid = _trace(max(n, 1), seed=seed)[0][:n], None
        block = 1 << block_exp
        with ParallelEngine(workers=1, chunk_size=chunk) as eng:
            res = _analyze(
                eng, ev, [("diagnostics", {"block": block}), ("captures", {"block": block})]
            )
        assert res["diagnostics"] == compute_diagnostics(ev, block=block)
        assert res["captures"] == captures_survivals(ev, block)


# -- pool behaviour over the real process boundary ----------------------------


class TestProcessPool:
    def test_pool_path_bit_identical(self):
        # large enough to clear the pool threshold with several shards
        ev, sid = _trace(40_000, seed=29, n_samples=64)
        with ParallelEngine(workers=2, chunk_size=5000) as eng:
            res = _analyze(
                eng, ev, [("diagnostics", {"block": 64}), "reuse"], sid, rho=2.5
            )
        assert res["diagnostics"] == compute_diagnostics(ev, rho=2.5, block=64)
        assert np.array_equal(res["reuse"].counts, reuse_histogram(ev, 64, sid).counts)

    def test_engine_stats_recorded(self):
        ev, sid = _trace(40_000, seed=31)
        with ParallelEngine(workers=2, chunk_size=5000) as eng:
            _analyze(eng, ev, ["diagnostics"], sid)
            stats = dict(eng.timers.stats)
        assert "compute" in stats and stats["compute"].items == 40_000
        assert "merge" in stats
