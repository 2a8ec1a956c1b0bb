"""Zero-event traces must produce well-defined zeros, never NaN or a crash.

An empty trace is not an error: a filtered window, an all-constant
sample, or a freshly created archive can all present zero events to any
metric. Every serial function, every registered pass (through
:meth:`ParallelEngine.analyze` over in-memory events and over a streamed
archive) must return their merge identities — and the report CLI must say "trace is
empty" instead of dividing by zero.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.diagnostics import compute_diagnostics
from repro.core.growth import footprint_growth
from repro.core.hotspot import rank_hotspots
from repro.core.metrics import (
    captures_survivals,
    estimated_footprint,
    footprint,
    footprint_by_class,
)
from repro.core.parallel import ParallelEngine
from repro.core.passes import get_pass, list_passes, scan_chunk, schedule_passes
from repro.core.reuse import (
    ReuseHistogram,
    max_reuse_distance,
    mean_reuse_distance,
    reuse_distances,
    reuse_histogram,
    reuse_intervals,
)
from repro.trace.compress import compression_ratio
from repro.trace.event import EVENT_DTYPE, LoadClass, make_events
from repro.trace.tracefile import TraceMeta, write_trace

EMPTY = np.empty(0, dtype=EVENT_DTYPE)
EMPTY_SID = np.empty(0, dtype=np.int32)

#: params that satisfy HeatmapPass's ``needs`` on an empty trace
HEATMAP_PARAMS = {
    "regions": (
        {
            "base": 0, "size": 1 << 16, "page_size": 1 << 10,
            "t_edges": np.array([0.0, 1.0]), "n_pages": 64, "n_bins": 1,
        },
    ),
}


def _request(name):
    return (name, HEATMAP_PARAMS) if name == "heatmap" else name


class TestSerialFunctions:
    def test_footprint_zero(self):
        assert footprint(EMPTY) == 0
        assert footprint(EMPTY, block=64) == 0

    def test_footprint_by_class_all_zero(self):
        by_cls = footprint_by_class(EMPTY)
        assert set(by_cls) == set(LoadClass)
        assert all(v == 0 for v in by_cls.values())

    def test_captures_survivals_zero(self):
        assert captures_survivals(EMPTY) == (0, 0)

    def test_estimated_footprint_zero(self):
        assert estimated_footprint(EMPTY, rho=5.0) == 0

    def test_diagnostics_no_nan(self):
        d = compute_diagnostics(EMPTY, rho=3.0)
        for field in ("A_est", "F_est", "dF", "F_str_pct", "A_const_pct"):
            value = float(getattr(d, field))
            assert math.isfinite(value), f"{field} must be finite, got {value}"
            assert value == 0.0

    def test_compression_ratio_identity(self):
        assert compression_ratio(EMPTY) == 1.0

    def test_footprint_growth_zero(self):
        assert footprint_growth(EMPTY) == 0.0

    def test_reuse_functions_zero(self):
        assert reuse_intervals(EMPTY).shape == (0,)
        assert reuse_distances(EMPTY).shape == (0,)
        assert mean_reuse_distance(EMPTY) == 0.0
        assert max_reuse_distance(EMPTY) == 0
        h = reuse_histogram(EMPTY)
        assert h.n_cold == 0 and h.n_reuse == 0 and h.d_sum == 0
        assert h.mean == 0.0

    def test_rank_hotspots_empty(self):
        assert rank_hotspots(EMPTY) == []


class TestCacheSim:
    """Cache simulation must hold the zero-identity too (not NaN/raise)."""

    def test_cache_stats_ratios_are_zero(self):
        from repro.core.cachesim import CacheConfig, simulate_cache

        stats = simulate_cache(EMPTY, CacheConfig(size_bytes=4096, line_bytes=64, ways=4))
        assert stats.n_accesses == 0 and stats.n_hits == 0
        assert stats.hit_ratio == 0.0
        for cls in LoadClass:
            assert stats.class_hit_ratio(cls) == 0.0

    def test_class_hit_ratio_for_absent_class(self):
        from repro.core.cachesim import CacheConfig, simulate_cache

        ev = make_events(
            ip=np.zeros(8, dtype=np.int64),
            addr=np.arange(8) * 64,
            cls=np.full(8, int(LoadClass.STRIDED), dtype=np.uint8),
        )
        stats = simulate_cache(ev, CacheConfig(size_bytes=4096, line_bytes=64, ways=4))
        # classes with no accesses divide 0/0 — must be 0.0, not a crash
        assert stats.class_hit_ratio(LoadClass.IRREGULAR) == 0.0
        assert stats.class_hit_ratio(LoadClass.CONSTANT) == 0.0

    def test_sweep_rows_on_empty_trace(self):
        from repro.core.cachesim import (
            SweepPartial,
            sweep_configs,
            sweep_finalize,
            sweep_update,
        )

        grid = sweep_configs()
        rows = sweep_finalize(sweep_update(SweepPartial(grid), EMPTY), grid)
        assert len(rows) == len(grid)
        for row in rows:
            assert row.n_accesses == 0 and row.n_hits == 0
            assert row.hit_ratio == 0.0 and row.predicted_hit_ratio == 0.0
            assert row.accesses_by_class == {} and row.hits_by_class == {}


class TestEveryPass:
    @pytest.mark.parametrize("name", [p.name for p in list_passes()])
    def test_scan_chunk_empty(self, name):
        scheduled = schedule_passes([_request(name)])
        partials, _ = scan_chunk(EMPTY, EMPTY_SID, [r.spec for r in scheduled])
        identities = [get_pass(r.name).init(r.params) for r in scheduled]
        for partial, identity, r in zip(partials, identities, scheduled):
            merged = get_pass(r.name).merge(partial, identity)
            assert type(merged) is type(partial)

    @pytest.mark.parametrize("name", [p.name for p in list_passes()])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_run_passes_empty(self, name, workers):
        with ParallelEngine(workers=workers) as eng:
            results = eng.analyze(
                (EMPTY, EMPTY_SID, None), [_request(name)], rho=2.0
            ).results
        assert name in results

    def test_reuse_result_is_identity(self):
        with ParallelEngine(workers=1) as eng:
            h = eng.analyze((EMPTY, EMPTY_SID, None), ["reuse"]).results["reuse"]
        assert isinstance(h, ReuseHistogram)
        assert h.merge(ReuseHistogram.identity()).d_sum == 0
        assert h.scope == "sample"

    def test_empty_chunk_among_nonempty_shards(self, rng):
        ev = make_events(
            ip=rng.integers(0, 9, 600), addr=rng.integers(0, 1 << 14, 600),
            cls=np.ones(600, dtype=np.uint8),
        )
        sid = (np.arange(600) // 100).astype(np.int32)
        scheduled = schedule_passes(["diagnostics", "captures", "reuse"])
        specs = [r.spec for r in scheduled]
        whole, _ = scan_chunk(ev, sid, specs)
        hole, _ = scan_chunk(EMPTY, EMPTY_SID, specs)
        from repro.core.passes import RunContext, finalize_schedule, merge_partial_lists

        padded = merge_partial_lists(
            merge_partial_lists(hole, whole, specs), hole, specs
        )
        ctx = RunContext(rho=1.0, fn_names={})
        got = finalize_schedule(scheduled, padded, ctx)
        ref = finalize_schedule(scheduled, whole, ctx)
        assert got["diagnostics"] == ref["diagnostics"]
        assert got["captures"] == ref["captures"]
        assert got["reuse"].counts.tolist() == ref["reuse"].counts.tolist()
        assert got["reuse"].d_sum == ref["reuse"].d_sum
        assert got["reuse"].n_cold == ref["reuse"].n_cold


class TestEmptyArchive:
    def _write_empty(self, tmp_path, with_sid):
        meta = TraceMeta(
            module="empty", kind="sampled", period=1000, buffer_capacity=256,
            n_loads_total=0, n_samples=0,
        )
        path = tmp_path / "empty.npz"
        write_trace(path, EMPTY, meta, EMPTY_SID if with_sid else None)
        return path

    @pytest.mark.parametrize("with_sid", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_analyze_file_empty(self, tmp_path, with_sid, workers):
        path = self._write_empty(tmp_path, with_sid)
        with ParallelEngine(workers=workers) as eng:
            fa = eng.analyze(path, ["diagnostics", "captures", "reuse"])
        res = fa.results
        assert fa.n_events == 0
        assert res["captures"] == (0, 0)
        assert fa.rho == 1.0
        assert math.isfinite(res["diagnostics"].dF)
        assert res["reuse"].n_reuse == 0 and res["reuse"].mean == 0.0
        assert res["reuse"].scope == "sample", "an empty trace is not degraded"

    def test_analyze_file_empty_with_extra_passes(self, tmp_path):
        path = self._write_empty(tmp_path, True)
        with ParallelEngine(workers=1) as eng:
            fa = eng.analyze(path, ["hotspot", "roi"])
        assert fa.results["hotspot"] == []
        assert fa.results["roi"].ranges == []

    def test_report_cli_says_empty(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_empty(tmp_path, True)
        assert main(["report", str(path)]) == 1
        assert "trace is empty" in capsys.readouterr().out
