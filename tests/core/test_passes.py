"""Property tests for the unified analysis-pass framework.

The framework's contract: every registered pass, run through
:meth:`~repro.core.parallel.ParallelEngine.analyze` over in-memory
events or a streamed archive, produces output **bit-identical** to its
legacy serial function — for any worker count and chunk size — while
the trace is scanned once for the whole schedule and shared
intermediates are computed once per chunk.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro._util.rng import derive_rng
from repro.core.diagnostics import compute_diagnostics
from repro.core.artifacts import ArtifactStore
from repro.core.heatmap import access_heatmap, heatmap_request
from repro.core.hotspot import find_hotspots, roi_from_hotspots
from repro.core.metrics import captures_survivals, footprint, footprint_by_class
from repro.core.parallel import ParallelEngine, plan_shards
from repro.core.passes import (
    AnalysisPass,
    ChunkContext,
    RunContext,
    UnknownPassError,
    get_pass,
    list_passes,
    register_pass,
    scan_chunk,
    schedule_passes,
    unregister_pass,
)
from repro.core.reuse import reuse_histogram
from repro.trace.event import make_events
from repro.trace.tracefile import TraceMeta, write_trace

WORKERS = [1, 2, 4]
CHUNKS = [17, 257, 5000]
FN_NAMES = {i: f"f{i}" for i in range(6)}


def _trace(n=3000, seed=0, n_samples=13, const_frac=0.2):
    rng = derive_rng(seed, "passes-trace")
    ev = make_events(
        ip=rng.integers(0x400000, 0x400000 + 4 * 40, n),
        addr=rng.integers(0, 1 << 18, n),
        cls=rng.choice(
            [0, 1, 2], n, p=[const_frac, (1 - const_frac) / 2, (1 - const_frac) / 2]
        ).astype(np.uint8),
        n_const=rng.choice([0, 0, 0, 4], n).astype(np.uint16),
        fn=rng.integers(0, 6, n),
    )
    sid = np.sort(rng.integers(0, n_samples, n)).astype(np.int32)
    return ev, sid


def _archive(tmp_path, ev, sid):
    """Write ``(ev, sid)`` as a trace archive; returns its path."""
    path = tmp_path / "t.npz"
    write_trace(
        path, ev, TraceMeta(module="passes-test", period=400, buffer_capacity=64),
        sample_id=sid,
    )
    return path


def _run(eng, ev, requests, sid=None, **kwargs) -> dict:
    """Finalized results of an in-memory, unaddressed analysis."""
    return eng.analyze((ev, sid, None), requests, **kwargs).results


def _heatmap_request(ev, sid):
    return heatmap_request(ev, 0, 1 << 17)


def _all_requests(ev, sid):
    """One request per registered built-in pass."""
    return [
        ("diagnostics", {"block": 64}),
        ("captures", {"block": 64}),
        ("reuse", {"block": 64}),
        "hotspot",
        "roi",
        _heatmap_request(ev, sid),
    ]


def _assert_matches_serial(results, ev, sid, rho=1.0):
    """Every pass result equals its legacy serial function, bit for bit."""
    assert results["diagnostics"] == compute_diagnostics(ev, rho=rho, block=64)
    assert results["captures"] == captures_survivals(ev, 64)
    ser_hist = reuse_histogram(ev, 64, sid)
    assert np.array_equal(results["reuse"].counts, ser_hist.counts)
    assert results["reuse"].d_sum == ser_hist.d_sum
    assert results["reuse"].d_max == ser_hist.d_max
    assert results["reuse"].mean == ser_hist.mean
    ser_hot = find_hotspots(ev, FN_NAMES)
    assert results["hotspot"] == ser_hot
    assert results["roi"] == roi_from_hotspots(ser_hot, ev)
    ser_heat = access_heatmap(ev, 0, 1 << 17, sample_id=sid)
    assert np.array_equal(results["heatmap"].counts, ser_heat.counts)
    assert np.array_equal(results["heatmap"].reuse, ser_heat.reuse, equal_nan=True)


# -- the headline property: fused == serial, every pass, one scan -------------


class TestFusedEqualsSerial:
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_engine_run_passes_all_passes(self, tmp_path, workers, chunk):
        # both sources: in-memory shards and the archive's streamed chunks
        ev, sid = _trace(3000, seed=workers * 101 + chunk)
        path = _archive(tmp_path, ev, sid)
        requests = _all_requests(ev, sid)
        with ParallelEngine(workers=workers, chunk_size=chunk) as eng:
            memory = _run(eng, ev, requests, sid, fn_names=FN_NAMES)
            archive = eng.analyze(path, requests, rho=1.0, fn_names=FN_NAMES)
        _assert_matches_serial(memory, ev, sid)
        _assert_matches_serial(archive.results, ev, sid)
        assert archive.n_events == len(ev) and archive.mode == "full"
        assert archive.results["reuse"].scope == "sample"

    @pytest.mark.parametrize("workers", WORKERS)
    def test_pool_path_bit_identical(self, workers):
        # large enough to clear the pool threshold with several shards
        ev, sid = _trace(40_000, seed=3, n_samples=64)
        with ParallelEngine(workers=workers, chunk_size=5000) as eng:
            results = _run(
                eng, ev, _all_requests(ev, sid), sid, fn_names=FN_NAMES, rho=2.5
            )
        _assert_matches_serial(results, ev, sid, rho=2.5)

    def test_rho_reaches_finalize(self):
        ev, sid = _trace(1000, seed=9)
        with ParallelEngine(workers=1, chunk_size=100) as eng:
            results = _run(eng, ev, ["diagnostics"], sid, rho=4.25)
        assert results["diagnostics"] == compute_diagnostics(ev, rho=4.25, block=1)

    def test_footprint_helpers_still_match(self):
        ev, sid = _trace(2000, seed=11)
        with ParallelEngine(workers=1, chunk_size=123) as eng:
            d = _run(eng, ev, [("diagnostics", {"block": 64})], sid)["diagnostics"]
        by_cls = footprint_by_class(ev, 64)
        assert d.F == footprint(ev, 64)
        assert (d.F_str, d.F_irr) == (by_cls[1], by_cls[2])


class TestEdgeCases:
    def test_empty_trace_every_pass(self):
        ev, sid = _trace(0)
        requests = [
            "diagnostics",
            "captures",
            ("reuse", {"block": 64}),
            "hotspot",
            "roi",
            _heatmap_request(ev, sid),
        ]
        with ParallelEngine(workers=1) as eng:
            results = _run(eng, ev, requests)
        assert results["diagnostics"] == compute_diagnostics(ev)
        assert results["captures"] == (0, 0)
        assert results["hotspot"] == []
        assert results["roi"].ranges == []
        assert results["reuse"].n_reuse == 0 and results["reuse"].n_cold == 0
        assert results["heatmap"].counts.sum() == 0
        with ParallelEngine(workers=2, chunk_size=10) as eng:
            eng_results = _run(eng, ev, requests, sid)
        assert eng_results["diagnostics"] == results["diagnostics"]
        assert eng_results["hotspot"] == []

    def test_single_sample_trace(self):
        # one sample: sample-aligned chunking cannot cut it, and the
        # whole-trace result must still match the serial functions
        ev, _ = _trace(500, seed=21)
        sid = np.zeros(500, dtype=np.int32)
        with ParallelEngine(workers=1, chunk_size=50) as eng:
            results = _run(
                eng,
                ev,
                [("diagnostics", {"block": 64}), ("reuse", {"block": 64}), "hotspot"],
                sid,
                fn_names=FN_NAMES,
            )
        assert results["diagnostics"] == compute_diagnostics(ev, block=64)
        ser = reuse_histogram(ev, 64, sid)
        assert np.array_equal(results["reuse"].counts, ser.counts)
        assert results["hotspot"] == find_hotspots(ev, FN_NAMES)

    def test_single_event_trace(self):
        ev, sid = _trace(1, seed=23)
        with ParallelEngine(workers=1, chunk_size=4) as eng:
            results = _run(eng, ev, ["diagnostics", "captures", "hotspot"], sid)
        assert results["diagnostics"] == compute_diagnostics(ev)
        assert results["captures"] == captures_survivals(ev, 1)

    def test_reuse_without_samples_runs_whole(self):
        # no sample ids => the reuse window spans the trace; the engine
        # must refuse to cut it even with a tiny chunk size
        ev, _ = _trace(2000, seed=25)
        with ParallelEngine(workers=1, chunk_size=100) as eng:
            results = _run(eng, ev, [("reuse", {"block": 64})])
        ser = reuse_histogram(ev, 64, None)
        assert np.array_equal(results["reuse"].counts, ser.counts)


# -- the dependency scheduler -------------------------------------------------


class TestScheduler:
    def test_dependency_closure_pulls_in_hotspot(self):
        sched = schedule_passes(["roi"])
        names = [r.name for r in sched]
        assert names == ["hotspot", "roi"]

    def test_dependency_order_respected(self):
        sched = schedule_passes(["roi", "diagnostics", "hotspot"])
        names = [r.name for r in sched]
        assert names.index("hotspot") < names.index("roi")
        assert set(names) == {"roi", "diagnostics", "hotspot"}

    def test_defaults_resolved(self):
        (req,) = [r for r in schedule_passes(["reuse"]) if r.name == "reuse"]
        assert req.params["block"] == 64 and req.params["max_exp"] == 48

    def test_explicit_params_override_defaults(self):
        (req,) = schedule_passes([("diagnostics", {"block": 4096})])
        assert req.params["block"] == 4096

    def test_unknown_pass_lists_alternatives(self):
        with pytest.raises(UnknownPassError) as exc:
            schedule_passes(["diagnostic"])
        msg = str(exc.value)
        assert "diagnostics" in msg  # close-match suggestion + listing
        assert "captures" in msg
        assert exc.value.available == sorted(p.name for p in list_passes())

    def test_duplicate_request_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            schedule_passes(["diagnostics", ("diagnostics", {"block": 64})])

    def test_missing_required_params_rejected(self):
        with pytest.raises(ValueError, match="missing required parameter"):
            schedule_passes(["heatmap"])

    def test_cycle_detected(self):
        class A(AnalysisPass):
            name = "cyc-a"
            requires = ("pass:cyc-b",)

        class B(AnalysisPass):
            name = "cyc-b"
            requires = ("pass:cyc-a",)

        register_pass(A())
        register_pass(B())
        try:
            with pytest.raises(ValueError, match="cycle"):
                schedule_passes(["cyc-a"])
        finally:
            unregister_pass("cyc-a")
            unregister_pass("cyc-b")

    def test_register_rejects_unknown_artifact(self):
        class Bad(AnalysisPass):
            name = "bad-artifact"
            requires = ("no_such_artifact",)

        with pytest.raises(ValueError, match="unknown artifact"):
            register_pass(Bad())

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            register_pass(AnalysisPass())


# -- shared intermediates: computed once per chunk ----------------------------


class TestSharedIntermediates:
    def test_chunk_context_memoizes(self):
        ev, sid = _trace(400, seed=31)
        ctx = ChunkContext(ev, sid)
        a = ctx.block_ids(64)
        b = ctx.block_ids(64)
        assert a is b
        assert (ctx.hits, ctx.misses) == (1, 1)
        ctx.block_ids(1)  # a different block size is a different artifact
        assert ctx.misses == 2
        d1 = ctx.reuse_distances(64)
        d2 = ctx.reuse_distances(64)
        assert d1 is d2

    def test_nonconst_distances_are_a_distinct_artifact(self):
        # the reuse histogram measures D over ALL records; heatmaps over
        # the non-Constant view only — the cache must keep them apart
        ev, sid = _trace(600, seed=33, const_frac=0.4)
        ctx = ChunkContext(ev, sid)
        d_all = ctx.reuse_distances(64)
        d_nc = ctx.reuse_distances(64, nonconst=True)
        assert len(d_all) == len(ev)
        assert len(d_nc) == int((ev["cls"] != 0).sum())

    def test_scan_chunk_shares_artifacts_across_passes(self):
        # diagnostics and captures both want block_ids(64) + class_masks:
        # the second pass must hit the chunk's artifact cache
        ev, sid = _trace(500, seed=35)
        specs = [r.spec for r in schedule_passes(
            [("diagnostics", {"block": 64}), ("captures", {"block": 64})]
        )]
        _, stats = scan_chunk(ev, sid, specs)
        assert stats["artifact_hits"] >= 2
        assert set(stats["pass_seconds"]) == {"diagnostics", "captures"}

    def test_engine_counts_artifact_sharing(self):
        from repro.obs.metrics import MetricsRegistry

        ev, sid = _trace(2000, seed=37)
        reg = MetricsRegistry()
        with ParallelEngine(workers=1, chunk_size=257, metrics=reg) as eng:
            _run(eng, ev, [("diagnostics", {"block": 64}), ("captures", {"block": 64})], sid)
        snap = reg.as_dict()["counters"]
        assert snap["passes.artifact_hits"]["value"] > 0
        assert snap["passes.chunks_scanned"]["value"] > 0

    def test_per_pass_stage_timers_recorded(self):
        ev, sid = _trace(2000, seed=39)
        with ParallelEngine(workers=1, chunk_size=500) as eng:
            _run(eng, ev, ["diagnostics", "hotspot"], sid)
            stats = dict(eng.timers.stats)
        assert "pass:diagnostics" in stats and "pass:hotspot" in stats


# -- one scan over the trace, journal-verifiable ------------------------------


class TestSingleScan:
    def test_one_shard_analyzed_line_per_chunk(self, tmp_path):
        from repro.obs.journal import RunJournal

        ev, sid = _trace(3000, seed=41)
        journal = RunJournal(tmp_path / "j.jsonl")
        with ParallelEngine(workers=1, chunk_size=257, journal=journal) as eng:
            _run(eng, ev, _all_requests(ev, sid), sid)
        journal.close()
        recs = [json.loads(l) for l in (tmp_path / "j.jsonl").read_text().splitlines()]
        scans = [r for r in recs if r["event"] == "shard-analyzed"]
        n_chunks = len(plan_shards(len(ev), sid, chunk_size=257))
        # one scan line per chunk — NOT chunks x passes
        assert len(scans) == n_chunks
        assert all(r["n_passes"] == 6 for r in scans)

    def test_analyze_file_reads_each_chunk_once(self, tmp_path):
        from repro.obs.journal import RunJournal

        ev, sid = _trace(5000, seed=43)
        path = _archive(tmp_path, ev, sid)
        journal = RunJournal(tmp_path / "j.jsonl")
        with ParallelEngine(workers=1, chunk_size=1000, journal=journal) as eng:
            res = eng.analyze(
                path,
                [
                    ("diagnostics", {"block": 64}),
                    ("captures", {"block": 64}),
                    "reuse",
                    "hotspot",
                ],
            )
        journal.close()
        recs = [json.loads(l) for l in (tmp_path / "j.jsonl").read_text().splitlines()]
        reads = [r for r in recs if r["event"] == "chunk-read"]
        scans = [r for r in recs if r["event"] == "shard-analyzed"]
        # 4 metrics over the stream, yet each chunk read and scanned once
        assert len(reads) == len(scans) > 1
        assert all(r["n_passes"] == 4 for r in scans)
        assert res.results["diagnostics"] == compute_diagnostics(
            ev, rho=res.rho, block=64
        )
        assert res.results["hotspot"] == find_hotspots(ev)

    def test_cache_serves_repeat_queries_without_rescan(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        ev, sid = _trace(2000, seed=45)
        source = (ev, sid, ArtifactStore.digest_events(ev, sid))
        reg = MetricsRegistry()
        store = ArtifactStore(tmp_path / "cache")
        with ParallelEngine(workers=1, chunk_size=300, metrics=reg, store=store) as eng:
            first = eng.analyze(source, ["diagnostics"])
            scanned = reg.as_dict()["counters"]["passes.chunks_scanned"]["value"]
            again = eng.analyze(source, ["diagnostics"], rho=3.0)
            rescanned = reg.as_dict()["counters"]["passes.chunks_scanned"]["value"]
        assert rescanned == scanned  # store hit: zero new chunk scans
        assert (first.mode, again.mode) == ("full", "cached")
        # the same stored partial serves a different rho
        assert again.results["diagnostics"] == compute_diagnostics(ev, rho=3.0)


# -- the extension protocol: write your own pass ------------------------------


class TestCustomPass:
    def test_custom_pass_runs_fused_and_parallel(self):
        class StridedShare(AnalysisPass):
            """Share of records classified Strided."""

            name = "strided-share"
            requires = ("class_masks",)

            def init(self, params):
                return (0, 0)  # (strided, total)

            def update(self, partial, chunk, params):
                s, t = partial
                return (
                    s + int(chunk.class_masks.strided.sum()),
                    t + len(chunk.events),
                )

            def merge(self, a, b):
                return (a[0] + b[0], a[1] + b[1])

            def finalize(self, partial, ctx, params):
                s, t = partial
                return s / t if t else 0.0

        register_pass(StridedShare())
        try:
            ev, sid = _trace(2500, seed=47)
            expected = int((ev["cls"] == 1).sum()) / len(ev)
            with ParallelEngine(workers=1, chunk_size=100) as eng:
                alone = _run(eng, ev, ["strided-share"], sid)
            assert alone["strided-share"] == expected
            with ParallelEngine(workers=1, chunk_size=199) as eng:
                fused = _run(eng, ev, ["strided-share", "diagnostics"], sid)
            assert fused["strided-share"] == expected
            assert fused["diagnostics"] == compute_diagnostics(ev)
        finally:
            unregister_pass("strided-share")

    def test_pass_result_dependency_via_run_context(self):
        class TopShare(AnalysisPass):
            """The hottest function's load share."""

            name = "top-share"
            requires = ("pass:hotspot",)

            def init(self, params):
                return None

            def update(self, partial, chunk, params):
                return None

            def merge(self, a, b):
                return None

            def finalize(self, partial, ctx, params):
                hot = ctx.result("hotspot")
                return hot[0].share if hot else 0.0

        register_pass(TopShare())
        try:
            ev, sid = _trace(1500, seed=49)
            with ParallelEngine(workers=1, chunk_size=200) as eng:
                results = _run(eng, ev, ["top-share"], sid)
            assert results["top-share"] == find_hotspots(ev)[0].share
        finally:
            unregister_pass("top-share")

    def test_run_context_names_missing_dependency(self):
        ctx = RunContext()
        with pytest.raises(KeyError, match="pass:hotspot"):
            ctx.result("hotspot")

    def test_get_pass_error_carries_alternatives(self):
        with pytest.raises(UnknownPassError) as exc:
            get_pass("nope")
        assert "available:" in str(exc.value)
