"""Performance: parallel sharded analysis engine scaling and exactness.

Two claims are pinned here:

1. **exactness** — on a large synthetic trace, the sharded parallel
   path produces *bit-identical* merged metrics (diagnostics,
   captures/survivals, reuse histogram) for every worker count;
2. **scaling** — with 4 workers the full diagnostic suite, one engine
   scan per metric, runs >= 2x faster than the serial path (one serial
   function per metric) on a >= 10M-event trace. The speedup
   assertion needs real cores, so it skips on machines with fewer than
   4 CPUs (the exactness assertions always run);
3. **observability overhead** — giving the engine an observability
   handle with a run journal and a metrics registry costs < 3% wall
   clock against the null handle (the hooks sit on stage/shard
   boundaries, never per-event paths).

Every analysis runs through :meth:`ParallelEngine.analyze`. Trace size
is tunable via ``MEMGAZE_BENCH_EVENTS`` (default 10M for the timed
test; the exactness tests use a smaller trace so they stay affordable
in CI). Set ``MEMGAZE_BENCH_JOURNAL`` to a
path to journal the scaling run — CI uploads that file as a build
artifact.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchmarks.conftest import save_result
from repro._util.timers import Timer
from repro.core.diagnostics import compute_diagnostics
from repro.core.metrics import captures_survivals
from repro.core.parallel import ParallelEngine
from repro.core.reuse import reuse_histogram
from repro.obs import MetricsRegistry, Obs, RunJournal
from repro.trace.event import make_events

N_TIMED = int(os.environ.get("MEMGAZE_BENCH_EVENTS", 10_000_000))
N_EXACT = min(N_TIMED, 500_000)


def _synthetic_trace(n: int, seed: int = 0):
    """A mixed-pattern trace: strided sweeps + irregular accesses + proxies."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n, dtype=np.uint64)
    strided = 0x10_0000 + (idx * 8) % (1 << 24)
    irregular = 0x200_0000 + rng.integers(0, 1 << 22, n).astype(np.uint64) * 8
    cls = rng.choice([0, 1, 2], n, p=[0.1, 0.5, 0.4]).astype(np.uint8)
    addr = np.where(cls == 1, strided, irregular)
    ev = make_events(
        ip=(idx % 64) + 1,
        addr=addr,
        cls=cls,
        n_const=np.where(rng.random(n) < 0.05, 3, 0).astype(np.uint16),
        fn=(idx % 8).astype(np.uint32),
    )
    # ~1K-record samples: the window geometry real sampled traces have
    sid = (np.arange(n, dtype=np.int64) // 1024).astype(np.int32)
    return ev, sid


def _serial_suite(ev, sid, block=64):
    d = compute_diagnostics(ev, rho=2.0, block=block)
    cs = captures_survivals(ev, block)
    h = reuse_histogram(ev, block, sid)
    return d, cs, h


#: the diagnostic suite as pass requests
_SUITE = [
    ("diagnostics", {"block": 64}),
    ("captures", {"block": 64}),
    ("reuse", {"block": 64}),
]


def _parallel_suite(eng, ev, sid):
    """The whole suite in one fused engine scan."""
    r = eng.analyze((ev, sid, None), _SUITE, rho=2.0).results
    return r["diagnostics"], r["captures"], r["reuse"]


def _per_metric_suite(eng, ev, sid):
    """One engine scan per metric: the baseline fusion must beat."""
    return tuple(
        eng.analyze((ev, sid, None), [req], rho=2.0).results[req[0]] for req in _SUITE
    )


@pytest.fixture(scope="module")
def exact_trace():
    return _synthetic_trace(N_EXACT)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_bit_identical(exact_trace, workers):
    ev, sid = exact_trace
    ds, css, hs = _serial_suite(ev, sid)
    with ParallelEngine(workers=workers) as eng:
        dp, csp, hp = _parallel_suite(eng, ev, sid)
    assert dp == ds  # dataclass of ints/floats: exact equality
    assert csp == css
    assert np.array_equal(hp.counts, hs.counts)
    assert (hp.n_cold, hp.n_reuse, hp.d_sum, hp.d_max) == (
        hs.n_cold, hs.n_reuse, hs.d_sum, hs.d_max,
    )
    assert hp.mean == hs.mean


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup measurement needs >= 4 CPUs",
)
@pytest.mark.perf
def test_parallel_scaling_4_workers(benchmark):
    ev, sid = _synthetic_trace(N_TIMED)

    with Timer() as t_serial:
        serial = _serial_suite(ev, sid)

    journal_path = os.environ.get("MEMGAZE_BENCH_JOURNAL")
    obs = Obs.open(journal_path, metrics=bool(journal_path))
    eng = ParallelEngine(workers=4, obs=obs)
    try:
        # warm the pool up
        eng.analyze((ev[:200_000], sid[:200_000], None), ["diagnostics"])
        # one scan per metric, like the serial side: the ratio measures
        # parallel scaling alone, not the fused scan's shared intermediates
        with Timer() as t_parallel:
            parallel = benchmark.pedantic(
                _per_metric_suite, args=(eng, ev, sid), rounds=1, iterations=1
            )
    finally:
        eng.close()

    assert parallel[0] == serial[0]
    assert parallel[1] == serial[1]
    assert np.array_equal(parallel[2].counts, serial[2].counts)

    speedup = t_serial.elapsed / max(t_parallel.elapsed, 1e-9)
    obs.emit(
        "scaling-run",
        n_events=len(ev),
        serial_seconds=t_serial.elapsed,
        parallel_seconds=t_parallel.elapsed,
        speedup=speedup,
    )
    obs.close()
    save_result(
        "perf_parallel_scaling",
        "parallel sharded analysis engine, synthetic trace\n"
        f"events:            {len(ev):,}\n"
        f"serial suite:      {t_serial.elapsed:8.2f} s\n"
        f"4-worker suite:    {t_parallel.elapsed:8.2f} s\n"
        f"speedup:           {speedup:8.2f}x",
    )
    assert speedup >= 2.0, f"expected >= 2x with 4 workers, got {speedup:.2f}x"


@pytest.mark.perf
def test_fused_scan_not_slower_than_per_metric(tmp_path):
    """One fused scan for the full report must beat N per-metric scans.

    The pass framework's performance claim: computing diagnostics,
    captures, and the reuse histogram through one ``analyze`` schedule
    (a single scan over the trace, shared per-chunk intermediates) is at
    least as fast as the per-metric baseline that scans the trace once
    per metric. Interleaved best-of-rounds, like
    the overhead test, damps scheduler noise.
    """
    ev, sid = _synthetic_trace(N_EXACT)
    rounds = 5

    journal_path = os.environ.get("MEMGAZE_BENCH_JOURNAL")
    obs = Obs.open(journal_path, metrics=True)
    per_times, fused_times = [], []
    fused = None
    with ParallelEngine(workers=1, obs=obs) as eng:
        for r in range(-1, rounds):  # round -1 is warm-up
            # no digest -> nothing is served from a store; every round rescans
            with Timer() as t_per:
                baseline = _per_metric_suite(eng, ev, sid)
            with Timer() as t_fused:
                fused = _parallel_suite(eng, ev, sid)
            if r >= 0:
                per_times.append(t_per.elapsed)
                fused_times.append(t_fused.elapsed)

    # same bits, fewer scans
    assert fused[0] == baseline[0]
    assert fused[1] == baseline[1]
    assert np.array_equal(fused[2].counts, baseline[2].counts)

    t_per, t_fused = min(per_times), min(fused_times)
    shared = obs.counter("passes.artifact_hits").value
    obs.emit(
        "fused-scan-run",
        n_events=len(ev),
        per_metric_seconds=t_per,
        fused_seconds=t_fused,
        speedup=t_per / max(t_fused, 1e-9),
        artifact_hits=shared,
    )
    obs.close()
    save_result(
        "perf_fused_scan",
        "fused pass schedule vs per-metric scans (3 metrics, 1 worker)\n"
        f"events:            {len(ev):,}  (cpus: {os.cpu_count()})\n"
        f"per-metric suite:  {t_per * 1e3:9.1f} ms  (3 scans)\n"
        f"fused schedule:    {t_fused * 1e3:9.1f} ms  (1 scan)\n"
        f"speedup:           {t_per / max(t_fused, 1e-9):8.2f}x\n"
        f"artifact hits:     {shared:,}",
    )
    assert shared > 0, "fused scan shared no per-chunk intermediates"
    # "not slower": the reuse pass dominates both sides, so the
    # expected fused win is small; 5% headroom absorbs scheduler jitter
    # that best-of-rounds cannot fully damp on shared CI runners.
    assert t_fused <= t_per * 1.05, (
        f"fused scan ({t_fused * 1e3:.1f} ms) slower than "
        f"per-metric baseline ({t_per * 1e3:.1f} ms)"
    )


def _write_archive(path, ev, sid):
    from repro.trace.tracefile import TraceMeta, write_trace

    meta = TraceMeta(
        module="bench", kind="sampled", period=12_000, buffer_capacity=1024,
        n_loads_total=len(ev) * 2, n_samples=int(sid[-1]) + 1,
    )
    write_trace(path, ev, meta, sid)
    return path


#: the archive analyses compared below
_FILE_PASSES = ["diagnostics", "captures", "reuse"]


def _analysis_fingerprint(fa):
    d, cs, h = (fa.results[name] for name in _FILE_PASSES)
    return (
        fa.n_events, fa.rho, d, cs,
        h.counts.tolist(), h.n_cold, h.n_reuse, h.d_sum, h.d_max, h.scope,
    )


@pytest.mark.perf
def test_cache_warmup_cold_vs_warm(tmp_path):
    """Acceptance: a warm cached analysis is >= 5x faster, bit-identical.

    The cold run streams the archive and persists every pass's merged
    partial to the artifact store; the warm run must serve all of them
    from disk — no event is read — and still produce exactly the cold
    run's numbers. The reuse scan dominates the cold cost, so the
    expected warm speedup is orders of magnitude; 5x is the floor the
    acceptance criterion pins.
    """
    from repro.core.artifacts import ArtifactStore
    from repro.obs.journal import read_journal

    ev, sid = _synthetic_trace(N_EXACT)
    path = _write_archive(tmp_path / "bench.npz", ev, sid)
    jpath = os.environ.get("MEMGAZE_BENCH_JOURNAL") or (tmp_path / "cache.jsonl")

    def run():
        obs = Obs(RunJournal(jpath), MetricsRegistry())
        store = ArtifactStore(tmp_path / "cache", obs=obs)
        with ParallelEngine(workers=1, store=store, obs=obs) as eng:
            with Timer() as t:
                fa = eng.analyze(path, _FILE_PASSES)
        obs.close()
        return fa, t.elapsed

    cold, t_cold = run()
    warm, t_warm = run()
    assert _analysis_fingerprint(warm) == _analysis_fingerprint(cold)

    recs = list(read_journal(jpath))
    modes = [r["mode"] for r in recs if r.get("stage") == "analyze-file"]
    assert modes[-2:] == ["full", "cached"]
    speedup = t_cold / max(t_warm, 1e-9)
    save_result(
        "cache_warmup",
        "persistent analysis cache: cold vs warm archive analyze (1 worker)\n"
        f"events:            {len(ev):,}  (cpus: {os.cpu_count()})\n"
        f"cold (scan+store): {t_cold * 1e3:9.1f} ms\n"
        f"warm (cache hits): {t_warm * 1e3:9.1f} ms\n"
        f"speedup:           {speedup:8.1f}x  (floor: 5x)",
    )
    assert speedup >= 5.0, f"warm cache run only {speedup:.1f}x faster"


def test_cache_incremental_append(tmp_path):
    """Acceptance: an appended archive rescans only its new tail.

    A trace is analyzed and cached, then ten more samples are appended
    and the longer archive analyzed through the same store. The journal
    must show the prefix skipped (``chunk-skip``) with ``chunk-read``
    lines covering exactly the appended events, and the merged result
    must equal a cold full analysis of the longer trace.
    """
    from repro.core.artifacts import ArtifactStore
    from repro.obs.journal import read_journal

    n_total = N_EXACT
    n_prefix = (n_total // 1024 - 10) * 1024  # sample-aligned cut, 10 samples early
    ev, sid = _synthetic_trace(n_total)
    short = _write_archive(tmp_path / "short.npz", ev[:n_prefix], sid[:n_prefix])
    full = _write_archive(tmp_path / "full.npz", ev, sid)
    jpath = tmp_path / "incremental.jsonl"
    chunk = 64 * 1024

    def run(path, t):
        obs = Obs(RunJournal(jpath))
        store = ArtifactStore(tmp_path / "cache", obs=obs)
        with ParallelEngine(workers=1, chunk_size=chunk, store=store, obs=obs) as eng:
            with t:
                fa = eng.analyze(path, _FILE_PASSES)
        obs.close()
        return fa

    run(short, Timer())  # prime the cache with the shorter trace
    t_incr, t_cold = Timer(), Timer()
    incr = run(full, t_incr)
    with ParallelEngine(workers=1, chunk_size=chunk) as eng:  # cold reference, no store
        with t_cold:
            cold = eng.analyze(full, _FILE_PASSES)
    assert _analysis_fingerprint(incr) == _analysis_fingerprint(cold)

    recs = list(read_journal(jpath))
    stage = [r for r in recs if r.get("stage") == "analyze-file"][-1]
    assert stage["mode"] == "incremental"
    assert stage["skipped_events"] == n_prefix
    i_skip = max(i for i, r in enumerate(recs) if r.get("event") == "chunk-skip")
    tail_read = sum(
        r["n_events"] for r in recs[i_skip:] if r.get("event") == "chunk-read"
    )
    assert tail_read == n_total - n_prefix, "rescan must touch only the tail"
    save_result(
        "cache_incremental",
        "incremental re-analysis of an appended archive (1 worker)\n"
        f"prefix events:     {n_prefix:,} (cached)  (cpus: {os.cpu_count()})\n"
        f"appended events:   {n_total - n_prefix:,} (rescanned)\n"
        f"incremental:       {t_incr.elapsed * 1e3:9.1f} ms\n"
        f"cold full scan:    {t_cold.elapsed * 1e3:9.1f} ms\n"
        f"speedup:           {t_cold.elapsed / max(t_incr.elapsed, 1e-9):8.1f}x",
    )


@pytest.mark.perf
def test_obs_overhead(tmp_path):
    """A journal + metrics handle must cost < 3% wall clock over the null one.

    The hooks sit on stage/shard boundaries, so their cost is bounded by
    shard count, not trace size. Bare (default handle: no journal, null
    registry) and instrumented analyses run interleaved and the minimum
    of several rounds is compared, which damps scheduler noise far below
    the 3% budget being verified.
    """
    ev, sid = _synthetic_trace(N_EXACT)
    rounds = 5

    def run_suite(engine):
        # no digest -> nothing is served from a store; every round recomputes
        with Timer() as t:
            _parallel_suite(engine, ev, sid)
        return t.elapsed

    bare_times, instr_times = [], []
    obs = Obs.open(tmp_path / "overhead.jsonl", metrics=True)
    with ParallelEngine(workers=1) as bare, ParallelEngine(workers=1, obs=obs) as instr:
        run_suite(bare), run_suite(instr)  # warm-up round
        for _ in range(rounds):
            bare_times.append(run_suite(bare))
            instr_times.append(run_suite(instr))
    obs.close()

    t_bare, t_instr = min(bare_times), min(instr_times)
    overhead = (t_instr - t_bare) / t_bare
    n_lines = sum(1 for _ in open(tmp_path / "overhead.jsonl"))
    save_result(
        "obs_overhead",
        "observability overhead: journal + metrics handle on the analysis engine\n"
        f"events:               {len(ev):,}  (cpus: {os.cpu_count()})\n"
        f"rounds:               best of {rounds} (interleaved)\n"
        f"bare suite:           {t_bare * 1e3:9.1f} ms\n"
        f"instrumented suite:   {t_instr * 1e3:9.1f} ms\n"
        f"journal lines:        {n_lines:,}\n"
        f"overhead:             {overhead * 100:8.2f}%  (budget: < 3%)",
    )
    assert overhead < 0.03, f"observability overhead {overhead:.1%} exceeds 3%"
