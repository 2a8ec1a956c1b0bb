"""Performance: analysis-layer throughput (real pytest-benchmark timing).

Table II's point is that analysis cost tracks trace size; these benches
pin the per-operation throughput of the hot analysis primitives on a
standard 100K-record trace so regressions show up in the benchmark
history. Unlike the experiment benches, these run multiple rounds.

The second half of the module pins the zero-copy + vectorized-kernel
speedups (methodology: docs/performance.md): a cold archive
``analyze`` at 4 workers must be >= 2x faster with the shm handoff +
vector kernels than with the pickle fan-out + Fenwick reference loop,
the handoff itself is microbenchmarked per chunk size, and per-worker
scaling rows are recorded. The library ships only the fast path; the
baseline is reached through test seams — a ``publish_shard`` that
fails (the engine's automatic pickle fallback) and the Fenwick oracle
from ``tests/_util/fenwick_oracle.py`` swapped in as the reuse kernel,
both installed before the pool forks (the gate skips where pool
workers are not forked). Trace size for those is tunable via
``MEMGAZE_BENCH_EVENTS``; set ``MEMGAZE_BENCH_JOURNAL`` to journal the
cold-throughput run (CI uploads it as a build artifact).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from benchmarks.conftest import save_result
from repro._util.timers import Timer
from repro.core.parallel import ParallelEngine
from repro.core.reuse import reuse_distances
from repro.core.shm import active_segments, attach_shard, publish_shard
from repro.core.windows import trace_window_metrics
from repro.core.zoom import location_zoom
from repro.obs.journal import RunJournal
from repro.obs.metrics import MetricsRegistry
from repro.trace.collector import collect_sampled_trace
from repro.trace.event import make_events
from repro.trace.packing import pack_strided_runs
from repro.trace.sampler import SamplingConfig
from repro.trace.tracefile import TraceMeta, write_trace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "_util"))
from fenwick_oracle import reuse_distances_fenwick  # noqa: E402


def _require_fork() -> None:
    """The baseline's kernel patch reaches pool workers only by fork.

    Under spawn or forkserver the workers re-import the library and run
    the vector kernel; both kernels are bit-identical, so the result
    check could not tell and the gate would time the wrong baseline.
    """
    method = mp.get_start_method()
    if method != "fork":
        pytest.skip(f"pickle+Fenwick baseline needs fork workers, not {method}")

# every bench here asserts wall-clock behavior via pytest-benchmark:
# excluded from default runs, opted back in by CI with -m perf
pytestmark = pytest.mark.perf

N = 100_000


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(0)
    addr = np.where(
        np.arange(N) % 2 == 0,
        0x10_0000 + (np.arange(N) * 8) % (1 << 20),
        0x40_0000 + rng.integers(0, 1 << 14, N) * 8,
    )
    cls = np.where(np.arange(N) % 2 == 0, 1, 2)
    return make_events(ip=1 + (np.arange(N) % 5), addr=addr, cls=cls)


@pytest.fixture(scope="module")
def sampled(stream):
    cfg = SamplingConfig(period=2_000, buffer_capacity=512, fill_jitter=0.0)
    return collect_sampled_trace(stream, config=cfg)


def test_perf_collect(benchmark, stream):
    cfg = SamplingConfig(period=2_000, buffer_capacity=512, fill_jitter=0.0)
    col = benchmark(collect_sampled_trace, stream, None, cfg)
    assert col.n_samples == 50


def test_perf_window_metrics(benchmark, stream):
    vals = benchmark(trace_window_metrics, stream, 64)
    assert len(vals) >= N // 64


def test_perf_reuse_distance_sampled(benchmark, sampled):
    d = benchmark(reuse_distances, sampled.events, 64, sampled.sample_id)
    assert len(d) == len(sampled.events)


def test_perf_zoom(benchmark, sampled):
    root = benchmark(location_zoom, sampled.events)
    assert root.n_accesses == len(sampled.events)


def test_perf_packing(benchmark, stream):
    packed = benchmark(pack_strided_runs, stream[:20_000])
    assert packed.n_original == 20_000


# --------------------------------------------------------------------------
# zero-copy handoff + vectorized kernels (docs/performance.md)
# --------------------------------------------------------------------------

N_COLD = int(os.environ.get("MEMGAZE_BENCH_EVENTS", 2_000_000))
_SAMPLE_LEN = 1024
_CHUNK = 128 * 1024


def _mixed_trace(n: int, seed: int = 0):
    """Strided sweeps + irregular accesses, ~1K-record samples.

    The footprint is bounded (~300K distinct addresses) so the bench is
    dominated by the per-event work being compared — handoff and reuse
    kernel — not by set-union merges of artificially huge block sets.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(n, dtype=np.uint64)
    strided = 0x10_0000 + (idx * 8) % (1 << 21)
    irregular = 0x200_0000 + rng.integers(0, 1 << 15, n).astype(np.uint64) * 8
    cls = rng.choice([0, 1, 2], n, p=[0.1, 0.5, 0.4]).astype(np.uint8)
    ev = make_events(
        ip=(idx % 64) + 1,
        addr=np.where(cls == 1, strided, irregular),
        cls=cls,
        fn=(idx % 8).astype(np.uint32),
    )
    sid = (np.arange(n, dtype=np.int64) // _SAMPLE_LEN).astype(np.int32)
    return ev, sid


@pytest.fixture(scope="module")
def cold_archive(tmp_path_factory):
    ev, sid = _mixed_trace(N_COLD)
    meta = TraceMeta(
        module="bench", kind="sampled", period=12_000, buffer_capacity=1024,
        n_loads_total=len(ev) * 2, n_samples=int(sid[-1]) + 1,
    )
    path = tmp_path_factory.mktemp("throughput") / "cold.npz"
    write_trace(path, ev, meta, sid)
    return path


#: what the cold runs analyze (the archive analysis of the original
#: three headline metrics)
_PASSES = ["diagnostics", "captures", "reuse"]


def _fingerprint(fa):
    d, cs, h = (fa.results[name] for name in _PASSES)
    return (
        fa.n_events, fa.rho, d, cs,
        h.counts.tolist(), h.n_cold, h.n_reuse, h.d_sum, h.d_max,
    )


def _cold_run(path, *, workers, baseline_mark=None, journal=None, metrics=None):
    """One cold archive ``analyze``: fresh engine, fresh pool, no cache.

    Given ``baseline_mark`` (a file path) it runs the pickle + Fenwick
    configuration: publishing to shared memory fails, so the engine
    falls back to pickling slices, and the Fenwick oracle replaces the
    reuse kernel. Both patches are in place before the engine's pool
    forks, so workers inherit them; the oracle creates
    ``baseline_mark`` when it runs in a worker, so the caller can prove
    the workers really ran the baseline kernel.
    """
    parent = os.getpid()

    def fenwick_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            Path(baseline_mark).touch()
        return reuse_distances_fenwick(*args, **kwargs)

    with ExitStack() as stack:
        if baseline_mark is not None:
            stack.enter_context(mock.patch(
                "repro.core.parallel.publish_shard",
                side_effect=OSError("shared memory disabled for the baseline"),
            ))
            stack.enter_context(
                mock.patch("repro.core.passes.reuse_distances", fenwick_in_worker)
            )
        with ParallelEngine(
            workers=workers, chunk_size=_CHUNK, journal=journal, metrics=metrics
        ) as eng:
            with Timer() as t:
                fa = eng.analyze(path, _PASSES)
    return fa, t.elapsed


@pytest.mark.perf
def test_cold_throughput_shm_vector_vs_pickle_fenwick(cold_archive, tmp_path):
    """Acceptance: a cold archive analyze at 4 workers is >= 2x faster
    with the shm handoff + vector kernels than with pickle + Fenwick.

    The gate is a ratio of two runs in the same process on the same
    archive, so it holds on oversubscribed machines too: the vector
    kernel's win over the per-event Fenwick loop is algorithmic, and
    both configurations pay the same pool overhead. Bit-identity of the
    two results is asserted alongside the speedup.
    """
    _require_fork()
    journal_path = os.environ.get("MEMGAZE_BENCH_JOURNAL")
    journal = RunJournal(journal_path) if journal_path else None
    metrics = MetricsRegistry() if journal_path else None

    # warm-up: fault the archive into the page cache so run order
    # cannot bias the comparison
    _cold_run(cold_archive, workers=4)

    mark = tmp_path / "fenwick-ran-in-worker"
    old, t_old = _cold_run(cold_archive, workers=4, baseline_mark=mark)
    assert mark.exists(), "baseline workers did not run the Fenwick oracle"
    new, t_new = _cold_run(cold_archive, workers=4, journal=journal, metrics=metrics)
    assert _fingerprint(new) == _fingerprint(old)
    assert active_segments() == []

    speedup = t_old / max(t_new, 1e-9)
    n = N_COLD
    if journal is not None:
        journal.emit(
            "throughput-run",
            n_events=n,
            pickle_fenwick_seconds=t_old,
            shm_vector_seconds=t_new,
            speedup=speedup,
        )
        journal.record_metrics(metrics)
        journal.close()
    save_result(
        "perf_throughput_cold",
        "cold archive analyze, 4 workers: pickle+fenwick vs shm+vector\n"
        f"events:            {n:,}  (cpus: {os.cpu_count()})\n"
        f"pickle + fenwick:  {t_old:8.2f} s  ({n / t_old / 1e6:6.2f} M ev/s)\n"
        f"shm + vector:      {t_new:8.2f} s  ({n / t_new / 1e6:6.2f} M ev/s)\n"
        f"speedup:           {speedup:8.2f}x  (floor: 2x; bit-identical)",
    )
    assert speedup >= 2.0, f"expected >= 2x cold speedup, got {speedup:.2f}x"


def _recv_pickled(ev, sid):
    # runs in the worker: the arrays arrived through the pickle pipe
    return int(ev["addr"][0]) + len(ev) + len(sid)


def _recv_ref(ref):
    # runs in the worker: only the tiny ShardRef crossed the pipe
    ev, sid = attach_shard(ref)
    return int(ev["addr"][0]) + len(ev) + len(sid)


@pytest.mark.perf
def test_shard_handoff_shm_vs_pickle():
    """Microbenchmark the handoff alone: one chunk, parent to worker.

    The pickle fan-out serializes the arrays, pushes every byte through
    the executor pipe, and deserializes in the worker — three copies,
    all on the dispatch path. The shm handoff copies once into the
    segment; the worker maps the parent's pages and only a ~100-byte
    ``ShardRef`` crosses the pipe. Measured as a real cross-process
    round trip against a warm single-worker pool (best of several reps,
    so pool dispatch latency — common to both — is the floor).
    """
    from concurrent.futures import ProcessPoolExecutor

    rows = ["shard handoff, parent -> pool worker round trip: pickle vs shm",
            f"{'chunk':>12} {'nbytes':>12} {'pickle':>10} {'shm':>10} {'ratio':>7}"]
    reps = 7
    with ProcessPoolExecutor(1, mp_context=mp.get_context("fork")) as pool:
        pool.submit(int, 0).result()  # warm the worker up
        for n in (16_384, 131_072, 1_048_576):
            ev, sid = _mixed_trace(n, seed=1)
            want = int(ev["addr"][0]) + 2 * n
            nbytes = ev.nbytes + sid.nbytes

            t_pickle, t_shm = [], []
            for _ in range(reps):
                with Timer() as t:
                    assert pool.submit(_recv_pickled, ev, sid).result() == want
                t_pickle.append(t.elapsed)

                with Timer() as t:
                    slab = publish_shard(ev, sid)
                    assert pool.submit(_recv_ref, slab.ref(0, n)).result() == want
                t_shm.append(t.elapsed)
                slab.release()

            p, s = min(t_pickle), min(t_shm)
            rows.append(
                f"{n:>12,} {nbytes:>12,} {p * 1e3:>8.2f}ms {s * 1e3:>8.2f}ms "
                f"{p / max(s, 1e-9):>6.1f}x"
            )
    assert active_segments() == []
    save_result("perf_shard_handoff", "\n".join(rows))


@pytest.mark.perf
def test_worker_scaling_analyze_file(cold_archive):
    """Record cold archive analyze throughput at 1/2/4 workers, shm on.

    No speedup gate: scaling is bounded by physical cores and this
    bench also runs on 1-CPU machines (the core count is in the row
    header — compare ratios per machine). Bit-identity across worker
    counts is asserted unconditionally.
    """
    rows = [f"cold archive analyze worker scaling, shm on (cpus: {os.cpu_count()})",
            f"{'workers':>8} {'seconds':>9} {'M ev/s':>8} {'vs 1w':>6}"]
    prints = {}
    base = None
    for workers in (1, 2, 4):
        fa, elapsed = _cold_run(cold_archive, workers=workers)
        prints[workers] = _fingerprint(fa)
        base = base or elapsed
        rows.append(
            f"{workers:>8} {elapsed:>8.2f}s {N_COLD / elapsed / 1e6:>8.2f} "
            f"{base / elapsed:>5.2f}x"
        )
    assert prints[2] == prints[1] and prints[4] == prints[1]
    assert active_segments() == []
    save_result("perf_worker_scaling", "\n".join(rows))
