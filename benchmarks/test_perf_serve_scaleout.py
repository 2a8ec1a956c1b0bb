"""Performance: multi-tenant serve scale-out (session sharding).

The sharded daemon's claim is not raw CPU parallelism — on a one-core
box there is none to be had — but the end of *head-of-line blocking*:
one tenant's slow queries must no longer stall every other tenant, the
way they did under the single serialized executor. This bench drives a
mixed multi-session load (concurrent submitters and queriers) with one
deliberate straggler tenant whose every query stalls its shard worker
(a ``query_hook`` sleep standing in for an expensive full-report query),
and measures the aggregate light-tenant query throughput at 1 shard
worker vs 4, plus p50/p99 latency and the shed count.

At one worker the straggler serializes in front of everyone; at four
the straggler's shard stalls alone (tenant names are routed with
:func:`repro.serve.shard.route_session`, so the bench pins the light
tenants off the straggler's worker). The gate is the ratio of the two
runs in the same process, so it holds on oversubscribed machines.

Scale knobs (env): ``MEMGAZE_BENCH_SERVE_TENANTS`` light tenants (3),
``MEMGAZE_BENCH_SERVE_CHUNKS`` chunks streamed per tenant (6),
``MEMGAZE_BENCH_SERVE_STALL`` straggler stall seconds per query (0.15).
Set ``MEMGAZE_BENCH_JOURNAL`` to journal both runs (CI uploads it).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from benchmarks.conftest import save_result
from repro._util.timers import Timer
from repro.obs import MetricsRegistry, Obs, RunJournal
from repro.serve.client import ServeBusy, ServeClient
from repro.serve.daemon import ServeConfig, TraceServer
from repro.serve.shard import route_session
from repro.trace.event import LoadClass, make_events
from repro.trace.tracefile import TraceMeta

pytestmark = pytest.mark.perf

N_TENANTS = int(os.environ.get("MEMGAZE_BENCH_SERVE_TENANTS", 3))
N_CHUNKS = int(os.environ.get("MEMGAZE_BENCH_SERVE_CHUNKS", 6))
STALL_S = float(os.environ.get("MEMGAZE_BENCH_SERVE_STALL", 0.15))
PER_CHUNK = 200
PASSES = ["diagnostics", "captures"]
STRAGGLER = "straggler"


def _chunks(seed: int):
    """``N_CHUNKS`` deterministic event chunks for one tenant."""
    rng = np.random.default_rng(seed)
    n = N_CHUNKS * PER_CHUNK
    kind = np.arange(n) % 2
    addr = np.where(
        kind == 0,
        0x1000_0000 + (np.arange(n) * 8) % 4096,
        0x2000_0000 + rng.integers(0, 512, n) * 8,
    )
    cls = np.where(kind == 0, int(LoadClass.STRIDED), int(LoadClass.IRREGULAR))
    events = make_events(ip=0x40_0000 + kind * 4, addr=addr, cls=cls)
    sid = (np.arange(n, dtype=np.int64) // PER_CHUNK).astype(np.int32)
    return [
        (events[i * PER_CHUNK : (i + 1) * PER_CHUNK],
         sid[i * PER_CHUNK : (i + 1) * PER_CHUNK])
        for i in range(N_CHUNKS)
    ]


def _meta(name: str) -> TraceMeta:
    return TraceMeta(
        module=name, kind="sampled", period=1000, buffer_capacity=PER_CHUNK,
        n_loads_total=N_CHUNKS * PER_CHUNK * 2, n_samples=N_CHUNKS,
    )


def _light_tenants(serve_workers: int) -> list[str]:
    """Tenant names that never share the straggler's shard (when >1)."""
    bad = route_session(STRAGGLER, serve_workers)
    names, i = [], 0
    while len(names) < N_TENANTS:
        name = f"tenant{i}"
        i += 1
        if serve_workers == 1 or route_session(name, serve_workers) != bad:
            names.append(name)
    return names


class _Harness:
    """A TraceServer on a private loop in a thread (bench-local copy)."""

    def __init__(self, config: ServeConfig, **kwargs) -> None:
        self.server = TraceServer(config, **kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            await self.server.start()
            self._started.set()
            await self.server.serve_until_stopped()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._started.set()
            self._loop.close()

    def start(self) -> int:
        self._thread.start()
        assert self._started.wait(timeout=60), "server never booted"
        return self.server.port

    def stop(self) -> None:
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.server._stopping.set)
            except RuntimeError:
                pass
        self._thread.join(timeout=120)
        for w in self.server.workers:
            w.kill()
        assert not self._thread.is_alive(), "server did not shut down"


def _append_retrying(client, name, events, sid, sheds: list) -> None:
    while True:
        try:
            client.append(name, events, sid)
            return
        except ServeBusy as busy:
            sheds.append(1)
            time.sleep(busy.retry_ms / 1000.0)


def _tenant_thread(port, name, seed, latencies, sheds, errors) -> None:
    """One light tenant: stream chunks, query after each (a submitter
    and a querier on the same session — FIFO makes the query see every
    chunk appended so far)."""
    try:
        with ServeClient(port=port) as c:
            c.open(name, _meta(name))
            for k, (events, sid) in enumerate(_chunks(seed), start=1):
                _append_retrying(c, name, events, sid, sheds)
                with Timer() as t:
                    info, _ = c.query(name, PASSES)
                latencies.append(t.elapsed)
                assert info["n_chunks"] == k
            info = c.close_session(name)
            assert info["n_chunks"] == N_CHUNKS
    except BaseException as exc:
        errors.append(exc)


def _straggler_thread(port, stop: threading.Event, errors) -> None:
    """The noisy neighbor: back-to-back stalling queries until told off."""
    try:
        with ServeClient(port=port) as c:
            c.open(STRAGGLER, _meta(STRAGGLER))
            events, sid = _chunks(seed=999)[0]
            _append_retrying(c, STRAGGLER, events, sid, [])
            while not stop.is_set():
                c.query(STRAGGLER, PASSES)
            c.close_session(STRAGGLER)
    except BaseException as exc:
        errors.append(exc)


def _run_load(tmp_path, serve_workers: int, journal) -> dict:
    """One full mixed-load run; returns the aggregate numbers."""
    stall = STALL_S

    def query_hook(name, passes):  # inside the owning worker process
        if name == STRAGGLER:
            time.sleep(stall)

    metrics = MetricsRegistry()
    config = ServeConfig(
        root=tmp_path / f"state-{serve_workers}w",
        queue_size=64,
        session_queue_size=16,
        serve_workers=serve_workers,
    )
    harness = _Harness(
        config, obs=Obs(journal, metrics), query_hook=query_hook
    )
    port = harness.start()
    try:
        errors: list = []
        stop = threading.Event()
        strag = threading.Thread(target=_straggler_thread, args=(port, stop, errors))
        strag.start()
        latencies: list[float] = []
        sheds: list[int] = []
        tenants = [
            threading.Thread(
                target=_tenant_thread,
                args=(port, name, 100 + i, latencies, sheds, errors),
            )
            for i, name in enumerate(_light_tenants(serve_workers))
        ]
        with Timer() as t:
            for th in tenants:
                th.start()
            for th in tenants:
                th.join(timeout=600)
        stop.set()
        strag.join(timeout=600)
        for exc in errors:
            raise exc
    finally:
        harness.stop()

    n_queries = len(latencies)
    ms = np.asarray(latencies) * 1e3
    return {
        "workers": serve_workers,
        "elapsed": t.elapsed,
        "qps": n_queries / t.elapsed,
        "p50": float(np.percentile(ms, 50)),
        "p99": float(np.percentile(ms, 99)),
        "sheds": int(metrics.counter("serve.shed").value),
        "n_queries": n_queries,
    }


def test_serve_scaleout_straggler_isolation(tmp_path):
    """Acceptance: >= 2x aggregate light-tenant query throughput at 4
    shard workers vs 1 under the mixed load with a straggler tenant."""
    journal_path = os.environ.get("MEMGAZE_BENCH_JOURNAL")
    journal = RunJournal(journal_path) if journal_path else None

    runs = [_run_load(tmp_path, w, journal) for w in (1, 4)]
    one, four = runs
    speedup = four["qps"] / max(one["qps"], 1e-9)

    if journal is not None:
        for r in runs:
            journal.emit("serve-scaleout-run", **r)
        journal.emit("serve-scaleout-speedup", speedup=speedup)
        journal.close()

    rows = [
        "serve scale-out: straggler isolation under mixed multi-session load "
        f"(cpus: {os.cpu_count()})",
        f"light tenants: {N_TENANTS} (append+query x{N_CHUNKS}, "
        f"{PER_CHUNK} events/chunk); straggler: {STALL_S:.2f}s stall/query",
        f"{'workers':>8} {'light q/s':>10} {'p50 ms':>9} {'p99 ms':>9} "
        f"{'sheds':>6} {'elapsed':>8}",
    ]
    for r in runs:
        rows.append(
            f"{r['workers']:>8} {r['qps']:>10.2f} {r['p50']:>9.1f} "
            f"{r['p99']:>9.1f} {r['sheds']:>6} {r['elapsed']:>7.2f}s"
        )
    rows.append(
        f"aggregate light-query speedup, 4w vs 1w: {speedup:.2f}x  (floor: 2x)"
    )
    save_result("perf_serve_scaleout", "\n".join(rows))

    assert speedup >= 2.0, f"expected >= 2x scale-out speedup, got {speedup:.2f}x"
