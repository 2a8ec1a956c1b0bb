"""End-to-end tests of the streaming analysis daemon.

The centerpiece is the equivalence test: two clients stream different
traces concurrently, query after every chunk, and every intermediate
payload must be **byte-identical** to what offline ``memgaze report
--json`` prints for an archive holding exactly that prefix.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.obs import MetricsRegistry, Obs, RunJournal, read_journal
from repro.serve.client import ServeBusy, ServeClient, ServeError
from repro.trace.event import make_events
from repro.trace.tracefile import iter_trace_chunks, read_trace_meta, write_trace

PASSES = ["diagnostics", "captures", "reuse"]


def _query_when_ready(client, name, min_chunks, timeout=60.0):
    """Poll until the async ingest pipeline has landed ``min_chunks``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            info, text = client.query(name, PASSES)
        except ServeError:
            info, text = None, None  # nothing ingested yet
        if info is not None and info["n_chunks"] >= min_chunks:
            return info, text
        assert time.monotonic() < deadline, "ingest never caught up"
        time.sleep(0.01)


def _stream_session(port, name, archive, chunk_size, out):
    """Client thread: append chunk, wait for ingest, capture live query."""
    try:
        meta = read_trace_meta(archive)
        captured = []
        prefix_ev, prefix_sid = [], []
        with ServeClient(port=port) as c:
            c.open(name, meta)
            k = 0
            for events, sid in iter_trace_chunks(archive, chunk_size=chunk_size):
                while True:
                    try:
                        c.append(name, events, sid)
                        break
                    except ServeBusy as busy:
                        time.sleep(busy.retry_ms / 1000.0)
                k += 1
                prefix_ev.append(events)
                prefix_sid.append(sid)
                _, text = _query_when_ready(c, name, k)
                captured.append(
                    (np.concatenate(prefix_ev), np.concatenate(prefix_sid), text)
                )
            _, full_text = c.query(name)  # full report on the whole stream
            c.close_session(name)
        out[name] = (meta, captured, full_text)
    except BaseException as exc:  # surfaces in the main thread
        out[name] = exc


def test_ping(serve_harness):
    _, port = serve_harness()
    with ServeClient(port=port) as c:
        assert c.ping() == {"type": "ok", "port": port}


@pytest.mark.parametrize("serve_workers", [1, 4])
def test_live_queries_bit_identical_to_offline_report(
    tmp_path, make_rng, serve_harness, build_archive, capsys, serve_workers
):
    """Two concurrent clients; every intermediate live query must equal
    the offline report over that exact archive prefix, byte for byte —
    at one shard worker and at four (the sharded dispatcher must keep
    the per-session contract intact)."""
    a1 = tmp_path / "alpha.npz"
    a2 = tmp_path / "beta.npz"
    build_archive(a1, make_rng("alpha"), n_samples=12, per_sample=300, module="alpha-mod")
    build_archive(a2, make_rng("beta"), n_samples=8, per_sample=500, module="beta-mod")

    _, port = serve_harness(queue_size=16, serve_workers=serve_workers)
    out: dict = {}
    threads = [
        threading.Thread(target=_stream_session, args=(port, name, archive, cs, out))
        for name, archive, cs in (("alpha", a1, 900), ("beta", a2, 1000))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive(), "client thread hung"
    for name in ("alpha", "beta"):
        if isinstance(out.get(name), BaseException):
            raise out[name]

    for name in ("alpha", "beta"):
        meta, captured, full_text = out[name]
        assert len(captured) >= 3, "need several intermediate prefixes"
        prefix = None
        for i, (ev, sid, live_text) in enumerate(captured):
            prefix = tmp_path / f"{name}-prefix-{i}.npz"
            write_trace(prefix, ev, meta, sid)
            rc = cli_main(
                ["report", str(prefix), "--json", "--passes", ",".join(PASSES)]
            )
            cap = capsys.readouterr()
            assert rc == 0
            assert cap.out == live_text + "\n", (
                f"{name} prefix {i}: live query != offline report"
            )
        # the final full-report payload too (all passes + function windows)
        rc = cli_main(["report", str(prefix), "--json"])
        cap = capsys.readouterr()
        assert rc == 0
        assert cap.out == full_text + "\n"


def test_queue_overflow_sheds_with_journaled_busy(
    tmp_path, make_rng, serve_harness, build_archive
):
    """A full ingest queue rejects the append deterministically: busy
    response, ``serve.shed`` counter, journaled queue-full warning —
    and the shed chunk succeeds on retry once the queue drains."""
    journal_path = tmp_path / "journal.jsonl"
    journal = RunJournal(journal_path)
    metrics = MetricsRegistry()
    # the hook runs inside the forked shard-worker process, so the
    # gates must be multiprocessing primitives, not threading ones
    gate = multiprocessing.Event()
    entered = multiprocessing.Event()

    def hook(name, n_events):  # parks the single worker inside an ingest
        entered.set()
        gate.wait(timeout=60)

    _, port = serve_harness(
        queue_size=1, obs=Obs(journal, metrics), ingest_hook=hook
    )
    ev, sid, meta = build_archive(
        tmp_path / "t.npz", make_rng(), n_samples=6, per_sample=100
    )
    chunks = [(ev[i * 200 : (i + 1) * 200], sid[i * 200 : (i + 1) * 200]) for i in range(3)]

    retries = 0
    with ServeClient(port=port) as c:
        c.open("s", meta)
        c.append("s", *chunks[0])
        assert entered.wait(timeout=30), "worker never started the ingest"
        c.append("s", *chunks[1])  # fills the size-1 queue behind the parked worker
        with pytest.raises(ServeBusy) as excinfo:
            c.append("s", *chunks[2])
        assert excinfo.value.retry_ms == 50
        gate.set()
        deadline = time.monotonic() + 60
        while True:  # the shed chunk is accepted once the worker drains
            try:
                c.append("s", *chunks[2])
                break
            except ServeBusy as busy:
                retries += 1
                assert time.monotonic() < deadline
                time.sleep(busy.retry_ms / 1000.0)
        info = c.close_session("s")
        assert info["n_chunks"] == 3
        assert info["n_events"] == 600

    assert metrics.counter("serve.shed").value == 1 + retries
    shed = [r for r in read_journal(journal_path) if r.get("reason") == "queue-full"]
    assert shed, "load-shed was not journaled"
    assert shed[0]["session"] == "s"
    assert shed[0]["queue_size"] == 1

    assert cli_main(["validate-trace", str(tmp_path / "serve-state/sessions/s.npz")]) == 0


def test_graceful_shutdown_drains_and_leaves_valid_archives(
    tmp_path, make_rng, serve_harness, build_archive
):
    journal_path = tmp_path / "journal.jsonl"
    journal = RunJournal(journal_path)
    metrics = MetricsRegistry()
    harness, port = serve_harness(obs=Obs(journal, metrics))
    ev, sid, meta = build_archive(
        tmp_path / "t.npz", make_rng(), n_samples=4, per_sample=150
    )
    with ServeClient(port=port) as c:
        c.open("one", meta)
        c.open("two", meta)
        c.append("one", ev[:300], sid[:300])
        c.append("one", ev[300:], sid[300:])
        c.append("two", ev, sid)
        # shutdown without closing sessions: the daemon must drain the
        # queued appends and flush both sessions itself
        assert c.shutdown() == {"type": "ok", "stopping": True}
    harness.join()

    sessions = tmp_path / "serve-state" / "sessions"
    for name in ("one", "two"):
        assert cli_main(["validate-trace", str(sessions / f"{name}.npz")]) == 0

    records = list(read_journal(journal_path))
    stop = [r for r in records if r.get("event") == "serve-stop"]
    assert stop and stop[0]["sessions_flushed"] == 2
    assert metrics.counter("serve.accepted").value == 3
    assert metrics.counter("serve.events_ingested").value == 1200
    # worker-side lines carry the session the daemon's handle was bound to
    ingested = [r for r in records if r.get("event") == "chunk-ingested"]
    assert sorted(r["session"] for r in ingested) == ["one", "one", "two"]
    assert all(r["pid"] != os.getpid() for r in ingested)
    assert any(r.get("stage") == "serve-ingest" for r in records)


def test_close_then_reopen_rehydrates_the_archive(
    tmp_path, make_rng, serve_harness, build_archive
):
    _, port = serve_harness()
    ev, sid, meta = build_archive(
        tmp_path / "t.npz", make_rng(), n_samples=4, per_sample=100
    )
    with ServeClient(port=port) as c:
        c.open("s", meta)
        c.append("s", ev[:200], sid[:200])
        c.close_session("s")
        c.open("s", meta)  # re-attach: adopts the on-disk archive
        info, _ = _query_when_ready(c, "s", 1)
        assert info["n_events"] == 200
        c.append("s", ev[200:], sid[200:])
        info, _ = _query_when_ready(c, "s", 2)
        assert info["n_events"] == 400
        c.close_session("s")


def test_protocol_errors_surface_as_serve_errors(serve_harness):
    _, port = serve_harness()
    one_event = make_events(
        ip=np.array([1]), addr=np.array([2]), cls=np.array([0], dtype=np.uint8)
    )
    with ServeClient(port=port) as c:
        with pytest.raises(ServeError, match="protocol version"):
            c._round_trip({"type": "open", "session": "x", "protocol": 99})
        with pytest.raises(ServeError, match="before open"):
            c.append("x", one_event)
        with pytest.raises(ServeError, match="no open session"):
            c.query("nope")
        with pytest.raises(ServeError, match="invalid session name"):
            c.open("../evil")
        with pytest.raises(ServeError, match="unknown message type"):
            c._round_trip({"type": "frobnicate"})
        # the connection survives every rejection
        assert c.ping()["type"] == "ok"
