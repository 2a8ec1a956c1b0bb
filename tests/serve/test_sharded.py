"""Sharded-daemon behavior tests.

Three properties the session-sharded dispatcher must provide beyond the
single-executor daemon it replaced:

* **no head-of-line blocking** — a slow query on one session must not
  delay a session owned by a different shard worker;
* **layered backpressure** — a session at its own queue cap sheds with
  scope ``session`` (and its own counter) while the daemon-wide bound
  still has room;
* **crash isolation** — a shard worker dying is a per-session error
  plus a respawn, never a daemon death or another session's problem.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import zlib

import pytest

from repro.obs import MetricsRegistry, Obs, RunJournal, read_journal
from repro.serve.client import ServeBusy, ServeClient, ServeError
from repro.serve.shard import route_session

PASSES = ["diagnostics", "captures"]


def _names_on_distinct_workers(n_workers: int, count: int = 2) -> list[str]:
    """Deterministic session names routed to ``count`` distinct workers."""
    names: list[str] = []
    seen: set[int] = set()
    i = 0
    while len(names) < count:
        name = f"tenant{i}"
        i += 1
        worker = route_session(name, n_workers)
        if worker not in seen:
            seen.add(worker)
            names.append(name)
    return names


def test_route_session_is_deterministic_and_in_range():
    # crc32, not the salted builtin hash: stable across processes/restarts
    assert route_session("alpha", 4) == zlib.crc32(b"alpha") % 4
    assert route_session("x", 1) == 0
    assert all(0 <= route_session(f"s{i}", 7) < 7 for i in range(200))
    # ...and genuinely spreads names around
    assert len({route_session(f"s{i}", 4) for i in range(32)}) == 4


def test_slow_query_on_one_session_does_not_stall_another(
    tmp_path, make_rng, serve_harness, build_archive
):
    """Park one shard inside a query; a session on a different shard
    must keep answering while it is parked."""
    slow, fast = _names_on_distinct_workers(4)
    entered = multiprocessing.Event()
    gate = multiprocessing.Event()

    def hook(name, passes):  # runs inside the owning worker process
        if name == slow:
            entered.set()
            gate.wait(timeout=60)

    _, port = serve_harness(serve_workers=4, query_hook=hook)
    ev, sid, meta = build_archive(
        tmp_path / "t.npz", make_rng(), n_samples=4, per_sample=100
    )

    done = threading.Event()
    result: dict = {}

    def slow_client():
        try:
            with ServeClient(port=port) as c:
                c.open(slow, meta)
                c.append(slow, ev, sid)
                # FIFO per worker: the query runs after the ingest lands
                result["slow"] = c.query(slow, PASSES)
        except BaseException as exc:  # surfaces in the main thread
            result["slow"] = exc
        finally:
            done.set()

    t = threading.Thread(target=slow_client)
    t.start()
    try:
        assert entered.wait(timeout=60), "slow query never reached its worker"
        with ServeClient(port=port) as c:
            c.open(fast, meta)
            c.append(fast, ev, sid)
            info, text = c.query(fast, PASSES)
        assert info["n_events"] == len(ev)
        assert text
        # the parked shard is still parked: the fast tenant did not wait
        assert not done.is_set(), "fast query waited for the parked shard"
    finally:
        gate.set()
        t.join(timeout=60)
    assert not t.is_alive(), "slow client hung"
    if isinstance(result.get("slow"), BaseException):
        raise result["slow"]
    info, _ = result["slow"]
    assert info["n_events"] == len(ev)


def test_session_queue_cap_sheds_with_session_scope(
    tmp_path, make_rng, serve_harness, build_archive
):
    """A session at its own cap sheds (scope ``session``, per-session
    counter, ``session-queue-full`` journal reason) even though the
    global queue still has plenty of room — and the shed chunk lands on
    retry once the worker drains."""
    journal_path = tmp_path / "journal.jsonl"
    journal = RunJournal(journal_path)
    metrics = MetricsRegistry()
    gate = multiprocessing.Event()
    entered = multiprocessing.Event()

    def hook(name, n_events):  # parks the owning worker inside an ingest
        entered.set()
        gate.wait(timeout=60)

    _, port = serve_harness(
        queue_size=16,
        session_queue_size=1,
        obs=Obs(journal, metrics),
        ingest_hook=hook,
    )
    ev, sid, meta = build_archive(
        tmp_path / "t.npz", make_rng(), n_samples=6, per_sample=100
    )
    chunks = [
        (ev[i * 200 : (i + 1) * 200], sid[i * 200 : (i + 1) * 200]) for i in range(3)
    ]

    with ServeClient(port=port) as c:
        c.open("s", meta)
        c.append("s", *chunks[0])
        assert entered.wait(timeout=30), "worker never started the ingest"
        c.append("s", *chunks[1])  # queued: the session is now at its cap
        with pytest.raises(ServeBusy) as excinfo:
            c.append("s", *chunks[2])
        assert excinfo.value.scope == "session"
        assert excinfo.value.queue_depth == 1
        gate.set()
        deadline = time.monotonic() + 60
        while True:  # the shed chunk is accepted once the worker drains
            try:
                c.append("s", *chunks[2])
                break
            except ServeBusy as busy:
                assert busy.scope == "session"
                assert time.monotonic() < deadline
                time.sleep(busy.retry_ms / 1000.0)
        info = c.close_session("s")
    assert info["n_chunks"] == 3
    assert info["n_events"] == 600

    assert metrics.counter("serve.shed.session.s").value >= 1
    shed = [
        r for r in read_journal(journal_path)
        if r.get("reason") == "session-queue-full"
    ]
    assert shed, "session-scoped shed was not journaled"
    assert shed[0]["session"] == "s"
    assert shed[0]["queue_depth"] == 1


def test_worker_crash_is_a_session_error_not_a_daemon_death(
    tmp_path, make_rng, serve_harness, build_archive
):
    """SIGKILL a shard mid-ingest: the victim session errors and can be
    reopened on the respawned worker; the daemon and every other shard
    keep serving."""
    n_workers = 2
    doomed, other = _names_on_distinct_workers(n_workers)
    armed = multiprocessing.Event()
    armed.set()

    def hook(name, n_events):  # kills the owning worker exactly once
        if name == doomed and armed.is_set():
            armed.clear()
            os.kill(os.getpid(), signal.SIGKILL)

    journal_path = tmp_path / "journal.jsonl"
    journal = RunJournal(journal_path)
    metrics = MetricsRegistry()
    _, port = serve_harness(
        serve_workers=n_workers, obs=Obs(journal, metrics), ingest_hook=hook
    )
    ev, sid, meta = build_archive(
        tmp_path / "t.npz", make_rng(), n_samples=4, per_sample=100
    )

    with ServeClient(port=port) as c:
        c.open(doomed, meta)
        c.open(other, meta)
        c.append(doomed, ev, sid)  # SIGKILLs the owning shard mid-ingest
        # FIFO again: by the time this query is answered the crash has
        # been handled and the worker respawned with an empty session map
        with pytest.raises(ServeError, match="no open session"):
            c.query(doomed, PASSES)
        # the daemon survived, and the other shard never noticed
        assert c.ping()["type"] == "ok"
        c.append(other, ev, sid)
        info, _ = c.query(other, PASSES)
        assert info["n_events"] == len(ev)
        # reopen lands on the fresh worker; the lost chunk is re-sent
        c.open(doomed, meta)
        c.append(doomed, ev, sid)
        info, _ = c.query(doomed, PASSES)
        assert info["n_events"] == len(ev)
        c.close_session(doomed)
        c.close_session(other)

    assert metrics.counter("serve.worker.restarts").value == 1
    crash_idx = route_session(doomed, n_workers)
    assert metrics.counter(f"serve.worker.{crash_idx}.crashes").value == 1
    assert metrics.counter("serve.ingest_errors").value == 1  # the lost append
    records = list(read_journal(journal_path))
    crash = [r for r in records if "sessions_lost" in r]
    assert crash and doomed in crash[0]["sessions_lost"]
    assert any(
        "append lost" in str(r.get("message", "")) for r in records
    ), "the lost queued append was not journaled"
