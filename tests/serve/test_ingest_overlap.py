"""Serve ingest publishes the archive on a helper thread during its scan.

The overlap must not change what an ack means, and it must never put a
second thread into a process that a pooled engine forks:

* a pooled shard worker forks its pool before it takes a request, so
  every fork happens with one thread alive, and no thread started by an
  ingest outlives it (run in a fresh interpreter, driven through the
  shard worker's own request loop);
* a publish that fails fails the ingest, leaves the previous archive in
  place, and the next successful ingest publishes the whole trace.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.artifacts import ArtifactStore
from repro.core.parallel import _MIN_PARALLEL_EVENTS, ParallelEngine
from repro.serve.session import SessionManager
from repro.trace.tracefile import TraceAppender, read_trace

#: runs ``_worker_main`` over a scripted connection: open, two pooled
#: ingests, stop; prints what every fork and every reply saw
_WORKER_SCRIPT = r"""
import json, os, sys, threading
from pathlib import Path

from repro.obs.handle import NULL_OBS
from repro.serve.shard import _worker_main
from repro.trace.tracefile import read_trace

forks = []
os.register_at_fork(before=lambda: forks.append(threading.active_count()))

events, meta, sample_id, _ = read_trace(sys.argv[1])
half = len(events) // 2
requests = [{"op": "open", "name": "s", "meta": meta}]
for lo, hi in ((0, half), (half, len(events))):
    requests.append(
        {"op": "ingest", "name": "s", "events": events[lo:hi], "sample_id": sample_id[lo:hi]}
    )
requests.append({"op": "stop"})


class Conn:
    # the daemon's end of the pipe, played from a list: no second thread
    replies = []

    def recv(self):
        return requests.pop(0)

    def send(self, reply):
        alive = sorted(t.name for t in threading.enumerate() if not t.daemon)
        self.replies.append({"reply": reply, "non_daemon_threads": alive})

    def close(self):
        pass


conn = Conn()
_worker_main(conn, 0, Path(sys.argv[2]), NULL_OBS, {"workers": 2, "chunk_size": None}, None, None)
print(json.dumps({"forks": forks, "replies": conn.replies}, default=str))
"""


def test_pooled_worker_forks_with_one_thread_alive(tmp_path, make_rng, build_archive):
    src = tmp_path / "src.npz"
    build_archive(src, make_rng(), n_samples=40, per_sample=2048)
    events, _, sample_id, _ = read_trace(src)
    assert len(events) // 2 >= 2 * _MIN_PARALLEL_EVENTS  # both tail scans pool
    root = tmp_path / "root"
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    run = subprocess.run(
        [sys.executable, "-c", _WORKER_SCRIPT, str(src), str(root)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": repo_src},
    )
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)

    assert seen["forks"] and set(seen["forks"]) == {1}, seen["forks"]
    opened, *ingests, stopped = seen["replies"]
    assert all(r["reply"]["ok"] for r in seen["replies"]), seen["replies"]
    assert [r["reply"]["info"]["mode"] for r in ingests] == ["full", "incremental"]
    counters = stopped["reply"]["metrics"]["counters"]
    assert counters["parallel.runs_pooled"]["value"] == 2
    # the pool's own threads were up before the first ingest; an ingest
    # leaves no thread of its own behind
    for r in ingests:
        assert r["non_daemon_threads"] == opened["non_daemon_threads"]
    ev, _, sid, _ = read_trace(root / "sessions" / "s.npz")
    assert np.array_equal(ev, events) and np.array_equal(sid, sample_id)


def test_failed_publish_fails_the_ingest(tmp_path, make_rng, build_archive, monkeypatch):
    src = tmp_path / "src.npz"
    build_archive(src, make_rng(), n_samples=12, per_sample=400)
    events, meta, sample_id, _ = read_trace(src)
    cuts = [(0, 1600), (1600, 3200), (3200, len(events))]
    manager = SessionManager(tmp_path / "sessions")
    session = manager.open("s", meta)
    with ParallelEngine(workers=1, store=ArtifactStore(tmp_path / "cache")) as engine:
        (lo, hi), *rest = cuts
        session.ingest(events[lo:hi], sample_id[lo:hi], engine)
        published = session.archive.read_bytes()
        baseline = threading.active_count()

        def refuse(self, **kwargs):
            raise OSError("no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(TraceAppender, "publish", refuse)
            (lo, hi), last = rest
            with pytest.raises(OSError, match="no space left"):
                session.ingest(events[lo:hi], sample_id[lo:hi], engine)
        assert threading.active_count() == baseline
        assert session.archive.read_bytes() == published

        lo, hi = last
        ack = session.ingest(events[lo:hi], sample_id[lo:hi], engine)
    assert ack["n_events"] == len(events)
    ev, _, sid, _ = read_trace(session.archive)
    assert np.array_equal(ev, events) and np.array_equal(sid, sample_id)
