"""A serve query after an ingest must be served from the store, not a scan.

Ingest analyzes the session archive for the default report pass set, so
the full-report query that follows finds every partial it needs under
the archive's digest: it must read and scan zero chunks, and its payload
must still equal ``memgaze report --json`` over the same archive bytes.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.cli import main
from repro.core.artifacts import ArtifactStore
from repro.core.parallel import ParallelEngine
from repro.core.report import payload_json
from repro.obs import MetricsRegistry, Obs
from repro.serve.session import SessionManager
from repro.trace.tracefile import read_trace


def _chunks_scanned(metrics: MetricsRegistry) -> int:
    counter = metrics.as_dict()["counters"].get("passes.chunks_scanned")
    return 0 if counter is None else counter["value"]


def test_query_after_ingest_scans_no_chunk(tmp_path, make_rng, build_archive, capsys):
    src = tmp_path / "src.npz"
    build_archive(src, make_rng(), n_samples=12, per_sample=400)
    events, meta, sample_id, _ = read_trace(src)
    metrics = MetricsRegistry()
    obs = Obs(metrics=metrics)
    store = ArtifactStore(tmp_path / "cache", obs=obs)
    manager = SessionManager(tmp_path / "sessions")
    session = manager.open("s", meta)
    per_chunk = 4 * 400  # four whole samples per ingest
    with ParallelEngine(workers=1, store=store, obs=obs) as engine:
        for lo in range(0, len(events), per_chunk):
            hi = lo + per_chunk
            ack = session.ingest(events[lo:hi], sample_id[lo:hi], engine)
            assert ack["mode"] == ("full" if lo == 0 else "incremental")
            before = _chunks_scanned(metrics)
            _, payload = session.query(None, engine)
            assert _chunks_scanned(metrics) == before, "query rescanned the archive"

            capsys.readouterr()
            assert main(["report", str(session.archive), "--json", "--no-cache"]) == 0
            assert payload_json(payload) == capsys.readouterr().out.rstrip("\n")
    assert session.n_events == len(events)
    assert np.array_equal(read_trace(session.archive)[0], events)


def test_reopened_session_deflates_nothing_until_it_appends(
    tmp_path, make_rng, build_archive, monkeypatch
):
    import repro.trace.tracefile as tracefile

    src = tmp_path / "src.npz"
    build_archive(src, make_rng(), n_samples=8, per_sample=400)
    events, meta, sample_id, _ = read_trace(src)
    half = 4 * 400
    store = ArtifactStore(tmp_path / "cache")
    manager = SessionManager(tmp_path / "sessions")
    with ParallelEngine(workers=1, store=store) as engine:
        manager.open("s", meta).ingest(events[:half], sample_id[:half], engine)
        manager.close("s")
        published = manager.root.joinpath("s.npz").read_bytes()

        deflated = []  # (bytes, deflating thread)
        real = tracefile._deflate

        def deflate(data, **kw):
            deflated.append((len(data), threading.current_thread()))
            return real(data, **kw)

        monkeypatch.setattr(tracefile, "_deflate", deflate)
        session = manager.open("s", meta)
        session.query(None, engine)
        assert deflated == [], "reopen + query recompressed the trace"
        assert session.archive.read_bytes() == published

        ack = session.ingest(events[half:], sample_id[half:], engine)
        assert ack["mode"] == "incremental"
        assert deflated, "the first publish after a reopen deflates the adopted prefix"
        # ... on the publish thread, beside the ingest's analysis
        assert max(n for n, _ in deflated) >= half * events.itemsize
        assert all(t is not threading.current_thread() for _, t in deflated)
    ev, _, sid, _ = read_trace(session.archive)
    assert np.array_equal(ev, events) and np.array_equal(sid, sample_id)
