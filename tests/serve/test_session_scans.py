"""A serve query after an ingest must be served from the store, not a scan.

Ingest analyzes the session archive for the default report pass set, so
the full-report query that follows finds every partial it needs under
the archive's digest: it must read and scan zero chunks, and its payload
must still equal ``memgaze report --json`` over the same archive bytes.
"""

from __future__ import annotations

import numpy as np

from repro.cli import main
from repro.core.artifacts import ArtifactStore
from repro.core.parallel import ParallelEngine
from repro.core.report import payload_json
from repro.obs.metrics import MetricsRegistry
from repro.serve.session import SessionManager
from repro.trace.tracefile import read_trace


def _chunks_scanned(metrics: MetricsRegistry) -> int:
    counter = metrics.as_dict()["counters"].get("passes.chunks_scanned")
    return 0 if counter is None else counter["value"]


def test_query_after_ingest_scans_no_chunk(tmp_path, make_rng, build_archive, capsys):
    src = tmp_path / "src.npz"
    build_archive(src, make_rng(), n_samples=12, per_sample=400)
    events, meta, sample_id = read_trace(src)
    metrics = MetricsRegistry()
    store = ArtifactStore(tmp_path / "cache", metrics=metrics)
    manager = SessionManager(tmp_path / "sessions")
    session = manager.open("s", meta)
    per_chunk = 4 * 400  # four whole samples per ingest
    with ParallelEngine(workers=1, store=store, metrics=metrics) as engine:
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
