"""Every archive analysis or read opens the archive file exactly once.

Meta, health record, events and sample ids all come from one open
(:class:`repro.trace.tracefile.TraceReader`), so a writer that renames a
new archive into place between two reads cannot pair one file's record
with another file's events. Opens are counted with the interpreter's
``open`` audit event, which fires for every file open in the process.
"""

from __future__ import annotations

import contextlib
import os
import sys

import numpy as np
import pytest

from repro._util.rng import derive_rng
from repro.core.artifacts import ArtifactStore
from repro.core.parallel import ParallelEngine
from repro.serve.client import submit_archive
from repro.trace.event import make_events
from repro.trace.tracefile import (
    TraceMeta,
    iter_trace_chunks,
    read_trace,
    read_trace_health,
    read_trace_meta,
    write_trace,
)

#: the paths being counted, each with its open count
_WATCHED: list[dict] = []


def _audit(event: str, args: tuple) -> None:
    if event != "open" or not _WATCHED or not isinstance(args[0], (str, os.PathLike)):
        return
    path = os.path.abspath(os.fspath(args[0]))
    for watch in _WATCHED:
        if watch["path"] == path:
            watch["n"] += 1


sys.addaudithook(_audit)


@contextlib.contextmanager
def _opens(path):
    """Count the opens of ``path`` inside the block (``watch["n"]``)."""
    watch = {"path": os.path.abspath(path), "n": 0}
    _WATCHED.append(watch)
    try:
        yield watch
    finally:
        _WATCHED.remove(watch)


def _archive(path, *, n_samples: int | None = None):
    """A 30-sample archive; ``n_samples`` overrides the meta's count."""
    rng = derive_rng(0, "archive-opens")
    n = 30_000
    ev = make_events(
        ip=rng.integers(0, 40, n),
        addr=rng.integers(0, 1 << 18, n) * 8,
        cls=rng.integers(0, 3, n).astype(np.uint8),
        fn=rng.integers(0, 4, n),
    )
    sid = (np.arange(n) // 1000).astype(np.int32)
    meta = TraceMeta(
        module="opens", period=1000, buffer_capacity=1000, n_loads_total=4 * n,
        n_samples=30 if n_samples is None else n_samples,
    )
    write_trace(path, ev, meta, sid)
    return path


REQUESTS = ["diagnostics", "captures", "reuse", "windows"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["cold", "warm", "no-store", "no-sample-count"])
def test_analysis_opens_the_archive_once(tmp_path, case, workers):
    path = _archive(tmp_path / "t.npz", n_samples=0 if case == "no-sample-count" else None)
    store = None if case in ("no-store", "no-sample-count") else ArtifactStore(tmp_path / "c")
    with ParallelEngine(workers=workers, chunk_size=4000, store=store) as engine:
        if case == "warm":
            engine.analyze(path, REQUESTS)
        with _opens(path) as watch:
            fa = engine.analyze(path, REQUESTS)
    assert watch["n"] == 1
    assert fa.mode == ("cached" if case == "warm" else "full")
    assert fa.n_samples == 30 and fa.n_events == 30_000


@pytest.mark.parametrize(
    "read",
    [read_trace, read_trace_meta, read_trace_health, lambda p: list(iter_trace_chunks(p, 4000))],
    ids=["read_trace", "read_trace_meta", "read_trace_health", "iter_trace_chunks"],
)
def test_each_read_opens_the_archive_once(tmp_path, read):
    path = _archive(tmp_path / "t.npz")
    with _opens(path) as watch:
        read(path)
    assert watch["n"] == 1


class _Client:
    """Stands in for a live service: takes what ``submit`` sends."""

    def __init__(self, host, port) -> None:
        self.n_events = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def open(self, session, meta) -> None:
        assert meta.module == "opens"

    def append(self, session, events, sample_id) -> None:
        self.n_events += len(events)

    def close_session(self, session) -> dict:
        return {"archive": None}


def test_submit_opens_the_archive_once(tmp_path, monkeypatch):
    path = _archive(tmp_path / "t.npz")
    monkeypatch.setattr("repro.serve.client.ServeClient", _Client)
    with _opens(path) as watch:
        info = submit_archive(path, port=1, session="s", chunk_size=4000)
    assert watch["n"] == 1
    assert info["n_events"] == 30_000
