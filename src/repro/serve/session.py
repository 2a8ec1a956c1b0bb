"""Per-stream session state for the streaming analysis service.

A :class:`ServeSession` owns one client stream's growing trace: the
in-memory event arrays, the on-disk archive they are flushed to, and the
analysis freshness loop. Every accepted chunk

1. appends to the in-memory arrays,
2. **atomically rewrites** the session archive
   (:func:`repro.trace.tracefile.write_trace` with ``atomic=True``), so
   concurrent readers — live queries, an offline ``memgaze report``, a
   crashing daemon's survivors — only ever see complete archives, and
3. drives :meth:`ParallelEngine.analyze` over the archive for the
   default report pass set (:data:`repro.core.report.REPORT_PASSES`),
   which warms the content-addressed
   :class:`~repro.core.artifacts.ArtifactStore` under the archive's
   *new* digest via the prefix-incremental path: only the appended tail
   is scanned, the cached prefix partials merge in.

A full-report query then loads the archive through the same
:func:`repro.trace.loader.load_trace_collection` +
:meth:`ParallelEngine.analyze` path the offline CLI uses — ingest
stored every pass that payload needs, so no chunk is scanned, and the
resulting JSON payload is byte-identical to ``memgaze report --json``
over the same archive.

The :class:`SessionManager` maps stream names to sessions; it does no
locking because it never needs any. Each shard worker process of the
daemon (:mod:`repro.serve.shard`) owns one manager over the shared
``sessions/`` directory, every session is routed to exactly one worker
(``crc32(name) % serve_workers``), and that worker executes the
session's ingests and queries strictly in arrival order — which is what
makes "the archive never changes mid-query" true. Re-opening a session
rehydrates its on-disk archive *in whichever worker owns the name*, so
the ownership survives daemon restarts, worker crashes, and
``--serve-workers`` changes (the route moves, the archive follows).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.core.artifacts import ArtifactStore
from repro.core.report import (
    REPORT_PASSES,
    full_report_payload,
    passes_payload,
    viz_report_payload,
)
from repro.trace.compress import sample_ratio_from
from repro.trace.loader import load_trace_collection
from repro.trace.tracefile import TraceMeta, write_trace

__all__ = ["ServeSession", "SessionManager"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


def _check_name(name: str) -> str:
    """Session names become file names; reject anything path-like."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"invalid session name {name!r}: use letters, digits, '.', '_', "
            "'-' (max 100 chars, no leading '.')"
        )
    return name


class ServeSession:
    """One client stream: a growing archive plus its analysis freshness."""

    def __init__(self, name: str, root: Path, meta: TraceMeta, journal=None) -> None:
        self.name = _check_name(name)
        self.archive = root / f"{self.name}.npz"
        self.meta = meta
        self.journal = journal
        self._events: list[np.ndarray] = []
        self._sids: list[np.ndarray] | None = []
        self.n_chunks = 0
        self.n_events = 0
        #: how the last freshness analysis ran ("incremental" after the
        #: first chunk, when appends start new samples)
        self.last_mode: str | None = None
        self.last_skipped = 0
        self.closed = False

    def rehydrate(self) -> bool:
        """Adopt an existing session archive (re-attach after a close).

        Returns True when an archive was found and loaded: its events,
        sample ids, and metadata replace the open request's, so appends
        extend the stored trace and queries work immediately. The
        adopted events count as one prior chunk.
        """
        if not self.archive.exists():
            return False
        from repro.trace.tracefile import read_trace

        events, meta, sample_id = read_trace(self.archive)
        self.meta = meta
        self._events = [events]
        self._sids = None if sample_id is None else [sample_id]
        self.n_chunks = 1
        self.n_events = int(len(events))
        return True

    # -- ingest (called inside the session's owning shard worker) --------------

    def ingest(self, events: np.ndarray, sample_id: np.ndarray | None, engine) -> dict:
        """Append one chunk, publish the archive, refresh the analysis.

        Returns a small summary dict for the journal/ack. A chunk with
        no sample ids degrades the whole session to sid-less (reuse
        becomes chunk-scoped, incremental re-analysis stops matching) —
        journaled once, on the degrading chunk.
        """
        self._events.append(np.asarray(events))
        if self._sids is not None:
            if sample_id is None:
                if self.n_chunks and self.journal is not None:
                    self.journal.warning(
                        "chunk carries no sample ids: session archive "
                        "degrades to sid-less (chunk-scoped reuse, no "
                        "incremental re-analysis)",
                        chunk=self.n_chunks,
                    )
                self._sids = None
            else:
                self._sids.append(np.asarray(sample_id, dtype=np.int32))
        self.n_chunks += 1
        self.n_events += int(len(events))

        all_events = np.concatenate(self._events) if self._events else events
        all_sids = (
            None if self._sids is None else np.concatenate(self._sids)
        )
        write_trace(self.archive, all_events, self.meta, all_sids, atomic=True)

        analysis = engine.analyze(self.archive, REPORT_PASSES)
        self.last_mode = analysis.mode
        self.last_skipped = analysis.skipped_events
        return {
            "chunk": self.n_chunks,
            "n_events": self.n_events,
            "mode": analysis.mode,
            "skipped_events": analysis.skipped_events,
        }

    # -- query (same shard worker, so the archive is stable) -------------------

    def query(self, passes: list[str] | None, engine, viz: bool = False) -> tuple[dict, dict]:
        """Analyze the archive as it stands; returns ``(info, payload)``.

        ``passes=None`` builds the full-report payload; a list of names
        builds the ``--passes`` payload; ``viz=True`` builds the
        visual-report payload (:func:`repro.core.report.
        viz_report_payload`) the daemon's dashboard renders. Either way
        the archive is loaded through the shared loader and analyzed
        through the same engine path the offline CLI uses, keyed by the
        archive's content digest — so partials warmed by ingest are
        reused and the payload is byte-identical to the offline report.
        """
        if self.n_chunks == 0:
            raise ValueError("session has no ingested chunks yet")
        loaded = load_trace_collection(self.archive, journal=self.journal)
        col = loaded.collection
        rho = sample_ratio_from(col)
        store_key = None
        if loaded.clean and engine.store is not None:
            store_key = ArtifactStore.archive_digest(self.archive)
        if viz:
            payload = viz_report_payload(
                self.meta.module, col, rho, loaded.fn_names, engine, store_key=store_key
            )
        elif passes is None:
            payload = full_report_payload(
                self.meta.module, col, rho, loaded.fn_names, engine, store_key=store_key
            )
        else:
            results = engine.analyze(
                (col.events, col.sample_id, store_key),
                list(passes),
                rho=rho,
                fn_names=loaded.fn_names,
            ).results
            payload = passes_payload(self.meta.module, col, rho, passes, results)
        info = {
            "session": self.name,
            "n_chunks": self.n_chunks,
            "n_events": self.n_events,
            "mode": self.last_mode,
            "skipped_events": self.last_skipped,
        }
        return info, payload

    def summary(self) -> dict:
        """Closing summary for the ``close`` ack and the journal."""
        return {
            "session": self.name,
            "archive": str(self.archive),
            "n_chunks": self.n_chunks,
            "n_events": self.n_events,
            "mode": self.last_mode,
        }


class SessionManager:
    """Name → session map plus the shared archive directory."""

    def __init__(self, root, journal=None, metrics=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal = journal
        self.metrics = metrics
        self.sessions: dict[str, ServeSession] = {}

    def open(self, name: str, meta: TraceMeta) -> ServeSession:
        """Create (or re-attach to) the named session.

        A name whose archive already exists on disk — a previous daemon
        run, or a session closed earlier in this one — is *re-attached*:
        the archive's own events and metadata are rehydrated so new
        appends extend the existing trace instead of shadowing it.
        """
        existing = self.sessions.get(name)
        if existing is not None:
            return existing
        bound = self.journal.bind(session=name) if self.journal is not None else None
        session = ServeSession(name, self.root, meta, journal=bound)
        rehydrated = session.rehydrate()
        self.sessions[name] = session
        if self.metrics is not None:
            self.metrics.gauge("serve.sessions_active").set(len(self.sessions))
        if bound is not None:
            bound.emit(
                "session-open",
                archive=str(session.archive),
                rehydrated=rehydrated,
                n_events=session.n_events,
            )
        return session

    def get(self, name: str) -> ServeSession:
        session = self.sessions.get(name)
        if session is None:
            raise KeyError(f"no open session named {name!r}")
        return session

    def close(self, name: str) -> dict:
        """Detach a session; its archive stays on disk, valid."""
        session = self.get(name)
        session.closed = True
        info = session.summary()
        del self.sessions[name]
        if self.metrics is not None:
            self.metrics.gauge("serve.sessions_active").set(len(self.sessions))
        if session.journal is not None:
            session.journal.emit("session-close", **info)
        return info

    def close_all(self) -> list[dict]:
        """Drain every remaining session (graceful-shutdown path)."""
        return [self.close(name) for name in list(self.sessions)]
