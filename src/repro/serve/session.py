"""Per-stream session state for the streaming analysis service.

A :class:`ServeSession` owns one client stream's growing trace: the
in-memory event arrays, the on-disk archive they are published to, and
the analysis freshness loop. Every accepted chunk

1. appends to the in-memory arrays (amortised growth buffers) and to
   the session's :class:`~repro.trace.tracefile.TraceAppender`, which
   checksums it into the health record; then, at the same time,
2. the appender **publishes** the archive on a short-lived helper
   thread — it deflates only the new chunk and replaces the archive
   atomically (temp file + ``os.replace``), so concurrent readers — an
   offline ``memgaze report``, a crashing daemon's survivors — only
   ever see complete archives — while
3. :meth:`ParallelEngine.analyze` scans the in-memory arrays for the
   default report pass set (:data:`repro.core.report.REPORT_PASSES`),
   keyed by the appender's health record, taken before the thread
   starts. That warms the content-addressed
   :class:`~repro.core.artifacts.ArtifactStore` under the trace's *new*
   digest via the prefix-incremental path: only the appended tail is
   scanned, the cached prefix partials merge in.

zlib releases the GIL while it deflates, so the publish runs beside the
scan instead of before it. The ingest joins the thread before it
returns and re-raises a failed publish, so the ack still follows both:
an acked chunk is in the archive on disk and in the store. A pooled
engine must have forked its workers before the first ingest (the shard
worker starts its engine's pool before it takes requests), so no fork
copies a process while a publish thread runs.

A query builds its collection from the same arrays through
:func:`repro.trace.loader.trace_collection` — the recipe the offline
loader applies to what it reads — and analyzes the same ``(events,
sample_id, health record)`` source ingest did, so no archive is read and no
chunk is scanned, and the JSON payload is byte-identical to ``memgaze
report --json`` over the archive. No op reads, decompresses or
re-deflates the prefix: an ingest costs the longer of its tail's
deflate and its tail's scan, where the scan includes merging the tail
into the whole-trace partials and writing them back, which is
O(footprint) — O(tail) overall while the program's footprint is
bounded. Reopening a session reads its archive once and
re-checksums it; the adopted prefix is deflated only if the session
publishes again.

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.report import (
    REPORT_PASSES,
    full_report_payload,
    passes_payload,
    viz_report_payload,
)
from repro.obs.handle import NULL_OBS, Obs
from repro.trace.event import EVENT_DTYPE
from repro.trace.loader import LoadedTrace, trace_collection
from repro.trace.tracefile import TraceAppender, TraceMeta, read_trace

__all__ = ["ServeSession", "SessionManager", "is_session_name"]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


def is_session_name(name) -> bool:
    """Whether ``name`` is a valid session name (a safe file stem)."""
    return isinstance(name, str) and _NAME_RE.match(name) is not None


def _check_name(name: str) -> str:
    """Session names become file names; reject anything path-like."""
    if not is_session_name(name):
        raise ValueError(
            f"invalid session name {name!r}: use letters, digits, '.', '_', "
            "'-' (max 100 chars, no leading '.')"
        )
    return name


class _Growing:
    """An append-only array with amortised O(1) appends (capacity doubling)."""

    def __init__(self, dtype, initial: np.ndarray | None = None) -> None:
        # ``initial`` is adopted without a copy; it is never written to
        self._buf = np.empty(0, dtype) if initial is None else np.asarray(initial, dtype)
        self.n = len(self._buf)

    def extend(self, arr: np.ndarray) -> None:
        end = self.n + len(arr)
        if end > len(self._buf):
            buf = np.empty(max(end, 2 * len(self._buf)), dtype=self._buf.dtype)
            buf[: self.n] = self._buf[: self.n]
            self._buf = buf
        self._buf[self.n : end] = arr
        self.n = end

    def view(self) -> np.ndarray:
        """The appended items; rows already appended are never rewritten."""
        return self._buf[: self.n]


class ServeSession:
    """One client stream: a growing archive plus its analysis freshness."""

    def __init__(self, name: str, root: Path, meta: TraceMeta, obs: Obs = NULL_OBS) -> None:
        self.name = _check_name(name)
        self.archive = root / f"{self.name}.npz"
        self.meta = meta
        self.obs = obs
        self._writer = TraceAppender(self.archive, meta)
        self._events = _Growing(EVENT_DTYPE)
        self._sids: _Growing | None = _Growing(np.int32)
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
        adopted events count as one prior chunk; the writer checksums
        them now and deflates them only when the session next publishes,
        so a session that is reopened only to be queried compresses
        nothing.
        """
        if not self.archive.exists():
            return False
        events, meta, sample_id, _ = read_trace(self.archive)
        self.meta = meta
        if sample_id is not None:
            sample_id = np.asarray(sample_id, dtype=np.int32)
        self._writer = TraceAppender(self.archive, meta)
        self._writer.append(events, sample_id)
        self._events = _Growing(EVENT_DTYPE, events)
        self._sids = None if sample_id is None else _Growing(np.int32, sample_id)
        self.n_events = self._events.n
        self.n_chunks = 1
        return True

    def _append(self, events: np.ndarray, sample_id: np.ndarray | None) -> None:
        self._writer.append(events, sample_id)
        self._events.extend(events)
        if not self._writer.has_sample_ids:
            self._sids = None
        elif self._sids is not None:
            self._sids.extend(sample_id)
        self.n_events = self._events.n

    def _source(self) -> LoadedTrace:
        """The trace as a query loads it, keyed by the writer's health record.

        The record is the one the archive carries, so the digest is the
        archive's, and it lets the engine match a cached prefix without
        re-checksumming the arrays.
        """
        sids = None if self._sids is None else self._sids.view()
        return trace_collection(
            self._events.view(), self.meta, sids, health=self._writer.health
        )

    # -- ingest (called inside the session's owning shard worker) --------------

    def ingest(self, events: np.ndarray, sample_id: np.ndarray | None, engine) -> dict:
        """Append one chunk; publish the archive while the analysis refreshes.

        The publish runs on a helper thread beside ``engine.analyze``
        and is joined before this returns; a failed publish raises here.
        Returns a small summary dict for the journal/ack. A chunk with
        no sample ids degrades the whole session to sid-less (reuse
        spans the whole trace as one window, incremental re-analysis
        stops matching) — journaled once, on the degrading chunk.
        """
        degrades = sample_id is None and self._sids is not None and self.n_chunks
        self._append(np.asarray(events), sample_id)
        if degrades:
            self.obs.warning(
                "chunk carries no sample ids: session archive "
                "degrades to sid-less (one reuse window, no "
                "incremental re-analysis)",
                chunk=self.n_chunks,
            )
        self.n_chunks += 1

        loaded = self._source()
        # one short-lived thread; leaving the block joins it
        with ThreadPoolExecutor(1, thread_name_prefix="session-publish") as helper:
            published = helper.submit(self._writer.publish)
            col = loaded.collection
            analysis = engine.analyze((col.events, col.sample_id, loaded.health), REPORT_PASSES)
        published.result()  # a failed publish fails the ingest
        self.last_mode = analysis.mode
        self.last_skipped = analysis.skipped_events
        return {
            "chunk": self.n_chunks,
            "n_events": self.n_events,
            "mode": analysis.mode,
            "skipped_events": analysis.skipped_events,
        }

    # -- query (same shard worker, so the trace is stable) ---------------------

    def query(self, passes: list[str] | None, engine, viz: bool = False) -> tuple[dict, dict]:
        """Analyze the trace as it stands; returns ``(info, payload)``.

        ``passes=None`` builds the full-report payload; a list of names
        builds the ``--passes`` payload; ``viz=True`` builds the
        visual-report payload (:func:`repro.core.report.
        viz_report_payload`) the daemon's dashboard renders. Either way
        the session's in-memory arrays become a collection by the
        offline loader's recipe and go to the payload builder the
        offline CLI calls, which analyzes them keyed by the archive's
        health record — so partials warmed by ingest are reused and the
        payload is byte-identical to the offline report.
        """
        if self.n_chunks == 0:
            raise ValueError("session has no ingested chunks yet")
        loaded = self._source()
        col = loaded.collection
        args = (self.meta.module, col, loaded.rho, loaded.fn_names, engine)
        if viz:
            payload = viz_report_payload(*args, health=loaded.health)
        elif passes is None:
            payload = full_report_payload(*args, health=loaded.health)
        else:
            payload = passes_payload(*args, health=loaded.health, requested=passes)
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

    def __init__(self, root, obs: Obs = NULL_OBS) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.obs = obs
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
        session = ServeSession(name, self.root, meta, obs=self.obs.bind(session=name))
        rehydrated = session.rehydrate()
        self.sessions[name] = session
        session.obs.emit(
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
        session.obs.emit("session-close", **info)
        return info

    def close_all(self) -> list[dict]:
        """Drain every remaining session (graceful-shutdown path)."""
        return [self.close(name) for name in list(self.sessions)]
