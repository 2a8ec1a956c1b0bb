"""Session-shard workers: the process pool behind ``memgaze serve``.

The daemon routes every session to exactly one :class:`ShardWorker` —
a persistent child process — chosen by :func:`route_session`
(``crc32(name) % n_workers``, *not* the salted builtin ``hash``, so the
route is stable across daemon restarts and documented in the operator's
handbook). One worker executes its sessions' operations strictly in
arrival order, which is what preserves per-session ordering — and with
it the live-query == offline-report byte-identity — while sessions on
*different* workers run genuinely concurrently.

Each worker process owns the full per-session machinery the old
single-executor daemon held in one thread: a
:class:`~repro.serve.session.SessionManager` over the shared
``<root>/sessions`` directory, a :class:`~repro.core.parallel.
ParallelEngine`, and an :class:`~repro.core.artifacts.ArtifactStore`
over the shared ``<root>/cache``. Sharing the directories is safe
because the routing is deterministic (no two workers ever touch the
same session archive), each ingest's append to a session archive is
published atomically (:meth:`~repro.trace.tracefile.TraceAppender.
publish`: temp file + ``os.replace``), the artifact cache writes via
``os.replace``, and the run journal appends with ``O_APPEND``.

The wire between daemon and worker is one duplex pipe carrying small
dict requests (event arrays ride along pickled) and dict replies::

    {"op": "open"|"ingest"|"query"|"close"|"stop", "name": ..., ...}
    {"ok": True, ...} | {"ok": False, "etype": ..., "error": ...}

A dead worker surfaces as :class:`WorkerCrashed` on the next round
trip; the daemon respawns the worker (fresh process, empty session
map — archives on disk survive and rehydrate on reopen) and turns the
failed operation into a per-session error instead of a daemon death.
Workers also watch the pipe themselves: daemon death reads as EOF and
the worker exits rather than leaking.
"""

from __future__ import annotations

import multiprocessing
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.obs.handle import NULL_OBS, Obs

__all__ = [
    "route_session",
    "ServeOpError",
    "WorkerCrashed",
    "ShardWorker",
]


def route_session(name: str, n_workers: int) -> int:
    """The worker index owning ``name``: ``crc32(name) % n_workers``.

    Deterministic and restart-stable (unlike builtin ``hash``, which is
    salted per process), so a session always lands on the same worker
    for a given ``--serve-workers`` and tooling can predict placement.
    """
    return zlib.crc32(name.encode("utf-8")) % max(1, int(n_workers))


class ServeOpError(Exception):
    """A session operation failed inside (or en route to) its worker."""


class WorkerCrashed(ServeOpError):
    """The worker process died mid-conversation (pipe EOF/EPIPE)."""

    def __init__(self, index: int) -> None:
        super().__init__(f"serve worker {index} crashed")
        self.index = index


def _mp_context():
    # fork keeps test seams (closures over mp.Event) and the inherited
    # journal descriptor working; spawn is the non-unix fallback, where
    # hooks and the obs handle must pickle
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(
    conn,
    index: int,
    root,
    obs,
    engine_kwargs: dict,
    ingest_hook,
    query_hook,
) -> None:
    """The worker process body: one blocking request/reply loop.

    Requests for one worker are answered strictly in arrival order —
    the per-session ordering guarantee lives here. The loop survives
    per-operation exceptions (they become error replies) and exits on
    ``stop`` or on pipe EOF (daemon death). The worker journals through
    the daemon's journal but counts into a registry of its own, which
    the ``stop`` reply hands back for the daemon to merge.
    """
    from repro.core.artifacts import ArtifactStore
    from repro.core.parallel import ParallelEngine
    from repro.core.report import payload_json
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.session import SessionManager

    root = Path(root)
    obs = Obs(obs.journal, MetricsRegistry())
    store = ArtifactStore(root / "cache", obs=obs)
    engine = ParallelEngine(store=store, obs=obs, **engine_kwargs)
    # fork the pool while this is the process's only thread: an ingest
    # publishes on a helper thread during its scan
    engine.start()
    manager = SessionManager(root / "sessions", obs)

    while True:
        try:
            req = conn.recv()
        except (EOFError, OSError):
            break  # daemon is gone; don't linger
        op = req.get("op")
        try:
            if op == "stop":
                closed = manager.close_all()
                engine.close()
                conn.send(
                    {"ok": True, "closed": closed, "metrics": obs.metrics.as_dict()}
                )
                break
            name = req.get("name")
            if op == "open":
                session = manager.open(name, req["meta"])
                reply = {
                    "ok": True,
                    "session": session.name,
                    "n_events": session.n_events,
                }
            elif op == "ingest":
                if ingest_hook is not None:
                    ingest_hook(name, len(req["events"]))
                session = manager.get(name)
                t0 = time.perf_counter()
                info = session.ingest(req["events"], req["sample_id"], engine)
                seconds = time.perf_counter() - t0
                session.obs.emit("chunk-ingested", **info)
                reply = {
                    "ok": True,
                    "info": info,
                    "seconds": seconds,
                    "n_chunk_events": int(len(req["events"])),
                }
            elif op == "query":
                if query_hook is not None:
                    query_hook(name, req["passes"])
                session = manager.get(name)
                info, payload = session.query(
                    req["passes"], engine, viz=bool(req.get("viz"))
                )
                reply = {"ok": True, "info": info, "text": payload_json(payload)}
            elif op == "close":
                reply = {"ok": True, "info": manager.close(name)}
            else:
                reply = {
                    "ok": False,
                    "etype": "ProtocolError",
                    "error": f"unknown worker op {op!r}",
                }
        except Exception as exc:  # the worker survives; the op fails
            reply = {"ok": False, "etype": type(exc).__name__, "error": str(exc)}
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):
            break
    conn.close()


class ShardWorker:
    """Daemon-side handle of one persistent session-shard process.

    Holds the process, its pipe, a dedicated one-thread executor the
    asyncio daemon uses for the blocking round trips (one thread per
    worker keeps round trips FIFO without blocking the event loop), the
    worker's bounded dispatch queue, and the daemon's view of which
    sessions the worker currently owns.
    """

    def __init__(
        self,
        index: int,
        root,
        *,
        obs: Obs = NULL_OBS,
        engine_kwargs: dict | None = None,
        ingest_hook=None,
        query_hook=None,
    ) -> None:
        self.index = index
        self._root = root
        self._obs = obs
        self._engine_kwargs = dict(engine_kwargs or {})
        self._ingest_hook = ingest_hook
        self._query_hook = query_hook
        self.process = None
        self.conn = None
        self.sessions: set[str] = set()
        self.restarts = 0
        # created lazily by the daemon once its loop runs
        self.queue = None
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"serve-shard-{index}"
        )

    # -- lifecycle -------------------------------------------------------------

    def spawn(self) -> None:
        """Start (or restart) the worker process."""
        ctx = _mp_context()
        parent, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                child,
                self.index,
                str(self._root),
                self._obs,
                self._engine_kwargs,
                self._ingest_hook,
                self._query_hook,
            ),
            name=f"memgaze-serve-shard-{self.index}",
        )
        self.process.start()
        child.close()  # the parent's EOF detector needs the only child end closed
        self.conn = parent

    def respawn(self) -> None:
        """Replace a crashed process; its in-memory sessions are gone."""
        if self.process is not None:
            self.process.join(timeout=5)
        if self.conn is not None:
            self.conn.close()
        self.restarts += 1
        self.sessions.clear()
        self.spawn()

    # -- blocking round trips (run on self.executor, never the loop) -----------

    def request(self, req: dict) -> dict:
        """One FIFO round trip; raises :class:`WorkerCrashed` on death."""
        try:
            self.conn.send(req)
            return self.conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise WorkerCrashed(self.index) from exc

    def stop(self) -> dict:
        """Graceful stop: flush every owned session, join the process.

        Returns the worker's closing reply — session summaries plus its
        metrics-registry snapshot, which the daemon merges into the
        shared registry (the instruments' merges are exact and
        order-free, see :mod:`repro.obs.metrics`).
        """
        reply = self.request({"op": "stop"})
        self.process.join(timeout=60)
        self.conn.close()
        return reply

    def kill(self) -> None:
        """Hard teardown for abnormal daemon exit paths (idempotent)."""
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        if self.conn is not None:
            self.conn.close()
        self.executor.shutdown(wait=False)
