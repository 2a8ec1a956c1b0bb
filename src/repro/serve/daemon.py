"""The asyncio streaming-analysis daemon (``memgaze serve``).

One :class:`TraceServer` accepts any number of client connections, each
speaking the framed protocol of :mod:`repro.serve.protocol`. The
concurrency model is **session-sharded**:

* **asyncio** handles sockets — many connections, one event loop;
* every session is pinned to one of ``serve_workers`` persistent
  worker *processes* (:mod:`repro.serve.shard`) by
  ``crc32(session) % serve_workers``, and each worker executes its
  sessions' opens, appends, queries, and closes strictly in arrival
  order — so per-session ordering (and with it the live-query ==
  offline-report byte-identity) holds exactly as it did under the old
  single serialized executor, while *independent* sessions no longer
  head-of-line-block each other;
* a dispatcher task per worker pulls from that worker's FIFO queue and
  drives the blocking pipe round trip on a dedicated one-per-worker
  thread, keeping the event loop free.

Backpressure is **layered, explicit load-shedding**, not silent
buffering: an append is rejected immediately with a ``busy`` response
when its *session* already has ``session_queue_size`` appends queued
(scope ``session``) or when ``queue_size`` appends are queued daemon-
wide (scope ``global``). Either way the response carries the session's
current queue depth and a suggested retry delay, the rejection is
journaled, and both the global ``serve.shed`` counter and the
per-session ``serve.shed.session.<name>`` counter increment. Clients
(see :func:`repro.serve.client.submit_archive`) back off and retry; the
daemon's memory stays bounded by ``queue_size`` frames regardless of
how fast clients push.

A worker process crash is a *session* failure, not a daemon failure:
the dead worker is respawned (``serve.worker.restarts``), its in-memory
sessions are dropped (their on-disk archives survive and rehydrate on
reopen), and the operation that observed the crash gets an ``error``
response telling the client to reopen.

Graceful shutdown (``stop``): stop accepting connections, drain every
worker's queue, stop each worker (which flushes and closes its
sessions and hands back its metrics for an exact merge), journal the
final metrics snapshot. Because every ingest appends its chunk to the
session archive and publishes it atomically (temp file + rename), even
a SIGKILL leaves archives that ``memgaze validate-trace`` accepts —
graceful shutdown just guarantees nothing queued is dropped.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path

from repro.obs.handle import Obs
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    RETRY_MS,
    ProtocolError,
    decode_chunk,
    pack_frame,
    read_frame,
)
from repro.serve.session import is_session_name
from repro.serve.shard import ServeOpError, ShardWorker, WorkerCrashed, route_session
from repro.trace.tracefile import TraceMeta

__all__ = ["ServeConfig", "TraceServer"]


@dataclass
class ServeConfig:
    """Daemon knobs; defaults suit tests and single-host use."""

    root: Path | str = "serve-state"
    host: str = "127.0.0.1"
    port: int = 0  # 0: let the OS pick; the bound port is self.port
    queue_size: int = 64
    workers: int = 1
    chunk_size: int | None = None
    #: accept the ``shutdown`` message (tests and local use; a shared
    #: daemon would disable it)
    allow_shutdown: bool = True
    #: session-shard worker processes (``--serve-workers``); each
    #: session is pinned to one by ``crc32(name) % serve_workers``
    serve_workers: int = 1
    #: per-session cap on queued appends, the inner layer of the
    #: backpressure (the global ``queue_size`` is the outer one)
    session_queue_size: int = 16
    #: serve the live HTML dashboard (``--dashboard``); off by default,
    #: and when off the daemon's protocol behavior is exactly unchanged
    dashboard: bool = False
    #: dashboard TCP port (0: let the OS pick; bound port is
    #: ``TraceServer.dashboard_port``)
    dashboard_port: int = 0


class TraceServer:
    """The streaming service: sockets in front, shard workers behind.

    ``ingest_hook`` / ``query_hook`` are test seams: callables invoked
    at the start of every ingest / query, *inside the owning worker
    process* — a test that blocks in one holds exactly that shard,
    fills its bounded queues, and observes deterministic load-shedding
    (or, with the other shards, the absence of head-of-line blocking).

    ``obs`` (a fresh :class:`~repro.obs.Obs` by default) is the daemon's
    journal, registry and ``serve-ingest`` timer; graceful shutdown
    closes it, journaling the final summary.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        obs: Obs | None = None,
        ingest_hook=None,
        query_hook=None,
    ) -> None:
        self.config = config or ServeConfig()
        self.obs = Obs() if obs is None else obs
        self._ingest_hook = ingest_hook
        self._query_hook = query_hook
        self.port: int | None = None
        self.dashboard_port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._dashboard = None
        self.workers: list[ShardWorker] = []
        self._pumps: list[asyncio.Task] = []
        self._queued_total = 0
        self._session_queued: dict[str, int] = {}
        self._stopping = asyncio.Event()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the shard workers, then bind the socket.

        Order matters: workers fork *before* the listening socket
        exists, so no child inherits it and closing the listener at
        shutdown actually releases the port.
        """
        cfg = self.config
        if cfg.serve_workers < 1:
            raise ValueError(f"serve_workers must be >= 1, got {cfg.serve_workers}")
        if cfg.session_queue_size < 1:
            raise ValueError(
                f"session_queue_size must be >= 1, got {cfg.session_queue_size}"
            )
        root = Path(cfg.root)
        engine_kwargs = {"workers": cfg.workers, "chunk_size": cfg.chunk_size}
        self.workers = [
            ShardWorker(
                i,
                root,
                obs=self.obs,
                engine_kwargs=engine_kwargs,
                ingest_hook=self._ingest_hook,
                query_hook=self._query_hook,
            )
            for i in range(cfg.serve_workers)
        ]
        for w in self.workers:
            w.spawn()
            w.queue = asyncio.Queue()
        self._pumps = [asyncio.create_task(self._pump(w)) for w in self.workers]
        self._server = await asyncio.start_server(
            self._handle_client, cfg.host, cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if cfg.dashboard:
            from repro.viz.dashboard import DashboardServer

            self._dashboard = DashboardServer(
                query=self._dashboard_query,
                sessions=self._dashboard_sessions,
                obs=self.obs,
            )
            self.dashboard_port = await self._dashboard.start(
                cfg.host, cfg.dashboard_port
            )
        self.obs.gauge("serve.workers").set(cfg.serve_workers)
        self.obs.emit(
            "serve-start",
            host=cfg.host,
            port=self.port,
            root=str(root),
            queue_size=cfg.queue_size,
            session_queue_size=cfg.session_queue_size,
            serve_workers=cfg.serve_workers,
        )

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`stop` (or a ``shutdown`` frame) fires."""
        await self._stopping.wait()
        await self._shutdown()

    async def stop(self) -> None:
        """Request a graceful shutdown (idempotent)."""
        self._stopping.set()

    async def _shutdown(self) -> None:
        """Close the listener, drain every worker, stop every worker."""
        loop = asyncio.get_running_loop()
        if self._dashboard is not None:
            await self._dashboard.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for w in self.workers:
            if w.queue is not None:
                await w.queue.join()
        for task in self._pumps:
            task.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        flushed = 0
        for w in self.workers:
            try:
                reply = await loop.run_in_executor(w.executor, w.stop)
            except WorkerCrashed:
                self.obs.warning("serve worker died before graceful stop", worker=w.index)
                continue
            finally:
                w.executor.shutdown(wait=True)
            flushed += len(reply.get("closed", []))
            if reply.get("metrics"):
                self.obs.metrics.merge(MetricsRegistry.from_dict(reply["metrics"]))
        self.obs.emit("serve-stop", sessions_flushed=flushed)
        self.obs.close()

    # -- routing and dispatch --------------------------------------------------

    def _worker_for(self, name) -> ShardWorker:
        if not isinstance(name, str) or not name:
            raise ProtocolError("message carries no session name")
        return self.workers[route_session(name, len(self.workers))]

    async def _submit(self, worker: ShardWorker, req: dict) -> dict:
        """Enqueue one op on the worker's FIFO and await its reply."""
        future = asyncio.get_running_loop().create_future()
        worker.queue.put_nowait({"req": req, "future": future})
        self._gauge_depth(worker)
        return await future

    async def _pump(self, worker: ShardWorker) -> None:
        """One dispatcher per worker: FIFO queue → pipe round trip."""
        loop = asyncio.get_running_loop()
        while True:
            item = await worker.queue.get()
            req, future = item["req"], item["future"]
            name = req.get("name")
            if req["op"] == "ingest":
                # only buffered event chunks count against the bounds —
                # queue_size is the daemon's memory bound, not an op cap
                self._queued_total -= 1
                left = self._session_queued.get(name, 1) - 1
                if left > 0:
                    self._session_queued[name] = left
                else:
                    self._session_queued.pop(name, None)
            try:
                try:
                    reply = await loop.run_in_executor(
                        worker.executor, worker.request, req
                    )
                except WorkerCrashed as crash:
                    self._on_worker_crash(worker, req, future, crash)
                    continue
                self._settle(worker, req, future, reply)
            finally:
                worker.queue.task_done()
                self._gauge_depth(worker)

    def _settle(self, worker: ShardWorker, req: dict, future, reply: dict) -> None:
        """Turn one worker reply into metrics, timers, and a result."""
        op, name = req["op"], req.get("name")
        if not reply.get("ok"):
            error = ServeOpError(reply.get("error", "worker error"))
            if future is not None and not future.cancelled():
                future.set_exception(error)
            elif op == "ingest":
                self.obs.warning(
                    f"ingest failed: {reply.get('etype')}: {reply.get('error')}",
                    session=name,
                )
                self.obs.counter("serve.ingest_errors").inc()
            return
        if op == "ingest":
            self.obs.add("serve-ingest", reply["seconds"], items=reply["n_chunk_events"])
            self.obs.counter("serve.accepted").inc()
            self.obs.counter("serve.events_ingested").inc(reply["n_chunk_events"])
            self.obs.counter(f"serve.worker.{worker.index}.ingests").inc()
        elif op == "query":
            self.obs.counter("serve.queries").inc()
            self.obs.counter(f"serve.worker.{worker.index}.queries").inc()
        if future is not None and not future.cancelled():
            future.set_result(reply)

    def _on_worker_crash(
        self, worker: ShardWorker, req: dict, future, crash: WorkerCrashed
    ) -> None:
        """A shard died mid-op: fail the op, respawn, keep serving."""
        op, name = req["op"], req.get("name")
        lost = sorted(worker.sessions)
        self.obs.warning(
            "serve worker crashed; respawning (its open sessions need "
            "reopening — archives on disk are preserved)",
            worker=worker.index,
            op=op,
            session=name,
            sessions_lost=lost,
        )
        self.obs.counter("serve.worker.restarts").inc()
        self.obs.counter(f"serve.worker.{worker.index}.crashes").inc()
        worker.respawn()
        self._gauge_sessions()
        if future is not None and not future.cancelled():
            future.set_exception(
                ServeOpError(
                    f"serve worker {worker.index} crashed during {op} for "
                    f"session {name!r}; reopen the session and retry"
                )
            )
        elif op == "ingest":
            self.obs.warning("queued append lost to a worker crash", session=name)
            self.obs.counter("serve.ingest_errors").inc()

    # -- dashboard callbacks (see repro.viz.dashboard) -------------------------

    def _dashboard_sessions(self) -> tuple[list[str], set[str]]:
        """(all session names, currently-open names) for the index page.

        Names come from the shared ``sessions/`` directory plus every
        worker's open set, so sessions closed in an earlier daemon run
        are still browsable (a query re-opens them by rehydration).
        Only valid session names count: a writer's ``.<name>.tmp.npz``
        left by a worker killed mid-publish is not a session.
        """
        root = Path(self.config.root) / "sessions"
        on_disk = (
            {p.stem for p in root.glob("*.npz") if is_session_name(p.stem)}
            if root.exists()
            else set()
        )
        open_names: set[str] = set()
        for w in self.workers:
            open_names |= w.sessions
        return sorted(on_disk | open_names), open_names

    async def _dashboard_query(self, name: str) -> str:
        """One live viz query for the dashboard; returns canonical JSON.

        Rides the owning worker's FIFO exactly like a protocol query, so
        it never observes a mid-ingest archive. A session that is not
        open but has an archive on disk is opened first (rehydration
        adopts the archive's own metadata). One retry absorbs a worker
        crash: the respawned worker re-opens from the surviving archive.
        """
        worker = self._worker_for(name)
        for attempt in (0, 1):
            try:
                if name not in worker.sessions:
                    archive = Path(self.config.root) / "sessions" / f"{name}.npz"
                    if not archive.exists():
                        raise KeyError(f"no session named {name!r}")
                    await self._submit(
                        worker,
                        {"op": "open", "name": name, "meta": TraceMeta(module=name)},
                    )
                    worker.sessions.add(name)
                    self._gauge_sessions()
                reply = await self._submit(
                    worker,
                    {"op": "query", "name": name, "passes": None, "viz": True},
                )
                return reply["text"]
            except ServeOpError:
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    # -- gauges ----------------------------------------------------------------

    def _gauge_depth(self, worker: ShardWorker | None = None) -> None:
        self.obs.gauge("serve.queue_depth").set(self._queued_total)
        if worker is not None and worker.queue is not None:
            self.obs.gauge(f"serve.worker.{worker.index}.queue_depth").set(
                worker.queue.qsize()
            )

    def _gauge_sessions(self) -> None:
        self.obs.gauge("serve.sessions_active").set(
            sum(len(w.sessions) for w in self.workers)
        )

    # -- backpressure ----------------------------------------------------------

    def _shed(self, name: str, n_events: int, scope: str) -> tuple[dict, bytes]:
        """Reject one append with an explicit, observable ``busy``."""
        cfg = self.config
        depth = self._session_queued.get(name, 0)
        self.obs.counter("serve.shed").inc()
        self.obs.counter(f"serve.shed.session.{name}").inc()
        self.obs.warning(
            "ingest queue full — append load-shed",
            session=name,
            n_events=int(n_events),
            queue_size=cfg.queue_size,
            queue_depth=depth,
            reason="queue-full" if scope == "global" else "session-queue-full",
        )
        return {
            "type": "busy",
            "retry_ms": RETRY_MS,
            "scope": scope,
            "queue_size": cfg.queue_size,
            "session_queue_size": cfg.session_queue_size,
            "queue_depth": depth,
        }, b""

    # -- per-connection protocol loop ------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        opened: set[str] = set()
        try:
            while True:
                try:
                    header, payload = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                try:
                    response = await self._dispatch(header, payload, opened)
                except (ProtocolError, ServeOpError) as exc:
                    response = ({"type": "error", "error": str(exc)}, b"")
                except (KeyError, ValueError) as exc:
                    response = ({"type": "error", "error": str(exc)}, b"")
                writer.write(pack_frame(*response))
                await writer.drain()
                if header.get("type") == "shutdown" and self._stopping.is_set():
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, header: dict, payload: bytes, opened: set[str]
    ) -> tuple[dict, bytes]:
        kind = header.get("type")
        if kind == "ping":
            return {"type": "ok", "port": self.port}, b""

        if kind == "open":
            if header.get("protocol") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: client "
                    f"{header.get('protocol')!r}, server {PROTOCOL_VERSION}"
                )
            name = header.get("session")
            meta = TraceMeta.from_json(
                payload.decode("utf-8")
            ) if payload else TraceMeta(module=str(name))
            worker = self._worker_for(name)
            await self._submit(worker, {"op": "open", "name": name, "meta": meta})
            opened.add(name)
            worker.sessions.add(name)
            self._gauge_sessions()
            return {"type": "ok", "session": name}, b""

        if kind == "append":
            name = header.get("session")
            if name not in opened:
                raise ProtocolError(f"append before open for session {name!r}")
            events, sample_id = decode_chunk(header, payload)
            cfg = self.config
            if self._session_queued.get(name, 0) >= cfg.session_queue_size:
                return self._shed(name, len(events), "session")
            if self._queued_total >= cfg.queue_size:
                return self._shed(name, len(events), "global")
            worker = self._worker_for(name)
            self._queued_total += 1
            self._session_queued[name] = self._session_queued.get(name, 0) + 1
            worker.queue.put_nowait(
                {
                    "req": {
                        "op": "ingest",
                        "name": name,
                        "events": events,
                        "sample_id": sample_id,
                    },
                    "future": None,
                }
            )
            self._gauge_depth(worker)
            return {"type": "ok", "queued": True}, b""

        if kind == "query":
            name = header.get("session")
            worker = self._worker_for(name)
            reply = await self._submit(
                worker,
                {
                    "op": "query",
                    "name": name,
                    "passes": header.get("passes"),
                    "viz": bool(header.get("viz")),
                },
            )
            return {"type": "result", **reply["info"]}, reply["text"].encode("utf-8")

        if kind == "close":
            name = header.get("session")
            worker = self._worker_for(name)
            # the close rides the same FIFO as the session's appends, so
            # everything acked-as-queued lands before the detach
            reply = await self._submit(worker, {"op": "close", "name": name})
            opened.discard(name)
            worker.sessions.discard(name)
            self._gauge_sessions()
            return {"type": "ok", **reply["info"]}, b""

        if kind == "shutdown":
            if not self.config.allow_shutdown:
                raise ProtocolError("shutdown is disabled on this server")
            await self.stop()
            return {"type": "ok", "stopping": True}, b""

        raise ProtocolError(f"unknown message type {kind!r}")
