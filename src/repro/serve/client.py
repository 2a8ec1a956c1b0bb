"""Blocking client for the streaming analysis service.

:class:`ServeClient` speaks the framed protocol over one TCP connection;
``memgaze submit`` and ``memgaze query`` are thin wrappers around it.
The client surfaces the daemon's backpressure honestly: a load-shed
``busy`` response raises :class:`ServeBusy` carrying the server's
suggested retry delay, and :func:`submit_archive` implements the
retry-with-backoff loop so callers that just want a whole archive
streamed never see the shedding.
"""

from __future__ import annotations

import socket
import time

import numpy as np

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    RETRY_MS,
    encode_chunk,
    pack_frame,
    read_frame_sync,
)
from repro.trace.tracefile import TraceMeta, TraceReader

__all__ = ["ServeError", "ServeBusy", "ServeClient", "submit_archive"]


class ServeError(Exception):
    """The server answered with an ``error`` frame (or broke protocol)."""


class ServeBusy(ServeError):
    """An append was load-shed; retry after :attr:`retry_ms`.

    The daemon's backpressure is layered (see ``docs/serving.md``):
    :attr:`scope` is ``"session"`` when this session's own queue cap
    was hit and ``"global"`` when the daemon-wide bound was, and
    :attr:`queue_depth` is the number of this session's appends still
    queued at the rejection — a client streaming several sessions can
    tell *which* of them is backed up and throttle just that one.
    """

    def __init__(
        self,
        retry_ms: int,
        *,
        scope: str = "global",
        queue_depth: int | None = None,
    ) -> None:
        super().__init__(
            f"server busy ({scope} queue full; retry in {retry_ms} ms)"
        )
        self.retry_ms = int(retry_ms)
        self.scope = scope
        self.queue_depth = queue_depth


class ServeClient:
    """One connection to a :class:`~repro.serve.daemon.TraceServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._fp = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._fp.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- request/response ------------------------------------------------------

    def _round_trip(self, header: dict, payload: bytes = b"") -> tuple[dict, bytes]:
        self._fp.write(pack_frame(header, payload))
        self._fp.flush()
        resp, resp_payload = read_frame_sync(self._fp)
        kind = resp.get("type")
        if kind == "busy":
            raise ServeBusy(
                resp.get("retry_ms", RETRY_MS),
                scope=resp.get("scope", "global"),
                queue_depth=resp.get("queue_depth"),
            )
        if kind == "error":
            raise ServeError(resp.get("error", "unknown server error"))
        return resp, resp_payload

    def ping(self) -> dict:
        resp, _ = self._round_trip({"type": "ping"})
        return resp

    def open(self, session: str, meta: TraceMeta | None = None) -> dict:
        """Open (or re-attach to) a named session stream."""
        payload = b"" if meta is None else meta.to_json().encode("utf-8")
        resp, _ = self._round_trip(
            {"type": "open", "session": session, "protocol": PROTOCOL_VERSION},
            payload,
        )
        return resp

    def append(
        self,
        session: str,
        events: np.ndarray,
        sample_id: np.ndarray | None = None,
    ) -> dict:
        """Send one event chunk; raises :class:`ServeBusy` when shed."""
        fields, payload = encode_chunk(events, sample_id)
        header = {"type": "append", "session": session, **fields}
        resp, _ = self._round_trip(header, payload)
        return resp

    def query(
        self,
        session: str,
        passes: list[str] | None = None,
        *,
        viz: bool = False,
    ) -> tuple[dict, str]:
        """Live analysis of the session's archive as ingested so far.

        Returns ``(info, payload_text)``: ``info`` carries serve-side
        state (``n_chunks``, ``n_events``, ``mode``, ``skipped_events``)
        and ``payload_text`` is the canonical JSON — byte-identical to
        ``memgaze report --json`` offline on the same archive.
        ``viz=True`` asks for the visual-report payload instead (the
        dashboard's input, byte-identical to the payload behind an
        offline ``memgaze report --html``).
        """
        header: dict = {"type": "query", "session": session}
        if passes is not None:
            header["passes"] = list(passes)
        if viz:
            header["viz"] = True
        resp, payload = self._round_trip(header)
        return resp, payload.decode("utf-8")

    def close_session(self, session: str) -> dict:
        """Flush and detach the session (its archive stays on disk)."""
        resp, _ = self._round_trip({"type": "close", "session": session})
        return resp

    def shutdown(self) -> dict:
        """Ask the daemon to drain and exit (when it allows shutdown)."""
        resp, _ = self._round_trip({"type": "shutdown"})
        return resp


def submit_archive(
    path,
    *,
    host: str = "127.0.0.1",
    port: int,
    session: str,
    chunk_size: int = 1 << 16,
    max_retries: int = 100,
    sleep=time.sleep,
) -> dict:
    """Stream an existing archive into a session, chunk by chunk.

    The meta and the chunks come from one open of the archive
    (:class:`repro.trace.tracefile.TraceReader`); chunks are
    sample-aligned — exactly the boundaries the incremental re-analysis
    path can extend. ``busy`` responses back off for the
    server-suggested delay and retry (up to ``max_retries`` per chunk);
    the return dict reports chunks sent and sheds absorbed.
    """
    n_chunks = 0
    n_events = 0
    n_shed = 0
    with TraceReader(path) as reader:
        meta = reader.meta()  # a damaged archive fails before connecting
        with ServeClient(host, port) as client:
            client.open(session, meta)
            for events, sample_id in reader.chunks(chunk_size):
                attempts = 0
                while True:
                    try:
                        client.append(session, events, sample_id)
                        break
                    except ServeBusy as busy:
                        attempts += 1
                        n_shed += 1
                        if attempts > max_retries:
                            raise ServeError(
                                f"chunk {n_chunks} shed {attempts} times; giving up"
                            ) from busy
                        sleep(busy.retry_ms / 1000.0)
                n_chunks += 1
                n_events += int(len(events))
            info = client.close_session(session)
    return {
        "session": session,
        "archive": info.get("archive"),
        "n_chunks": n_chunks,
        "n_events": n_events,
        "n_shed": n_shed,
    }
