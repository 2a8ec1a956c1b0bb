"""Shared fixtures for the streaming-service tests.

``ServerHarness`` runs a :class:`TraceServer` on a private asyncio loop
in a daemon thread, so blocking :class:`ServeClient` calls can exercise
it from the test thread exactly the way a real client process would.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serve.daemon import ServeConfig, TraceServer
from repro.trace.event import LoadClass, make_events
from repro.trace.tracefile import TraceMeta, write_trace


def _build_archive(
    path,
    rng: np.random.Generator,
    *,
    n_samples: int = 12,
    per_sample: int = 400,
    module: str = "serve-test",
):
    """Write a deterministic sampled archive mixing all load classes."""
    n = n_samples * per_sample
    kind = np.arange(n) % 3
    addr = np.where(
        kind == 0,
        0x1000_0000 + (np.arange(n) * 8) % 8192,
        np.where(
            kind == 1,
            0x2000_0000 + rng.integers(0, 1024, n) * 8,
            0x3000_0000,
        ),
    )
    cls = np.where(
        kind == 0,
        int(LoadClass.STRIDED),
        np.where(kind == 1, int(LoadClass.IRREGULAR), int(LoadClass.CONSTANT)),
    )
    fn = (np.arange(n) % 2).astype(np.uint32)
    events = make_events(ip=0x40_0000 + kind * 4, addr=addr, cls=cls, fn=fn)
    sample_id = np.repeat(np.arange(n_samples, dtype=np.int32), per_sample)
    meta = TraceMeta(
        module=module,
        kind="sampled",
        period=1000,
        buffer_capacity=per_sample,
        n_loads_total=n * 4,
        n_samples=n_samples,
        extra={"fn_names": {"0": "alpha", "1": "beta"}, "mode": "ldlat"},
    )
    write_trace(path, events, meta, sample_id)
    return events, sample_id, meta


class ServerHarness:
    """A TraceServer on its own event loop, driven from a thread."""

    def __init__(self, config: ServeConfig, **kwargs) -> None:
        self.server = TraceServer(config, **kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            await self.server.start()
            self._started.set()
            await self.server.serve_until_stopped()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._started.set()  # unblock start() even on a boot crash
            self._loop.close()

    def start(self) -> int:
        self._thread.start()
        assert self._started.wait(timeout=30), "server thread never booted"
        assert self.server.port is not None, "server failed to bind"
        return self.server.port

    def join(self, timeout: float = 60) -> None:
        """Wait for the server to exit on its own (client shutdown)."""
        self._thread.join(timeout=timeout)
        self._reap()
        assert not self._thread.is_alive(), "server did not shut down"

    def stop(self, timeout: float = 60) -> None:
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.server._stopping.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
        self._reap()
        assert not self._thread.is_alive(), "server did not shut down"

    def _reap(self) -> None:
        """Best-effort shard-worker cleanup so pytest never leaks them."""
        for w in self.server.workers:
            w.kill()


@pytest.fixture
def build_archive():
    """The archive builder, as a fixture so tests need no conftest import."""
    return _build_archive


@pytest.fixture
def serve_harness(tmp_path):
    """Factory fixture: ``boot(**config_kwargs)`` → (harness, port)."""
    harnesses: list[ServerHarness] = []

    def boot(**kwargs):
        obs = kwargs.pop("obs", None)
        ingest_hook = kwargs.pop("ingest_hook", None)
        query_hook = kwargs.pop("query_hook", None)
        kwargs.setdefault("root", tmp_path / "serve-state")
        config = ServeConfig(**kwargs)
        h = ServerHarness(
            config,
            obs=obs,
            ingest_hook=ingest_hook,
            query_hook=query_hook,
        )
        harnesses.append(h)
        port = h.start()
        return h, port

    yield boot
    for h in harnesses:
        h.stop()
