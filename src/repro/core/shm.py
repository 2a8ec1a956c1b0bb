"""Zero-copy shard handoff over POSIX shared memory.

The parallel engine's original fan-out pickled every shard's event
array into each pool worker — three copies (pickle, pipe, unpickle)
per shard of data that is never mutated. This module replaces that
with named ``multiprocessing.shared_memory`` segments: the parent
publishes a chunk's arrays once (:func:`publish_shard`, one memcpy
into ``/dev/shm``), and a worker maps them by name for one scan
(:class:`AttachedShard`, an ``shm_open`` + ``mmap`` — no copy at all).
Only a tiny :class:`ShardRef` descriptor crosses the pipe.

Ownership and cleanup
---------------------

Segments are owned by the publishing (parent) process; workers only
map them, one scan per mapping. The guarantees, in layers:

* **normal exit** — the engine releases each slab in a ``finally``
  as soon as its futures are folded;
* **worker crash** — the parent's ``finally`` still runs when a
  future raises ``BrokenProcessPool``, so a killed worker cannot leak
  the segment it was reading;
* **parent SIGTERM / interpreter exit** — every published slab is
  tracked in the process-wide :class:`SegmentRegistry`, which unlinks
  all live segments from an ``atexit`` hook and from a chained
  ``SIGTERM`` handler installed on first publish;
* **parent SIGKILL** — nothing in-process can run, but Python's
  ``resource_tracker`` (a separate watchdog process) notices the
  leaked segments and unlinks them.

Worker-side attachments are deliberately *unregistered* from the
``resource_tracker``: on Python < 3.13 every attach registers the
segment as if the worker owned it, and the tracker would unlink the
parent's segment when the first worker exits (bpo-39959). The parent
owns the lifecycle; workers must not.

Observability: every publish/release emits a ``shm`` journal line and
moves the ``shm.segments_created`` / ``shm.segments_released`` /
``shm.bytes_published`` counters and the ``shm.active_segments``
gauge, so a leak is visible as a counter imbalance (see
``docs/performance.md``).
"""

from __future__ import annotations

import atexit
import os
import secrets
import signal
import sys
import threading
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.obs.handle import NULL_OBS, Obs
from repro.trace.event import EVENT_DTYPE

__all__ = [
    "ShardRef",
    "SharedSlab",
    "SegmentRegistry",
    "publish_shard",
    "AttachedShard",
    "active_segments",
]

#: alignment of the sample_id block inside a segment
_ALIGN = 64


@dataclass(frozen=True)
class ShardRef:
    """Picklable handle to a published slab.

    This is all that crosses the process boundary: a segment name and
    the layout needed to rebuild the array views.
    """

    name: str
    n_events: int
    sid_dtype: str | None
    sid_offset: int


class SegmentRegistry:
    """Process-wide ledger of shared-memory segments this process owns.

    Every published slab registers here and unregisters on release; the
    registry's :meth:`release_all` unlinks whatever is still live and
    is wired to ``atexit`` plus a chained ``SIGTERM`` handler the first
    time a segment is tracked, so segments cannot outlive the parent on
    any orderly shutdown path.
    """

    def __init__(self) -> None:
        self._slabs: OrderedDict[str, "SharedSlab"] = OrderedDict()
        self._lock = threading.Lock()
        self._hooked = False

    def track(self, slab: "SharedSlab") -> None:
        with self._lock:
            self._slabs[slab.name] = slab
            self._install_hooks()

    def untrack(self, name: str) -> None:
        with self._lock:
            self._slabs.pop(name, None)

    def names(self) -> list[str]:
        """Names of currently live (unreleased) segments."""
        with self._lock:
            return list(self._slabs)

    def release_all(self) -> int:
        """Unlink every live segment; returns how many were reclaimed."""
        with self._lock:
            slabs = list(self._slabs.values())
            self._slabs.clear()
        for slab in slabs:
            slab._destroy()
        return len(slabs)

    def _install_hooks(self) -> None:
        # caller holds the lock
        if self._hooked:
            return
        self._hooked = True
        atexit.register(self.release_all)
        try:
            prev = signal.getsignal(signal.SIGTERM)

            def _on_term(signum, frame):
                self.release_all()
                if callable(prev):
                    prev(signum, frame)
                else:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    os.kill(os.getpid(), signal.SIGTERM)

            signal.signal(signal.SIGTERM, _on_term)
        except (ValueError, OSError):
            # not the main thread (e.g. the serve daemon's executor):
            # atexit + the engine's finally blocks still cover us
            pass


#: the process-wide registry every publish goes through
_REGISTRY = SegmentRegistry()


def active_segments() -> list[str]:
    """Names of segments this process has published and not yet released."""
    return _REGISTRY.names()


class SharedSlab:
    """One published ``(events, sample_id)`` pair in a shm segment.

    Created by :func:`publish_shard` (parent side only). ``ref`` is the
    picklable worker handle; :meth:`release` closes *and unlinks* the
    segment (idempotent — the registry, ``finally`` blocks, and signal
    hooks may race to it).
    """

    def __init__(self, shm: shared_memory.SharedMemory, ref: ShardRef, obs: Obs = NULL_OBS) -> None:
        self._shm = shm
        self.name = shm.name
        self.ref = ref
        self._obs = obs
        self._released = False

    def release(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._released:
            return
        _REGISTRY.untrack(self.name)
        self._destroy()
        self._obs.counter("shm.segments_released").inc()
        self._obs.gauge("shm.active_segments").set(len(active_segments()))
        self._obs.emit("shm", action="release", name=self.name)

    def _destroy(self) -> None:
        if self._released:
            return
        self._released = True
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:
            pass


def publish_shard(
    events: np.ndarray,
    sample_id: np.ndarray | None = None,
    *,
    obs: Obs = NULL_OBS,
) -> SharedSlab:
    """Copy ``(events, sample_id)`` into a fresh named segment.

    One memcpy here replaces the pickle → pipe → unpickle triple per
    worker; every worker then maps the same physical pages. The
    returned slab is registered for crash/exit cleanup and must be
    :meth:`~SharedSlab.release`\\ d by the caller once its shards are
    folded. Raises ``OSError`` when shared memory is unavailable (the
    engine falls back to the pickle path).
    """
    n = len(events)
    if sample_id is not None and len(sample_id) != n:
        raise ValueError("sample_id length must match events")
    ev_bytes = events.nbytes
    sid_offset = -(-ev_bytes // _ALIGN) * _ALIGN
    sid = None if sample_id is None else np.ascontiguousarray(sample_id)
    total = sid_offset + (sid.nbytes if sid is not None else 0)
    name = f"mg-{os.getpid():x}-{secrets.token_hex(4)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(total, 1))
    if n:
        view = np.ndarray(n, dtype=events.dtype, buffer=shm.buf)
        view[:] = events
    if sid is not None and len(sid):
        sview = np.ndarray(len(sid), dtype=sid.dtype, buffer=shm.buf, offset=sid_offset)
        sview[:] = sid
    ref = ShardRef(name, n, None if sid is None else sid.dtype.str, sid_offset)
    slab = SharedSlab(shm, ref, obs)
    _REGISTRY.track(slab)
    obs.counter("shm.segments_created").inc()
    obs.counter("shm.bytes_published").inc(total)
    obs.gauge("shm.active_segments").set(len(active_segments()))
    obs.emit("shm", action="publish", name=slab.name, n_events=n, nbytes=total)
    return slab


# -- worker side --------------------------------------------------------------


class AttachedShard:
    """A worker's mapping of one published shard, unmapped on exit.

    ``events`` and ``sample_id`` are zero-copy views of the parent's
    pages. Leaving the ``with`` block drops them and closes the
    mapping, so a worker holds no segment between scans. A view still
    alive at that point (a result that kept one instead of owning its
    buffers) would point into unmapped pages: the exit raises
    ``BufferError`` instead and leaves the mapping to the view.
    """

    def __init__(self, ref: ShardRef) -> None:
        # the parent owns the segment: suppress this process's
        # resource_tracker registration during attach, so a worker exiting
        # cannot unlink a segment other workers still read and concurrent
        # workers cannot race the tracker's register/unregister bookkeeping
        # (bpo-39959; SharedMemory(track=False) only exists from 3.13)
        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            self._shm = shared_memory.SharedMemory(name=ref.name)
        finally:
            resource_tracker.register = orig_register
        # numpy views hold the mapping itself (their base), not a buffer
        # export that would make ``close`` refuse: count its references
        self._refs = sys.getrefcount(self._shm._mmap)
        buf = self._shm.buf
        self.events = np.ndarray(ref.n_events, dtype=EVENT_DTYPE, buffer=buf)
        self.sample_id = None
        if ref.sid_dtype is not None:
            self.sample_id = np.ndarray(
                ref.n_events, dtype=np.dtype(ref.sid_dtype), buffer=buf, offset=ref.sid_offset
            )

    def __enter__(self) -> "AttachedShard":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.events = self.sample_id = None
        if tb is not None:
            # the failed call's frames still hold views of the mapping
            traceback.clear_frames(tb)
        if sys.getrefcount(self._shm._mmap) > self._refs:
            raise BufferError(f"a view of shared-memory shard {self._shm.name} outlived its scan")
        self._shm.close()
