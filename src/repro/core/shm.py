"""Zero-copy shard handoff over POSIX shared memory.

The parallel engine's original fan-out pickled every shard's event
array into each pool worker — three copies (pickle, pipe, unpickle)
per shard of data that is never mutated. This module replaces that
with named ``multiprocessing.shared_memory`` segments: the parent
publishes a chunk's arrays once (:func:`publish_shard`, one memcpy
into ``/dev/shm``), and workers attach by name
(:func:`attach_shard`, an ``shm_open`` + ``mmap`` — no copy at all).
Only a tiny :class:`ShardRef` descriptor crosses the pipe.

Ownership and cleanup
---------------------

Segments are owned by the publishing (parent) process; workers only
ever map them. The guarantees, in layers:

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
import threading
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
    "attach_shard",
    "active_segments",
]

#: alignment of the sample_id block inside a segment
_ALIGN = 64


@dataclass(frozen=True)
class ShardRef:
    """Picklable handle to an event range of a published slab.

    This is all that crosses the process boundary: a segment name, the
    layout needed to rebuild the array views, and the ``[lo, hi)`` row
    range this shard covers.
    """

    name: str
    n_events: int
    sid_dtype: str | None
    sid_offset: int
    lo: int
    hi: int


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

    Created by :func:`publish_shard` (parent side only). :meth:`ref`
    mints picklable worker handles; :meth:`release` closes *and
    unlinks* the segment (idempotent — the registry, ``finally``
    blocks, and signal hooks may race to it).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        n_events: int,
        sid_dtype: str | None,
        sid_offset: int,
        obs: Obs = NULL_OBS,
    ) -> None:
        self._shm = shm
        self.name = shm.name
        self.n_events = n_events
        self.nbytes = shm.size
        self._sid_dtype = sid_dtype
        self._sid_offset = sid_offset
        self._obs = obs
        self._released = False

    def ref(self, lo: int, hi: int) -> ShardRef:
        """A picklable handle to rows ``[lo, hi)`` of this slab."""
        if not 0 <= lo <= hi <= self.n_events:
            raise ValueError(f"bad shard range [{lo}, {hi}) of {self.n_events}")
        return ShardRef(
            name=self.name,
            n_events=self.n_events,
            sid_dtype=self._sid_dtype,
            sid_offset=self._sid_offset,
            lo=lo,
            hi=hi,
        )

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
    slab = SharedSlab(shm, n, None if sid is None else sid.dtype.str, sid_offset, obs)
    _REGISTRY.track(slab)
    obs.counter("shm.segments_created").inc()
    obs.counter("shm.bytes_published").inc(total)
    obs.gauge("shm.active_segments").set(len(active_segments()))
    obs.emit("shm", action="publish", name=slab.name, n_events=n, nbytes=total)
    return slab


# -- worker side --------------------------------------------------------------

#: per-process cache of open attachments. Keeping the most recent
#: mappings open costs a few pages of address space and guarantees any
#: arrays still referencing a mapping (e.g. a result the executor is
#: pickling) stay valid; old mappings are closed as new segments rotate
#: through (streaming publishes many short-lived slabs).
_ATTACH_CACHE: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
_ATTACH_CACHE_SIZE = 8


def _attach(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACH_CACHE.get(name)
    if shm is not None:
        _ATTACH_CACHE.move_to_end(name)
        return shm
    # the parent owns the segment: suppress this process's
    # resource_tracker registration during attach, so a worker exiting
    # cannot unlink a segment other workers still read and concurrent
    # workers cannot race the tracker's register/unregister bookkeeping
    # (bpo-39959; SharedMemory(track=False) only exists from 3.13)
    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register
    _ATTACH_CACHE[name] = shm
    while len(_ATTACH_CACHE) > _ATTACH_CACHE_SIZE:
        _ATTACH_CACHE.popitem(last=False)[1].close()
    return shm


def attach_shard(ref: ShardRef) -> tuple[np.ndarray, np.ndarray | None]:
    """Map a published shard and return ``(events, sample_id)`` views.

    Zero-copy: the views alias the parent's pages. The mapping is held
    in a small per-process cache (see ``_ATTACH_CACHE``), so it stays
    open while the scan's results are pickled back; callers must treat
    the arrays as read-only scratch whose lifetime ends with the call —
    analysis partials already own their data (a requirement the pickle
    handoff imposed long before this module).
    """
    shm = _attach(ref.name)
    events = np.ndarray(ref.n_events, dtype=EVENT_DTYPE, buffer=shm.buf)[
        ref.lo : ref.hi
    ]
    sid = None
    if ref.sid_dtype is not None:
        sid = np.ndarray(
            ref.n_events,
            dtype=np.dtype(ref.sid_dtype),
            buffer=shm.buf,
            offset=ref.sid_offset,
        )[ref.lo : ref.hi]
    return events, sid
