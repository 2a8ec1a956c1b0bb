"""Stop and reap every process a run started, on every path out of it.

A run starts processes it does not hold handles to: the multiprocessing
resource tracker (started by the first shared-memory segment), pool
workers, the serve daemon's shard worker and the daemon's own tracker.
Some of these outlive their parent, and an orphan is reparented to init,
which need not reap it. :func:`become_subreaper` makes the benchmark a
Linux child subreaper, so orphans of its descendants are reparented to
it instead; :func:`reap_all` then stops the resource tracker, waits for
every child to exit (signalling those that do not) and reaps each one.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

__all__ = ["become_subreaper", "children", "reap_all"]

#: prctl option from <linux/prctl.h>
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Make orphaned descendants reparent to this process; False if unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> list[int]:
    """Pids of this process's children (of every thread), zombies included."""
    pids: set[int] = set()
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return []
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
                pids.update(int(x) for x in fh.read().split())
        except (OSError, ValueError):
            pass
    return sorted(pids)


def _release_segments() -> None:
    """Unlink the program's live shared-memory segments before the tracker stops.

    Unlinking later (from the program's ``atexit`` hook) would start a
    fresh resource tracker that nothing reaps.
    """
    try:
        from repro.core import shm
    except ImportError:
        return
    registry = getattr(shm, "_REGISTRY", None)
    if registry is not None and hasattr(registry, "release_all"):
        registry.release_all()


def _stop_resource_tracker() -> None:
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def _reap_exited() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_all(grace: float = 10.0) -> list[int]:
    """Wait for every child to exit and reap it; returns the pids signalled.

    Children still alive after ``grace`` seconds get SIGTERM, and SIGKILL
    ``grace`` seconds after that. Orphans of the children that reparent
    here meanwhile are waited for the same way. After ``3 * grace``
    seconds it gives up, so the run still ends in bounded time.
    """
    _release_segments()
    _stop_resource_tracker()
    signalled: list[int] = []
    start = time.monotonic()
    while True:
        _reap_exited()
        live = children()
        waited = time.monotonic() - start
        if not live or waited > 3 * grace:
            return signalled
        if waited > grace:
            sig = signal.SIGKILL if waited > 2 * grace else signal.SIGTERM
            for pid in live:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
                if pid not in signalled:
                    signalled.append(pid)
        time.sleep(0.02)
