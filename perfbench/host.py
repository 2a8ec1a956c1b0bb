"""Host facts: drift reference kernels, peak RSS, platform details.

The reference kernels are fixed work interleaved with the ops so each
run records how fast the host was while it ran. They are reported only;
nothing rescales a metric by them or drops a run because of them.
"""

from __future__ import annotations

import os
import platform
import threading
import time
from pathlib import Path

import numpy as np

__all__ = ["RefKernels", "RssMonitor", "reset_peak_rss", "host_facts"]


class RefKernels:
    """A pure-Python dict loop and a numpy sort+unique over a fixed array."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._arr = rng.integers(0, 1 << 20, size=50_000)
        self.py_ms: list[float] = []
        self.np_ms: list[float] = []

    @staticmethod
    def _py() -> int:
        d: dict[int, int] = {}
        for i in range(60_000):
            k = i & 4095
            d[k] = d.get(k, 0) + i
        return len(d)

    def run(self) -> None:
        t0 = time.perf_counter()
        self._py()
        t1 = time.perf_counter()
        np.unique(np.sort(self._arr))
        t2 = time.perf_counter()
        self.py_ms.append((t1 - t0) * 1000.0)
        self.np_ms.append((t2 - t1) * 1000.0)


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
            return [int(x) for x in fh.read().split()]
    except (OSError, ValueError):
        return []


def _tree(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(_children(p))
    return out


def reset_peak_rss() -> bool:
    """Reset this process's VmHWM to its current RSS (Linux clear_refs 5)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


class RssMonitor:
    """Peak over time of the summed VmHWM of this process and descendants.

    A background thread samples every ``interval`` seconds; each sample
    sums the peak RSS of every live process in the tree (client, pool
    workers, daemon and its shard worker), and the monitor keeps the
    largest sum.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        total = sum(_vm_hwm_kib(p) for p in _tree(os.getpid()))
        self.peak_kib = max(self.peak_kib, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = path.resolve()
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                inside = str(path) == mnt or str(path).startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def host_facts(scratch: Path) -> dict:
    """CPU count, Python and numpy versions, the scratch filesystem."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "scratch_fs": _filesystem(scratch),
    }
