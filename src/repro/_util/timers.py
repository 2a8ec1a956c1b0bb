"""Wall-clock timing helpers: one-shot timers and per-stage counters.

:class:`Timer` measures a single region (used by the toolchain-time
benchmarks). :class:`StageTimers` is an accumulating registry for
pipeline instrumentation: each named stage collects total elapsed time,
call count, and an optional item count, from which it reports
throughput (items/s). The parallel analysis engine records its
plan/scatter/compute/merge stages here, and ``memgaze report --stats``
prints the rendered table. :meth:`StageTimers.as_records` is the bridge
into the observability layer: the run journal's ``stage-summary``
lines (:meth:`repro.obs.Obs.close`) and the ``--metrics`` JSON export
both consume it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import TracebackType

__all__ = ["Timer", "StageStats", "StageTimers"]


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start

    def restart(self) -> None:
        """Reset the start point for reuse of the same object."""
        self._start = time.perf_counter()
        self.elapsed = 0.0


@dataclass
class StageStats:
    """Accumulated statistics for one named stage."""

    seconds: float = 0.0
    calls: int = 0
    items: int = 0

    @property
    def throughput(self) -> float:
        """Items per second (0.0 when no time has accumulated)."""
        return self.items / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        """Plain-JSON snapshot (what the run journal and metrics export)."""
        return {
            "seconds": self.seconds,
            "calls": self.calls,
            "items": self.items,
            "throughput": self.throughput,
        }


class _StageRegion:
    """Context manager that adds its elapsed time to a stage on exit."""

    def __init__(self, timers: "StageTimers", name: str, items: int) -> None:
        self._timers = timers
        self._name = name
        self._items = items
        self._start = 0.0

    def __enter__(self) -> "_StageRegion":
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._timers.add(
            self._name, time.perf_counter() - self._start, items=self._items
        )


@dataclass
class StageTimers:
    """Accumulating per-stage timing registry.

    >>> timers = StageTimers()
    >>> with timers.stage("merge", items=100):
    ...     pass
    >>> timers.stats["merge"].calls
    1
    """

    stats: dict[str, StageStats] = field(default_factory=dict)

    def stage(self, name: str, items: int = 0) -> _StageRegion:
        """Time a region; elapsed seconds accumulate under ``name``."""
        return _StageRegion(self, name, items)

    def add(self, name: str, seconds: float, items: int = 0) -> None:
        """Record ``seconds`` (and ``items`` processed) against ``name``."""
        s = self.stats.setdefault(name, StageStats())
        s.seconds += seconds
        s.calls += 1
        s.items += items

    def merge(self, other: "StageTimers") -> None:
        """Fold another registry's accumulated stats into this one."""
        for name, s in other.stats.items():
            mine = self.stats.setdefault(name, StageStats())
            mine.seconds += s.seconds
            mine.calls += s.calls
            mine.items += s.items

    def reset(self) -> None:
        """Drop all accumulated statistics."""
        self.stats.clear()

    def as_records(self) -> list[dict]:
        """One plain-JSON record per stage — the journal/metrics bridge.

        :meth:`repro.obs.Obs.close` emits each record as a
        ``stage-summary`` journal line, and the CLI's ``--metrics``
        export embeds them under ``"stages"``.
        """
        return [{"stage": name, **s.as_dict()} for name, s in self.stats.items()]

    def report(self, title: str = "stage timings") -> str:
        """Render the accumulated stages as an aligned text table."""
        lines = [f"== {title} =="]
        if not self.stats:
            lines.append("  (no stages recorded)")
            return "\n".join(lines)
        width = max(len(n) for n in self.stats)
        for name, s in self.stats.items():
            row = f"  {name:<{width}}  {s.seconds * 1e3:10.2f} ms  x{s.calls}"
            if s.items:
                row += f"  {s.items:>12,} items  {s.throughput:14,.0f} items/s"
            lines.append(row)
        return "\n".join(lines)
