"""Latency percentiles with a support rule, and op failure accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["percentile", "supported_percentile", "OpLog"]

#: a percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_percentile(values, q: float, min_beyond: int = MIN_BEYOND):
    """``(value, n_beyond)``; value is None when fewer than
    ``min_beyond`` samples lie strictly above it."""
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return (value if beyond >= min_beyond else None), beyond


@dataclass
class OpLog:
    """Timed ops of one run: latencies, events processed, failures by kind.

    A failure is an exception, a ``busy`` reply, or an output that does
    not match its reference. An op that completed with a wrong output
    keeps its latency sample (it did the work); the others have none.
    """

    latencies: list[float] = field(default_factory=list)
    events: int = 0
    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    first_failure: str | None = None

    def ok(self, seconds: float, events: int) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.events += events

    def fail(self, kind: str, detail: str = "", seconds: float | None = None) -> None:
        self.attempted += 1
        if seconds is not None:
            self.latencies.append(seconds)
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if self.first_failure is None:
            self.first_failure = f"{kind}: {detail}"[:300]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
