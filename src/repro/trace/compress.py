"""Decompression math for selectively-instrumented traces (Eqs. 1-2).

With class-based compression, a trace's observed records ``A`` understate
the accesses they imply: every proxy record carries ``n_const`` suppressed
Constant loads. Two ratios recover population quantities:

* the **compression ratio** kappa (Eq. 2)::

      kappa(sigma) = 1 + A_const(sigma) / A(sigma)

  so ``kappa * A`` is the uncompressed access count the records imply;

* the **sample ratio** rho (Eq. 1) — executed accesses per sampled
  (uncompressed-equivalent) access::

      rho = |sigma| * (w + z) / (kappa(sigma) * A(sigma))

  the estimator that scales sample statistics (footprint, accesses) to
  the population (Eq. 3's inter-window case).
"""

from __future__ import annotations

import numpy as np

from repro.trace.collector import CollectionResult
from repro.trace.event import EVENT_DTYPE

__all__ = [
    "suppressed_count",
    "compression_ratio",
    "decompress_counts",
    "sample_ratio",
    "sample_ratio_from",
    "trace_counts",
]


def _check(events: np.ndarray) -> None:
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")


def suppressed_count(events: np.ndarray) -> int:
    """``A_const``: Constant loads implied but not individually recorded."""
    _check(events)
    return int(events["n_const"].sum())


def compression_ratio(events: np.ndarray) -> float:
    """kappa = 1 + A_const / A  (Eq. 2). 1.0 for an empty trace."""
    _check(events)
    n = len(events)
    if n == 0:
        return 1.0
    return 1.0 + suppressed_count(events) / n


def decompress_counts(events: np.ndarray) -> int:
    """Uncompressed access count implied by the records: ``A + A_const``."""
    _check(events)
    return len(events) + suppressed_count(events)


def sample_ratio(n_samples: int, period: int, events: np.ndarray) -> float:
    """rho = |sigma|*(w+z) / (kappa*A)  (Eq. 1).

    ``events`` are the sampled records; returns 1.0 when nothing was
    sampled (no scaling possible).
    """
    implied = decompress_counts(events)
    if implied == 0:
        return 1.0
    return (n_samples * period) / implied


def sample_ratio_from(result: CollectionResult) -> float:
    """rho for a :class:`~repro.trace.collector.CollectionResult`.

    Uses the run's true load total rather than ``|sigma|*(w+z)`` so the
    last partial period does not bias the estimate (:func:`trace_counts`).
    """
    return trace_counts(result, decompress_counts(result.events), lambda: result.sample_id)[2]


def trace_counts(meta, implied: int, sample_ids) -> tuple[int, int, float]:
    """``(n_samples, n_loads_total, rho)`` of a trace: the one rule.

    ``meta`` records the counts (a :class:`~repro.trace.tracefile.TraceMeta`
    or a collection), ``implied`` is ``A + A_const``, and ``sample_ids()``
    gives the sample ids (None without them), read only when needed. A
    recorded 0 falls back: ``n_loads_total`` to ``implied``, ``n_samples``
    to the sample-id count (1 for a non-empty trace without ids). rho =
    ``n_loads_total / implied``, floored at 1 (1 when nothing was sampled).
    """
    n_loads_total = meta.n_loads_total or implied
    n_samples = meta.n_samples
    if not n_samples:
        sid = sample_ids()
        n_samples = int(sid.max()) + 1 if sid is not None and len(sid) else int(implied > 0)
    return n_samples, n_loads_total, max(n_loads_total / implied, 1.0) if implied else 1.0
