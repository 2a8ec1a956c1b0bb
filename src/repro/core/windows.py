"""Trace windows and code windows (paper SS:IV-B, SS:VI-A).

Two aggregation dimensions reduce sampling error:

* **trace windows** — each sample is chopped into consecutive chunks of a
  fixed access count; a metric is evaluated per chunk and its
  distribution over chunks is the histogram point for that window size.
  Fully vectorised (unique-per-group via one sort).
* **code windows** — all sampled accesses of a *function* are aggregated
  across samples, accumulating many more observations per unit than any
  single trace window; population counts are then estimated with rho.
  This is the aggregation the paper shows cuts error from <25% to <5%.
"""

from __future__ import annotations

import numpy as np

from repro.core.diagnostics import FootprintDiagnostics
from repro.core.metrics import block_ids
from repro.core.parallel import ParallelEngine
from repro.trace.event import EVENT_DTYPE, LoadClass

__all__ = ["trace_window_metrics", "code_windows", "unique_per_group"]


def unique_per_group(groups: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Count distinct ``values`` per group id, vectorised.

    ``groups`` must be int group ids in ``[0, n_groups)``.
    """
    if len(groups) != len(values):
        raise ValueError("groups and values must align")
    out = np.zeros(n_groups, dtype=np.int64)
    if len(groups) == 0:
        return out
    order = np.lexsort((values, groups))
    g = groups[order]
    v = values[order]
    new_pair = np.ones(len(g), dtype=bool)
    new_pair[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    np.add.at(out, g[new_pair], 1)
    return out


def _chunk_ids(sample_id: np.ndarray | None, n: int, window: int) -> np.ndarray:
    """Assign each event to a chunk of ``window`` accesses within its sample."""
    if sample_id is None:
        return np.arange(n, dtype=np.int64) // window
    # position within sample
    pos = np.arange(n, dtype=np.int64)
    starts = np.concatenate([[0], np.flatnonzero(np.diff(sample_id)) + 1])
    offsets = np.zeros(n, dtype=np.int64)
    offsets[starts] = starts
    offsets = np.maximum.accumulate(offsets)
    within = pos - offsets
    # globally unique chunk id: (sample index, within-chunk)
    sample_index = np.cumsum(np.isin(pos, starts)) - 1
    return sample_index * (1 << 32) + within // window


def trace_window_metrics(
    events: np.ndarray,
    window: int,
    sample_id: np.ndarray | None = None,
    metric: str = "F",
    block: int = 1,
    min_fill: float = 0.5,
) -> np.ndarray:
    """Per-chunk metric values for trace windows of ``window`` accesses.

    ``metric`` is one of ``"F"``, ``"F_str"``, ``"F_irr"``, ``"dF"``.
    Chunks filled below ``min_fill * window`` (sample tails) are dropped
    so short leftovers do not bias the distribution.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    if metric not in ("F", "F_str", "F_irr", "dF"):
        raise ValueError(f"unknown metric {metric!r}")
    n = len(events)
    if n == 0:
        return np.empty(0, dtype=np.float64)

    raw_chunks = _chunk_ids(sample_id, n, window)
    # compress chunk ids to 0..k-1
    uniq, chunks = np.unique(raw_chunks, return_inverse=True)
    n_chunks = len(uniq)
    sizes = np.bincount(chunks, minlength=n_chunks)
    implied = sizes + np.bincount(
        chunks, weights=events["n_const"].astype(np.float64), minlength=n_chunks
    ).astype(np.int64)

    ids = block_ids(events, block)
    cls = events["cls"]
    const_mask = cls == int(LoadClass.CONSTANT)

    if metric in ("F", "dF"):
        sel = ~const_mask
        counts = unique_per_group(chunks[sel], ids[sel], n_chunks)
        has_const = np.zeros(n_chunks, dtype=bool)
        np.logical_or.at(has_const, chunks, const_mask | (events["n_const"] > 0))
        values = counts + has_const
        if metric == "dF":
            values = values / np.maximum(implied, 1)
    else:
        want = LoadClass.STRIDED if metric == "F_str" else LoadClass.IRREGULAR
        sel = cls == int(want)
        values = unique_per_group(chunks[sel], ids[sel], n_chunks).astype(np.float64)

    keep = sizes >= max(1, int(min_fill * window))
    return values[keep].astype(np.float64)


def code_windows(
    events: np.ndarray, rho: float = 1.0, block: int = 1, fn_names: dict[int, str] | None = None
) -> dict[str, FootprintDiagnostics]:
    """Aggregate samples per function and compute diagnostics for each.

    Returns ``{function: diagnostics}``; functions are named through
    ``fn_names`` (falling back to ``fn<id>``; when two ids share a name,
    the higher id's window wins). Within a code window all of a
    function's sampled accesses across all samples accumulate, and
    population counts use the inter-window estimators (``rho``): the
    ``windows`` pass, run by an inline engine as every report runs it.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    request = [("windows", {"block": block})]
    analysis = ParallelEngine().analyze((events, None, None), request, rho=rho, fn_names=fn_names)
    return analysis.results["windows"]
