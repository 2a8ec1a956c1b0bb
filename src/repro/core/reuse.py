"""Reuse intervals and spatio-temporal reuse distance (paper SS:IV-A, SS:V-B).

Definitions (cf. the paper's distinction):

* the **reuse interval** of an access is the number of accesses since the
  previous access to the same block — cheap to compute, but only an
  estimate of unique blocks;
* the **reuse distance** (stack distance) is the number of *unique*
  blocks accessed in that interval — the quantity that predicts cache
  behaviour.

The distance kernel is pure numpy. With ``prev[i]`` the index of the
previous same-block access inside the window, the distance collapses to
``D[i] = rank(i) - prev[i] - 1`` where
``rank(i) = #{j < i in window : prev[j] <= prev[i]}``: every
``j <= prev[i]`` trivially satisfies ``prev[j] < j <= prev[i]``, and a
``j`` strictly between ``prev[i]`` and ``i`` satisfies it exactly when
``j`` is the first access to its block since position ``prev[i]`` —
i.e. when ``j`` contributes one unique block. The rank sweep is
:func:`repro._util.rank.count_le_left`. It is an exact integer
computation, checked bit for bit against the classic per-event
Fenwick-tree walk that the test suite keeps as its oracle
(``tests/_util/fenwick_oracle.py``).

Distances respect sample boundaries when ``sample_id`` is given:
tracking state resets at each boundary, so distances are *intra-sample*
(the paper's preference for cache-scale analysis — inter-sample reuse is
estimated through footprint growth instead).

Cold accesses (first touch of a block in a window) get ``-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.rank import count_le_left
from repro._util.validate import check_power_of_two
from repro.core.metrics import block_ids, nonconstant
from repro.trace.event import EVENT_DTYPE

__all__ = [
    "reuse_intervals",
    "reuse_distances",
    "stack_distances",
    "mean_reuse_distance",
    "max_reuse_distance",
    "inter_sample_distance",
    "region_reuse",
    "ReuseHistogram",
    "reuse_histogram",
    "histogram_from_distances",
]

def _check(events: np.ndarray) -> None:
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")


def _boundaries(n: int, sample_id: np.ndarray | None) -> np.ndarray:
    """Start index of each window (always includes 0)."""
    if sample_id is None or n == 0:
        return np.array([0], dtype=np.int64)
    if len(sample_id) != n:
        raise ValueError("sample_id length must match events")
    return np.concatenate(
        [[0], np.flatnonzero(np.diff(sample_id)) + 1]
    ).astype(np.int64)


def reuse_intervals(
    events: np.ndarray, block: int = 1, sample_id: np.ndarray | None = None
) -> np.ndarray:
    """Per-access reuse interval in accesses; -1 for first touches.

    Fully vectorised: a stable sort groups each (window, block) pair's
    positions together, so the interval is a first difference.
    """
    _check(events)
    check_power_of_two("block", block)
    n = len(events)
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    ids = block_ids(events, block).astype(np.int64)
    if sample_id is None:
        windows = np.zeros(n, dtype=np.int64)
    else:
        if len(sample_id) != n:
            raise ValueError("sample_id length must match events")
        windows = np.asarray(sample_id, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)
    order = np.lexsort((pos, ids, windows))
    same = (ids[order][1:] == ids[order][:-1]) & (
        windows[order][1:] == windows[order][:-1]
    )
    gaps = pos[order][1:] - pos[order][:-1]
    out[order[1:][same]] = gaps[same]
    return out


def stack_distances(ids: np.ndarray, win: np.ndarray) -> np.ndarray:
    """LRU stack distance of each access; -1 for first touches.

    The fully vectorised distance kernel, shared by
    :func:`reuse_distances` (windows = samples) and the cache model
    (windows = cache sets after a stable reorder): ``ids`` are the
    per-access block/line identifiers (any integer dtype), ``win`` the
    per-access window ids, which must be *contiguous* (equal values
    adjacent — e.g. a non-decreasing window index). Tracking state never
    crosses a window boundary.

    Exact integer arithmetic throughout: the output is bit-identical to
    the classic Fenwick-tree walk for any input.
    """
    ids = np.asarray(ids)
    win = np.asarray(win)
    n = ids.size
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    if win.size != n:
        raise ValueError("win length must match ids")
    # contiguous window index + per-element window start
    brk = np.empty(n, dtype=bool)
    brk[0] = False
    brk[1:] = win[1:] != win[:-1]
    widx = np.cumsum(brk)
    wstart = np.concatenate([[0], np.flatnonzero(brk)])[widx]
    # prev[i]: index of the previous same-id access in the same window
    # (grouping each (window, id) pair's positions makes it a shift); one
    # stable sort on a (window, id) key when it fits in int64
    lo = int(ids.min())
    span = int(ids.max()) - lo + 1
    if span * (int(widx[-1]) + 1) < 2**63:
        key = widx * span + (ids - ids.dtype.type(lo)).astype(np.int64)
        order = np.argsort(key, kind="stable")
        key = key[order]
        same = key[1:] == key[:-1]
    else:
        order = np.lexsort((ids, widx))
        so_ids, so_widx = ids[order], widx[order]
        same = (so_ids[1:] == so_ids[:-1]) & (so_widx[1:] == so_widx[:-1])
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    # D = rank - prev - 1 with rank the within-window left-count of
    # prev values <= prev[i] (see the module docstring for why)
    prev_local = np.where(prev >= 0, prev - wstart, np.int64(-1))
    rank = count_le_left(prev_local, widx)
    reused = prev >= 0
    out[reused] = rank[reused] - prev_local[reused] - 1
    return out


def reuse_distances(
    events: np.ndarray,
    block: int = 1,
    sample_id: np.ndarray | None = None,
) -> np.ndarray:
    """Per-access spatio-temporal reuse distance D; -1 for first touches.

    D counts unique blocks *strictly between* consecutive accesses to the
    same block, so an immediate re-access has D = 0.
    """
    _check(events)
    check_power_of_two("block", block)
    n = len(events)
    if n == 0:
        return np.full(n, -1, dtype=np.int64)
    ids = block_ids(events, block)
    starts = _boundaries(n, sample_id)
    widx = np.zeros(n, dtype=np.int64)
    widx[starts[1:]] = 1
    np.cumsum(widx, out=widx)
    return stack_distances(ids, widx)


def mean_reuse_distance(
    events: np.ndarray, block: int = 64, sample_id: np.ndarray | None = None
) -> float:
    """Average D over accesses with reuse; 0.0 when no access reuses.

    Note the paper's convention in its tables: accesses without reuse are
    not averaged in, so streaming traffic shows up as *few* reusing
    accesses rather than as a huge D.
    """
    d = reuse_distances(events, block, sample_id)
    hits = d[d >= 0]
    return float(hits.mean()) if len(hits) else 0.0


def max_reuse_distance(
    events: np.ndarray, block: int = 64, sample_id: np.ndarray | None = None
) -> int:
    """Maximum D over accesses with reuse; 0 when none."""
    d = reuse_distances(events, block, sample_id)
    return int(d.max()) if len(d) and d.max() >= 0 else 0


def inter_sample_distance(
    collection,
    block: int = 4096,
    *,
    max_pairs: int = 200_000,
) -> tuple[float, int]:
    """Estimated inter-sample reuse distance (paper SS:V-B).

    Intra-sample windows cannot see reuse whose interval exceeds ``w``;
    for working-set-scale analysis the paper instead "calculates the
    average unique blocks accessed between samples based on footprint
    growth": when a block reappears in a later sample after a gap of
    ``g`` loads, the unique blocks touched in between are estimated as
    ``dF-hat * g``, capped by the estimated total footprint.

    Returns ``(mean estimated D, number of cross-sample reuse pairs)``.
    ``collection`` is a :class:`~repro.trace.collector.CollectionResult`.
    """
    from repro.core.growth import footprint_growth
    from repro.core.metrics import block_ids, footprint, nonconstant
    from repro.trace.compress import sample_ratio_from

    events = collection.events
    if len(events) == 0:
        return 0.0, 0
    rho = sample_ratio_from(collection)
    growth = footprint_growth(events, block)
    total_f = rho * footprint(events, block)

    nc = nonconstant(events)
    sid = collection.sample_id[events["cls"] != 0]
    ids = block_ids(nc, block)
    t = nc["t"].astype(np.int64)

    # last (t, sample) per block, streamed in order
    last_t: dict[int, int] = {}
    last_s: dict[int, int] = {}
    total = 0.0
    n_pairs = 0
    for b, ti, si in zip(ids, t, sid):
        b = int(b)
        prev_t = last_t.get(b)
        if prev_t is not None and last_s[b] != int(si):
            gap = ti - prev_t
            total += min(total_f, growth * gap)
            n_pairs += 1
            if n_pairs >= max_pairs:
                break
        last_t[b] = int(ti)
        last_s[b] = int(si)
    return (total / n_pairs if n_pairs else 0.0), n_pairs


#: Default histogram geometry: power-of-two bin edges up to 2**_HIST_MAX_EXP.
_HIST_MAX_EXP = 48


def _hist_edges(max_exp: int = _HIST_MAX_EXP) -> np.ndarray:
    """Power-of-two distance bin edges ``[1, 2, 4, ..., 2**max_exp]``."""
    return np.power(2, np.arange(max_exp + 1), dtype=np.int64)


@dataclass
class ReuseHistogram:
    """Mergeable distribution of spatio-temporal reuse distances.

    ``counts[0]`` holds D == 0 (immediate re-access); ``counts[k]`` for
    k >= 1 holds distances in ``[2**(k-1), 2**k)``. Cold accesses (no
    prior touch) are tallied separately in ``n_cold``. All fields are
    integer totals, so merging two histograms is exact addition — the
    merge is associative and commutative, which is what lets the
    parallel engine shard a trace and still produce bit-identical output
    (see :mod:`repro.core.parallel`).
    """

    counts: np.ndarray  # int64, len = max_exp + 1
    n_cold: int
    n_reuse: int
    d_sum: int
    d_max: int
    #: Window semantics marker, always ``"sample"``: distance windows are
    #: the samples, and a trace without sample ids is one sample, so the
    #: result is a property of the trace alone. Kept as a field so the
    #: serialized payload keeps its ``"scope"`` key.
    scope: str = "sample"

    @property
    def mean(self) -> float:
        """Mean D over reusing accesses (the paper's table convention)."""
        return self.d_sum / self.n_reuse if self.n_reuse else 0.0

    def merge(self, other: "ReuseHistogram") -> "ReuseHistogram":
        """Exact merge of two window partials (associative)."""
        if len(self.counts) != len(other.counts):
            raise ValueError(
                f"histogram geometry mismatch: {len(self.counts)} vs {len(other.counts)} bins"
            )
        return ReuseHistogram(
            counts=self.counts + other.counts,
            n_cold=self.n_cold + other.n_cold,
            n_reuse=self.n_reuse + other.n_reuse,
            d_sum=self.d_sum + other.d_sum,
            d_max=max(self.d_max, other.d_max),
        )

    @classmethod
    def identity(cls, max_exp: int = _HIST_MAX_EXP) -> "ReuseHistogram":
        """The merge identity (an empty histogram)."""
        return cls(
            counts=np.zeros(max_exp + 1, dtype=np.int64),
            n_cold=0,
            n_reuse=0,
            d_sum=0,
            d_max=0,
        )


def histogram_from_distances(
    d: np.ndarray, max_exp: int = _HIST_MAX_EXP
) -> ReuseHistogram:
    """Bin an already-computed distance array into a :class:`ReuseHistogram`.

    This is the shared tail of :func:`reuse_histogram`: the analysis-pass
    framework calls it on distances pulled from the per-chunk artifact
    context, so several passes share one distance sweep.
    """
    hits = d[d >= 0]
    out = ReuseHistogram.identity(max_exp)
    out.n_cold = int((d < 0).sum())
    out.n_reuse = int(len(hits))
    if len(hits):
        out.d_sum = int(hits.sum())
        out.d_max = int(hits.max())
        bins = np.searchsorted(_hist_edges(max_exp), hits, side="right")
        np.add.at(out.counts, np.minimum(bins, max_exp), 1)
    return out


def reuse_histogram(
    events: np.ndarray,
    block: int = 64,
    sample_id: np.ndarray | None = None,
    max_exp: int = _HIST_MAX_EXP,
) -> ReuseHistogram:
    """Histogram of intra-sample reuse distances over power-of-two bins.

    Because distance tracking resets at sample boundaries, computing this
    per sample-aligned shard and merging gives exactly the whole-trace
    result; every count is an integer so the merge is bit-exact.
    """
    _check(events)
    check_power_of_two("block", block)
    return histogram_from_distances(reuse_distances(events, block, sample_id), max_exp)


def region_reuse(
    events: np.ndarray,
    base: int,
    size: int,
    block: int = 64,
    sample_id: np.ndarray | None = None,
) -> tuple[float, int, int]:
    """(mean D, max D, accesses) for accesses falling in ``[base, base+size)``.

    D is computed over the *whole* access stream (a reuse of a region
    block may span accesses to other regions — that interleaving is
    exactly what spatio-temporal distance measures), then restricted to
    the region's accesses. Constant-class records are excluded up front,
    matching the paper's focus on data that must move.
    """
    _check(events)
    nc = nonconstant(events)
    if sample_id is not None:
        sample_id = sample_id[events["cls"] != 0]
    d = reuse_distances(nc, block, sample_id)
    addr = nc["addr"]
    in_region = (addr >= base) & (addr < base + size)
    d_region = d[in_region]
    hits = d_region[d_region >= 0]
    mean_d = float(hits.mean()) if len(hits) else 0.0
    max_d = int(d_region.max()) if len(d_region) and d_region.max() >= 0 else 0
    return mean_d, max_d, int(in_region.sum())
