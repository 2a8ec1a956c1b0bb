"""Location zoom tree: finding hot memory regions (paper SS:IV-C2, Fig. 5).

The zoom proceeds top-down from one region covering all accessed memory.
At each level the region is divided into fixed-size pages; a *hot
subregion* is a maximal run of **contiguous** pages, each with at least
one access, whose total is at least ``hot_threshold`` of the region's
accesses. Hot subregions recurse with a smaller page size until they
reach the minimum-size stopping threshold.

Contiguity is load-bearing (the paper calls it out): cold gaps inside a
hot run are kept so a leaf captures a whole object, and its
spatio-temporal reuse distance D reflects the locality of the *entire*
object — filtering to hot blocks only would make locality look
artificially good. The hot-blocks-only alternative is measured in
``benchmarks/test_ablation_zoom_contiguity.py``.

Per final region the analysis reports hotness (% of total accesses),
mean/max D for the region's accesses (64 B blocks by default), size in
blocks, accesses per block, and the code (functions) performing the
accesses — the columns of Tables V / VII / IX.

The analysis runs in two steps. :func:`zoom_tree` builds the tree from
addresses alone; each leaf's D then comes from one region scan of the
engine's ``heatmap`` pass, in which every leaf is a ``1 x 1`` region, so
the reuse distances are computed once per shard for all leaves — and,
in the report, for the hot-region heatmaps in the same request.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro._util.validate import check_power_of_two
from repro.core.heatmap import heatmap_request
from repro.core.parallel import ParallelEngine
from repro.trace.event import EVENT_DTYPE, LoadClass

__all__ = [
    "ZoomConfig",
    "ZoomRegion",
    "zoom_tree",
    "scan_leaves",
    "location_zoom",
    "zoom_leaves",
]


@dataclass(frozen=True)
class ZoomConfig:
    """Zoom-tree parameters."""

    page_size: int = 4096  # initial page size b_p
    access_block: int = 64  # block size b_a for reuse distance D
    hot_threshold: float = 0.10  # t: min fraction of region accesses
    min_region_bytes: int = 4096  # stopping threshold
    shrink: int = 4  # page-size divisor per level
    max_depth: int = 8

    def __post_init__(self) -> None:
        for name in ("page_size", "access_block", "min_region_bytes"):
            check_power_of_two(name, getattr(self, name))
        if not 0.0 < self.hot_threshold <= 1.0:
            raise ValueError(f"hot_threshold must be in (0,1], got {self.hot_threshold}")
        if self.shrink < 2:
            raise ValueError(f"shrink must be >= 2, got {self.shrink}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")


@dataclass
class ZoomRegion:
    """A node of the zoom tree; leaves carry the reuse statistics."""

    base: int
    size: int
    depth: int
    n_accesses: int
    pct_of_total: float
    children: list["ZoomRegion"] = field(default_factory=list)
    D_mean: float = 0.0
    D_max: int = 0
    n_blocks: int = 0
    accesses_per_block: float = 0.0
    functions: Counter = field(default_factory=Counter)

    @property
    def end(self) -> int:
        """One past the region's last byte."""
        return self.base + self.size

    @property
    def is_leaf(self) -> bool:
        """Whether the zoom stopped here."""
        return not self.children


def _hot_runs(
    page_counts: np.ndarray, total: int, threshold: float
) -> list[tuple[int, int]]:
    """Maximal contiguous nonzero-page runs with enough accesses.

    Returns (start_page, end_page_exclusive) pairs.
    """
    nonzero = page_counts > 0
    if not nonzero.any():
        return []
    edges = np.diff(nonzero.astype(np.int8))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1) + 1)
    if nonzero[0]:
        starts.insert(0, 0)
    if nonzero[-1]:
        ends.append(len(page_counts))
    runs = []
    for lo, hi in zip(starts, ends):
        if page_counts[lo:hi].sum() >= threshold * total:
            runs.append((int(lo), int(hi)))
    return runs


def zoom_tree(
    events: np.ndarray,
    config: ZoomConfig | None = None,
    fn_names: dict[int, str] | None = None,
) -> ZoomRegion:
    """The address-only zoom tree over the non-Constant accesses of ``events``.

    Every node carries its access count and share; leaves also carry
    their size in blocks, accesses per block and functions. The leaves'
    reuse statistics (``D_mean``/``D_max``) stay zero until
    :func:`scan_leaves` sets them from a region scan.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    config = config or ZoomConfig()
    fn_names = fn_names or {}

    nc = events[events["cls"] != int(LoadClass.CONSTANT)]
    if len(nc) == 0:
        return ZoomRegion(base=0, size=config.min_region_bytes, depth=0, n_accesses=0, pct_of_total=0.0)

    addrs = nc["addr"].astype(np.int64)
    fns = nc["fn"]
    total = len(nc)

    p0 = config.page_size
    lo = (int(addrs.min()) // p0) * p0
    hi = ((int(addrs.max()) // p0) + 1) * p0

    def build(base: int, size: int, page: int, depth: int, idx: np.ndarray) -> ZoomRegion:
        region = ZoomRegion(
            base=base,
            size=size,
            depth=depth,
            n_accesses=len(idx),
            pct_of_total=100.0 * len(idx) / total,
        )
        stop = (
            depth >= config.max_depth
            or size <= config.min_region_bytes
            or page < config.access_block
            or len(idx) == 0
        )
        if not stop:
            rel = (addrs[idx] - base) // page
            n_pages = size // page
            counts = np.bincount(rel, minlength=n_pages)
            runs = _hot_runs(counts, len(idx), config.hot_threshold)
            # a single run covering the whole populated span cannot shrink
            # the region; descend by page size instead of recursing in place
            for plo, phi in runs:
                sub_base = base + plo * page
                sub_size = (phi - plo) * page
                sel = idx[(addrs[idx] >= sub_base) & (addrs[idx] < sub_base + sub_size)]
                next_page = max(config.access_block, page // config.shrink)
                if sub_size == size and next_page == page:
                    continue  # no progress possible
                region.children.append(
                    build(sub_base, sub_size, next_page, depth + 1, sel)
                )
        if region.is_leaf:
            region.n_blocks = max(1, region.size // config.access_block)
            region.accesses_per_block = region.n_accesses / region.n_blocks
            for fid, c in zip(*np.unique(fns[idx], return_counts=True)):
                region.functions[fn_names.get(int(fid), f"fn{int(fid)}")] += int(c)
        return region

    all_idx = np.arange(len(nc), dtype=np.int64)
    return build(lo, hi - lo, p0, 0, all_idx)


def scan_leaves(
    events: np.ndarray,
    sample_id: np.ndarray | None,
    leaves: list[ZoomRegion],
    *,
    access_block: int,
    engine=None,
    extra=(),
) -> list:
    """Set the leaves' ``D_mean``/``D_max`` from one region scan.

    Each leaf is a ``1 x 1`` region of one ``heatmap`` request over
    ``engine`` (in-process when omitted); its address range holds exactly
    the accesses the tree counted for it, so its one cell is their reuse.
    ``extra`` regions (``(base, size, n_pages, n_bins)``) ride the same
    request, and their heatmaps are returned in order.
    """
    regions = [(leaf.base, leaf.size, 1, 1) for leaf in leaves] + list(extra)
    request = heatmap_request(events, regions, access_block=access_block)
    engine = engine or ParallelEngine(workers=1)
    stats = engine.analyze((events, sample_id, None), [request]).results["heatmap"]
    for leaf, hm in zip(leaves, stats):
        mean = float(hm.reuse[0, 0])
        leaf.D_mean = mean if mean == mean else 0.0  # NaN: nothing reuses
        leaf.D_max = max(int(hm.reuse_max[0, 0]), 0)
    return list(stats[len(leaves) :])


def location_zoom(
    events: np.ndarray,
    config: ZoomConfig | None = None,
    sample_id: np.ndarray | None = None,
    fn_names: dict[int, str] | None = None,
    *,
    engine=None,
) -> ZoomRegion:
    """Build the zoom tree over the non-Constant accesses of ``events``.

    Reuse distances are computed over the full (non-Constant) stream —
    intra-sample when ``sample_id`` is given — and leaves restrict to
    their address range, so interleaving with other regions is reflected
    in D exactly as the paper's spatio-temporal definition requires.
    One region scan of ``engine`` (a
    :class:`~repro.core.parallel.ParallelEngine`, in-process when
    omitted) gives every leaf its statistics.
    """
    config = config or ZoomConfig()
    root = zoom_tree(events, config, fn_names)
    if root.n_accesses:
        scan_leaves(
            events,
            sample_id,
            zoom_leaves(root),
            access_block=config.access_block,
            engine=engine,
        )
    return root


def zoom_leaves(root: ZoomRegion, min_pct: float = 0.0) -> list[ZoomRegion]:
    """Final (leaf) regions, hottest first, filtered by hotness percent."""
    out: list[ZoomRegion] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            if node.pct_of_total >= min_pct:
                out.append(node)
        else:
            stack.extend(node.children)
    out.sort(key=lambda r: -r.n_accesses)
    return out
