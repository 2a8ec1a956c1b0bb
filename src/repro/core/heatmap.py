"""Access and reuse-distance heatmaps over (region page, time) (Fig. 8).

The paper's CC case study shows that summary metrics can be dominated by
outliers; the heatmaps expose the full distributions — access frequency
and reuse distance D per (page of a hot region, time bin) — where darker
bands reveal access locality structure that averages hide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.validate import check_power_of_two
from repro.core.reuse import reuse_distances
from repro.trace.event import EVENT_DTYPE, LoadClass

__all__ = [
    "HeatmapResult",
    "heatmap_geometry",
    "heatmap_request",
    "region_points",
    "accumulate_heatmap",
    "finalize_heatmap",
    "access_heatmap",
    "render_heatmap_ascii",
]


@dataclass
class HeatmapResult:
    """A (pages x time-bins) matrix plus its bin geometry."""

    counts: np.ndarray  # accesses per cell
    reuse: np.ndarray  # mean D per cell (NaN where no reusing access)
    base: int
    page_size: int
    t_edges: np.ndarray  # time-bin edges, len = n_bins + 1

    @property
    def n_pages(self) -> int:
        """Rows of the matrix."""
        return self.counts.shape[0]

    @property
    def n_bins(self) -> int:
        """Columns of the matrix."""
        return self.counts.shape[1]


def heatmap_geometry(
    nc: np.ndarray, size: int, n_pages: int, n_bins: int
) -> tuple[int, np.ndarray]:
    """(page_size, t_edges) shared by every shard of one heatmap.

    ``nc`` is the whole trace's non-Constant record stream; the geometry
    must be fixed *before* sharding so partial matrices line up.
    """
    page_size = max(1, size // n_pages)
    t_lo = int(nc["t"][0]) if len(nc) else 0
    t_hi = int(nc["t"][-1]) + 1 if len(nc) else 1
    return page_size, np.linspace(t_lo, t_hi, n_bins + 1)


def heatmap_request(
    events: np.ndarray,
    base: int,
    size: int,
    *,
    n_pages: int = 64,
    n_bins: int = 64,
    access_block: int = 64,
) -> tuple[str, dict]:
    """The ``heatmap`` pass request for the region ``[base, base+size)``.

    Fixes the bin geometry from the whole trace (:func:`heatmap_geometry`)
    before any scan, so :meth:`~repro.core.parallel.ParallelEngine.analyze`
    over the same ``events`` equals :func:`access_heatmap` for any
    sharding. Validates like :func:`access_heatmap`.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    if size <= 0 or n_pages <= 0 or n_bins <= 0:
        raise ValueError("size, n_pages and n_bins must be > 0")
    check_power_of_two("block", access_block)
    nc = events[events["cls"] != int(LoadClass.CONSTANT)]
    page_size, t_edges = heatmap_geometry(nc, size, n_pages, n_bins)
    return (
        "heatmap",
        {
            "base": base,
            "size": size,
            "page_size": page_size,
            "t_edges": t_edges,
            "n_pages": n_pages,
            "n_bins": n_bins,
            "access_block": access_block,
        },
    )


def region_points(
    nc: np.ndarray, d: np.ndarray, base: int, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(addr, t, d) of the non-Constant accesses falling in the region.

    Shared by the serial :func:`access_heatmap` and the heatmap analysis
    pass so both filter identically.
    """
    addr = nc["addr"].astype(np.int64)
    t = nc["t"].astype(np.int64)
    in_region = (addr >= base) & (addr < base + size)
    return addr[in_region], t[in_region], d[in_region]


def accumulate_heatmap(
    addr: np.ndarray,
    t: np.ndarray,
    d: np.ndarray,
    *,
    base: int,
    page_size: int,
    t_edges: np.ndarray,
    n_pages: int,
    n_bins: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(counts, dsum, dcnt) partial matrices for one shard of accesses.

    ``addr``/``t``/``d`` are the shard's region-filtered addresses, times,
    and reuse distances. Partials from different shards merge by matrix
    addition: counts and dcnt are integer, and dsum accumulates
    integer-valued distances below 2**53, so float addition is exact and
    the merged result is bit-identical to a single-pass accumulation.
    """
    counts = np.zeros((n_pages, n_bins), dtype=np.int64)
    dsum = np.zeros((n_pages, n_bins), dtype=np.float64)
    dcnt = np.zeros((n_pages, n_bins), dtype=np.int64)
    if len(addr):
        rows = np.minimum((addr - base) // page_size, n_pages - 1)
        cols = np.minimum(
            np.searchsorted(t_edges, t, side="right") - 1, n_bins - 1
        )
        cols = np.maximum(cols, 0)
        np.add.at(counts, (rows, cols), 1)
        reusing = d >= 0
        np.add.at(dsum, (rows[reusing], cols[reusing]), d[reusing])
        np.add.at(dcnt, (rows[reusing], cols[reusing]), 1)
    return counts, dsum, dcnt


def finalize_heatmap(
    counts: np.ndarray,
    dsum: np.ndarray,
    dcnt: np.ndarray,
    *,
    base: int,
    page_size: int,
    t_edges: np.ndarray,
) -> HeatmapResult:
    """Turn merged partial matrices into a :class:`HeatmapResult`."""
    with np.errstate(invalid="ignore"):
        reuse = np.where(dcnt > 0, dsum / np.maximum(dcnt, 1), np.nan)
    return HeatmapResult(
        counts=counts, reuse=reuse, base=base, page_size=page_size, t_edges=t_edges
    )


def access_heatmap(
    events: np.ndarray,
    base: int,
    size: int,
    *,
    n_pages: int = 64,
    n_bins: int = 64,
    access_block: int = 64,
    sample_id: np.ndarray | None = None,
) -> HeatmapResult:
    """Heatmaps for the region ``[base, base+size)``.

    ``counts[p, b]`` is the number of accesses to page ``p`` during time
    bin ``b``; ``reuse[p, b]`` the mean intra-sample reuse distance of
    the reusing accesses in that cell (NaN when none reuse).
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    if size <= 0 or n_pages <= 0 or n_bins <= 0:
        raise ValueError("size, n_pages and n_bins must be > 0")
    check_power_of_two("block", access_block)

    mask = events["cls"] != int(LoadClass.CONSTANT)
    nc = events[mask]
    sid = sample_id[mask] if sample_id is not None else None
    d = reuse_distances(nc, access_block, sid)
    addr, t, d = region_points(nc, d, base, size)

    page_size, t_edges = heatmap_geometry(nc, size, n_pages, n_bins)
    counts, dsum, dcnt = accumulate_heatmap(
        addr,
        t,
        d,
        base=base,
        page_size=page_size,
        t_edges=t_edges,
        n_pages=n_pages,
        n_bins=n_bins,
    )
    return finalize_heatmap(
        counts, dsum, dcnt, base=base, page_size=page_size, t_edges=t_edges
    )


_SHADES = " .:-=+*#%@"


def render_heatmap_ascii(matrix: np.ndarray, *, log: bool = True) -> str:
    """Render a matrix as ASCII art (darker character = larger value)."""
    m = np.array(matrix, dtype=np.float64)
    m = np.where(np.isnan(m), 0.0, m)
    if log:
        m = np.log1p(m)
    top = m.max()
    if top == 0:
        top = 1.0
    idx = np.minimum((m / top * (len(_SHADES) - 1)).astype(int), len(_SHADES) - 1)
    return "\n".join("".join(_SHADES[v] for v in row) for row in idx)
