"""Execution interval tree: multi-resolution time analysis (paper Fig. 4).

The tree is built bottom-up from samples. Leaves are individual samples
(exact, intra-window metrics); each level above merges pairs of adjacent
nodes into larger time intervals whose metrics are population *estimates*
scaled by rho (inter-window, Eq. 3). Every node reads the per-sample
partial table (:class:`~repro.core.sampletable.SampleTable`): an upper
node is the exact merge of its samples'
:class:`~repro.core.passes.DiagnosticsPartial` state, one grouping of
the table per level, so every node equals the serial computation over
its interval without re-reading events. Below samples, intra-sample
splits give finer resolution, and leaf *function nodes* group a
sample's accesses by procedure.

Zooming descends from the root choosing the child that maximises a
criterion (accesses, footprint growth, ...) — the red path in Fig. 4.

:func:`access_interval_metrics` gives the paper's "hot access interval"
rows (Table VIII, Fig. 9): equal-count access intervals over time with
F / Delta-F / D / A-hat per interval, all from one scan of the
``intervals`` pass (:func:`interval_request` builds its request).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro._util.sortedset import sorted_unique
from repro.core.diagnostics import FootprintDiagnostics
from repro.core.parallel import ParallelEngine
from repro.core.sampletable import SampleTable
from repro.trace.collector import CollectionResult
from repro.trace.event import EVENT_DTYPE

__all__ = [
    "IntervalNode",
    "ExecutionIntervalTree",
    "interval_request",
    "access_interval_metrics",
]


@dataclass
class IntervalNode:
    """One time interval: its event slice, metrics, and children."""

    level: int  # 0 = sample leaves; positive above, negative below
    t_start: int
    t_end: int
    diagnostics: FootprintDiagnostics
    exact: bool  # intra-sample metrics are exact; merged ones are estimates
    children: list["IntervalNode"] = field(default_factory=list)
    function: str | None = None  # set on leaf function nodes

    @property
    def span(self) -> int:
        """Interval length in retired loads."""
        return self.t_end - self.t_start


class ExecutionIntervalTree:
    """Bottom-up interval tree over a sampled collection."""

    def __init__(self, root: IntervalNode, samples: list[IntervalNode]) -> None:
        self.root = root
        self.samples = samples

    @classmethod
    def build(
        cls,
        collection: CollectionResult,
        *,
        rho: float,
        block: int = 1,
        intra_splits: int = 0,
        fn_names: dict[int, str] | None = None,
        table: SampleTable | None = None,
    ) -> "ExecutionIntervalTree":
        """Build the tree from a sampled trace.

        ``intra_splits`` levels are added *below* each sample by halving
        its access sequence; function leaf nodes hang off every sample.
        ``table``, when given, is the collection's
        :meth:`SampleTable.of <repro.core.sampletable.SampleTable.of>` at
        ``block`` (shared with :func:`~repro.core.phases.detect_phases`).
        """
        fn_names = fn_names or {}
        if table is None:
            table = SampleTable.of(collection, block)
        elif table.block != block:
            raise ValueError(f"table is at block {table.block}, not {block}")
        if table.n_segments == 0:
            raise ValueError("collection has no non-empty samples")

        leaves = [
            IntervalNode(level=0, t_start=t0, t_end=t1, diagnostics=d, exact=True)
            for t0, t1, d in _nodes(table.segment_totals(), 1.0)
        ]
        _attach_below(leaves, collection, table, intra_splits, fn_names)

        # each level above pairs the nodes below: node k at level L spans
        # samples [k << L, (k + 1) << L), its merged partial finalized
        # with rho (an estimate)
        level_nodes = leaves
        for level, totals in enumerate(table.levels(), start=1):
            level_nodes = [
                IntervalNode(
                    level=level,
                    t_start=t0,
                    t_end=t1,
                    diagnostics=d,
                    exact=False,
                    children=level_nodes[2 * k : 2 * k + 2],
                )
                for k, (t0, t1, d) in enumerate(_nodes(totals, rho))
            ]
        return cls(level_nodes[0], leaves)

    def zoom(
        self,
        criterion: Callable[[IntervalNode], float] | None = None,
        max_depth: int | None = None,
    ) -> list[IntervalNode]:
        """Descend from the root along the max-criterion child path.

        The default criterion is footprint growth weighted by accesses —
        "a hot interval (many accesses) with poor reuse (large footprint
        growth)" per the paper's walkthrough of Fig. 4.
        """
        if criterion is None:
            criterion = lambda n: n.diagnostics.dF * n.diagnostics.A_implied
        path = [self.root]
        node = self.root
        depth = 0
        while node.children and (max_depth is None or depth < max_depth):
            node = max(node.children, key=criterion)
            path.append(node)
            depth += 1
        return path


def _nodes(totals, rho: float):
    """``(t_start, t_end, diagnostics)`` of each group of a grouping's totals."""
    return zip(
        totals.t_start.tolist(),
        totals.t_end.tolist(),
        SampleTable.diagnostics(totals, rho),
    )


def _function_leaves(table: SampleTable, fn_names: dict[int, str]) -> list[list[IntervalNode]]:
    """Each segment's function leaf nodes, in function-id order."""
    totals = table.leaf_totals()
    per_segment: list[list[IntervalNode]] = [[] for _ in range(table.n_segments)]
    for seg, fid, t0, t1, d in zip(
        table.leaf_segment.tolist(),
        table.leaf_fn.tolist(),
        totals.t_start.tolist(),
        totals.t_end.tolist(),
        SampleTable.diagnostics(totals),
    ):
        per_segment[seg].append(
            IntervalNode(
                level=-1,
                t_start=t0,
                t_end=t1,
                diagnostics=d,
                exact=True,
                function=fn_names.get(fid, f"fn{fid}"),
            )
        )
    return per_segment


def _attach_below(
    leaves: list[IntervalNode],
    collection: CollectionResult,
    samples: SampleTable,
    splits: int,
    fn_names: dict[int, str],
) -> None:
    """Hang the intra-sample halves and the function leaves below ``leaves``.

    A part of at least two records splits in two at ``len // 2`` while
    splits remain. The parts that stop splitting are the segments of one
    table (the samples' own when nothing splits); their function leaves
    hang off them, and every depth of halves is one grouping of them.
    """
    lo, hi = samples.bounds[:-1], samples.bounds[1:]
    depths = []  # per depth: (start, end, splits?) of its parts
    for _ in range(max(splits, 0)):
        split = hi - lo >= 2
        depths.append((lo, hi, split))
        mid = lo[split] + (hi[split] - lo[split]) // 2
        lo, hi = (
            np.stack([lo[split], mid], 1).ravel(),
            np.stack([mid, hi[split]], 1).ravel(),
        )
    depths.append((lo, hi, np.zeros(len(lo), dtype=bool)))
    table = samples
    if len(depths) > 1:
        edges = sorted_unique(np.concatenate([samples.bounds] + [d[0] for d in depths]))
        table = SampleTable(collection.events, edges, samples.block)
    starts = table.bounds[:-1]
    fn_leaves = _function_leaves(table, fn_names)

    parents = leaves
    for depth, (lo, hi, split) in enumerate(depths):
        # a part that stops splitting is one segment: its function leaves
        stops = [node for node, s in zip(parents, split.tolist()) if not s]
        for node, seg in zip(stops, np.searchsorted(starts, lo[~split]).tolist()):
            node.children = fn_leaves[seg]
        if not split.any():
            break
        # the next depth's halves group the segments each covers
        nlo, nhi, _ = depths[depth + 1]
        part = np.searchsorted(nlo, starts, side="right") - 1
        covered = (part >= 0) & (starts < nhi[np.maximum(part, 0)])
        halves = [
            IntervalNode(level=-1, t_start=t0, t_end=t1, diagnostics=d, exact=True)
            for t0, t1, d in _nodes(table.totals(np.where(covered, part, -1)), 1.0)
        ]
        owners = [node for node, s in zip(parents, split.tolist()) if s]
        for k, node in enumerate(owners):
            node.children = halves[2 * k : 2 * k + 2]
        parents = halves


def interval_request(
    n_events: int, n_intervals: int, *, block: int = 1, reuse_block: int = 64
) -> tuple[str, dict]:
    """The ``intervals`` pass request cutting ``n_events`` records into
    ``n_intervals`` consecutive intervals of equal record count.

    Like :func:`repro.core.heatmap.heatmap_request`, it fixes the pass's
    geometry (the interval edges) from the whole trace before any scan.
    """
    if n_intervals <= 0:
        raise ValueError(f"n_intervals must be > 0, got {n_intervals}")
    edges = np.linspace(0, n_events, n_intervals + 1).astype(np.int64).tolist()
    return "intervals", {"edges": tuple(edges), "block": block, "reuse_block": reuse_block}


def access_interval_metrics(
    events: np.ndarray,
    n_intervals: int,
    *,
    rho: float = 1.0,
    block: int = 1,
    reuse_block: int = 64,
    sample_id: np.ndarray | None = None,
    engine=None,
) -> list[dict]:
    """Equal-count access intervals over time (Table VIII / Fig. 9 rows).

    Splits the record stream into ``n_intervals`` consecutive intervals of
    equal record count and reports per interval: estimated footprint ``F``,
    growth ``dF``, intra-sample mean reuse distance ``D``, and estimated
    accesses ``A``.

    Every row comes from one scan of ``engine`` (a
    :class:`~repro.core.parallel.ParallelEngine`, in-process when
    omitted) running the ``intervals`` pass; each row equals an analysis
    of its interval's slice alone.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    request = interval_request(len(events), n_intervals, block=block, reuse_block=reuse_block)
    if engine is None:
        engine = ParallelEngine(workers=1)
    return engine.analyze((events, sample_id, None), [request], rho=rho).results["intervals"]
