"""Execution interval tree: multi-resolution time analysis (paper Fig. 4).

The tree is built bottom-up from samples. Leaves are individual samples
(exact, intra-window metrics); each level above merges pairs of adjacent
nodes into larger time intervals whose metrics are population *estimates*
scaled by rho (inter-window, Eq. 3). An upper node folds its children's
:class:`~repro.core.passes.DiagnosticsPartial` with the engine's exact
merge instead of re-reading their events, so every node equals the
serial computation over its interval. Below samples, intra-sample splits
give finer resolution, and leaf *function nodes* group a sample's
accesses by procedure.

Zooming descends from the root choosing the child that maximises a
criterion (accesses, footprint growth, ...) — the red path in Fig. 4.

:func:`access_interval_metrics` gives the paper's "hot access interval"
rows (Table VIII, Fig. 9): equal-count access intervals over time with
F / Delta-F / D / A-hat per interval, all from one scan of the
``intervals`` pass (:func:`interval_request` builds its request).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from repro._util.sortedset import sorted_unique
from repro.core.diagnostics import FootprintDiagnostics
from repro.core.parallel import ParallelEngine
from repro.core.passes import DiagnosticsPartial
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
    ) -> "ExecutionIntervalTree":
        """Build the tree from a sampled trace.

        ``intra_splits`` levels are added *below* each sample by halving
        its access sequence; function leaf nodes hang off every sample.
        """
        fn_names = fn_names or {}
        level_nodes: list[tuple[IntervalNode, DiagnosticsPartial]] = []
        for sample in collection.samples():  # never yields an empty slice
            partial = DiagnosticsPartial.from_events(sample, block)
            node = IntervalNode(
                level=0,
                t_start=int(sample["t"][0]),
                t_end=int(sample["t"][-1]) + 1,
                diagnostics=partial.finalize(1.0),
                exact=True,
            )
            node.children = cls._build_below(sample, intra_splits, block, fn_names)
            level_nodes.append((node, partial))
        if not level_nodes:
            raise ValueError("collection has no non-empty samples")
        leaves = [node for node, _ in level_nodes]

        # fold the children's partials pairwise upward; merged metrics
        # are rho-scaled estimates
        level = 0
        while len(level_nodes) > 1:
            level += 1
            groups = [level_nodes[i : i + 2] for i in range(0, len(level_nodes), 2)]
            level_nodes = []
            for group in groups:
                children = [node for node, _ in group]
                partial = reduce(DiagnosticsPartial.merge, [p for _, p in group])
                node = IntervalNode(
                    level=level,
                    t_start=children[0].t_start,
                    t_end=children[-1].t_end,
                    diagnostics=partial.finalize(rho),
                    exact=False,
                    children=children,
                )
                level_nodes.append((node, partial))
        return cls(level_nodes[0][0], leaves)

    @staticmethod
    def _build_below(
        sample: np.ndarray,
        splits: int,
        block: int,
        fn_names: dict[int, str],
    ) -> list[IntervalNode]:
        children: list[IntervalNode] = []
        if splits > 0 and len(sample) >= 2:
            half = len(sample) // 2
            for part in (sample[:half], sample[half:]):
                node = IntervalNode(
                    level=-1,
                    t_start=int(part["t"][0]),
                    t_end=int(part["t"][-1]) + 1,
                    diagnostics=DiagnosticsPartial.from_events(part, block).finalize(),
                    exact=True,
                )
                node.children = ExecutionIntervalTree._build_below(
                    part, splits - 1, block, fn_names
                )
                children.append(node)
            return children
        # function leaf nodes
        for fid in sorted_unique(sample["fn"]):
            part = sample[sample["fn"] == fid]
            children.append(
                IntervalNode(
                    level=-1,
                    t_start=int(part["t"][0]),
                    t_end=int(part["t"][-1]) + 1,
                    diagnostics=DiagnosticsPartial.from_events(part, block).finalize(),
                    exact=True,
                    function=fn_names.get(int(fid), f"fn{int(fid)}"),
                )
            )
        return children

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
