"""Reference per-sample builders of the interval tree and the phases.

The production builders (:meth:`repro.core.interval_tree.ExecutionIntervalTree.build`,
:func:`repro.core.phases.detect_phases`) read one grouped per-sample
partial table (:mod:`repro.core.sampletable`). This module keeps the
builders they replaced, which walk ``collection.samples()`` and compute
each sample's, each intra-sample half's and each function leaf's
:class:`~repro.core.passes.DiagnosticsPartial` from its own events, fold
upper tree nodes with ``merge``, and re-read a phase's concatenated
events with ``compute_diagnostics``. The table must equal them node for
node and phase for phase.

Import it from a test in this directory: ``import persample_oracle``.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from repro._util.sortedset import sorted_unique
from repro.core.diagnostics import compute_diagnostics
from repro.core.interval_tree import IntervalNode
from repro.core.passes import DiagnosticsPartial
from repro.core.phases import Phase, _label
from repro.trace.event import LoadClass

__all__ = ["build_tree", "detect_phases", "sample_features"]


def build_tree(collection, *, rho, block=1, intra_splits=0, fn_names=None):
    """``(root, sample leaves)`` of the per-sample tree build."""
    fn_names = fn_names or {}
    level_nodes = []
    for sample in collection.samples():
        partial = DiagnosticsPartial.from_events(sample, block)
        node = IntervalNode(
            level=0,
            t_start=int(sample["t"][0]),
            t_end=int(sample["t"][-1]) + 1,
            diagnostics=partial.finalize(1.0),
            exact=True,
        )
        node.children = _build_below(sample, intra_splits, block, fn_names)
        level_nodes.append((node, partial))
    if not level_nodes:
        raise ValueError("collection has no non-empty samples")
    leaves = [node for node, _ in level_nodes]
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
    return level_nodes[0][0], leaves


def _build_below(sample, splits, block, fn_names):
    children = []
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
            node.children = _build_below(part, splits - 1, block, fn_names)
            children.append(node)
        return children
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


def sample_features(collection) -> np.ndarray:
    """Per-sample strided share of non-Constant accesses (NaN if none)."""
    out = []
    for sample in collection.samples():
        nc = sample[sample["cls"] != int(LoadClass.CONSTANT)]
        if len(nc) == 0:
            out.append(np.nan)
        else:
            out.append(float((nc["cls"] == int(LoadClass.STRIDED)).mean()))
    return np.asarray(out, dtype=np.float64)


def detect_phases(collection, *, threshold=0.25, min_phase_samples=2, block=1):
    """The per-sample phase detection: concatenate and re-read each phase."""
    samples = list(collection.samples())
    if not samples:
        return []
    features = sample_features(collection)
    boundaries = [0]
    mean = features[0]
    count = 1
    for i in range(1, len(samples)):
        f = features[i]
        if np.isnan(f):
            continue
        if np.isnan(mean):
            mean, count = f, 1
            continue
        if abs(f - mean) > threshold:
            boundaries.append(i)
            mean, count = f, 1
        else:
            mean = (mean * count + f) / (count + 1)
            count += 1
    boundaries.append(len(samples))
    merged = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        if merged and (hi - lo) < min_phase_samples:
            merged[-1] = (merged[-1][0], hi)
        elif merged and (merged[-1][1] - merged[-1][0]) < min_phase_samples:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    phases = []
    for idx, (lo, hi) in enumerate(merged):
        events = np.concatenate(samples[lo:hi])
        share = np.nanmean(features[lo:hi]) if hi > lo else float("nan")
        share = 0.0 if np.isnan(share) else float(share)
        phases.append(
            Phase(
                index=idx,
                first_sample=lo,
                last_sample=hi - 1,
                t_start=int(samples[lo]["t"][0]),
                t_end=int(samples[hi - 1]["t"][-1]) + 1,
                strided_share=share,
                diagnostics=compute_diagnostics(events, block=block),
                label=_label(share),
            )
        )
    return phases
