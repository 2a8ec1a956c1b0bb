"""Phase detection over sampled traces (paper SS:V-E).

"Many applications tend to frequently alternate between regular execution
phases with structured memory access patterns and irregular phases with
unpredictable memory behaviors." With sampled traces, each sample gives a
cheap per-window feature — the strided share of its accesses and its
footprint growth — and phase boundaries appear where those features jump.

:func:`detect_phases` segments the sample sequence with a simple online
change-point rule: a new phase starts when a sample's strided share moves
more than ``threshold`` away from the running phase mean. Each detected
phase carries its time span, classification, and aggregate diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.diagnostics import FootprintDiagnostics
from repro.core.sampletable import SampleTable, sample_bounds
from repro.trace.collector import CollectionResult
from repro.trace.event import LoadClass

__all__ = ["Phase", "detect_phases", "sample_features"]


@dataclass(frozen=True)
class Phase:
    """One detected execution phase."""

    index: int
    first_sample: int
    last_sample: int  # inclusive
    t_start: int
    t_end: int
    strided_share: float  # mean over the phase's samples
    diagnostics: FootprintDiagnostics
    label: str  # "regular" | "irregular" | "mixed"

    @property
    def n_samples(self) -> int:
        """Samples aggregated into this phase."""
        return self.last_sample - self.first_sample + 1


def _label(strided_share: float) -> str:
    if strided_share >= 0.7:
        return "regular"
    if strided_share <= 0.3:
        return "irregular"
    return "mixed"


def _shares(n_strided: np.ndarray, n_nonconst: np.ndarray) -> np.ndarray:
    """Strided share of each sample's non-Constant records (NaN if none)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(n_nonconst > 0, n_strided / n_nonconst, np.nan)


def sample_features(collection: CollectionResult) -> np.ndarray:
    """Per-sample strided share of non-Constant accesses (NaN if none)."""
    if len(collection.events) == 0:
        return np.empty(0, dtype=np.float64)
    starts = sample_bounds(collection.sample_id)[:-1]
    cls = collection.events["cls"]
    return _shares(
        np.add.reduceat((cls == int(LoadClass.STRIDED)).astype(np.int64), starts),
        np.add.reduceat((cls != int(LoadClass.CONSTANT)).astype(np.int64), starts),
    )


def detect_phases(
    collection: CollectionResult,
    *,
    threshold: float = 0.25,
    min_phase_samples: int = 2,
    block: int = 1,
    table: SampleTable | None = None,
) -> list[Phase]:
    """Segment the sampled trace into phases by access-pattern mix.

    ``threshold`` is the strided-share jump that opens a new phase;
    candidate phases shorter than ``min_phase_samples`` are merged into
    their successor (they are usually transition windows). ``table``,
    when given, is the collection's
    :meth:`SampleTable.of <repro.core.sampletable.SampleTable.of>` at
    ``block``; a phase's diagnostics are the merge of its samples'
    partials in it.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    if min_phase_samples < 1:
        raise ValueError(f"min_phase_samples must be >= 1, got {min_phase_samples}")
    if len(collection.events) == 0:
        return []
    if table is None:
        table = SampleTable.of(collection, block)
    elif table.block != block:
        raise ValueError(f"table is at block {table.block}, not {block}")
    n_samples = table.n_segments
    per_sample = table.segment_totals()
    features = _shares(per_sample.n_strided_records, per_sample.n_nonconst_records)

    # change-point pass
    boundaries = [0]
    values = features.tolist()
    mean = values[0]
    count = 1
    for i in range(1, n_samples):
        f = values[i]
        if math.isnan(f):
            continue
        if math.isnan(mean):
            mean, count = f, 1
            continue
        if abs(f - mean) > threshold:
            boundaries.append(i)
            mean, count = f, 1
        else:
            mean = (mean * count + f) / (count + 1)
            count += 1
    boundaries.append(n_samples)

    # merge too-short phases forward
    merged: list[tuple[int, int]] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        if merged and (hi - lo) < min_phase_samples:
            merged[-1] = (merged[-1][0], hi)
        elif merged and (merged[-1][1] - merged[-1][0]) < min_phase_samples:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))

    # each phase's diagnostics: the merge of its samples' partials
    sizes = [hi - lo for lo, hi in merged]
    totals = table.totals(np.repeat(np.arange(len(merged)), sizes))
    phases: list[Phase] = []
    for idx, ((lo, hi), t0, t1, diagnostics) in enumerate(
        zip(
            merged,
            totals.t_start.tolist(),
            totals.t_end.tolist(),
            SampleTable.diagnostics(totals),
        )
    ):
        share = np.nanmean(features[lo:hi]) if hi > lo else float("nan")
        share = 0.0 if np.isnan(share) else float(share)
        phases.append(
            Phase(
                index=idx,
                first_sample=lo,
                last_sample=hi - 1,
                t_start=t0,
                t_end=t1,
                strided_share=share,
                diagnostics=diagnostics,
                label=_label(share),
            )
        )
    return phases
