"""Fleet-scale matrix runner: every corpus cell through one engine.

Runs a :class:`~repro.core.corpus.CorpusSpec` grid through
:class:`~repro.core.parallel.ParallelEngine` / the content-addressed
:class:`~repro.core.artifacts.ArtifactStore`: a cold run scans each
archive once, a warm run serves whole cells from the cache without
touching event bytes (``mode="cached"``), and an appended archive
rescans only its tail (``mode="incremental"``). Cell payloads are pure
content, so warm and cold corpus payloads are byte-identical — the
cache can never change a verdict.

Observability: every cell emits a ``matrix-cell`` journal line (label,
mode, events, seconds) and the run ends with a ``matrix-run`` summary;
the ``matrix.*`` counters mirror them (see docs/observability.md).
"""

from __future__ import annotations

import time

from repro.core.corpus import CellResult, CorpusResult, CorpusSpec, cell_payload
from repro.core.parallel import ParallelEngine
from repro.core.report import report_requests

__all__ = ["run_matrix"]


def run_matrix(spec: CorpusSpec, *, engine: ParallelEngine | None = None) -> CorpusResult:
    """Analyze every cell of ``spec`` through ``engine`` and aggregate the results.

    The engine's store, ``obs``, workers and chunk size apply to every
    cell; without one, an in-process single-worker engine with no store
    runs them. All cells go through one
    :meth:`ParallelEngine.analyze_many` call with the default report
    pass set (:func:`~repro.core.report.report_requests` at the cell's
    block sizes) fused into one scan per archive, so a pooled engine
    keeps every worker busy across cells. Results and ``matrix-cell``
    lines come in spec order; a cell's ``seconds`` is its own span from
    lookup to finalize, overlapping the other cells'.
    """
    engine = engine or ParallelEngine()
    obs = engine.obs

    result = CorpusResult(spec=spec)
    t_run = time.perf_counter()
    items = []
    for cell in spec.cells:
        requests = report_requests(cell.block, cell.reuse_block)
        if cell.cache_sweep:
            requests.append(("cache_sweep", {}))
        items.append((cell.trace, requests))
    for cell, analysis in zip(spec.cells, engine.analyze_many(items)):
        result.cells[cell.label] = CellResult(
            spec=cell,
            payload=cell_payload(analysis),
            mode=analysis.mode,
            n_events=analysis.n_events,
            skipped_events=analysis.skipped_events,
            seconds=analysis.seconds,
            digest=analysis.digest,
        )
        obs.counter("matrix.cells").inc()
        obs.counter(f"matrix.cells_{analysis.mode}").inc()
        obs.counter("matrix.events").inc(analysis.n_events)
        obs.emit(
            "matrix-cell",
            corpus=spec.name,
            label=cell.label,
            trace=str(cell.trace),
            mode=analysis.mode,
            n_events=analysis.n_events,
            skipped_events=analysis.skipped_events,
            seconds=analysis.seconds,
        )
    modes = [r.mode for r in result.cells.values()]
    obs.emit(
        "matrix-run",
        corpus=spec.name,
        baseline=spec.baseline,
        n_cells=len(result.cells),
        n_cached=modes.count("cached"),
        n_incremental=modes.count("incremental"),
        n_full=modes.count("full"),
        seconds=time.perf_counter() - t_run,
    )
    return result
