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


def run_matrix(
    spec: CorpusSpec,
    *,
    engine: ParallelEngine | None = None,
    cache_dir=None,
    cache_max_bytes: int | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
    journal=None,
    metrics=None,
) -> CorpusResult:
    """Analyze every cell of ``spec`` and aggregate the results.

    Pass ``engine`` to reuse a configured engine (its store/journal/
    metrics and chunk size win; passing ``chunk_size`` with it is a
    ``ValueError``); otherwise one engine is built from the keyword
    knobs, with a persistent :class:`ArtifactStore` when ``cache_dir`` is
    given. Cells run in spec order; each archive streams through
    :meth:`ParallelEngine.analyze` with the default report pass set
    (:func:`~repro.core.report.report_requests` at the cell's block
    sizes) fused into one scan.
    """
    if engine is not None and chunk_size is not None:
        raise ValueError("run_matrix: pass chunk_size to the engine, not with it")
    if engine is None:
        store = None
        if cache_dir is not None:
            from repro.core.artifacts import DEFAULT_MAX_BYTES, ArtifactStore

            store = ArtifactStore(
                cache_dir,
                max_bytes=(
                    cache_max_bytes if cache_max_bytes is not None else DEFAULT_MAX_BYTES
                ),
                journal=journal,
                metrics=metrics,
            )
        engine = ParallelEngine(
            workers=workers,
            chunk_size=chunk_size,
            store=store,
            journal=journal,
            metrics=metrics,
        )
    else:
        journal = journal if journal is not None else engine.journal
        metrics = metrics if metrics is not None else engine.metrics

    result = CorpusResult(spec=spec)
    t_run = time.perf_counter()
    for cell in spec.cells:
        t0 = time.perf_counter()
        requests = report_requests(cell.block, cell.reuse_block)
        if cell.cache_sweep:
            requests.append(("cache_sweep", {}))
        analysis = engine.analyze(cell.trace, requests)
        seconds = time.perf_counter() - t0
        result.cells[cell.label] = CellResult(
            spec=cell,
            payload=cell_payload(analysis),
            mode=analysis.mode,
            n_events=analysis.n_events,
            skipped_events=analysis.skipped_events,
            seconds=seconds,
            digest=analysis.digest,
        )
        if metrics is not None:
            metrics.counter("matrix.cells").inc()
            metrics.counter(f"matrix.cells_{analysis.mode}").inc()
            metrics.counter("matrix.events").inc(analysis.n_events)
        if journal is not None:
            journal.emit(
                "matrix-cell",
                corpus=spec.name,
                label=cell.label,
                trace=str(cell.trace),
                mode=analysis.mode,
                n_events=analysis.n_events,
                skipped_events=analysis.skipped_events,
                seconds=seconds,
            )
    if journal is not None:
        modes = [r.mode for r in result.cells.values()]
        journal.emit(
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
