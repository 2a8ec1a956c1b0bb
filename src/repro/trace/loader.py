"""Shared archive loader: eager read with graceful degraded modes.

Both the CLI (``memgaze report`` / ``info`` / ``diff``) and the
streaming service's query path load archives into a
:class:`~repro.trace.collector.CollectionResult` the same way — this
module is that single way, so live query results can be bit-identical
to an offline report over the same bytes.

Three outcomes, in decreasing health:

* **clean** — the normal :func:`~repro.trace.tracefile.read_trace` path
  succeeded; the events in memory are the whole archive.
* **still-growing** — the archive failed the eager read, but every
  recovery finding is tail truncation: exactly what a reader racing a
  writer that has not finished appending sees. The verified prefix is
  analyzed and a single ``still-growing`` warning is journaled — this
  is a *liveness* situation, not corruption.
* **damaged** — recovery found bit-flips or schema problems; the
  verified prefix is analyzed and every finding is journaled
  (:func:`repro.trace.health.recover_read`).

Only an archive with no readable metadata at all raises
:class:`~repro.trace.tracefile.TraceFormatError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.handle import NULL_OBS, Obs
from repro.trace.collector import CollectionResult
from repro.trace.compress import decompress_counts, trace_counts
from repro.trace.health import KIND_TRUNCATION, Finding
from repro.trace.sampler import SamplingConfig
from repro.trace.tracefile import TraceFormatError, TraceMeta, read_trace

__all__ = ["LoadedTrace", "load_trace_collection", "trace_collection"]


@dataclass
class LoadedTrace:
    """An archive loaded for analysis, plus how healthy the load was."""

    collection: CollectionResult
    meta: TraceMeta
    fn_names: dict[int, str]
    #: the sample ratio, by :func:`~repro.trace.compress.trace_counts`
    rho: float = 1.0
    #: True when the eager read succeeded — the events are the whole archive.
    clean: bool = True
    #: True when recovery ran but every finding was tail truncation —
    #: the archive looks like a writer is still appending to it. The
    #: events are the verified prefix.
    growing: bool = False
    #: recovery findings (empty on a clean load)
    findings: list[Finding] = field(default_factory=list)
    #: the health record describing exactly these arrays — the key the
    #: analysis cache addresses them by. Read in the same open as the
    #: events; None when recovery ran (the events are then a prefix the
    #: record does not describe) or the archive has no usable record.
    health: dict | None = None


def load_trace_collection(path, obs: Obs = NULL_OBS) -> LoadedTrace:
    """Load a trace archive, recovering the verified prefix on damage.

    A healthy archive goes through the fast eager read. A damaged one
    falls back to :func:`repro.trace.health.recover_read`: the
    checksum-verified event prefix is returned, and the findings
    classify what was wrong. When *every* finding is truncation, the
    damage is consistent with an archive still being written (a live
    trace collector, a copy in flight): ``growing`` is set and ``obs``
    journals one ``still-growing`` warning instead of treating
    the partial tail as corruption.

    Raises :class:`~repro.trace.tracefile.TraceFormatError` only when
    nothing usable survives.
    """
    clean = True
    growing = False
    findings: list[Finding] = []
    try:
        events, meta, sample_id, health = read_trace(path)
    except (TraceFormatError, OSError, ValueError):
        from repro.trace.health import recover_read

        clean = False
        health = None
        events, meta, sample_id, findings = recover_read(path, obs)
        growing = bool(findings) and all(
            f.kind == KIND_TRUNCATION for f in findings
        )
        if growing:
            obs.warning(
                "archive tail is incomplete but undamaged — it appears to "
                "be still growing; analyzing the verified prefix",
                path=str(path),
                reason="still-growing",
                n_events=len(events),
            )
    return trace_collection(
        events, meta, sample_id, clean=clean, growing=growing, findings=findings, health=health
    )


def trace_collection(events, meta: TraceMeta, sample_id, **status) -> LoadedTrace:
    """The :class:`LoadedTrace` of trace arrays already in memory.

    The one recipe from ``(events, meta, sample_id)`` to a collection:
    :func:`load_trace_collection` applies it to what it read, and the
    streaming service to the arrays a session holds, so a live query
    analyzes exactly what an offline report of the archive would, with the
    counts and rho of :func:`~repro.trace.compress.trace_counts`. A trace
    without sample ids gets all-zero ids (one window). ``status`` passes
    the load fields (``clean`` / ``growing`` / ``findings`` / ``health``) through.
    """
    n_samples, n_loads_total, rho = trace_counts(meta, decompress_counts(events), lambda: sample_id)
    if sample_id is None:
        sample_id = np.zeros(len(events), dtype=np.int32)
    collection = CollectionResult(
        events=events,
        sample_id=sample_id,
        n_samples=n_samples,
        n_loads_total=n_loads_total,
        config=SamplingConfig(
            period=max(1, meta.period), buffer_capacity=max(1, meta.buffer_capacity)
        ),
    )
    fn_names = {int(k): v for k, v in meta.extra.get("fn_names", {}).items()}
    return LoadedTrace(collection, meta, fn_names, rho, **status)
