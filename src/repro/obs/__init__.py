"""Observability layer: structured run journal + pipeline metrics.

MemGaze's pitch is *rapid* analysis at production trace volumes, which
makes the pipeline itself something to measure. This package provides
the two instruments every stage reports through, and one handle over
them:

* :mod:`repro.obs.journal` — an append-only JSONL **run journal**. Every
  pipeline stage (trace collection, shard planning, per-shard analysis,
  merge, report) emits one self-describing line with timings, item
  counts, and its rho/kappa/window parameters. The writer is
  process-safe (``O_APPEND`` + single-``write`` lines), so the parallel
  engine's pool workers journal directly from their own processes.
* :mod:`repro.obs.metrics` — a **metrics registry** of counters, gauges,
  and power-of-two histograms whose merge operators follow the same
  exactness contracts as the analysis partials in
  :mod:`repro.core.parallel`: integer addition, associative and
  commutative, so per-worker registries fold into one without loss.
* :mod:`repro.obs.handle` — the **handle**, :class:`Obs`, that every
  layer takes as its one ``obs`` argument: journal, registry and stage
  timers together. Without ``--journal`` / ``--metrics`` it journals
  and counts nothing (its null registry hands out one shared no-op
  instrument), so call sites report unconditionally.

``memgaze report --journal PATH --metrics PATH`` turns both on from the
command line; see ``docs/observability.md`` for the schema and catalog.
"""

from repro.obs.handle import NULL_OBS, Obs
from repro.obs.journal import RunJournal, read_journal
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "Obs",
    "NULL_OBS",
    "RunJournal",
    "read_journal",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
