"""Parallel sharded analysis engine over the analysis-pass framework.

The paper's analysis stage (SS:IV-V) is embarrassingly parallel across
trace windows: footprint is a set cardinality, captures/survivals a
saturating per-block count, the reuse histogram an integer tally that
resets at sample boundaries, and heatmaps are matrix sums. This module
exploits that with one entry point, :meth:`ParallelEngine.analyze`,
which

1. **looks up** every requested pass in the persistent
   :class:`~repro.core.artifacts.ArtifactStore` (whole-trace partials,
   then a verified-prefix incremental scan for an appended archive);
2. **shards** whatever is still missing into sample-aligned chunks
   (:func:`plan_shards` for in-memory events, the archive's own chunks
   for a file — a shard never splits a sample, so intra-sample
   computations are unaffected by the cut);
3. **fans out** one :func:`~repro.core.passes.scan_chunk` call per
   shard across a ``concurrent.futures`` process pool, at most
   ``2 * workers`` in flight — event arrays are published into named
   shared-memory segments (:mod:`repro.core.shm`) and workers attach
   zero-copy, so only a tiny :class:`~repro.core.shm.ShardRef` crosses
   the pipe (the pickled slices are the automatic fallback when
   publishing fails); every scheduled pass reads the same per-chunk
   intermediates (block ids, class masks, reuse distances); and
4. **merges** partials in shard order with each pass's associative
   ``merge`` operator, bit-identical to the serial path.

Exactness argument, per pass:

* *footprint / per-class footprint* — unique block ids are kept as
  sorted ``uint64`` arrays; ``union`` of sorted sets is associative and
  order-independent, so ``|union|`` equals the serial ``np.unique``
  count for any shard split (sample alignment not even required).
* *captures/survivals* — a block's observed count saturates at 2; the
  (once, multi) set pair forms a commutative monoid.
* *reuse histogram* — distances reset at sample boundaries, so a
  sample-aligned shard computes exactly the distances the serial pass
  assigns to its events; all tallies are integers and integer addition
  is exact.
* *heatmaps* — bin geometry is fixed globally before sharding
  (:func:`repro.core.heatmap.heatmap_request`); count matrices are
  integers, and the ``dsum`` float matrix accumulates integer-valued
  distances far below 2**53, so float addition is exact.
* *hotspots / roi* — per-function counts merge by zero-padded integer
  addition; code ranges by per-function (min, max) folds.
* *derived floats* (``dF``, ``A_est``, mean D, cell means) are computed
  once, from merged integer totals, by the same expressions the serial
  code uses — identical operands, identical results.

Per-stage wall-clock and throughput land in a
:class:`~repro._util.timers.StageTimers` (surfaced by ``memgaze report
--stats``), including a ``pass:<name>`` stage per scheduled pass.

Observability is opt-in and zero-cost when off: pass a
:class:`~repro.obs.journal.RunJournal` and the engine journals its
shard plans, merges and archive analyses — pool workers journal their
own ``shard-analyzed`` lines directly (the journal's ``O_APPEND``
writer is process-safe and pickles down to a path). Pass a
:class:`~repro.obs.metrics.MetricsRegistry` and the engine counts
shards, events, merges, and artifact-cache hits/misses
(``passes.artifact_hits`` / ``passes.artifact_misses``) and fills the
``parallel.shard_events`` histogram; the zero-copy handoff adds
``shm.*`` counters and journal lines (segment publish/release, so a
leaked segment is visible as a counter imbalance); ``memgaze report
--journal/--metrics`` exports both.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro._util.timers import StageTimers
from repro.core.artifacts import MISS, ArtifactStore
from repro.core.passes import (
    CapturesPartial,
    DiagnosticsPartial,
    ResolvedRequest,
    RunContext,
    account_scan_stats,
    finalize_schedule,
    get_pass,
    merge_partial_lists,
    scan_chunk,
    schedule_passes,
)
from repro.core.shm import ShardRef, SharedSlab, attach_shard, publish_shard

__all__ = [
    "plan_shards",
    "DiagnosticsPartial",
    "CapturesPartial",
    "ParallelEngine",
    "Analysis",
]

#: below this many events a single shard is used — pool overhead would
#: dominate any gain.
_MIN_PARALLEL_EVENTS = 16_384
#: shards per worker when no explicit chunk size is given (load balance).
_CHUNKS_PER_WORKER = 4
#: events per streamed archive chunk when neither the engine nor the
#: call sets a chunk size.
_ARCHIVE_CHUNK = 1 << 20


# -- shard planning -----------------------------------------------------------


def plan_shards(
    n: int,
    sample_id: np.ndarray | None = None,
    *,
    n_shards: int | None = None,
    chunk_size: int | None = None,
) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into contiguous shards that never cut a sample.

    Exactly one of ``n_shards`` / ``chunk_size`` picks the target shard
    size; with ``sample_id`` given, each cut is moved forward to the next
    sample boundary so every sample lands whole in one shard.
    """
    if n_shards is None and chunk_size is None:
        raise ValueError("pass n_shards or chunk_size")
    if n_shards is not None and chunk_size is not None:
        raise ValueError("pass only one of n_shards / chunk_size")
    if n <= 0:
        return []
    if chunk_size is None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be > 0, got {n_shards}")
        chunk_size = -(-n // n_shards)  # ceil
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")

    if sample_id is None:
        cuts = list(range(0, n, chunk_size)) + [n]
        return list(zip(cuts[:-1], cuts[1:]))

    if len(sample_id) != n:
        raise ValueError("sample_id length must match events")
    # sample start indices (always includes 0)
    starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(np.asarray(sample_id))) + 1, [n]]
    ).astype(np.int64)
    shards: list[tuple[int, int]] = []
    lo = 0
    while lo < n:
        target = lo + chunk_size
        if target >= n:
            hi = n
        else:
            # first sample boundary at or after the target; a sample
            # longer than chunk_size lands whole in one oversized shard
            hi = int(starts[np.searchsorted(starts, target, side="left")])
        shards.append((lo, hi))
        lo = hi
    return shards


def scan_chunk_shm(ref: ShardRef, specs, journal):
    """Worker entry for the zero-copy path: attach, then scan as usual.

    The attached views alias the parent's pages; ``scan_chunk`` and the
    passes it runs never mutate their input, and partials own their
    buffers (a requirement the pickle handoff imposed all along), so the
    mapping can rotate out of the attachment cache once the scan
    returns.
    """
    events, sid = attach_shard(ref)
    return scan_chunk(events, sid, specs, journal)


# -- analysis sources ---------------------------------------------------------


@dataclass
class _Source:
    """What :meth:`ParallelEngine.analyze` reads, normalised.

    In-memory sources carry ``events``; archive sources carry ``path``
    plus the metadata and (with a store) the health record that
    addresses them.
    """

    events: np.ndarray | None = None
    sample_id: np.ndarray | None = None
    path: object = None
    meta: object = None
    health: dict | None = None
    digest: str | None = None

    @property
    def sid_present(self) -> bool:
        """Whether the trace carries sample ids (reuse windows can be cut)."""
        if self.path is None:
            return self.sample_id is not None
        return self.health is not None and self.health.get("sample_id_crc") is not None

    def cacheable(self, name: str) -> bool:
        """Whether a pass's whole-trace partial may be stored and served.

        Archive chunks without sample ids cut reuse windows at chunk
        edges, so such chunk-scoped partials vary with the chunk size —
        they are never persisted and never read back.
        """
        return self.digest is not None and (
            self.path is None
            or self.sid_present
            or not get_pass(name).whole_without_samples
        )


@dataclass
class _Fold:
    """Merged partials of one scan plus what the scan saw."""

    merged: list | None = None
    n_events: int = 0
    last_sid: int | None = None
    sid_seen: bool = False
    #: prefix events served from the store instead (incremental scans)
    skipped: int = 0


# -- the engine ---------------------------------------------------------------


class ParallelEngine:
    """Scheduler-aware shard-map-merge executor for the analysis passes.

    ``workers <= 1`` runs the identical shard+merge path inline (useful
    for testing the merge operators and as the no-pool fallback);
    ``workers > 1`` fans shards out over a process pool. Either way the
    output is bit-identical to the serial functions in
    :mod:`repro.core.metrics` / :mod:`repro.core.reuse` /
    :mod:`repro.core.heatmap` / :mod:`repro.core.hotspot`.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        *,
        store: "ArtifactStore | None" = None,
        timers: StageTimers | None = None,
        journal=None,
        metrics=None,
    ) -> None:
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        self.chunk_size = chunk_size
        #: optional persistent ArtifactStore — merged pass partials are
        #: read from and written to it whenever a source carries a
        #: content digest; None keeps the engine purely in-memory
        self.store = store
        self.timers = timers if timers is not None else StageTimers()
        #: optional RunJournal — shard plans, merges and per-shard worker
        #: lines are journaled when set (None = no journaling at all)
        self.journal = journal
        #: optional MetricsRegistry — pipeline counters/histograms land
        #: here when set (None = no metric accounting at all)
        self.metrics = metrics
        self._pool: Executor | None = None

    # -- lifecycle --

    def _executor(self) -> Executor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=max(1, self.workers))
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the one entry point --

    def analyze(
        self,
        source,
        requests,
        *,
        rho: float | None = None,
        fn_names: dict[int, str] | None = None,
    ) -> "Analysis":
        """Run any set of registered passes over a trace in one fused scan.

        ``source`` is either an in-memory ``(events, sample_id, digest)``
        triple — ``digest`` being the content digest of exactly those
        arrays (:meth:`ArtifactStore.digest_events` /
        :meth:`ArtifactStore.archive_digest`) or ``None`` — or the path
        of a trace archive, which is streamed chunk by chunk and never
        materialized. ``requests`` is what
        :func:`repro.core.passes.schedule_passes` accepts: pass names or
        ``(name, params)`` pairs; dependencies are pulled in and ordered
        automatically.

        Every pass goes through one lookup chain: a whole-trace partial
        in the engine's store (by the source digest; an archive is
        addressed by its health record), then — for an archive that
        *extends* a previously analyzed trace — a scan of only the
        appended tail merged against the cached prefix partials, then
        one fused scan for whatever is still missing. Freshly computed
        partials are written back. Results are bit-identical whichever
        step served them.

        ``rho`` defaults to 1.0 for in-memory sources; for an archive it
        is derived from the metadata's load count and the diagnostics
        partial (the diagnostics pass is added when not requested).
        ``fn_names`` defaults to the archive's stored names.

        The reuse histogram resets at sample boundaries. In memory,
        a trace without sample ids is one window and is scanned as a
        single shard; an archive without them makes each chunk its own
        window — the histogram is then marked ``scope="chunk"``, a
        journal warning records the degradation, and such partials are
        never persisted (they vary with the chunk size).
        """
        t0 = time.perf_counter()
        scheduled = schedule_passes(requests)
        if isinstance(source, tuple):
            events, sample_id, digest = source
            src = _Source(
                events=events,
                sample_id=sample_id,
                digest=digest if self.store is not None else None,
            )
        else:
            src = self._open_archive(source)
            if rho is None and all(r.name != "diagnostics" for r in scheduled):
                # an archive's rho is derived from the diagnostics partial
                scheduled = schedule_passes([*scheduled, "diagnostics"])

        # 1. whole-trace partials already in the store
        merged: list = [None] * len(scheduled)
        cached_names: list[str] = []
        for i, r in enumerate(scheduled):
            if src.cacheable(r.name):
                hit = self.store.get_partial(src.digest, r.name, r.params)
                if hit is not MISS:
                    merged[i] = hit
                    cached_names.append(r.name)
        missing = [i for i, v in enumerate(merged) if v is None]

        if not missing:  # served whole from the store; nothing is read
            mode = "cached"
            n = len(src.events) if src.path is None else int(src.health["n_events"])
            fold = _Fold(n_events=n, sid_seen=src.sid_present)
        else:
            sub = [scheduled[i] for i in missing]
            # 2. verified-prefix incremental scan, 3. full scan
            fold = self._incremental(src, sub) or self._full_scan(src, sub)
            mode = "incremental" if fold.skipped else "full"
            scanned = fold.merged
            if scanned is None:  # nothing to scan: every partial is the identity
                scanned = [get_pass(r.name).init(r.params) for r in sub]
            # persist what was just computed (and an archive's state, so
            # a future appended archive can match this one as its prefix)
            for i, partial in zip(missing, scanned):
                r = scheduled[i]
                merged[i] = partial
                if src.cacheable(r.name):
                    self.store.put_partial(src.digest, r.name, r.params, partial)
            if src.path is not None and src.digest is not None and (
                src.sid_present and fold.last_sid is not None
            ):
                self.store.put_state(src.digest, src.health, fold.last_sid)

        if src.path is not None:
            rho, fn_names = self._archive_context(src, scheduled, merged, rho, fn_names)
        rho = 1.0 if rho is None else rho
        results = finalize_schedule(
            scheduled, merged, RunContext(rho=rho, fn_names=fn_names or {})
        )
        if src.path is not None:
            self._finish_archive(src, scheduled, results, fold, mode, cached_names, rho, t0)
        return Analysis(
            results=results,
            meta=src.meta,
            n_events=fold.n_events,
            rho=rho,
            digest=src.digest,
            mode=mode,
            skipped_events=fold.skipped,
        )

    # -- sources --

    def _open_archive(self, path) -> _Source:
        """Archive source: metadata always, health + digest with a store."""
        from repro.trace.tracefile import read_trace_health, read_trace_meta

        src = _Source(path=path, meta=read_trace_meta(path))
        if self.store is not None:
            src.health = read_trace_health(path)
            if src.health is not None:
                src.digest = ArtifactStore.digest_health(src.health)
            if src.digest is None and self.journal is not None:
                self.journal.warning(
                    "archive has no usable health record; analysis cache disabled",
                    path=str(path),
                )
        return src

    def _archive_chunk_size(self) -> int:
        return self.chunk_size or _ARCHIVE_CHUNK

    def _archive_chunks(self, path, skip=None):
        from repro.trace.tracefile import iter_trace_chunks

        return iter_trace_chunks(
            path,
            chunk_size=self._archive_chunk_size(),
            metrics=self.metrics,
            journal=self.journal,
            skip=skip,
        )

    # -- lookup chain steps 2 and 3 --

    def _incremental(self, src: _Source, sub: list[ResolvedRequest]):
        """Scan only the events appended after a cached trace state.

        Applies to archives whose health record extends a stored state
        (:meth:`ArtifactStore.find_prefix_state`) with every requested
        prefix partial cached. The skipped prefix is checksummed while
        it is read (:class:`~repro.trace.tracefile.PrefixSkip`) and its
        CRCs are verified against the stored state before the cached
        partials are trusted: the entry proves the skipped bytes *are*
        the trace that was cached. Returns ``None`` — with a journaled
        warning when a candidate was rejected — so the caller falls back
        to a full scan.
        """
        if src.health is None or src.digest is None or not src.sid_present:
            return None
        state = self.store.find_prefix_state(src.health)
        if state is None:
            return None
        prior = []
        for r in sub:
            p = self.store.get_partial(state["digest"], r.name, r.params)
            if p is MISS:
                return None
            prior.append(p)

        from repro.trace.tracefile import PrefixSkip

        skip = PrefixSkip(
            n_events=int(state["n_events"]), chunk_events=int(state["chunk_events"])
        )
        chunks = self._archive_chunks(src.path, skip=skip)
        try:
            first = next(chunks, None)
        except (OSError, ValueError):
            return None
        reason = None
        if first is None:
            reason = "no events after the cached prefix"
        elif (
            skip.events_crc != [int(c) for c in state["events_crc"]]
            or skip.sample_id_crc != [int(c) for c in state["sample_id_crc"]]
        ):
            reason = "prefix checksums do not match the cached state"
        elif first[1] is None or len(first[1]) == 0:
            reason = "appended tail has no sample ids"
        elif int(first[1][0]) == state["last_sample_id"]:
            reason = "appended tail continues the prefix's last sample"
        if reason is not None:
            chunks.close()
            if self.journal is not None:
                self.journal.warning(
                    f"incremental re-analysis abandoned: {reason}; "
                    "falling back to a full rescan",
                    path=str(src.path),
                    state_n_events=int(state["n_events"]),
                )
            return None
        specs = [r.spec for r in sub]
        tail = self._fold(
            self._chunk_jobs(itertools.chain([first], chunks)), specs, pooled=self.workers > 1
        )
        tail.merged = (
            prior if tail.merged is None else merge_partial_lists(prior, tail.merged, specs)
        )
        tail.skipped = int(state["n_events"])
        tail.n_events += tail.skipped
        tail.sid_seen = True
        if self.metrics is not None:
            self.metrics.counter("cache.incremental_scans").inc()
        return tail

    def _full_scan(self, src: _Source, sub: list[ResolvedRequest]) -> _Fold:
        """One fused scan of every pass in ``sub`` over the whole source."""
        specs = [r.spec for r in sub]
        if src.path is not None:
            return self._fold(
                self._chunk_jobs(self._archive_chunks(src.path)),
                specs,
                pooled=self.workers > 1,
            )
        events, sample_id = src.events, src.sample_id
        n = len(events)
        # cross-event state with no sample boundaries to cut at: one shard
        whole = sample_id is None and any(
            get_pass(r.name).whole_without_samples for r in sub
        )
        shards = [(0, n)] if (whole and n) else self._plan(n, sample_id)
        pooled = self.workers > 1 and len(shards) > 1 and n >= _MIN_PARALLEL_EVENTS
        # the arrays are published once; every shard is a view of that slab
        slab = self._publish(events, sample_id) if pooled else None
        try:
            return self._fold(
                (
                    (
                        events[lo:hi],
                        sample_id[lo:hi] if sample_id is not None else None,
                        slab.ref(lo, hi) if slab is not None else None,
                        None,
                    )
                    for lo, hi in shards
                ),
                specs,
                pooled=pooled,
            )
        finally:
            if slab is not None:
                slab.release()

    # -- the shard-map-merge core --

    def _plan(self, n: int, sample_id: np.ndarray | None) -> list[tuple[int, int]]:
        with self.timers.stage("plan"):
            if self.workers <= 1 and self.chunk_size is None:
                shards = [(0, n)] if n else []
            elif self.chunk_size is not None:
                shards = plan_shards(n, sample_id, chunk_size=self.chunk_size)
            else:
                size = max(
                    -(-n // (max(1, self.workers) * _CHUNKS_PER_WORKER)),
                    _MIN_PARALLEL_EVENTS,
                )
                shards = plan_shards(n, sample_id, chunk_size=size)
        if self.metrics is not None:
            self.metrics.counter("parallel.plans").inc()
            self.metrics.counter("parallel.shards").inc(len(shards))
            h = self.metrics.histogram("parallel.shard_events")
            for lo, hi in shards:
                h.observe(hi - lo)
        if self.journal is not None:
            self.journal.emit(
                "stage",
                stage="shard-plan",
                n_events=n,
                n_shards=len(shards),
                workers=self.workers,
                chunk_size=self.chunk_size,
            )
        return shards

    def _publish(
        self, events: np.ndarray, sample_id: np.ndarray | None
    ) -> "SharedSlab | None":
        """Publish arrays for zero-copy workers; None = use the pickle path.

        Shared memory being unavailable (exhausted ``/dev/shm``, an
        exotic platform) downgrades the handoff with a journaled warning
        rather than failing the scan.
        """
        try:
            with self.timers.stage("publish", items=len(events)):
                return publish_shard(
                    events, sample_id, journal=self.journal, metrics=self.metrics
                )
        except OSError as exc:
            if self.metrics is not None:
                self.metrics.counter("shm.publish_failures").inc()
            if self.journal is not None:
                self.journal.warning(
                    f"shared-memory publish failed ({exc}); falling back to "
                    "pickled shard handoff for this scan",
                    n_events=len(events),
                )
            return None

    def _chunk_jobs(self, chunks):
        """Fold jobs for streamed ``(events, sample_id)`` chunks.

        With a pool, each chunk rides its own short-lived slab, released
        as soon as its partials fold — peak shared memory stays bounded
        by the chunks in flight.
        """
        for ev, sid in chunks:
            slab = self._publish(ev, sid) if self.workers > 1 else None
            yield ev, sid, (slab.ref(0, len(ev)) if slab is not None else None), slab

    def _fold(self, jobs, specs, *, pooled: bool) -> _Fold:
        """Fold ``scan_chunk`` over jobs, merging partials in job order.

        Each job is ``(events, sample_id, shard ref or None, slab to
        release or None)``. Inline, jobs are scanned one by one; pooled,
        they are submitted as they arrive with at most ``2 * workers``
        in flight — a ref goes to the zero-copy worker entry, otherwise
        the slices are pickled.
        """
        out = _Fold()
        pool = self._executor() if pooled else None
        in_flight: list = []
        n_partials = 0
        merge_seconds = 0.0

        def fold(result: tuple[list, dict]) -> None:
            nonlocal n_partials, merge_seconds
            partials, stats = result
            account_scan_stats(stats, metrics=self.metrics, timers=self.timers)
            t = time.perf_counter()
            with self.timers.stage("merge", items=1):
                out.merged = (
                    partials
                    if out.merged is None
                    else merge_partial_lists(out.merged, partials, specs)
                )
            merge_seconds += time.perf_counter() - t
            n_partials += 1

        def fold_next() -> None:
            fut, slab = in_flight.pop(0)
            try:
                result = fut.result()
            finally:
                if slab is not None:
                    slab.release()
            fold(result)

        t_scan = time.perf_counter()
        try:
            for ev, sid, ref, slab in jobs:
                out.n_events += len(ev)
                if sid is not None and len(sid):
                    out.sid_seen = True
                    out.last_sid = int(sid[-1])
                if pool is None:
                    fold(scan_chunk(ev, sid, specs, self.journal))
                    continue
                if ref is not None:
                    fut = pool.submit(scan_chunk_shm, ref, specs, self.journal)
                else:
                    fut = pool.submit(scan_chunk, ev, sid, specs, self.journal)
                in_flight.append((fut, slab))
                if self.metrics is not None:
                    self.metrics.gauge("parallel.peak_in_flight").set(len(in_flight))
                while len(in_flight) >= 2 * self.workers:
                    fold_next()
            while in_flight:
                fold_next()
        finally:
            for _, slab in in_flight:
                if slab is not None:
                    slab.release()
        self.timers.add("compute", time.perf_counter() - t_scan, items=out.n_events)
        if self.metrics is not None:
            self.metrics.counter("parallel.events").inc(out.n_events)
            self.metrics.counter(
                "parallel.runs_pooled" if pooled else "parallel.runs_inline"
            ).inc()
            self.metrics.counter("parallel.merges").inc(max(0, n_partials - 1))
        if self.journal is not None and n_partials:
            self.journal.emit(
                "stage",
                stage="merge",
                n_partials=n_partials,
                passes=[name for name, _ in specs],
                seconds=merge_seconds,
            )
        return out

    # -- archive bookkeeping --

    @staticmethod
    def _archive_context(src: _Source, scheduled, merged, rho, fn_names):
        """(rho, fn_names) of an archive: explicit values win over stored ones."""
        if rho is None:
            diag = merged[[r.name for r in scheduled].index("diagnostics")]
            implied = diag.a_obs + diag.n_suppressed
            rho = max((src.meta.n_loads_total / implied) if implied else 1.0, 1.0)
        if fn_names is None:
            stored = (getattr(src.meta, "extra", None) or {}).get("fn_names", {})
            fn_names = {int(k): v for k, v in stored.items()}
        return rho, fn_names

    def _finish_archive(self, src, scheduled, results, fold, mode, cached_names, rho, t0):
        """Mark chunk-scoped reuse, journal the degradation and the analysis."""
        degraded = fold.n_events > 0 and not fold.sid_seen
        if "reuse" in results:
            results["reuse"].scope = "chunk" if degraded else "sample"
        if self.journal is None:
            return
        size = self._archive_chunk_size()
        if degraded:
            self.journal.warning(
                "archive stores no sample ids: reuse windows are "
                "chunk-delimited and results depend on chunk_size",
                path=str(src.path),
                chunk_size=size,
                reuse_scope="chunk",
            )
        self.journal.emit(
            "stage",
            stage="analyze-file",
            path=str(src.path),
            n_events=fold.n_events,
            rho=rho,
            passes=[r.name for r in scheduled],
            chunk_size=size,
            workers=self.workers,
            mode=mode,
            cached_passes=cached_names,
            skipped_events=fold.skipped,
            seconds=time.perf_counter() - t0,
        )


@dataclass
class Analysis:
    """What :meth:`ParallelEngine.analyze` returns."""

    #: every scheduled pass's finalized result (dependencies included),
    #: keyed by pass name
    results: dict
    #: the archive's :class:`~repro.trace.tracefile.TraceMeta`; None for
    #: in-memory sources
    meta: object
    n_events: int
    rho: float
    #: content digest the analysis was addressed under (None when the
    #: source has no usable digest or no store was configured)
    digest: str | None = None
    #: how the results were obtained: ``"cached"`` (served whole from
    #: the store), ``"incremental"`` (cached prefix + tail scan), or
    #: ``"full"`` (a scan). The streaming service surfaces this in
    #: ingest acks so clients can see the incremental path working.
    mode: str = "full"
    #: events skipped by the verified-prefix scan in incremental mode
    skipped_events: int = 0
