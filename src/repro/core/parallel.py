"""Parallel sharded analysis engine over the analysis-pass framework.

The paper's analysis stage (SS:IV-V) is embarrassingly parallel across
trace windows: footprint is a set cardinality, captures/survivals a
saturating per-block count, the reuse histogram an integer tally that
resets at sample boundaries, and heatmaps are matrix sums. This module
exploits that with :meth:`ParallelEngine.analyze_many` (and
:meth:`ParallelEngine.analyze`, its one-source form), which, per source,

1. **looks up** every requested pass in the persistent
   :class:`~repro.core.artifacts.ArtifactStore` (whole-trace partials,
   then a verified-prefix incremental scan for a trace that extends
   one already analyzed; every trace is addressed by its health
   record);
2. **streams** whatever is still missing as one lazy stream of
   sample-aligned ``(offset, events, sample_id)`` chunks, whatever the
   source (:func:`plan_shards` cuts in-memory events, an archive
   streams its own chunks) — a chunk never splits a sample, so
   intra-sample computations are unaffected by the cut, and a trace
   without sample ids, being one sample, is one chunk;
3. **fans out** one :func:`~repro.core.passes.scan_chunk` call per
   chunk across a ``concurrent.futures`` process pool, at most
   ``2 * workers`` in flight across all sources — each chunk is
   published into a named shared-memory segment of its own
   (:mod:`repro.core.shm`), released once its partials fold, and a
   worker maps it zero-copy for its scan only, so only a tiny
   :class:`~repro.core.shm.ShardRef` crosses the pipe (the pickled
   slices are the automatic fallback when publishing fails); every
   scheduled pass reads the same per-chunk intermediates (block ids,
   class masks, reuse distances); and
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
  assigns to its events (a trace without sample ids is one sample and
  one shard); all tallies are integers and integer addition is exact.
* *heatmaps* — bin geometry is fixed globally before sharding
  (:func:`repro.core.heatmap.heatmap_request`); count matrices are
  integers, and the ``dsum`` float matrix accumulates integer-valued
  distances far below 2**53, so float addition is exact.
* *hotspots / roi* — per-function counts merge by zero-padded integer
  addition; code ranges by per-function (min, max) folds.
* *derived floats* (``dF``, ``A_est``, mean D, cell means) are computed
  once, from merged integer totals, by the same expressions the serial
  code uses — identical operands, identical results.

The engine reports through one :class:`~repro.obs.Obs` handle, its
``obs`` argument. Per-stage wall-clock and throughput land in the
handle's stage timers (surfaced by ``memgaze report --stats``),
including a ``pass:<name>`` stage per scheduled pass. With a journal,
the engine journals its in-memory shard plans, merges and archive
analyses, and pool workers journal their own ``shard-analyzed`` lines
directly (the handle pickles down to the journal's path and its bound
fields). With a registry, the engine counts shards (every chunk the
scan pulls, from memory or an archive), events, merges, and
artifact-cache hits/misses (``passes.artifact_hits`` /
``passes.artifact_misses``) and fills the ``parallel.shard_events``
histogram; the zero-copy handoff adds ``shm.*`` counters and journal
lines (segment publish/release, so a leaked segment is visible as a
counter imbalance); ``memgaze report --journal/--metrics`` exports
both. Without them the handle's null forms do nothing.
"""

from __future__ import annotations

import collections
import itertools
import time
from collections.abc import Iterator
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.artifacts import MISS, ArtifactStore
from repro.core.passes import (
    CapturesPartial,
    DiagnosticsPartial,
    ResolvedRequest,
    RunContext,
    finalize_schedule,
    get_pass,
    merge_partial_lists,
    scan_chunk,
    schedule_passes,
)
from repro.core.shm import AttachedShard, ShardRef, SharedSlab, publish_shard
from repro.obs.handle import Obs
from repro.trace.compress import trace_counts

__all__ = [
    "plan_shards",
    "DiagnosticsPartial",
    "CapturesPartial",
    "ParallelEngine",
    "Analysis",
]

#: below this many events an in-memory scan runs inline — pool overhead
#: would dominate any gain.
_MIN_PARALLEL_EVENTS = 16_384
#: shards per worker when no explicit chunk size is given (load balance).
_CHUNKS_PER_WORKER = 4
#: events per chunk when the engine sets no chunk size (a pooled
#: in-memory scan sizes its own shards instead).
_ARCHIVE_CHUNK = 1 << 20


# -- shard planning -----------------------------------------------------------


def plan_shards(
    n: int, sample_id: np.ndarray | None = None, *, chunk_size: int
) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into contiguous shards that never cut a sample.

    Shards hold about ``chunk_size`` events; with ``sample_id`` given,
    each cut is moved forward to the next sample boundary so every
    sample lands whole in one shard.
    """
    if n <= 0:
        return []
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")

    if sample_id is None:
        cuts = list(range(0, n, chunk_size)) + [n]
        return list(zip(cuts[:-1], cuts[1:]))

    if len(sample_id) != n:
        raise ValueError("sample_id length must match events")
    if n <= chunk_size:
        return [(0, n)]
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


def scan_chunk_shm(ref: ShardRef, specs, obs: Obs, offset: int = 0):
    """Worker entry for the zero-copy path: attach, scan, unmap.

    The attached views alias the parent's pages; ``scan_chunk`` and the
    passes it runs never mutate their input, and partials own their
    buffers (a requirement the pickle handoff imposed all along), so
    the mapping closes before the result is pickled back.
    """
    with AttachedShard(ref) as shard:
        return scan_chunk(shard.events, shard.sample_id, specs, obs, offset)


# -- analysis sources ---------------------------------------------------------


@dataclass
class _Source:
    """What :meth:`ParallelEngine.analyze` reads, normalised.

    In-memory sources carry ``events``; archive sources carry ``path``,
    the archive's one open :class:`~repro.trace.tracefile.TraceReader`
    and its metadata. With a store, either kind carries the health
    record that addresses it and the record's digest; a source with a
    digest is cached.
    """

    events: np.ndarray | None = None
    sample_id: np.ndarray | None = None
    path: object = None
    reader: object = None
    meta: object = None
    health: dict | None = None
    digest: str | None = None

    @property
    def sid_present(self) -> bool:
        """Whether the record stores sample ids (the trace can be extended)."""
        return self.health is not None and self.health.get("sample_id_crc") is not None


@dataclass
class _Fold:
    """Merged partials of one scan plus what the scan saw."""

    merged: list | None = None
    n_events: int = 0
    last_sid: int | None = None
    n_partials: int = 0
    merge_seconds: float = 0.0


@dataclass
class _Scan:
    """One source's way through :meth:`ParallelEngine.analyze_many`.

    The lookup fills ``merged`` with store hits and plans a lazy
    ``jobs`` stream of ``(offset, events, sample_id)`` chunks for the
    ``missing`` passes (``None`` when the store served every pass); the
    shared fold then fills ``fold``.
    """

    src: _Source
    scheduled: list
    merged: list
    t0: float
    cached_names: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    specs: list | None = None
    jobs: Iterator | None = None
    pooled: bool = False
    #: the chunk stream under ``jobs``, closed with it
    chunks: Iterator | None = None
    #: cached prefix partials and their event count (incremental scans)
    prior: list | None = None
    skipped: int = 0
    fold: _Fold = field(default_factory=_Fold)

    def close(self) -> None:
        """Close the streams, then the archive they read."""
        for stream in (self.jobs, self.chunks, self.src.reader):
            if stream is not None:
                stream.close()


# -- the engine ---------------------------------------------------------------


class ParallelEngine:
    """Scheduler-aware shard-map-merge executor for the analysis passes.

    ``workers <= 1`` runs the identical shard+merge path inline (useful
    for testing the merge operators and as the no-pool fallback);
    ``workers > 1`` fans shards out over a process pool. Either way the
    output is bit-identical to the serial functions in
    :mod:`repro.core.metrics` / :mod:`repro.core.reuse` /
    :mod:`repro.core.heatmap` / :mod:`repro.core.hotspot`.

    ``obs`` defaults to a fresh :class:`~repro.obs.Obs`, so every engine
    built without one keeps its own stage timers.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: int | None = None,
        *,
        store: "ArtifactStore | None" = None,
        obs: Obs | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        #: optional persistent ArtifactStore — merged pass partials are
        #: read from and written to it whenever a source carries a
        #: usable health record; None keeps the engine purely in-memory
        self.store = store
        self.obs = Obs() if obs is None else obs
        self._pool: Executor | None = None

    # -- lifecycle --

    def _executor(self) -> Executor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=max(1, self.workers))
            # fork start method: every worker forks at the first submit, which
            # must precede any publish, or workers inherit its mapping for life
            self._pool.submit(int)
        return self._pool

    def start(self) -> None:
        """Fork the worker pool now instead of at the first pooled scan.

        A caller that runs its own threads beside later scans (serve
        ingest publishes on one) starts the pool first, so no fork
        copies a process with a second thread alive. Inline engines
        have no pool and return at once.
        """
        if self.workers > 1:
            self._executor()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the entry points --

    def analyze(
        self,
        source,
        requests,
        *,
        rho: float | None = None,
        fn_names: dict[int, str] | None = None,
    ) -> "Analysis":
        """Run any set of registered passes over a trace in one fused scan.

        ``source`` is either an in-memory ``(events, sample_id, health)``
        triple or the path of a trace archive, which is streamed chunk
        by chunk and never materialized. ``health``, the arrays' health
        record (as :func:`~repro.trace.tracefile.read_trace` returns it
        with them) or ``None``, addresses them in the store; any other
        type raises :class:`TypeError`, and a record whose ``n_events``
        is not ``len(events)`` addresses nothing. ``requests`` is what
        :func:`repro.core.passes.schedule_passes` accepts: pass names or
        ``(name, params)`` pairs; dependencies are pulled in and ordered
        automatically.

        Every pass goes through one lookup chain, whatever the source: a
        whole-trace partial in the engine's store (by the digest of the
        source's health record), then — for a trace that *extends* a
        previously analyzed one — a scan of only the appended tail
        merged against the cached prefix partials, then one fused scan
        for whatever is still missing. Freshly computed partials are
        written back. Results are bit-identical whichever step served
        them.

        ``rho`` defaults to 1.0 for in-memory sources; an archive's rho and
        counts follow :func:`~repro.trace.compress.trace_counts` (the
        diagnostics pass is added when not requested).
        ``fn_names`` defaults to the archive's stored names.

        Both kinds of source reach the scan as one stream of
        sample-aligned chunks. The reuse histogram resets at sample
        boundaries, and a trace without sample ids is one sample: it is
        scanned as one chunk, from memory or from an archive alike.

        This is :meth:`analyze_many` over one item.
        """
        return self.analyze_many([(source, requests)], rho=rho, fn_names=fn_names)[0]

    def analyze_many(
        self,
        items,
        *,
        rho: float | None = None,
        fn_names: dict[int, str] | None = None,
    ) -> "list[Analysis]":
        """:meth:`analyze` every ``(source, requests)`` pair, sharing the pool.

        Each source runs the lookup chain of :meth:`analyze`, which
        plans a lazy stream of chunk jobs for whatever the store did not
        serve. One fold consumes the streams in item order: the
        ``2 * workers`` in-flight bound spans sources, so with a pool a
        source's jobs are submitted while the previous source's are
        still running. Each source's partials merge in its own job
        order; once its last job has folded, its partials and state are
        stored and it is finalized and journaled as :meth:`analyze`
        does, so results come back in item order and equal separate
        :meth:`analyze` calls. ``Analysis.seconds`` is each source's own
        span from lookup to finalize; pooled, spans overlap.

        Inline (``workers <= 1``) a source is finished before the next
        is looked up. Pooled, a source may be looked up before an
        earlier one has stored its partials, so a batch that lists one
        trace twice, or a trace and its extension, can scan the later
        one in full where separate calls would hit the store — the
        results are the same, only ``mode`` differs.
        """
        analyses: list[Analysis] = []
        self._fold(
            (self._lookup(source, requests, rho) for source, requests in items),
            lambda scan: analyses.append(self._finish(scan, rho, fn_names)),
        )
        return analyses

    def _lookup(self, source, requests, rho) -> "_Scan":
        """Run a source's lookup chain, planning (not yet reading) its scan.

        Step 1 serves whole-trace partials from the store; for the rest,
        step 2 plans an incremental tail scan or step 3 a full scan, as
        a lazy job stream the fold consumes.
        """
        t0 = time.perf_counter()
        scheduled = schedule_passes(requests)
        if isinstance(source, tuple):
            events, sample_id, health = source
            if not isinstance(health, (dict, type(None))):
                raise TypeError(f"key must be a health record or None, not {type(health)}")
            src = _Source(events=events, sample_id=sample_id)
            if self.store is not None and health and health.get("n_events") == len(events):
                src.health = health
                src.digest = ArtifactStore.digest_health(health)
        else:
            src = _Source(path=source)
            if all(r.name != "diagnostics" for r in scheduled):
                # an archive's counts and rho are derived from the diagnostics partial
                scheduled = schedule_passes([*scheduled, "diagnostics"])

        scan = _Scan(src=src, scheduled=scheduled, merged=[None] * len(scheduled), t0=t0)
        try:
            if src.path is not None:
                self._open_archive(src)
            # 1. whole-trace partials already in the store
            for i, r in enumerate(scheduled):
                if src.digest is not None:
                    hit = self.store.get_partial(src.digest, r.name, r.params)
                    if hit is not MISS:
                        scan.merged[i] = hit
                        scan.cached_names.append(r.name)
            scan.missing = [i for i, v in enumerate(scan.merged) if v is None]
            if not scan.missing:  # served whole from the store; nothing is read
                scan.fold = _Fold(n_events=int(src.health["n_events"]))
                return scan
            sub = [scheduled[i] for i in scan.missing]
            scan.specs = [r.spec for r in sub]
            # 2. verified-prefix incremental scan, 3. full scan
            if not self._incremental(scan, sub):
                scan.chunks = self._chunks(scan)
                scan.jobs = self._chunk_jobs(scan.chunks)
        except BaseException:
            scan.close()  # the archive it opened, too
            raise
        return scan

    def _finish(self, scan: "_Scan", rho, fn_names) -> "Analysis":
        """Store what a source's scan computed, then finalize and journal it."""
        src, scheduled, merged, fold = scan.src, scan.scheduled, scan.merged, scan.fold
        if scan.jobs is None:
            mode = "cached"
        else:
            if scan.prior is not None:
                fold.merged = (
                    scan.prior
                    if fold.merged is None
                    else merge_partial_lists(scan.prior, fold.merged, scan.specs)
                )
                fold.n_events += scan.skipped
                self.obs.counter("cache.incremental_scans").inc()
            mode = "incremental" if scan.prior is not None else "full"
            scanned = fold.merged
            if scanned is None:  # nothing to scan: every partial is the identity
                scanned = [
                    get_pass(scheduled[i].name).init(scheduled[i].params) for i in scan.missing
                ]
            # persist what was just computed (and the trace's state, so a
            # future extended trace can match this one as its prefix)
            keep = src.digest is not None
            if keep and fold.n_events != int(src.health["n_events"]):
                # record and events come from one open: the record is faulty
                keep = False
                self.obs.warning(
                    "health record does not describe the archive's events; "
                    "results are not cached",
                    path=str(src.path),
                    n_events=fold.n_events,
                    record_n_events=int(src.health["n_events"]),
                )
            for i, partial in zip(scan.missing, scanned):
                merged[i] = partial
            if keep:
                # one eviction pass for the whole analysis, not one per entry
                with self.store.batch():
                    for i, partial in zip(scan.missing, scanned):
                        r = scheduled[i]
                        self.store.put_partial(src.digest, r.name, r.params, partial)
                    if src.sid_present and fold.last_sid is not None:
                        self.store.put_state(src.digest, src.health, fold.last_sid)

        counts = (0, 0)
        if src.path is not None:  # explicit rho and fn_names win over the archive's
            diag = merged[[r.name for r in scheduled].index("diagnostics")]
            implied = diag.a_obs + diag.n_suppressed
            *counts, derived = trace_counts(src.meta, implied, src.reader.sample_id)
            rho = derived if rho is None else rho
            if fn_names is None:
                fn_names = {int(k): v for k, v in src.meta.extra.get("fn_names", {}).items()}
        rho = 1.0 if rho is None else rho
        results = finalize_schedule(
            scheduled, merged, RunContext(rho=rho, fn_names=fn_names or {})
        )
        seconds = time.perf_counter() - scan.t0
        if src.path is not None:
            self._finish_archive(scan, mode, rho, seconds)
        return Analysis(
            results=results,
            meta=src.meta,
            n_events=fold.n_events,
            rho=rho,
            n_samples=counts[0],
            n_loads_total=counts[1],
            digest=src.digest,
            mode=mode,
            skipped_events=scan.skipped,
            seconds=seconds,
        )

    # -- sources --

    def _open_archive(self, src: _Source) -> None:
        """Open an archive source's one reader: its metadata, and with a
        store its health record + digest. The scan streams the chunks
        from the same reader, and :meth:`_Scan.close` closes it."""
        from repro.trace.tracefile import TraceReader

        src.reader = TraceReader(src.path)
        src.meta = src.reader.meta()
        if self.store is not None:
            src.health = src.reader.health()
            if src.health is not None:
                src.digest = ArtifactStore.digest_health(src.health)
            else:
                self.obs.warning(
                    "archive has no usable health record; analysis cache disabled",
                    path=str(src.path),
                )

    def _stream_chunk(self) -> int:
        """Events per chunk, unless a pooled in-memory scan sizes its own."""
        return self.chunk_size or _ARCHIVE_CHUNK

    def _chunks(self, scan: "_Scan", skip=None) -> Iterator:
        """The source as one lazy stream of sample-aligned ``(events, sample_id)`` chunks.

        The stream starts after the ``skip.n_events`` records of a
        verified cached prefix (a :class:`~repro.trace.tracefile.PrefixSkip`),
        or at the first record without one, and decides whether the scan
        pools. In-memory arrays are cut by :meth:`_plan`; an archive
        streams its own chunks. A trace without sample ids is one
        sample, so either way it is one chunk.
        """
        src = scan.src
        if src.path is not None:
            scan.pooled = self.workers > 1
            return self._archive_chunks(src.reader, skip)
        base = skip.n_events if skip is not None else 0
        events = src.events[base:]
        sample_id = src.sample_id[base:] if src.sample_id is not None else None
        shards = self._plan(len(events), sample_id)
        scan.pooled = (
            self.workers > 1 and len(shards) > 1 and len(events) >= _MIN_PARALLEL_EVENTS
        )
        return (
            (events[lo:hi], sample_id[lo:hi] if sample_id is not None else None)
            for lo, hi in shards
        )

    def _archive_chunks(self, reader, skip=None):
        """The archive's chunks, streamed; without sample ids, joined into one.

        :meth:`~repro.trace.tracefile.TraceReader.chunks` never splits a
        sample across two chunks. A trace without sample ids is one
        sample, so its chunks are joined into one: O(trace) memory, for
        such archives only.
        """
        chunks = reader.chunks(self._stream_chunk(), obs=self.obs, skip=skip)
        try:
            for ev, sid in chunks:
                if sid is not None:
                    yield ev, sid
                    continue
                rest = [c[0] for c in chunks]
                yield (np.concatenate([ev, *rest]) if rest else ev), None
        finally:
            chunks.close()

    # -- lookup chain steps 2 and 3 --

    def _incremental(self, scan: "_Scan", sub: list[ResolvedRequest]) -> bool:
        """Plan a scan of only the events appended after a cached trace state.

        Applies to traces whose health record extends a stored state
        (:meth:`ArtifactStore.prefix_states`) with every requested
        prefix partial cached. Candidates are tried longest first. Each
        prefix is verified before its cached partials are trusted: the
        stored state's complete CRC chunks equal the record's, and its
        final partial chunk is checksummed again — over the in-memory
        bytes, or while an archive's prefix is streamed past
        (:class:`~repro.trace.tracefile.PrefixSkip`). The check proves
        the prefix *is* the trace that was cached; a candidate that
        fails it is journaled and the next one tried. In-memory arrays
        must also match their own record's final CRC chunk. On success
        ``scan`` holds the tail's jobs plus the prefix partials to merge
        in front of them; ``False`` leaves the caller to plan a full
        scan.
        """
        src = scan.src
        if src.digest is None or not src.sid_present:
            return False
        candidates = self.store.prefix_states(src.health)
        for k, state in enumerate(candidates):
            prior = []
            for r in sub:
                p = self.store.get_partial(state["digest"], r.name, r.params)
                if p is MISS:
                    break
                prior.append(p)
            else:
                try:
                    reason = self._plan_tail(scan, state)
                except (OSError, ValueError):
                    # the archive does not read back, or the arrays are
                    # not their record's: no cached prefix describes them
                    return False
                if reason is None:
                    scan.prior, scan.skipped = prior, int(state["n_events"])
                    return True
                then = (
                    "trying a shorter cached prefix"
                    if k + 1 < len(candidates)
                    else "falling back to a full rescan"
                )
                self.obs.warning(
                    f"incremental re-analysis abandoned: {reason}; {then}",
                    path=str(src.path),
                    state_n_events=int(state["n_events"]),
                )
        return False

    def _plan_tail(self, scan: "_Scan", state: dict) -> str | None:
        """Verify ``state`` as the source's prefix and plan the tail's jobs.

        The prefix is checked over the in-memory bytes, or while the
        archive's prefix is streamed past. Returns why the state is not
        the prefix, or None once ``scan`` holds the tail's jobs; an
        archive that does not read raises.
        """
        from repro.trace.tracefile import PrefixSkip

        src = scan.src
        n = int(state["n_events"])
        skip = PrefixSkip(n_events=n, chunk_events=int(state["chunk_events"]))
        reason = self._memory_prefix_mismatch(src, state) if src.path is None else None
        if reason is not None:
            return reason
        chunks = self._chunks(scan, skip)
        first = next(chunks, None)
        if first is None:
            reason = "no events after the cached prefix"
        elif src.path is not None and (
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
            return reason
        scan.chunks = chunks
        scan.jobs = self._chunk_jobs(itertools.chain([first], chunks), base=n)
        return None

    @staticmethod
    def _memory_prefix_mismatch(src: _Source, state: dict) -> str | None:
        """Why the in-memory prefix is not the stored state's trace, or None.

        The state's complete CRC chunks already equal the source's
        record (that is how it was found). The rest is checksummed over
        the in-memory bytes, each byte once: the state's final partial
        chunk ``[lo, n)``, then the record's final chunk — when the
        state ends inside it, its CRC is ``[lo, n)``'s joined to
        ``[n, N)``'s. Arrays that do not match their own record raise
        :class:`ValueError`: no cached prefix can be trusted for them.
        """
        from repro._util.crc import crc32_combine, crc32_of

        events, sample_id, record = src.events, src.sample_id, src.health
        if sample_id is None:
            raise ValueError("the record lists sample ids the arrays lack")

        def crcs(lo: int, hi: int) -> tuple[int, int]:
            sid = np.asarray(sample_id[lo:hi], dtype=np.int32)
            return crc32_of(events[lo:hi]), crc32_of(sid)

        n, step, total = int(state["n_events"]), int(state["chunk_events"]), len(events)
        lo = n - n % step
        head = crcs(lo, n)
        if lo < n and head != (int(state["events_crc"][-1]), int(state["sample_id_crc"][-1])):
            return "prefix checksums do not match the cached state"
        last_lo = (total - 1) // step * step
        if last_lo == lo:  # the state ends inside the record's last chunk
            ev, sid = crcs(n, total)
            last = (
                crc32_combine(head[0], ev, (total - n) * events.itemsize),
                crc32_combine(head[1], sid, (total - n) * 4),
            )
        else:
            last = crcs(last_lo, total)
        try:
            described = last == (int(record["events_crc"][-1]), int(record["sample_id_crc"][-1]))
        except IndexError as exc:  # a record listing no CRCs
            raise ValueError("unusable health record") from exc
        if not described:
            raise ValueError("the arrays do not match their health record")
        return None

    # -- the shard-map-merge core --

    def _plan(self, n: int, sample_id: np.ndarray | None) -> list[tuple[int, int]]:
        """Cut in-memory arrays into sample-aligned shards.

        Shards hold the engine's chunk size, or ``_ARCHIVE_CHUNK``
        events when it sets none; a pooled engine without one sizes
        ``_CHUNKS_PER_WORKER`` shards per worker. A trace without sample
        ids is one sample, and so one shard.
        """
        with self.obs.timed("plan"):
            if sample_id is None:
                shards = [(0, n)] if n else []
            elif self.chunk_size is None and self.workers > 1:
                size = max(-(-n // (self.workers * _CHUNKS_PER_WORKER)), _MIN_PARALLEL_EVENTS)
                shards = plan_shards(n, sample_id, chunk_size=size)
            else:
                shards = plan_shards(n, sample_id, chunk_size=self._stream_chunk())
        self.obs.counter("parallel.plans").inc()
        self.obs.emit(
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
            with self.obs.timed("publish", items=len(events)):
                return publish_shard(events, sample_id, obs=self.obs)
        except OSError as exc:
            self.obs.counter("shm.publish_failures").inc()
            self.obs.warning(
                f"shared-memory publish failed ({exc}); falling back to "
                "pickled shard handoff for this chunk",
                n_events=len(events),
            )
            return None

    @staticmethod
    def _chunk_jobs(chunks, base: int = 0):
        """``(offset, events, sample_id)`` jobs of a chunk stream whose first
        chunk starts at record ``base`` of the source."""
        offset = base
        for ev, sid in chunks:
            yield offset, ev, sid
            offset += len(ev)

    def _fold(self, scans, finish) -> None:
        """Fold ``scan_chunk`` over every scan's jobs, then ``finish`` each scan.

        ``scans`` is consumed lazily, in order. Each job is ``(offset,
        events, sample_id)``, ``offset`` being the index of its first
        record in the source; every job pulled counts as one shard. An
        inline scan's jobs are scanned here; a pooled scan's are
        submitted as they arrive, with at most ``2 * workers`` in flight
        across all scans. Each pooled chunk is published into a slab of
        its own for the zero-copy worker entry (the slices are pickled
        when publishing fails), and the slab is released once the
        chunk's partials fold. Results fold in submission order, so each
        scan's partials merge in its own job order, and ``finish`` sees
        the scans in order, each once its last job has folded. On any
        error, jobs not yet started are cancelled, every slab still held
        is released and every opened stream closed.
        """
        pool = None
        #: pooled jobs ``(scan, future, slab)`` and, after each scan's
        #: last job, its end marker ``(scan, None, None)``
        queue: collections.deque = collections.deque()
        opened: collections.deque = collections.deque()
        n_jobs = n_events = 0
        scanned = False
        t_start = time.perf_counter()
        outside = 0.0  # lookup and finish time, which is not compute

        def fold(scan: _Scan, result: tuple[list, dict]) -> None:
            partials, stats = result
            out = scan.fold
            self.obs.counter("passes.chunks_scanned").inc()
            self.obs.counter("passes.artifact_hits").inc(stats["artifact_hits"])
            self.obs.counter("passes.artifact_misses").inc(stats["artifact_misses"])
            for name, seconds in stats["pass_seconds"].items():
                self.obs.add(f"pass:{name}", seconds, items=stats["n_events"])
            t = time.perf_counter()
            out.merged = (
                partials
                if out.merged is None
                else merge_partial_lists(out.merged, partials, scan.specs)
            )
            spent = time.perf_counter() - t
            self.obs.add("merge", spent, items=1)
            out.merge_seconds += spent
            out.n_partials += 1

        def pop() -> None:
            nonlocal n_jobs, outside
            scan, fut, slab = queue.popleft()
            if fut is not None:
                n_jobs -= 1
                try:
                    result = fut.result()
                finally:
                    if slab is not None:
                        slab.release()
                fold(scan, result)
                return
            if scan.jobs is not None:
                self._count_scan(scan)
            t = time.perf_counter()
            finish(scan)
            outside += time.perf_counter() - t
            opened.popleft().close()

        try:
            scans = iter(scans)
            while True:
                t = time.perf_counter()
                scan = next(scans, None)
                outside += time.perf_counter() - t
                if scan is None:
                    break
                opened.append(scan)
                out = scan.fold
                if scan.jobs is not None:
                    scanned = True
                    if scan.pooled and pool is None:
                        pool = self._executor()
                    for offset, ev, sid in scan.jobs:
                        out.n_events += len(ev)
                        if sid is not None and len(sid):
                            out.last_sid = int(sid[-1])
                        self.obs.counter("parallel.shards").inc()
                        self.obs.histogram("parallel.shard_events").observe(len(ev))
                        if not scan.pooled:
                            fold(scan, scan_chunk(ev, sid, scan.specs, self.obs, offset))
                            continue
                        slab = self._publish(ev, sid)
                        try:
                            if slab is not None:
                                fut = pool.submit(
                                    scan_chunk_shm, slab.ref, scan.specs, self.obs, offset
                                )
                            else:
                                fut = pool.submit(
                                    scan_chunk, ev, sid, scan.specs, self.obs, offset
                                )
                        except BaseException:
                            if slab is not None:
                                slab.release()
                            raise
                        queue.append((scan, fut, slab))
                        n_jobs += 1
                        self.obs.gauge("parallel.peak_in_flight").set(n_jobs)
                        while n_jobs >= 2 * self.workers:
                            pop()
                    n_events += out.n_events
                queue.append((scan, None, None))
                while queue and queue[0][1] is None:
                    pop()
            while queue:
                pop()
        finally:
            for _, fut, slab in queue:
                if fut is not None:
                    fut.cancel()  # not yet started: its slab goes next
                if slab is not None:
                    slab.release()
            for scan in opened:
                scan.close()
        if scanned:
            self.obs.add("compute", time.perf_counter() - t_start - outside, items=n_events)

    def _count_scan(self, scan: "_Scan") -> None:
        """Count one finished scan and journal its merge."""
        out = scan.fold
        self.obs.counter("parallel.events").inc(out.n_events)
        self.obs.counter(
            "parallel.runs_pooled" if scan.pooled else "parallel.runs_inline"
        ).inc()
        self.obs.counter("parallel.merges").inc(max(0, out.n_partials - 1))
        if out.n_partials:
            self.obs.emit(
                "stage",
                stage="merge",
                n_partials=out.n_partials,
                passes=[name for name, _ in scan.specs],
                seconds=out.merge_seconds,
            )

    # -- archive bookkeeping --

    def _finish_archive(self, scan: _Scan, mode, rho, seconds) -> None:
        """Journal one archive analysis."""
        src, fold = scan.src, scan.fold
        self.obs.emit(
            "stage",
            stage="analyze-file",
            path=str(src.path),
            n_events=fold.n_events,
            rho=rho,
            passes=[r.name for r in scan.scheduled],
            chunk_size=self._stream_chunk(),
            workers=self.workers,
            mode=mode,
            cached_passes=scan.cached_names,
            skipped_events=scan.skipped,
            seconds=seconds,
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
    #: an archive's counts, by :func:`~repro.trace.compress.trace_counts`
    n_samples: int = 0
    n_loads_total: int = 0
    #: digest of the health record the analysis was addressed under
    #: (None when the source has no usable record or no store was
    #: configured)
    digest: str | None = None
    #: how the results were obtained: ``"cached"`` (served whole from
    #: the store), ``"incremental"`` (cached prefix + tail scan), or
    #: ``"full"`` (a scan). The streaming service surfaces this in
    #: ingest acks so clients can see the incremental path working.
    mode: str = "full"
    #: events skipped by the verified-prefix scan in incremental mode
    skipped_events: int = 0
    #: wall time from the source's lookup to its finalize; under
    #: :meth:`ParallelEngine.analyze_many` it overlaps other sources'
    seconds: float = 0.0
