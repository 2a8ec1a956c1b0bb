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
2. **shards** whatever is still missing into sample-aligned chunks
   (:func:`plan_shards` for in-memory events, the archive's own chunks
   for a file — a shard never splits a sample, so intra-sample
   computations are unaffected by the cut);
3. **fans out** one :func:`~repro.core.passes.scan_chunk` call per
   shard across a ``concurrent.futures`` process pool, at most
   ``2 * workers`` in flight across all sources — event arrays are
   published into named shared-memory segments (:mod:`repro.core.shm`)
   and workers attach zero-copy, so only a tiny
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

The engine reports through one :class:`~repro.obs.Obs` handle, its
``obs`` argument. Per-stage wall-clock and throughput land in the
handle's stage timers (surfaced by ``memgaze report --stats``),
including a ``pass:<name>`` stage per scheduled pass. With a journal,
the engine journals its shard plans, merges and archive analyses, and
pool workers journal their own ``shard-analyzed`` lines directly (the
handle pickles down to the journal's path and its bound fields). With
a registry, the engine counts shards, events, merges, and
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
from repro.core.shm import ShardRef, SharedSlab, attach_shard, publish_shard
from repro.obs.handle import Obs

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
    """Worker entry for the zero-copy path: attach, then scan as usual.

    The attached views alias the parent's pages; ``scan_chunk`` and the
    passes it runs never mutate their input, and partials own their
    buffers (a requirement the pickle handoff imposed all along), so the
    mapping can rotate out of the attachment cache once the scan
    returns.
    """
    events, sid = attach_shard(ref)
    return scan_chunk(events, sid, specs, obs, offset)


# -- analysis sources ---------------------------------------------------------


@dataclass
class _Source:
    """What :meth:`ParallelEngine.analyze` reads, normalised.

    In-memory sources carry ``events``; archive sources carry ``path``
    plus the metadata. With a store, either kind carries the health
    record that addresses it and the record's digest.
    """

    events: np.ndarray | None = None
    sample_id: np.ndarray | None = None
    path: object = None
    meta: object = None
    health: dict | None = None
    digest: str | None = None

    @property
    def sid_present(self) -> bool:
        """Whether the record stores sample ids (reuse windows can be cut)."""
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
    n_partials: int = 0
    merge_seconds: float = 0.0


@dataclass
class _Scan:
    """One source's way through :meth:`ParallelEngine.analyze_many`.

    The lookup fills ``merged`` with store hits and plans a lazy
    ``jobs`` stream for the ``missing`` passes (``None`` when the store
    served every pass); the shared fold then fills ``fold``.
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
    #: the archive chunk stream under ``jobs``, closed with it
    chunks: Iterator | None = None
    #: cached prefix partials and their event count (incremental scans)
    prior: list | None = None
    skipped: int = 0
    fold: _Fold = field(default_factory=_Fold)

    def close(self) -> None:
        """Close the streams, releasing anything they hold but never handed out."""
        for stream in (self.jobs, self.chunks):
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
            src = self._open_archive(source)
            if rho is None and all(r.name != "diagnostics" for r in scheduled):
                # an archive's rho is derived from the diagnostics partial
                scheduled = schedule_passes([*scheduled, "diagnostics"])

        # 1. whole-trace partials already in the store
        scan = _Scan(src=src, scheduled=scheduled, merged=[None] * len(scheduled), t0=t0)
        for i, r in enumerate(scheduled):
            if src.cacheable(r.name):
                hit = self.store.get_partial(src.digest, r.name, r.params)
                if hit is not MISS:
                    scan.merged[i] = hit
                    scan.cached_names.append(r.name)
        scan.missing = [i for i, v in enumerate(scan.merged) if v is None]
        if not scan.missing:  # served whole from the store; nothing is read
            scan.fold = _Fold(n_events=int(src.health["n_events"]), sid_seen=src.sid_present)
            return scan
        sub = [scheduled[i] for i in scan.missing]
        scan.specs = [r.spec for r in sub]
        # 2. verified-prefix incremental scan, 3. full scan
        if not self._incremental(scan, sub):
            self._full_scan(scan, sub)
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
                fold.sid_seen = True
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
                # the archive was replaced after _open_archive read its record
                keep = False
                self.obs.warning(
                    "archive changed while it was analyzed; results are not cached",
                    path=str(src.path),
                    n_events=fold.n_events,
                )
            for i, partial in zip(scan.missing, scanned):
                r = scheduled[i]
                merged[i] = partial
                if keep and src.cacheable(r.name):
                    self.store.put_partial(src.digest, r.name, r.params, partial)
            if keep and src.sid_present and fold.last_sid is not None:
                self.store.put_state(src.digest, src.health, fold.last_sid)

        if src.path is not None:
            rho, fn_names = self._archive_context(src, scheduled, merged, rho, fn_names)
        rho = 1.0 if rho is None else rho
        results = finalize_schedule(
            scheduled, merged, RunContext(rho=rho, fn_names=fn_names or {})
        )
        seconds = time.perf_counter() - scan.t0
        if src.path is not None:
            self._finish_archive(scan, results, mode, rho, seconds)
        return Analysis(
            results=results,
            meta=src.meta,
            n_events=fold.n_events,
            rho=rho,
            digest=src.digest,
            mode=mode,
            skipped_events=scan.skipped,
            seconds=seconds,
        )

    # -- sources --

    def _open_archive(self, path) -> _Source:
        """Archive source: metadata always, health + digest with a store.

        Meta and health are read in opens of their own, before the chunk
        stream opens the archive again. When a writer replaces the
        archive in between and the scan counts other than the record's
        ``n_events``, nothing is stored under the record; a rewrite that
        keeps the length between the opens stays undetected.
        """
        from repro.trace.tracefile import read_trace_health, read_trace_meta

        src = _Source(path=path, meta=read_trace_meta(path))
        if self.store is not None:
            src.health = read_trace_health(path)
            if src.health is not None:
                src.digest = ArtifactStore.digest_health(src.health)
            if src.digest is None:
                self.obs.warning(
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
            obs=self.obs,
            skip=skip,
        )

    # -- lookup chain steps 2 and 3 --

    @staticmethod
    def _describes(health: dict, events, sample_id) -> bool:
        """Whether a record with sample ids can be these arrays' record.

        Checked before a cached prefix is merged in: the arrays carry
        sample ids, and the record's newest CRC chunk — where appended
        events land — re-checksums over the in-memory bytes.
        """
        from repro._util.crc import crc32_of

        if sample_id is None:
            return False
        try:
            step = int(health["chunk_events"])
            lo = (len(events) - 1) // step * step
            return crc32_of(events[lo:]) == int(health["events_crc"][-1]) and crc32_of(
                np.asarray(sample_id[lo:], dtype=np.int32)
            ) == int(health["sample_id_crc"][-1])
        except (KeyError, TypeError, ValueError, IndexError):
            return False

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
        fails it is journaled and the next one tried. On success
        ``scan`` holds the tail's jobs plus the prefix partials to merge
        in front of them; ``False`` leaves the caller to plan a full
        scan.
        """
        src = scan.src
        if src.digest is None or not src.sid_present:
            return False
        if src.path is None and not self._describes(src.health, src.events, src.sample_id):
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
                    reason = self._plan_tail(scan, sub, state)
                except (OSError, ValueError):  # the archive does not read back
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

    def _plan_tail(self, scan: "_Scan", sub: list[ResolvedRequest], state: dict) -> str | None:
        """Verify ``state`` as the source's prefix and plan the tail's jobs.

        Returns why the state is not the prefix, or None once ``scan``
        holds the tail's jobs; an archive that does not read raises.
        """
        src = scan.src
        n = int(state["n_events"])
        if src.path is None:
            reason = self._memory_prefix_mismatch(src, state)
            first_sid = int(src.sample_id[n])
        else:
            from repro.trace.tracefile import PrefixSkip

            skip = PrefixSkip(n_events=n, chunk_events=int(state["chunk_events"]))
            chunks = self._archive_chunks(src.path, skip=skip)
            first = next(chunks, None)
            reason = first_sid = None
            if first is None:
                reason = "no events after the cached prefix"
            elif (
                skip.events_crc != [int(c) for c in state["events_crc"]]
                or skip.sample_id_crc != [int(c) for c in state["sample_id_crc"]]
            ):
                reason = "prefix checksums do not match the cached state"
            elif first[1] is None or len(first[1]) == 0:
                reason = "appended tail has no sample ids"
            else:
                first_sid = int(first[1][0])
        if reason is None and first_sid == state["last_sample_id"]:
            reason = "appended tail continues the prefix's last sample"
        if reason is not None:
            if src.path is not None:
                chunks.close()
            return reason
        if src.path is None:
            self._plan_arrays(scan, src.events[n:], src.sample_id[n:], sub, base=n)
        else:
            scan.chunks = chunks
            scan.jobs = self._chunk_jobs(itertools.chain([first], chunks), base=n)
            scan.pooled = self.workers > 1
        return None

    @staticmethod
    def _memory_prefix_mismatch(src: _Source, state: dict) -> str | None:
        """Why the in-memory prefix is not the stored state's trace, or None.

        The state's complete CRC chunks already equal the source's
        record (that is how it was found); a final partial chunk is
        checksummed over the in-memory bytes here.
        """
        from repro._util.crc import crc32_of

        n, step = int(state["n_events"]), int(state["chunk_events"])
        lo = n - n % step
        if lo < n:
            sid = np.asarray(src.sample_id[lo:n], dtype=np.int32)
            if (
                crc32_of(src.events[lo:n]) != int(state["events_crc"][-1])
                or crc32_of(sid) != int(state["sample_id_crc"][-1])
            ):
                return "prefix checksums do not match the cached state"
        return None

    def _full_scan(self, scan: "_Scan", sub: list[ResolvedRequest]) -> None:
        """Plan one fused scan of every pass in ``sub`` over the whole source."""
        src = scan.src
        if src.path is None:
            self._plan_arrays(scan, src.events, src.sample_id, sub)
            return
        scan.chunks = self._archive_chunks(src.path)
        scan.jobs = self._chunk_jobs(scan.chunks)
        scan.pooled = self.workers > 1

    def _plan_arrays(
        self, scan: "_Scan", events, sample_id, sub: list[ResolvedRequest], base: int = 0
    ) -> None:
        """Shard in-memory arrays, the source's records from ``base`` on, into
        ``scan``'s job stream."""
        n = len(events)
        # cross-event state with no sample boundaries to cut at: one shard
        whole = sample_id is None and any(
            get_pass(r.name).whole_without_samples for r in sub
        )
        shards = [(0, n)] if (whole and n) else self._plan(n, sample_id)
        scan.pooled = self.workers > 1 and len(shards) > 1 and n >= _MIN_PARALLEL_EVENTS
        scan.jobs = self._shard_jobs(events, sample_id, shards, scan.pooled, base)

    def _shard_jobs(self, events, sample_id, shards, pooled: bool, base: int):
        """Fold jobs for in-memory shards of the source's records from ``base`` on.

        Pooled, the arrays are published once, when the first job is
        pulled, and every shard is a view of that slab. The last shard's
        job carries the slab: jobs fold in submission order, so it is
        released once every shard has folded.
        """
        slab = self._publish(events, sample_id) if pooled else None
        handed = False
        try:
            for k, (lo, hi) in enumerate(shards):
                handed = k == len(shards) - 1
                yield (
                    base + lo,
                    events[lo:hi],
                    sample_id[lo:hi] if sample_id is not None else None,
                    slab.ref(lo, hi) if slab is not None else None,
                    slab if handed else None,
                )
        finally:
            if slab is not None and not handed:
                slab.release()

    # -- the shard-map-merge core --

    def _plan(self, n: int, sample_id: np.ndarray | None) -> list[tuple[int, int]]:
        with self.obs.timed("plan"):
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
        self.obs.counter("parallel.plans").inc()
        self.obs.counter("parallel.shards").inc(len(shards))
        h = self.obs.histogram("parallel.shard_events")
        for lo, hi in shards:
            h.observe(hi - lo)
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
                "pickled shard handoff for this scan",
                n_events=len(events),
            )
            return None

    def _chunk_jobs(self, chunks, base: int = 0):
        """Fold jobs for streamed ``(events, sample_id)`` chunks, the first
        starting at record ``base`` of the source.

        With a pool, each chunk rides its own short-lived slab, released
        as soon as its partials fold — peak shared memory stays bounded
        by the chunks in flight.
        """
        offset = base
        for ev, sid in chunks:
            slab = self._publish(ev, sid) if self.workers > 1 else None
            yield offset, ev, sid, (slab.ref(0, len(ev)) if slab is not None else None), slab
            offset += len(ev)

    def _fold(self, scans, finish) -> None:
        """Fold ``scan_chunk`` over every scan's jobs, then ``finish`` each scan.

        ``scans`` is consumed lazily, in order. Each job is ``(offset,
        events, sample_id, shard ref or None, slab to release or None)``,
        ``offset`` being the index of its first record in the source. An
        inline scan's jobs are scanned here; a pooled scan's are
        submitted as they arrive, with at most ``2 * workers`` in flight
        across all scans — a ref goes to the zero-copy worker entry,
        otherwise the slices are pickled. Results fold in submission
        order, so each scan's partials merge in its own job order, and
        ``finish`` sees the scans in order, each once its last job has
        folded. On any error, jobs not yet started are cancelled, every
        slab still held is released and every opened stream closed.
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
            with self.obs.timed("merge", items=1):
                out.merged = (
                    partials
                    if out.merged is None
                    else merge_partial_lists(out.merged, partials, scan.specs)
                )
            out.merge_seconds += time.perf_counter() - t
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
            opened.popleft()
            if scan.jobs is not None:
                self._count_scan(scan)
            t = time.perf_counter()
            finish(scan)
            outside += time.perf_counter() - t

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
                    for offset, ev, sid, ref, slab in scan.jobs:
                        out.n_events += len(ev)
                        if sid is not None and len(sid):
                            out.sid_seen = True
                            out.last_sid = int(sid[-1])
                        if not scan.pooled:
                            fold(scan, scan_chunk(ev, sid, scan.specs, self.obs, offset))
                            continue
                        try:
                            if ref is not None:
                                fut = pool.submit(
                                    scan_chunk_shm, ref, scan.specs, self.obs, offset
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

    def _finish_archive(self, scan: _Scan, results, mode, rho, seconds) -> None:
        """Mark chunk-scoped reuse, journal the degradation and the analysis."""
        src, fold = scan.src, scan.fold
        degraded = fold.n_events > 0 and not fold.sid_seen
        if "reuse" in results:
            results["reuse"].scope = "chunk" if degraded else "sample"
        size = self._archive_chunk_size()
        if degraded:
            self.obs.warning(
                "archive stores no sample ids: reuse windows are "
                "chunk-delimited and results depend on chunk_size",
                path=str(src.path),
                chunk_size=size,
                reuse_scope="chunk",
            )
        self.obs.emit(
            "stage",
            stage="analyze-file",
            path=str(src.path),
            n_events=fold.n_events,
            rho=rho,
            passes=[r.name for r in scan.scheduled],
            chunk_size=size,
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
