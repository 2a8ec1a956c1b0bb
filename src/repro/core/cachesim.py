"""Set-associative LRU cache model over event streams.

The paper's future work: "Using models of different memory systems, we
can obtain insight into memory system performance ... with respect to
data location, data movement, and workload accesses." This module is that
first model — a classic set-associative LRU cache driven by a trace,
reporting hit ratios overall, per load class, and per address region.

It doubles as an internal validator: reuse distance D predicts cache
behaviour (an access hits a fully-associative LRU cache of capacity C
iff D < C blocks), which ``tests/core/test_cachesim.py`` checks against
the analytical metrics.

That same equivalence powers the vectorised kernel: each cache set is
an independent fully-associative LRU over its own access substream, so
a stable reorder of the trace by set index turns the simulation into
one batched stack-distance sweep (:func:`repro.core.reuse.stack_distances`
with windows = sets) and ``hit iff 0 <= D < ways`` — no per-event
Python loop. The equivalence breaks when the next-line prefetcher is
on (prefetches install *below* the MRU slot, which plain stack
distance cannot express), so prefetching configurations run the
per-event loop — the only path that models prefetch, and the
reference the test suite checks the vector kernel against. Both paths
produce identical :class:`CacheStats` — down to dict insertion order —
for any non-prefetching configuration (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util.validate import check_power_of_two
from repro.core.reuse import stack_distances
from repro.trace.event import EVENT_DTYPE, LoadClass

__all__ = [
    "CacheConfig",
    "CacheStats",
    "simulate_cache",
    "CacheSweepRow",
    "SweepPartial",
    "sweep_configs",
    "sweep_update",
    "sweep_merge",
    "sweep_finalize",
    "HierarchyConfig",
    "HierarchyStats",
    "simulate_hierarchy",
]

_NO_PREFETCH = (
    "the vector cache kernel cannot model prefetch_next_line (prefetches "
    "install below the MRU slot)"
)


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry and prefetch policy.

    ``prefetch_next_line`` models the hardware stream prefetcher in its
    simplest form: every demand miss also installs the next line. This is
    the mechanism behind the paper's premise that Strided accesses are
    "prefetchable" while Irregular ones are not.
    """

    size_bytes: int = 32 * 1024
    line_bytes: int = 64
    ways: int = 8
    prefetch_next_line: bool = False

    def __post_init__(self) -> None:
        for name in ("size_bytes", "line_bytes", "ways"):
            v = getattr(self, name)
            if v <= 0:
                raise ValueError(f"{name} must be > 0, got {v}")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ValueError("size must be a multiple of line_bytes * ways")

    @property
    def n_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass
class CacheStats:
    """Outcome of one simulation."""

    config: CacheConfig
    n_accesses: int = 0
    n_hits: int = 0
    hits_by_class: dict[LoadClass, int] = field(default_factory=dict)
    accesses_by_class: dict[LoadClass, int] = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        """Overall hit ratio."""
        return self.n_hits / self.n_accesses if self.n_accesses else 0.0

    def class_hit_ratio(self, cls: LoadClass) -> float:
        """Hit ratio for one load class."""
        a = self.accesses_by_class.get(cls, 0)
        return self.hits_by_class.get(cls, 0) / a if a else 0.0


def _fold_class_counts(
    cls_vals: np.ndarray, positions: np.ndarray, extras: np.ndarray
) -> dict[LoadClass, int]:
    """Per-class totals, keyed in the insertion order the reference
    per-event loop produces (first occurrence in the stream; suppressed-
    constant extras count as a Constant occurrence *after* their
    carrier record's own class), so the vector path's dicts are
    indistinguishable from the loop's even under repr comparison."""
    entries: dict[LoadClass, list] = {}
    if len(cls_vals):
        uniq, first, counts = np.unique(cls_vals, return_index=True, return_counts=True)
        for u, f, c in zip(uniq, first, counts):
            entries[LoadClass(int(u))] = [(int(positions[f]), 0), int(c)]
    extra_total = int(extras.sum()) if len(extras) else 0
    if extra_total:
        key = (int(np.flatnonzero(extras)[0]), 1)
        cur = entries.get(LoadClass.CONSTANT)
        if cur is None:
            entries[LoadClass.CONSTANT] = [key, extra_total]
        else:
            entries[LoadClass.CONSTANT] = [min(cur[0], key), cur[1] + extra_total]
    ordered = sorted(entries.items(), key=lambda kv: kv[1][0])
    return {k: v[1] for k, v in ordered}


def _set_local_hits(lines: np.ndarray, config: CacheConfig) -> np.ndarray:
    """Per-access hit mask of one LRU level, via batched stack distance.

    A stable reorder by set index makes each set's substream contiguous;
    each set is then an independent fully-associative LRU of ``ways``
    lines, where an access hits iff fewer than ``ways`` distinct lines
    were touched since its previous access to the same line.
    """
    sets = lines % np.uint64(config.n_sets)
    perm = np.argsort(sets, kind="stable")
    d = stack_distances(lines[perm], sets[perm])
    hit = np.empty(len(lines), dtype=bool)
    hit[perm] = (d >= 0) & (d < config.ways)
    return hit


def _simulate_cache_vector(events: np.ndarray, config: CacheConfig) -> CacheStats:
    """Vectorised simulation (non-prefetching configurations)."""
    if config.prefetch_next_line:
        raise ValueError(_NO_PREFETCH)
    n = len(events)
    stats = CacheStats(config=config)
    lines = events["addr"] // np.uint64(config.line_bytes)
    hit = _set_local_hits(lines, config)
    n_const = events["n_const"]
    classes = events["cls"]
    extra_total = int(n_const.sum()) if n else 0
    stats.n_accesses = n + extra_total
    stats.n_hits = int(hit.sum()) + extra_total
    stats.accesses_by_class = _fold_class_counts(
        classes, np.arange(n, dtype=np.int64), n_const
    )
    hit_pos = np.flatnonzero(hit)
    stats.hits_by_class = _fold_class_counts(classes[hit_pos], hit_pos, n_const)
    return stats


def simulate_cache(
    events: np.ndarray,
    config: CacheConfig | None = None,
) -> CacheStats:
    """Drive a set-associative LRU cache with ``events``.

    Constant-class records are simulated too (they hit essentially
    always, modelling the paper's 'one unit of space' view); suppressed
    constants carried on proxies are counted as guaranteed hits.

    Runs the vectorised stack-distance kernel unless the configuration
    prefetches; prefetching runs the per-event loop. Both produce
    identical results wherever both apply.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    config = config or CacheConfig()
    if config.prefetch_next_line:
        return _simulate_cache_python(events, config)
    return _simulate_cache_vector(events, config)


def _simulate_cache_python(events: np.ndarray, config: CacheConfig) -> CacheStats:
    """Per-event loop: models prefetch, and is the vector kernel's reference."""
    stats = CacheStats(config=config)
    n_sets = config.n_sets

    lines = events["addr"] // config.line_bytes
    sets = (lines % n_sets).astype(np.int64)
    classes = events["cls"]
    n_const = events["n_const"]

    # per-set LRU as an ordered list of line tags (small ways -> list ops fine)
    cache: list[list[int]] = [[] for _ in range(n_sets)]
    ways = config.ways

    prefetch = config.prefetch_next_line
    for line, s, cls_v, extra in zip(lines, sets, classes, n_const):
        line = int(line)
        cls = LoadClass(int(cls_v))
        set_lines = cache[s]
        stats.n_accesses += 1
        stats.accesses_by_class[cls] = stats.accesses_by_class.get(cls, 0) + 1
        try:
            set_lines.remove(line)
            hit = True
        except ValueError:
            hit = False
        set_lines.append(line)
        if len(set_lines) > ways:
            set_lines.pop(0)
        if prefetch:
            # a streamer follows every access: install the next line so a
            # unit-stride walk only ever misses its first line
            nxt = line + 1
            nset = cache[nxt % n_sets]
            if nxt not in nset:
                nset.insert(max(0, len(nset) - 1), nxt)  # below MRU
                if len(nset) > ways:
                    nset.pop(0)
        if hit:
            stats.n_hits += 1
            stats.hits_by_class[cls] = stats.hits_by_class.get(cls, 0) + 1
        if extra:
            # suppressed Constant loads: frame scalars, always resident
            k = int(extra)
            stats.n_accesses += k
            stats.n_hits += k
            stats.accesses_by_class[LoadClass.CONSTANT] = (
                stats.accesses_by_class.get(LoadClass.CONSTANT, 0) + k
            )
            stats.hits_by_class[LoadClass.CONSTANT] = (
                stats.hits_by_class.get(LoadClass.CONSTANT, 0) + k
            )
    return stats


# --------------------------------------------------------------------
# What-if sweeps: many configurations, one fused scan
# --------------------------------------------------------------------
#
# A sweep evaluates a whole grid of cache geometries over one trace.
# Two facts make it cheap and shardable:
#
# 1. Configurations that share (line_bytes, n_sets) share the expensive
#    part of the vector kernel verbatim — the set-stable reorder and the
#    batched stack-distance sweep. Associativity only changes the
#    threshold (hit iff 0 <= D < ways), so a whole ways-axis costs one
#    extra comparison per access, not one extra kernel run. The
#    reuse-distance *prediction* is the n_sets == 1 member of the same
#    family (hit iff D < capacity lines), so it rides the same machinery.
#
# 2. The per-(line_bytes, n_sets) state is an exact mergeable partial.
#    Within a chunk every access whose previous same-line access is also
#    in the chunk has its true distance, so it is resolved on the spot.
#    The only unresolved accesses are each set's *first* touches of a
#    line — and for those, hit/miss only needs distances up to the
#    largest threshold ``cap``. Each set therefore carries three
#    cap-bounded summaries: the distinct lines in first-touch order
#    (``firsts``), the distinct lines in recency order (``stacks``), and
#    the pending first touches (``boundary``, each with the size of its
#    preceding distinct-line prefix). Merging an earlier partial A with
#    a later partial B resolves B's pending touches against A's recency
#    stack exactly; anything deeper than ``cap`` is a certain miss for
#    every threshold, which is why the truncation loses nothing. The
#    merge is associative with the empty state as identity, and — like
#    the engine's fold order — strictly left-to-right in stream order.


class _GroupState:
    """Mergeable sweep state for one (line_bytes, n_sets) group."""

    __slots__ = ("n_sets", "thresholds", "cap", "hits", "hits_by_class",
                 "stacks", "firsts", "boundary")

    def __init__(self, n_sets: int, thresholds: tuple[int, ...]) -> None:
        self.n_sets = n_sets
        self.thresholds = thresholds  # sorted ascending
        self.cap = thresholds[-1]
        self.hits = np.zeros(len(thresholds), dtype=np.int64)
        self.hits_by_class = np.zeros((len(thresholds), 3), dtype=np.int64)
        self.stacks: dict[int, list[int]] = {}   # set -> lines, MRU first, <= cap
        self.firsts: dict[int, list[int]] = {}   # set -> lines, first-touch order, <= cap
        # set -> [(line, cls, plen)]: pending first touches; the distinct
        # lines seen before each one are exactly firsts[set][:plen]
        self.boundary: dict[int, list[tuple[int, int, int]]] = {}


def _group_update(st: _GroupState, lines: np.ndarray, cls: np.ndarray) -> None:
    """Fold one chunk's accesses into a fresh (identity) group state."""
    n = len(lines)
    if n == 0:
        return
    if st.n_sets == 1:
        ls, ss, cs = lines, np.zeros(n, dtype=np.uint64), cls
    else:
        sets = lines % np.uint64(st.n_sets)
        perm = np.argsort(sets, kind="stable")
        ls, ss, cs = lines[perm], sets[perm], cls[perm]
    d = stack_distances(ls, ss)
    reused = d >= 0
    n_th = len(st.thresholds)
    # one searchsorted replaces a per-threshold masking pass: an access
    # at hidx hits every threshold from hidx on (thresholds are sorted)
    hidx = np.searchsorted(st.thresholds, d[reused], side="right")
    ok = hidx < n_th
    st.hits += np.cumsum(np.bincount(hidx[ok], minlength=n_th))
    st.hits_by_class += np.cumsum(
        np.bincount(
            hidx[ok] * 3 + cs[reused][ok].astype(np.int64), minlength=3 * n_th
        ).reshape(n_th, 3),
        axis=0,
    )
    cold = ~reused
    cap = st.cap
    starts = np.flatnonzero(np.r_[True, ss[1:] != ss[:-1]])
    bounds = np.r_[starts, n]
    for a, b in zip(bounds[:-1], bounds[1:]):
        s = int(ss[a])
        sub = ls[a:b]
        subcold = cold[a:b]
        fl = [int(x) for x in sub[subcold][:cap]]
        subcls = cs[a:b][subcold]
        st.firsts[s] = fl
        st.boundary[s] = [(fl[j], int(subcls[j]), j) for j in range(len(fl))]
        # MRU-first distinct lines: last occurrences, most recent first
        rev = sub[::-1]
        _, first_idx = np.unique(rev, return_index=True)
        first_idx.sort()
        st.stacks[s] = rev[first_idx[:cap]].tolist()


def _resolve_boundary(
    st: _GroupState,
    astack_len: int,
    apos: dict[int, int],
    af_len: int,
    afset: set[int],
    bf: list[int],
    bbound: list[tuple[int, int, int]],
) -> list[tuple[int, int, int]]:
    """Resolve ``b``'s pending first touches against ``a``'s recency state.

    Tallies exact hits into ``st`` for entries whose line appears in
    ``a``'s stack and returns the still-pending survivors, rebased onto
    the merged firsts prefix. Vectorized: the per-entry work is numpy
    batch ops, never a Python pass over a cap-length prefix.
    """
    if not bbound:
        return []
    if not astack_len and not af_len:
        return list(bbound)  # merging onto the identity: nothing changes
    cap = st.cap
    thresholds = st.thresholds
    n_th = len(thresholds)
    lines = [e[0] for e in bbound]
    cls_v = np.array([e[1] for e in bbound], dtype=np.int64)
    plens = np.array([e[2] for e in bbound], dtype=np.int64)
    ipos = np.array([apos.get(line, -1) for line in lines], dtype=np.int64)
    resolved = np.flatnonzero(ipos >= 0)
    # how many of bf's first j lines are new relative to a's firsts
    fresh = np.array([f not in afset for f in bf], dtype=np.int64)
    cum_fresh = np.concatenate(([0], np.cumsum(fresh)))
    pending: list[tuple[int, int, int]] = []
    if astack_len < cap:
        # a's distinct-line set is complete, so the rebase is exact
        for k in np.flatnonzero(ipos < 0):
            new_plen = af_len + int(cum_fresh[plens[k]])
            if new_plen < cap:
                pending.append((lines[k], int(cls_v[k]), new_plen))
    if resolved.size:
        # dist = |bf[:plen] u astack[:i]| = plen + i - overlap; both
        # prefixes hold distinct lines, so only the overlap is shared
        bfpos = np.array([apos.get(f, astack_len) for f in bf], dtype=np.int64)
        i_k = ipos[resolved]
        p_k = plens[resolved]
        overlap = np.zeros(resolved.size, dtype=np.int64)
        if len(bfpos):
            j = np.arange(len(bfpos), dtype=np.int64)
            block = max(1, (1 << 22) // len(bfpos))
            for lo in range(0, resolved.size, block):
                hi = min(lo + block, resolved.size)
                m = (j[None, :] < p_k[lo:hi, None]) & (
                    bfpos[None, :] < i_k[lo:hi, None]
                )
                overlap[lo:hi] = m.sum(axis=1)
        dist = p_k + i_k - overlap
        hidx = np.searchsorted(thresholds, dist, side="right")
        ok = hidx < n_th
        # an entry at hidx hits every threshold from hidx on
        st.hits += np.cumsum(np.bincount(hidx[ok], minlength=n_th))
        by_cls = np.bincount(
            hidx[ok] * 3 + cls_v[resolved][ok], minlength=3 * n_th
        ).reshape(n_th, 3)
        st.hits_by_class += np.cumsum(by_cls, axis=0)
    return pending


def _group_merge(a: _GroupState, b: _GroupState) -> _GroupState:
    """Exact merge of an earlier state ``a`` with a later state ``b``."""
    out = _GroupState(a.n_sets, a.thresholds)
    out.hits = a.hits + b.hits
    out.hits_by_class = a.hits_by_class + b.hits_by_class
    cap = a.cap
    out.stacks = {s: list(v) for s, v in a.stacks.items()}
    out.firsts = {s: list(v) for s, v in a.firsts.items()}
    out.boundary = {s: list(v) for s, v in a.boundary.items()}
    for s in b.stacks:
        af = a.firsts.get(s, [])
        astack = a.stacks.get(s, [])
        afset = set(af)
        apos = {line: i for i, line in enumerate(astack)}
        bf = b.firsts.get(s, [])
        pending = _resolve_boundary(
            out, len(astack), apos, len(af), afset, bf, b.boundary.get(s, [])
        )
        if pending:
            out.boundary.setdefault(s, []).extend(pending)
        if len(af) >= cap:
            out.firsts[s] = list(af)
        else:
            out.firsts[s] = (af + [f for f in bf if f not in afset])[:cap]
        bstack = b.stacks.get(s, [])
        if len(bstack) >= cap:
            out.stacks[s] = list(bstack)
        else:
            bset = set(bstack)
            out.stacks[s] = (bstack + [x for x in astack if x not in bset])[:cap]
    return out


def sweep_configs(
    *,
    lines: tuple[int, ...] = (64,),
    sets: tuple[int, ...] = (64, 512),
    ways: tuple[int, ...] = (1, 2, 4, 8),
    configs: list | tuple | None = None,
    prefetch: bool = False,
) -> tuple[CacheConfig, ...]:
    """The validated what-if grid of a sweep.

    The default axes are block size (``lines``), capacity via the set
    count (``sets`` — capacity is ``line * sets * ways``), and
    associativity (``ways``); ``configs`` replaces the product with
    explicit ``(size_bytes, line_bytes, ways)`` triples. An invalid
    geometry or an unsimulatable policy (``prefetch=True``: the sweep
    shares stack-distance runs) raises ``ValueError`` here — at schedule
    time, before workers fork.
    """
    if prefetch:
        raise ValueError(_NO_PREFETCH)
    if configs is not None:
        triples = [(int(sz), int(ln), int(w)) for sz, ln, w in configs]
        grid = tuple(
            CacheConfig(size_bytes=sz, line_bytes=ln, ways=w)
            for sz, ln, w in triples
        )
    else:
        grid = tuple(
            CacheConfig(size_bytes=int(ln) * int(ns) * int(w), line_bytes=int(ln),
                        ways=int(w))
            for ln in lines
            for ns in sets
            for w in ways
        )
    if not grid:
        raise ValueError("cache sweep grid is empty")
    if len(set(grid)) != len(grid):
        raise ValueError("cache sweep grid has duplicate configurations")
    for c in grid:
        check_power_of_two("line_bytes", c.line_bytes)
    return grid


class SweepPartial:
    """Mergeable whole-sweep state: shared tallies + per-group states."""

    __slots__ = ("n", "extras", "cls_counts", "groups")

    def __init__(self, grid: tuple[CacheConfig, ...]) -> None:
        self.n = 0
        self.extras = 0
        self.cls_counts = np.zeros(3, dtype=np.int64)
        # group key -> sorted thresholds; simulation groups keyed by the
        # real geometry, predictions by (line_bytes, 1 set) with the
        # fully-associative capacity (in lines) as the threshold
        thresholds: dict[tuple[int, int], set[int]] = {}
        for c in grid:
            thresholds.setdefault((c.line_bytes, c.n_sets), set()).add(c.ways)
            thresholds.setdefault((c.line_bytes, 1), set()).add(
                c.size_bytes // c.line_bytes
            )
        self.groups = {
            key: _GroupState(key[1], tuple(sorted(t)))
            for key, t in sorted(thresholds.items())
        }


def sweep_update(partial: SweepPartial, events: np.ndarray, line_ids=None) -> SweepPartial:
    """Fold one chunk of events in; returns the updated partial.

    ``line_ids`` optionally maps a line size to the chunk's precomputed
    line-id array (the engine's shared ``block_ids`` artifact); without
    it the ids are computed here.
    """
    chunk = SweepPartial(())  # bare shell; groups rebuilt below
    chunk.groups = {k: _GroupState(st.n_sets, st.thresholds)
                    for k, st in partial.groups.items()}
    n = len(events)
    chunk.n = n
    if n:
        chunk.extras = int(events["n_const"].sum())
        cls = events["cls"]
        chunk.cls_counts = np.bincount(cls, minlength=3)[:3].astype(np.int64)
        cache: dict[int, np.ndarray] = {}
        for (line_b, _n_sets), st in chunk.groups.items():
            ids = cache.get(line_b)
            if ids is None:
                ids = (line_ids(line_b) if line_ids is not None
                       else events["addr"] >> np.uint64(line_b.bit_length() - 1))
                cache[line_b] = ids
            _group_update(st, ids, cls)
    return sweep_merge(partial, chunk)


def sweep_merge(a: SweepPartial, b: SweepPartial) -> SweepPartial:
    """Order-aware exact merge (``a`` earlier in the stream than ``b``)."""
    out = SweepPartial(())
    out.n = a.n + b.n
    out.extras = a.extras + b.extras
    out.cls_counts = a.cls_counts + b.cls_counts
    out.groups = {k: _group_merge(st, b.groups[k]) for k, st in a.groups.items()}
    return out


@dataclass(frozen=True)
class CacheSweepRow:
    """One configuration's simulated and predicted outcome."""

    size_bytes: int
    line_bytes: int
    ways: int
    n_sets: int
    n_accesses: int
    n_hits: int
    hit_ratio: float
    predicted_hits: int
    predicted_hit_ratio: float
    accesses_by_class: dict[str, int]
    hits_by_class: dict[str, int]


def sweep_finalize(
    partial: SweepPartial, grid: tuple[CacheConfig, ...]
) -> list[CacheSweepRow]:
    """Rows for every grid configuration, in grid order.

    Pending boundary touches are stream-cold at this point — misses, like
    the per-configuration simulation counts them. Suppressed-constant
    loads are guaranteed hits of class Constant in both columns, exactly
    as :func:`simulate_cache` accounts for them.
    """
    n_accesses = partial.n + partial.extras
    acc = partial.cls_counts.copy()
    acc[int(LoadClass.CONSTANT)] += partial.extras
    accesses_by_class = {
        LoadClass(i).name: int(acc[i]) for i in range(3) if acc[i]
    }
    rows = []
    for c in grid:
        sim = partial.groups[(c.line_bytes, c.n_sets)]
        ti = sim.thresholds.index(c.ways)
        hbc = sim.hits_by_class[ti].copy()
        hbc[int(LoadClass.CONSTANT)] += partial.extras
        n_hits = int(sim.hits[ti]) + partial.extras
        pred = partial.groups[(c.line_bytes, 1)]
        pi = pred.thresholds.index(c.size_bytes // c.line_bytes)
        predicted = int(pred.hits[pi]) + partial.extras
        rows.append(
            CacheSweepRow(
                size_bytes=c.size_bytes,
                line_bytes=c.line_bytes,
                ways=c.ways,
                n_sets=c.n_sets,
                n_accesses=n_accesses,
                n_hits=n_hits,
                hit_ratio=n_hits / n_accesses if n_accesses else 0.0,
                predicted_hits=predicted,
                predicted_hit_ratio=predicted / n_accesses if n_accesses else 0.0,
                accesses_by_class=accesses_by_class,
                hits_by_class={
                    LoadClass(i).name: int(hbc[i]) for i in range(3) if hbc[i]
                },
            )
        )
    return rows


@dataclass(frozen=True)
class HierarchyConfig:
    """A two-level hierarchy with per-level hit latencies (cycles)."""

    l1: CacheConfig = CacheConfig(size_bytes=4 * 1024, ways=8, prefetch_next_line=True)
    l2: CacheConfig = CacheConfig(size_bytes=64 * 1024, ways=16, prefetch_next_line=True)
    lat_l1: float = 4.0
    lat_l2: float = 14.0
    lat_mem: float = 120.0

    def __post_init__(self) -> None:
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ValueError("levels must share a line size")
        if not self.lat_l1 < self.lat_l2 < self.lat_mem:
            raise ValueError("latencies must increase down the hierarchy")


@dataclass
class HierarchyStats:
    """Per-level hits plus the resulting average memory access time."""

    config: HierarchyConfig
    n_accesses: int
    l1_hits: int
    l2_hits: int

    @property
    def misses(self) -> int:
        """Accesses served by memory."""
        return self.n_accesses - self.l1_hits - self.l2_hits

    @property
    def amat(self) -> float:
        """Average memory access time in cycles."""
        if self.n_accesses == 0:
            return 0.0
        c = self.config
        total = (
            self.l1_hits * c.lat_l1
            + self.l2_hits * c.lat_l2
            + self.misses * c.lat_mem
        )
        return total / self.n_accesses


def _simulate_hierarchy_vector(
    events: np.ndarray, config: HierarchyConfig
) -> HierarchyStats:
    """Vectorised two-level simulation (non-prefetching configurations).

    L2's contents depend only on the substream of L1 misses, so the L1
    hit mask selects L2's accesses and the same batched stack-distance
    kernel runs per level.
    """
    n = len(events)
    lines = events["addr"] // np.uint64(config.l1.line_bytes)
    l1_hit = _set_local_hits(lines, config.l1)
    l2_hit = _set_local_hits(lines[~l1_hit], config.l2)
    extra = int(events["n_const"].sum()) if n else 0
    return HierarchyStats(
        config=config,
        n_accesses=n + extra,
        l1_hits=int(l1_hit.sum()) + extra,
        l2_hits=int(l2_hit.sum()),
    )


def simulate_hierarchy(
    events: np.ndarray,
    config: HierarchyConfig | None = None,
) -> HierarchyStats:
    """Drive an inclusive two-level hierarchy with ``events``.

    L2 is probed (and filled) only on L1 misses; both levels install the
    missing line, so the hierarchy is inclusive by construction. The
    resulting AMAT is the physically-grounded counterpart of
    :class:`repro.workloads.cost.MemoryCostModel`'s per-class constants.

    The kernel is chosen as in :func:`simulate_cache`; the default
    configuration prefetches on both levels, so it runs the per-event
    loop unless prefetching is disabled.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    config = config or HierarchyConfig()
    prefetching = config.l1.prefetch_next_line or config.l2.prefetch_next_line
    if prefetching:
        return _simulate_hierarchy_python(events, config)
    return _simulate_hierarchy_vector(events, config)


def _simulate_hierarchy_python(
    events: np.ndarray, config: HierarchyConfig
) -> HierarchyStats:
    """Per-event loop: models prefetch, and is the vector kernel's reference."""

    def _mk(c: CacheConfig):
        return [[] for _ in range(c.n_sets)]

    l1, l2 = _mk(config.l1), _mk(config.l2)
    line_b = config.l1.line_bytes
    lines = events["addr"] // line_b
    n_const = events["n_const"]

    n_acc = l1_hits = l2_hits = 0

    def _probe(cache, c: CacheConfig, line: int, *, fill: bool = True) -> bool:
        s = cache[line % c.n_sets]
        try:
            s.remove(line)
            hit = True
        except ValueError:
            hit = False
        if hit or fill:
            s.append(line)
            if len(s) > c.ways:
                s.pop(0)
        if c.prefetch_next_line and not hit and fill:
            nxt = line + 1
            ns = cache[nxt % c.n_sets]
            if nxt not in ns:
                ns.insert(max(0, len(ns) - 1), nxt)
                if len(ns) > c.ways:
                    ns.pop(0)
        return hit

    for line, extra in zip(lines, n_const):
        line = int(line)
        n_acc += 1
        if _probe(l1, config.l1, line):
            l1_hits += 1
        elif _probe(l2, config.l2, line):
            l2_hits += 1
        if extra:  # suppressed frame scalars: L1-resident
            n_acc += int(extra)
            l1_hits += int(extra)
    return HierarchyStats(
        config=config, n_accesses=n_acc, l1_hits=l1_hits, l2_hits=l2_hits
    )
