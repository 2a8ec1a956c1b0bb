"""The per-sample partial table: every sample's diagnostics state in one grouped pass.

The execution interval tree and phase detection both start from the
same per-sample state — each sample's
:class:`~repro.core.passes.DiagnosticsPartial` (its sorted unique
non-Constant / Strided / Irregular block ids plus record counters) and
the same state for each of its (sample, function) leaves — and then
report unions of consecutive samples: tree levels, phases. Building
that state one sample at a time costs a handful of numpy calls per
sample and per leaf.

:class:`SampleTable` holds it in columnar form, built by one grouped
pass over the whole collection:

* the record counters of every leaf (a ``(segment, function)`` group,
  segments being the samples or their intra-sample halves) come from
  one stable sort by leaf and a few reductions;
* the block-id sets are one sorted array of unique ``(set, block,
  leaf)`` entries, deduplicated once more to ``(set, block, segment)``:
  a segment's partial is the entries naming it.

A union of consecutive segments — a tree node, a phase — is the exact
:meth:`~repro.core.passes.DiagnosticsPartial.merge` of its segments'
partials: counter sums, and set unions whose sizes are the distinct
``(set, block, group)`` entries once each segment is mapped to its
group. Entries sort by set and block first, so those are adjacent and
one grouping of every group costs a few array operations, whatever
the number of groups; the levels of the pairwise tree over the samples
come from one more sort (:meth:`SampleTable.levels`).
:meth:`SampleTable.diagnostics` finalizes the merged totals with the
same :func:`~repro.core.diagnostics.finalize_diagnostics` the engine
uses, so every value equals the per-sample builders' bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.diagnostics import FootprintDiagnostics, finalize_diagnostics
from repro.core.metrics import block_ids
from repro.trace.event import EVENT_DTYPE, LoadClass

__all__ = ["SampleTable", "Totals", "sample_bounds"]

#: the block-id sets, in entry order: non-Constant, Strided, Irregular
_N_SETS = 3


def sample_bounds(sample_id: np.ndarray) -> np.ndarray:
    """Record edges ``[0, ..., n]`` of the samples (maximal runs of one id)."""
    n = len(sample_id)
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    inner = np.flatnonzero(sample_id[1:] != sample_id[:-1]) + 1
    return np.concatenate([[0], inner, [n]]).astype(np.int64)


def _heads(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values of ``a`` starts."""
    head = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


@dataclass
class Totals:
    """Merged state of the groups of one grouping (arrays, one per group)."""

    a_obs: np.ndarray
    n_suppressed: np.ndarray
    n_const_records: np.ndarray
    n_strided_records: np.ndarray
    n_nonconst_records: np.ndarray
    f_nonconst: np.ndarray  # distinct non-Constant blocks
    f_strided: np.ndarray
    f_irregular: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray


@dataclass
class _Entries:
    """Distinct ``(set, block, group)`` entries, sorted in that order."""

    kind: np.ndarray  # which set
    block: np.ndarray
    group: np.ndarray
    run: np.ndarray  # True where a new (set, block) run starts

    def regroup(self, new_group: np.ndarray, n_groups: int) -> tuple[np.ndarray, "_Entries"]:
        """Set sizes of the unions under ``new_group`` (old group -> new
        group, ``-1`` for none; non-decreasing where not ``-1``), and the
        regrouped distinct entries."""
        kind, block, run = self.kind, self.block, self.run
        g = new_group[self.group]
        if len(g) and g.min() < 0:  # drop the entries outside every group
            keep = g >= 0
            kind, block, g = kind[keep], block[keep], g[keep]
            run = _heads(block) | _heads(kind)
        new = run.copy()
        new[1:] |= g[1:] != g[:-1]
        kind, g = kind[new], g[new]
        sizes = np.bincount(g + kind * n_groups, minlength=_N_SETS * n_groups)
        return sizes.reshape(_N_SETS, n_groups), _Entries(kind, block[new], g, run[new])


class SampleTable:
    """Columnar per-segment and per-leaf diagnostics state of one collection.

    ``bounds`` are the record edges ``[0, ..., n]`` of the segments (each
    non-empty); leaves are the ``(segment, function)`` groups, ordered by
    segment, then function id.
    """

    def __init__(self, events: np.ndarray, bounds: np.ndarray, block: int = 1) -> None:
        if events.dtype != EVENT_DTYPE:
            raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
        n = len(events)
        self.bounds = bounds = np.asarray(bounds, dtype=np.int64)
        self.block = block
        self.n_segments = len(bounds) - 1
        self._t = events["t"]
        seg = np.repeat(np.arange(self.n_segments, dtype=np.int64), np.diff(bounds))

        # leaves: one stable sort groups each (segment, function)'s records
        fn = events["fn"].astype(np.int64)
        n_fn = int(fn.max()) + 1 if n else 1
        if self.n_segments * n_fn >= 2**62:  # sparse ids: densify first
            fn = np.unique(fn, return_inverse=True)[1].reshape(n)
            n_fn = int(fn.max()) + 1
        key = seg * n_fn + fn
        perm = np.argsort(key, kind="stable")
        head = _heads(key[perm])
        starts = np.flatnonzero(head)
        ends = np.append(starts[1:], n)[: len(starts)]
        leaf = np.empty(n, dtype=np.int64)
        leaf[perm] = np.cumsum(head) - 1
        self.n_leaves = n_leaves = len(starts)
        self.leaf_segment = seg[perm[starts]]
        self.leaf_fn = events["fn"][perm[starts]]
        self._leaf_first = perm[starts]
        self._leaf_last = perm[ends - 1]

        cls = events["cls"]
        const = cls == int(LoadClass.CONSTANT)
        nonconst = ~const
        # per-leaf record counters (the Totals fields, in order)
        per_record = (events["n_const"], const, cls == int(LoadClass.STRIDED), nonconst)
        self._leaf_counters = np.stack(
            [ends - starts]
            + [
                np.add.reduceat(np.asarray(x, dtype=np.int64)[perm], starts)
                if n
                else np.zeros(0, dtype=np.int64)
                for x in per_record
            ]
        )

        # the sets: one sort of (block, leaf, class) keys of the non-Constant
        # records, key = block << (leaf_bits + 2) | leaf << 2 | class code
        ids = block_ids(events, block)[nonconst]
        nc_cls = cls[nonconst]
        code = np.full(len(ids), 3, dtype=np.int64)  # another non-Constant class
        code[nc_cls == int(LoadClass.STRIDED)] = 1
        code[nc_cls == int(LoadClass.IRREGULAR)] = 2
        leaf_bits = max(n_leaves - 1, 1).bit_length()
        rel = np.zeros(len(ids), dtype=np.int64)
        if len(ids):
            lo = int(ids.min())
            if (int(ids.max()) - lo + 1) << (leaf_bits + 2) < 2**63:
                rel = (ids - np.uint64(lo)).astype(np.int64)
            else:  # wide ids: their rank keeps the key inside int64
                rel = np.unique(ids, return_inverse=True)[1].reshape(len(ids))
        keys = np.sort((((rel << leaf_bits) | leaf[nonconst]) << 2) | code)
        keys = keys[_heads(keys)]
        pair = keys >> 2  # block << leaf_bits | leaf
        code = keys & 3
        pairs = [pair[m] for m in (_heads(pair), code == 1, code == 2)]
        sizes = [len(p) for p in pairs]
        pair = np.concatenate(pairs)
        kind = np.repeat(np.arange(_N_SETS), sizes)
        blocks = pair >> leaf_bits
        leaves = _Entries(kind, blocks, pair & ((1 << leaf_bits) - 1), _heads(blocks) | _heads(kind))
        self._leaf_sizes = np.bincount(
            leaves.group + kind * n_leaves, minlength=_N_SETS * n_leaves
        ).reshape(_N_SETS, n_leaves)

        # the per-segment partials: leaves deduplicated to their segments
        self._seg_sizes, self._seg_entries = leaves.regroup(self.leaf_segment, self.n_segments)
        self._seg_counters = self._sum(self._leaf_counters, self.leaf_segment)

    @classmethod
    def of(cls, collection, block: int = 1) -> "SampleTable":
        """The table of a collection's samples (its non-empty sample runs)."""
        return cls(collection.events, sample_bounds(collection.sample_id), block)

    # -- groupings --------------------------------------------------------------

    @staticmethod
    def _sum(counters: np.ndarray, group: np.ndarray) -> np.ndarray:
        """Column sums of ``counters`` per run of equal ``group`` values."""
        if counters.shape[1] == 0:
            return counters
        return np.add.reduceat(counters, np.flatnonzero(_heads(group)), axis=1)

    def _t_range(self, first_seg: np.ndarray, last_seg: np.ndarray) -> tuple:
        t = self._t
        return (
            t[self.bounds[first_seg]].astype(np.int64),
            t[self.bounds[last_seg + 1] - 1].astype(np.int64) + 1,
        )

    def leaf_totals(self) -> Totals:
        """The state of every leaf on its own."""
        t = self._t
        return Totals(
            *self._leaf_counters,
            *self._leaf_sizes,
            t_start=t[self._leaf_first].astype(np.int64),
            t_end=t[self._leaf_last].astype(np.int64) + 1,
        )

    def segment_totals(self) -> Totals:
        """The state of every segment on its own (its partial)."""
        every = np.arange(self.n_segments)
        return Totals(*self._seg_counters, *self._seg_sizes, *self._t_range(every, every))

    def totals(self, group_of_segment: np.ndarray) -> Totals:
        """Merged state of every group of consecutive segments.

        ``group_of_segment[s]`` is segment ``s``'s group, ``-1`` for none;
        the groups must be ``0..G-1``, each a run of consecutive segments,
        numbered in segment order.
        """
        gos = np.asarray(group_of_segment, dtype=np.int64)
        segs = np.flatnonzero(gos >= 0)
        g = gos[segs]
        head = _heads(g)
        sizes, _ = self._seg_entries.regroup(gos, int(head.sum()))
        return Totals(
            *self._sum(self._seg_counters[:, segs], g),
            *sizes,
            *self._t_range(segs[head], segs[np.append(head[1:], True)]),
        )

    def levels(self) -> Iterator[Totals]:
        """The merged state of each level of a pairwise tree over the segments.

        Level ``L`` (from 1 while more than one node is left) has a node
        for each ``2**L`` consecutive segments (fewer in the last node).
        An entry joins its run's previous one (same set and block) from
        the first level whose nodes hold both segments — the bit length
        of their segments' XOR — so level ``L``'s distinct entries are
        those whose join level is above ``L``: a prefix of the entries
        once they are sorted by join level, descending.
        """
        e = self._seg_entries
        join = np.frexp((e.group ^ np.roll(e.group, 1)).astype(np.float64))[1]
        join[e.run] = 64  # a run's first entry never joins a previous one
        order = np.argsort(-join.astype(np.int8), kind="stable")
        seg, kind = e.group[order], e.kind[order]
        join = join[order]
        counters, n = self._seg_counters, self.n_segments
        level = 0
        while n > 1:
            level += 1
            n = (n + 1) // 2
            distinct = int(np.count_nonzero(join > level))
            sizes = np.bincount(
                (seg[:distinct] >> level) + kind[:distinct] * n, minlength=_N_SETS * n
            ).reshape(_N_SETS, n)
            counters = self._sum(counters, np.arange(len(counters[0])) >> 1)
            first = np.arange(n) << level
            last = np.minimum(first + (1 << level), self.n_segments) - 1
            yield Totals(*counters, *sizes, *self._t_range(first, last))

    @staticmethod
    def diagnostics(totals: Totals, rho: float = 1.0) -> list[FootprintDiagnostics]:
        """Each group's diagnostics: its merged partial, finalized."""
        return [
            finalize_diagnostics(
                a_obs=a,
                a_implied=a + s,
                # a non-empty group's footprint (DiagnosticsPartial.footprint)
                f=f + (1 if s or c else 0),
                f_str=fs,
                f_irr=fi,
                n_const_accesses=s + c,
                rho=rho,
            )
            for a, s, c, f, fs, fi in zip(
                totals.a_obs.tolist(),
                totals.n_suppressed.tolist(),
                totals.n_const_records.tolist(),
                totals.f_nonconst.tolist(),
                totals.f_strided.tolist(),
                totals.f_irregular.tolist(),
            )
        ]
