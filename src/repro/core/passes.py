"""Unified analysis-pass framework: one fused scan, many metrics.

MemGaze's analysis layer (paper §IV–§V) is a family of metrics that all
consume the same event stream: footprint diagnostics (Eqs. 1–4),
captures/survivals, reuse-distance histograms, heatmaps, hotspots. This
module gives them one shape — the **AnalysisPass protocol** — so a
single streaming scan over trace chunks computes every requested metric
at once instead of re-reading the trace once per metric:

* :class:`AnalysisPass` — the protocol: ``requires`` (artifact keys and
  pass dependencies), ``init() → partial``,
  ``update(partial, chunk, params)``, ``merge(a, b)``,
  ``finalize(partial, ctx, params)``. Partials follow the merge algebra
  of :mod:`repro.core.parallel` (associative + identity, integers until
  finalize), so fused results stay **bit-identical** to the legacy
  serial functions.
* :class:`ChunkContext` — the per-chunk artifact context. Shared
  intermediates (block-id arrays per block size, class masks, the
  non-Constant view, reuse-distance arrays) are computed **once per
  chunk** and memoized; every pass scheduled on the chunk reads the
  same arrays. Hit/miss counters feed the observability layer.
* :func:`schedule_passes` — the dependency scheduler: resolves names
  through the registry, pulls in pass-on-pass dependencies
  (``requires`` entries of the form ``"pass:<name>"``), topo-sorts so a
  pass finalizes after its dependencies, and rejects unknown names with
  a listed-alternatives error.
* :func:`scan_chunk` / :func:`merge_partial_lists` /
  :func:`finalize_schedule` — the fused executor's three steps: update
  every scheduled pass over one chunk, merge two chunks' partials, and
  finalize in dependency order.
  :meth:`repro.core.parallel.ParallelEngine.analyze` drives them over
  in-memory shards or archive chunks, inline or across its process
  pool.

Registering a new metric is ~50 lines: subclass :class:`AnalysisPass`,
give it a mergeable partial, and call :func:`register_pass` — it then
shows up in ``memgaze passes``, runs fused with everything else via
``memgaze report --passes ...``, and parallelizes for free. See
``docs/passes.md`` for a worked example.
"""

from __future__ import annotations

import difflib
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro._util.sortedset import (
    intersect_sorted,
    setdiff_sorted,
    setxor_sorted,
    sorted_unique,
    union_sorted,
)
from repro.core.cachesim import (
    SweepPartial,
    sweep_configs,
    sweep_finalize,
    sweep_merge,
    sweep_update,
)
from repro.core.diagnostics import FootprintDiagnostics, finalize_diagnostics
from repro.core.heatmap import (
    accumulate_heatmap,
    finalize_heatmap,
    merge_heatmap,
    region_points,
)
from repro.core.hotspot import access_counts, rank_hotspots, roi_from_ranges
from repro.core.metrics import block_ids
from repro.core.reuse import (
    _HIST_MAX_EXP,
    ReuseHistogram,
    _boundaries,
    histogram_from_distances,
    reuse_distances,
)
from repro.obs.handle import NULL_OBS, Obs
from repro.trace.event import LoadClass

__all__ = [
    "ARTIFACT_KEYS",
    "AnalysisPass",
    "ChunkContext",
    "ClassMasks",
    "RunContext",
    "ResolvedRequest",
    "UnknownPassError",
    "register_pass",
    "unregister_pass",
    "get_pass",
    "list_passes",
    "schedule_passes",
    "scan_chunk",
    "merge_partial_lists",
    "finalize_schedule",
    "to_jsonable",
    "DiagnosticsPartial",
    "CapturesPartial",
]

#: Chunk-level artifacts a pass may declare in ``requires``. Everything
#: here is served by :class:`ChunkContext`, computed once per chunk and
#: shared by all scheduled passes.
ARTIFACT_KEYS = frozenset(
    [
        "block_ids",  # ctx.block_ids(block): addr >> log2(block), per block size
        "class_masks",  # ctx.class_masks: constant/strided/irregular/nonconst
        "nonconstant",  # ctx.nonconstant: the non-Constant view + sample ids
        "reuse_distances",  # ctx.reuse_distances(block, nonconst=...): D kernel
    ]
)


# -- shared intermediates (the artifact context) ------------------------------


@dataclass(frozen=True)
class ClassMasks:
    """Boolean masks over one chunk's records, one per load class."""

    const: np.ndarray
    strided: np.ndarray
    irregular: np.ndarray
    nonconst: np.ndarray


class ChunkContext:
    """Shared per-chunk intermediates, computed once and memoized.

    Every artifact accessor first consults the chunk's cache; ``hits``
    and ``misses`` count the sharing (two passes at the same block size
    hit; the first access of any artifact misses). The parallel engine
    folds these counters into its metrics registry as
    ``passes.artifact_hits`` / ``passes.artifact_misses``.

    ``offset`` is the index of the chunk's first record in the whole
    source (a shard's start, an archive chunk's position, or the length
    of the cached prefix plus the tail position in an incremental scan),
    for passes whose state is keyed by position in the trace.
    """

    def __init__(
        self, events: np.ndarray, sample_id: np.ndarray | None, offset: int = 0
    ) -> None:
        self.events = events
        self.sample_id = sample_id
        self.offset = offset
        self._cache: dict = {}
        self.hits = 0
        self.misses = 0

    def _get(self, key, build):
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        value = self._cache[key] = build()
        return value

    def block_ids(self, block: int) -> np.ndarray:
        """Access-block ids (``addr >> log2(block)``), memoized per size."""
        return self._get(("block_ids", block), lambda: block_ids(self.events, block))

    @property
    def class_masks(self) -> ClassMasks:
        """Per-class record masks, computed once per chunk."""

        def build() -> ClassMasks:
            cls_col = self.events["cls"]
            const = cls_col == int(LoadClass.CONSTANT)
            return ClassMasks(
                const=const,
                strided=cls_col == int(LoadClass.STRIDED),
                irregular=cls_col == int(LoadClass.IRREGULAR),
                nonconst=~const,
            )

        return self._get(("class_masks",), build)

    @property
    def nonconstant(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The non-Constant record view and its sample ids."""

        def build():
            mask = self.class_masks.nonconst
            nc = self.events[mask]
            sid = self.sample_id[mask] if self.sample_id is not None else None
            return nc, sid

        return self._get(("nonconstant",), build)

    def reuse_distances(self, block: int, *, nonconst: bool = False) -> np.ndarray:
        """Spatio-temporal reuse distances D, memoized per (block, view).

        ``nonconst=True`` computes D over the non-Constant view (what
        heatmaps and region reuse measure); the default covers every
        record (what the reuse histogram tallies).
        """

        def build() -> np.ndarray:
            if nonconst:
                nc, sid = self.nonconstant
                return reuse_distances(nc, block, sid)
            return reuse_distances(self.events, block, self.sample_id)

        return self._get(("reuse_distances", block, nonconst), build)


@dataclass
class RunContext:
    """Finalize-time context: run-level knobs plus upstream pass results."""

    rho: float = 1.0
    fn_names: dict[int, str] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)

    def result(self, name: str) -> Any:
        """A dependency's finalized result (scheduler guarantees order)."""
        if name not in self.results:
            raise KeyError(
                f"pass result {name!r} not available — declare 'pass:{name}' "
                f"in requires so the scheduler orders it first"
            )
        return self.results[name]


def to_jsonable(value: Any) -> Any:
    """Recursively convert a pass result into JSON-serializable types.

    Dataclasses become ``{field: value}`` dicts, numpy arrays become
    (nested) lists, numpy scalars become Python ints/floats/bools, and
    tuples become lists. Dict keys are stringified when they are not
    already strings (JSON requires string keys; ``sort_keys`` then gives
    a canonical ordering). The conversion is structural and
    deterministic — no timestamps, ids, or hashes are introduced — so
    two identical results serialize byte-identically.
    """
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {
            (k if isinstance(k, str) else str(k)): to_jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


# -- the pass protocol and registry -------------------------------------------


class AnalysisPass:
    """One metric as a mergeable streaming pass.

    Subclasses set ``name`` (registry key), ``requires`` (artifact keys
    from :data:`ARTIFACT_KEYS` and/or ``"pass:<name>"`` result
    dependencies), ``defaults`` (parameter defaults), and ``needs``
    (parameters that have no default and must be supplied), then
    implement the four hooks. The merge contract is the engine's:
    ``merge`` must be associative with ``init()`` as identity, and the
    partial must hold exact (integer/set) state so ``finalize`` computes
    derived floats once, from merged totals.
    """

    name: str = ""
    #: artifact keys and "pass:<name>" dependencies this pass reads.
    requires: tuple[str, ...] = ()
    #: parameter defaults merged under request params.
    defaults: dict = {}
    #: parameters without defaults that a request must supply.
    needs: tuple[str, ...] = ()
    #: True when the pass has cross-chunk state that only sample
    #: boundaries may cut — without sample ids the trace must stay whole.
    whole_without_samples: bool = False

    def init(self, params: dict) -> Any:
        """The merge identity (an empty partial)."""
        raise NotImplementedError

    def update(self, partial: Any, chunk: ChunkContext, params: dict) -> Any:
        """Fold one chunk into ``partial`` (may return a new partial)."""
        raise NotImplementedError

    def merge(self, a: Any, b: Any) -> Any:
        """Associative merge of two partials (must not mutate either)."""
        raise NotImplementedError

    def finalize(self, partial: Any, ctx: RunContext, params: dict) -> Any:
        """Derived result from the merged partial (floats appear here)."""
        raise NotImplementedError

    def validate(self, params: dict) -> None:
        """Reject invalid resolved parameters (raise ``ValueError``).

        Runs at schedule time, in the scheduling process — so a bad
        request fails before any chunk is read or worker forks, not
        per-call inside the fused scan. The default accepts everything.
        """

    def render(self, result: Any) -> str:
        """Human-readable result block for ``memgaze report --passes``."""
        return str(result)

    def jsonable(self, result: Any) -> Any:
        """Machine-readable result for ``report --json`` and live queries.

        The default converts generically (:func:`to_jsonable`:
        dataclasses to dicts, numpy to Python scalars/lists); override
        when a pass's result benefits from named fields the structure
        alone does not convey (see :class:`CapturesPass`). The output
        must be deterministic — two runs over the same trace must
        serialize byte-identically, because the streaming service's
        live-query/offline-report equivalence is asserted on the JSON.
        """
        return to_jsonable(result)

    @property
    def description(self) -> str:
        """First docstring line (shown by ``memgaze passes``)."""
        doc = type(self).__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""


class UnknownPassError(ValueError):
    """A requested pass name is not in the registry.

    Carries the offending ``name`` and the ``available`` registry names;
    the message lists them (plus a close-match suggestion) so CLI users
    see their alternatives instead of a traceback.
    """

    def __init__(self, name: str, available: list[str]) -> None:
        self.name = name
        self.available = list(available)
        hint = ""
        close = difflib.get_close_matches(name, available, n=1)
        if close:
            hint = f" (did you mean {close[0]!r}?)"
        super().__init__(
            f"unknown analysis pass {name!r}{hint}; "
            f"available: {', '.join(available) or '(none registered)'}"
        )


_REGISTRY: dict[str, AnalysisPass] = {}


def register_pass(p: AnalysisPass | type) -> AnalysisPass | type:
    """Add a pass to the registry (validates the declaration); returns it.

    Accepts an instance or a class (usable as a class decorator); a class
    is instantiated with no arguments.
    """
    decorated = p
    if isinstance(p, type):
        p = p()
    if not p.name:
        raise ValueError(f"pass {type(p).__name__} must set a non-empty name")
    for req in p.requires:
        if not req.startswith("pass:") and req not in ARTIFACT_KEYS:
            raise ValueError(
                f"pass {p.name!r} requires unknown artifact {req!r}; "
                f"known artifacts: {', '.join(sorted(ARTIFACT_KEYS))}"
            )
    _REGISTRY[p.name] = p
    return decorated


def unregister_pass(name: str) -> None:
    """Remove a pass from the registry (for tests and plugins)."""
    _REGISTRY.pop(name, None)


def get_pass(name: str) -> AnalysisPass:
    """The registered pass called ``name``; :class:`UnknownPassError` if absent."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownPassError(name, sorted(_REGISTRY)) from None


def list_passes() -> list[AnalysisPass]:
    """Registered passes, sorted by name."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


# -- the dependency scheduler -------------------------------------------------


@dataclass(frozen=True)
class ResolvedRequest:
    """One scheduled pass: its name and fully-resolved parameters."""

    name: str
    params: dict

    @property
    def spec(self) -> tuple[str, dict]:
        """The picklable form workers receive."""
        return (self.name, self.params)


def _resolve_params(p: AnalysisPass, params: dict | None) -> dict:
    resolved = {**p.defaults, **(params or {})}
    missing = [k for k in p.needs if k not in resolved]
    if missing:
        raise ValueError(
            f"pass {p.name!r} is missing required parameter(s) "
            f"{', '.join(missing)} (supply them in the request)"
        )
    validate = getattr(p, "validate", None)  # optional on duck-typed passes
    if validate is not None:
        validate(resolved)
    return resolved


def schedule_passes(
    requests: Iterable[str | tuple[str, dict] | ResolvedRequest],
) -> list[ResolvedRequest]:
    """Resolve, close over dependencies, and topo-sort pass requests.

    Each request is a pass name, a ``(name, params)`` pair, or an
    already-resolved request. Dependencies (``requires`` entries of the
    form ``"pass:<name>"``) are pulled in automatically with default
    parameters when not requested explicitly, and every pass is ordered
    after its dependencies, so ``finalize`` can read
    :meth:`RunContext.result`. Raises :class:`UnknownPassError` for
    unknown names, ``ValueError`` for duplicate names, missing required
    parameters, or dependency cycles.
    """
    wanted: dict[str, dict] = {}
    order: list[str] = []
    for req in requests:
        if isinstance(req, ResolvedRequest):
            name, params = req.name, dict(req.params)
        elif isinstance(req, str):
            name, params = req, {}
        else:
            name, params = req[0], dict(req[1] or {})
        if name in wanted:
            raise ValueError(f"pass {name!r} requested twice in one schedule")
        wanted[name] = params
        order.append(name)

    scheduled: list[ResolvedRequest] = []
    done: set[str] = set()
    in_progress: set[str] = set()

    def visit(name: str, chain: tuple[str, ...]) -> None:
        if name in done:
            return
        if name in in_progress:
            cycle = " -> ".join(chain + (name,))
            raise ValueError(f"pass dependency cycle: {cycle}")
        in_progress.add(name)
        p = get_pass(name)
        for req in p.requires:
            if req.startswith("pass:"):
                visit(req[len("pass:") :], chain + (name,))
        in_progress.discard(name)
        done.add(name)
        scheduled.append(
            ResolvedRequest(name=name, params=_resolve_params(p, wanted.get(name)))
        )

    for name in order:
        visit(name, ())
    return scheduled


# -- the fused executor -------------------------------------------------------


def scan_chunk(
    events: np.ndarray,
    sample_id: np.ndarray | None,
    specs: Iterable[tuple[str, dict]],
    obs: Obs = NULL_OBS,
    offset: int = 0,
) -> tuple[list, dict]:
    """Update every scheduled pass over one chunk (runs in pool workers).

    One :class:`ChunkContext` serves all passes, so shared intermediates
    are computed once per chunk regardless of how many passes read them;
    ``offset`` is the chunk's first record index in the source.
    Returns ``(partials, stats)`` where ``stats`` carries the chunk's
    artifact-cache counters and per-pass wall clock for the caller's
    timers/metrics. The evaluating process journals its own
    ``shard-analyzed`` line through ``obs`` (the journal's ``O_APPEND``
    writes are atomic, so pool workers interleave safely).
    """
    t0 = time.perf_counter()
    ctx = ChunkContext(events, sample_id, offset)
    partials: list = []
    pass_seconds: dict[str, float] = {}
    for name, params in specs:
        p = get_pass(name)
        t1 = time.perf_counter()
        partials.append(p.update(p.init(params), ctx, params))
        pass_seconds[name] = pass_seconds.get(name, 0.0) + time.perf_counter() - t1
    stats = {
        "n_events": len(events),
        "artifact_hits": ctx.hits,
        "artifact_misses": ctx.misses,
        "pass_seconds": pass_seconds,
    }
    obs.emit(
        "shard-analyzed",
        n_events=len(events),
        n_passes=len(partials),
        passes=[name for name, _ in specs],
        artifact_hits=ctx.hits,
        artifact_misses=ctx.misses,
        seconds=time.perf_counter() - t0,
    )
    return partials, stats


def merge_partial_lists(
    a: list, b: list, specs: Iterable[tuple[str, dict]]
) -> list:
    """Merge two aligned partial lists pass-by-pass."""
    return [get_pass(name).merge(pa, pb) for (name, _), pa, pb in zip(specs, a, b)]


def finalize_schedule(
    scheduled: list[ResolvedRequest], merged: list, ctx: RunContext
) -> dict[str, Any]:
    """Finalize merged partials in dependency order; returns name → result."""
    out: dict[str, Any] = {}
    for req, partial in zip(scheduled, merged):
        result = get_pass(req.name).finalize(partial, ctx, req.params)
        out[req.name] = ctx.results[req.name] = result
    return out


# -- mergeable partials -------------------------------------------------------


@dataclass
class DiagnosticsPartial:
    """Mergeable state behind footprint + diagnostics for one chunk.

    Unique block ids are sorted ``uint64`` arrays (set semantics); the
    counters are plain integers. :meth:`merge` is associative and
    commutative, and :meth:`finalize` evaluates the exact expressions of
    :func:`repro.core.diagnostics.compute_diagnostics` (via the shared
    :func:`~repro.core.diagnostics.finalize_diagnostics`) on the merged
    integer totals.
    """

    blocks: np.ndarray  # sorted unique non-Constant block ids
    strided: np.ndarray  # sorted unique Strided block ids
    irregular: np.ndarray  # sorted unique Irregular block ids
    has_const: bool
    a_obs: int  # observed records
    n_suppressed: int  # suppressed Constant loads (sum of n_const)
    n_const_records: int  # records with cls == CONSTANT

    @classmethod
    def identity(cls) -> "DiagnosticsPartial":
        """The merge identity (an empty chunk)."""
        z = np.empty(0, dtype=np.uint64)
        return cls(z, z, z, False, 0, 0, 0)

    @classmethod
    def from_chunk(
        cls, chunk: ChunkContext, block: int = 1, lo: int = 0, hi: int | None = None
    ) -> "DiagnosticsPartial":
        """Compute the partial for records ``[lo, hi)`` of one chunk (all by
        default) via the artifact context."""
        span = slice(lo, hi)
        ids = chunk.block_ids(block)[span]
        masks = chunk.class_masks
        const = masks.const[span]
        n_suppressed = int(chunk.events["n_const"][span].sum())
        return cls(
            blocks=sorted_unique(ids[masks.nonconst[span]]),
            strided=sorted_unique(ids[masks.strided[span]]),
            irregular=sorted_unique(ids[masks.irregular[span]]),
            has_const=bool(const.any() or n_suppressed > 0),
            a_obs=len(ids),
            n_suppressed=n_suppressed,
            n_const_records=int(const.sum()),
        )

    @classmethod
    def from_events(cls, events: np.ndarray, block: int = 1) -> "DiagnosticsPartial":
        """Compute the partial for one standalone shard of records."""
        return cls.from_chunk(ChunkContext(events, None), block)

    def merge(self, other: "DiagnosticsPartial") -> "DiagnosticsPartial":
        """Associative merge: set unions plus counter sums."""
        return DiagnosticsPartial(
            blocks=union_sorted(self.blocks, other.blocks),
            strided=union_sorted(self.strided, other.strided),
            irregular=union_sorted(self.irregular, other.irregular),
            has_const=self.has_const or other.has_const,
            a_obs=self.a_obs + other.a_obs,
            n_suppressed=self.n_suppressed + other.n_suppressed,
            n_const_records=self.n_const_records + other.n_const_records,
        )

    # -- finalizers (the only place floats appear) --

    @property
    def footprint(self) -> int:
        """Observed footprint F of the merged window."""
        if self.a_obs == 0:
            return 0
        return len(self.blocks) + (1 if self.has_const else 0)

    @property
    def footprint_by_class(self) -> dict[LoadClass, int]:
        """Per-class footprint decomposition of the merged window."""
        return {
            LoadClass.CONSTANT: 1 if self.has_const else 0,
            LoadClass.STRIDED: len(self.strided),
            LoadClass.IRREGULAR: len(self.irregular),
        }

    def finalize(self, rho: float = 1.0) -> FootprintDiagnostics:
        """The diagnostic bundle, identical to the serial computation."""
        return finalize_diagnostics(
            a_obs=self.a_obs,
            a_implied=self.a_obs + self.n_suppressed,
            f=self.footprint,
            f_str=len(self.strided),
            f_irr=len(self.irregular),
            n_const_accesses=self.n_suppressed + self.n_const_records,
            rho=rho,
        )


@dataclass
class CapturesPartial:
    """Mergeable captures/survivals state: per-block counts saturated at 2.

    ``once`` holds blocks seen exactly once so far, ``multi`` blocks seen
    two or more times (both sorted unique arrays of non-Constant block
    ids). Saturated counting forms a commutative monoid, so the merge is
    associative and chunk order cannot change the result.
    """

    once: np.ndarray
    multi: np.ndarray

    @classmethod
    def identity(cls) -> "CapturesPartial":
        """The merge identity (an empty chunk)."""
        z = np.empty(0, dtype=np.uint64)
        return cls(z, z)

    @classmethod
    def from_chunk(cls, chunk: ChunkContext, block: int = 1) -> "CapturesPartial":
        """Compute the partial for one chunk via the artifact context."""
        ids = chunk.block_ids(block)[chunk.class_masks.nonconst]
        if len(ids) == 0:
            return cls.identity()
        uniq, counts = np.unique(ids, return_counts=True)
        return cls(once=uniq[counts == 1], multi=uniq[counts >= 2])

    @classmethod
    def from_events(cls, events: np.ndarray, block: int = 1) -> "CapturesPartial":
        """Compute the partial for one standalone shard of records."""
        return cls.from_chunk(ChunkContext(events, None), block)

    def merge(self, other: "CapturesPartial") -> "CapturesPartial":
        """Associative merge of saturated counts."""
        # seen >= 2 total: already multi on either side, or once on both
        multi = union_sorted(
            union_sorted(self.multi, other.multi),
            intersect_sorted(self.once, other.once),
        )
        # seen exactly once total: once on exactly one side, never multi
        once = setdiff_sorted(setxor_sorted(self.once, other.once), multi)
        return CapturesPartial(once=once, multi=multi)

    def finalize(self) -> tuple[int, int]:
        """(C, S): blocks with and without reuse in the merged window."""
        return len(self.multi), len(self.once)


# -- the built-in passes ------------------------------------------------------


@register_pass
class DiagnosticsPass(AnalysisPass):
    """Footprint access diagnostics: F, F-hat, dF, per-class split (Eqs. 1-4)."""

    name = "diagnostics"
    requires = ("block_ids", "class_masks")
    defaults = {"block": 1}

    def init(self, params):
        return DiagnosticsPartial.identity()

    def update(self, partial, chunk, params):
        return partial.merge(DiagnosticsPartial.from_chunk(chunk, params["block"]))

    def merge(self, a, b):
        return a.merge(b)

    def finalize(self, partial, ctx, params):
        return partial.finalize(ctx.rho)

    def render(self, result):
        from repro.core.report import format_quantity

        d = result
        return (
            f"A (est):   {format_quantity(d.A_est)}    "
            f"F (est): {format_quantity(d.F_est)}\n"
            f"dF:        {d.dF:.3f}   F_str%: {d.F_str_pct:.1f}   "
            f"A_const%: {d.A_const_pct:.1f}"
        )


@register_pass
class CapturesPass(AnalysisPass):
    """Captures/survivals (C, S): blocks with and without reuse in the window."""

    name = "captures"
    requires = ("block_ids", "class_masks")
    defaults = {"block": 1}

    def init(self, params):
        return CapturesPartial.identity()

    def update(self, partial, chunk, params):
        return partial.merge(CapturesPartial.from_chunk(chunk, params["block"]))

    def merge(self, a, b):
        return a.merge(b)

    def finalize(self, partial, ctx, params):
        return partial.finalize()

    def render(self, result):
        c, s = result
        return f"captures C: {c:,}   survivals S: {s:,}"

    def jsonable(self, result):
        c, s = result
        return {"captures": to_jsonable(c), "survivals": to_jsonable(s)}


@register_pass
class WindowsPass(AnalysisPass):
    """Per-function code windows: the diagnostics bundle per function (SS:VI-A)."""

    name = "windows"
    requires = ("block_ids", "class_masks")
    defaults = {"block": 1}

    def init(self, params):
        return {}

    def update(self, partial, chunk, params):
        ev = chunk.events
        if len(ev) == 0:
            return partial
        out = dict(partial)
        for fid in sorted_unique(ev["fn"]):
            sub = DiagnosticsPartial.from_events(
                ev[ev["fn"] == fid], params["block"]
            )
            prev = out.get(int(fid))
            out[int(fid)] = sub if prev is None else prev.merge(sub)
        return out

    def merge(self, a, b):
        out = dict(a)
        for fid, p in b.items():
            prev = out.get(fid)
            out[fid] = p if prev is None else prev.merge(p)
        return out

    def finalize(self, partial, ctx, params):
        # ascending function id, so a name collision resolves the same
        # way the serial code_windows loop does (highest id wins)
        return {
            ctx.fn_names.get(fid, f"fn{fid}"): p.finalize(ctx.rho)
            for fid, p in sorted(partial.items())
        }

    def render(self, result):
        from repro.core.report import render_function_table

        return render_function_table(result)


@register_pass
class ReusePass(AnalysisPass):
    """Intra-sample reuse-distance histogram over power-of-two bins."""

    name = "reuse"
    requires = ("reuse_distances",)
    defaults = {"block": 64, "max_exp": _HIST_MAX_EXP}
    whole_without_samples = True

    def init(self, params):
        return ReuseHistogram.identity(params["max_exp"])

    def update(self, partial, chunk, params):
        d = chunk.reuse_distances(params["block"])
        return partial.merge(histogram_from_distances(d, params["max_exp"]))

    def merge(self, a, b):
        return a.merge(b)

    def finalize(self, partial, ctx, params):
        return partial

    def render(self, result):
        h = result
        return (
            f"reusing accesses: {h.n_reuse:,}   cold: {h.n_cold:,}\n"
            f"mean D: {h.mean:.1f}   max D: {h.d_max:,}"
        )


def cut_reuse_distances(chunk: ChunkContext, block: int, cuts: np.ndarray) -> np.ndarray:
    """The chunk's reuse distances with windows also cut at ``cuts``.

    ``cuts`` are sorted, distinct chunk-local record indices. The
    shared all-records artifact has one window per sample (or per chunk
    without sample ids); a cut that falls inside a window starts a new
    one. A record
    after such a cut keeps its distance when its previous same-block
    access also lies after the cut, since the distinct blocks between
    the two accesses are the same in either window; otherwise it becomes
    a first touch (-1). So only the first touch of each block in every
    cut-off segment changes, and no distance is recomputed.
    """
    d = chunk.reuse_distances(block)
    n = len(d)
    starts = _boundaries(n, chunk.sample_id)  # the artifact's windows
    inside = setdiff_sorted(cuts, starts)
    if len(inside) == 0:
        return d
    bounds = union_sorted(starts, cuts)
    ends = np.append(bounds, n)[np.searchsorted(bounds, inside, side="right")]
    lengths = ends - inside
    seg = np.repeat(np.arange(len(inside)), lengths)
    pos = np.arange(int(lengths.sum())) + np.repeat(inside - np.cumsum(lengths) + lengths, lengths)
    ids = chunk.block_ids(block)[pos]
    order = np.lexsort((ids, seg))  # stable: positions ascend within a group
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ids[order][1:] != ids[order][:-1]) | (seg[order][1:] != seg[order][:-1])
    d = d.copy()
    d[pos[order[first]]] = -1
    return d


@register_pass
class IntervalsPass(AnalysisPass):
    """Equal-count access intervals: F, dF, mean D and A per interval (Table VIII).

    ``edges`` (record indices into the whole source, fixed from its
    length before the scan — see
    :func:`repro.core.interval_tree.interval_request`) cut the trace
    into intervals; each interval's row equals an analysis of its slice
    alone, reuse windows being the samples cut at the interval edges.
    Each chunk slices the shared block-id and class-mask artifacts per
    interval and takes D from the shared all-records reuse distances
    (:func:`cut_reuse_distances`), placing itself by
    :attr:`ChunkContext.offset`. Shards never split a sample, so the cut
    stays chunk-local. The partial is one (diagnostics partial, reusing
    accesses, summed D) triple per interval.
    """

    name = "intervals"
    requires = ("block_ids", "class_masks", "reuse_distances")
    defaults = {"block": 1, "reuse_block": 64}
    needs = ("edges",)
    whole_without_samples = True

    def validate(self, params):
        edges = list(params["edges"])
        if len(edges) < 2 or edges[0] != 0 or edges != sorted(edges):
            raise ValueError(f"interval edges must rise from 0, got {edges}")

    def init(self, params):
        return tuple(
            (DiagnosticsPartial.identity(), 0, 0) for _ in range(len(params["edges"]) - 1)
        )

    def update(self, partial, chunk, params):
        n = len(chunk.events)
        edges = np.clip(np.asarray(params["edges"], dtype=np.int64) - chunk.offset, 0, n)
        touched = np.flatnonzero(edges[1:] > edges[:-1])
        if len(touched) == 0:
            return partial
        cuts = sorted_unique(edges[(edges > 0) & (edges < n)])
        d = cut_reuse_distances(chunk, params["reuse_block"], cuts)
        out = list(partial)
        for k in touched:
            lo, hi = int(edges[k]), int(edges[k + 1])
            span = d[lo:hi]
            hits = span[span >= 0]
            diag, n_reuse, d_sum = out[k]
            out[k] = (
                diag.merge(DiagnosticsPartial.from_chunk(chunk, params["block"], lo, hi)),
                n_reuse + len(hits),
                d_sum + int(hits.sum()),
            )
        return tuple(out)

    def merge(self, a, b):
        return tuple(
            (da.merge(db), ra + rb, sa + sb) for (da, ra, sa), (db, rb, sb) in zip(a, b)
        )

    def finalize(self, partial, ctx, params):
        rows = []
        for k, (diag, n_reuse, d_sum) in enumerate(partial):
            d = diag.finalize(ctx.rho)
            rows.append(
                {
                    "interval": k,
                    "F": d.F_est,
                    "dF": d.dF,
                    "D": d_sum / n_reuse if n_reuse else 0.0,
                    "A": d.A_est,
                    "A_obs": d.A_obs,
                }
            )
        return rows

    def render(self, result):
        from repro.core.report import render_interval_table

        return render_interval_table(result)


@register_pass
class HotspotPass(AnalysisPass):
    """Hot-function ranking by sampled load share (ROI candidates)."""

    name = "hotspot"
    requires = ()
    defaults = {"coverage": 0.90, "max_functions": 8}

    def init(self, params):
        return np.zeros(0, dtype=np.int64)

    def update(self, partial, chunk, params):
        return self.merge(partial, access_counts(chunk.events))

    def merge(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] += b
        return out

    def finalize(self, partial, ctx, params):
        return rank_hotspots(
            partial,
            ctx.fn_names,
            coverage=params["coverage"],
            max_functions=params["max_functions"],
        )

    def render(self, result):
        from repro.core.report import format_quantity

        lines = [
            f"  {h.function:<20} {100 * h.share:5.1f}%  "
            f"({format_quantity(h.n_accesses)} sampled loads)"
            for h in result
        ]
        return "\n".join(lines) or "  (no sampled loads)"


@register_pass
class RoiPass(AnalysisPass):
    """Guard ranges covering the hotspot functions' observed code ranges."""

    name = "roi"
    requires = ("pass:hotspot",)
    defaults = {"top": None}

    def init(self, params):
        return {}

    def update(self, partial, chunk, params):
        ev = chunk.events
        if len(ev) == 0:
            return partial
        # grouped min/max without a per-function loop: sort by function id,
        # then reduce each contiguous run in one ufunc call
        order = np.argsort(ev["fn"], kind="stable")
        fn = ev["fn"][order]
        ip = ev["ip"][order]
        starts = np.flatnonzero(np.concatenate([[True], fn[1:] != fn[:-1]]))
        los = np.minimum.reduceat(ip, starts)
        his = np.maximum.reduceat(ip, starts)
        out = dict(partial)
        for fid, lo, hi in zip(fn[starts], los, his):
            lo, hi = int(lo), int(hi)
            prev = out.get(int(fid))
            out[int(fid)] = (
                (lo, hi) if prev is None else (min(prev[0], lo), max(prev[1], hi))
            )
        return out

    def merge(self, a, b):
        out = dict(a)
        for fid, (lo, hi) in b.items():
            prev = out.get(fid)
            out[fid] = (lo, hi) if prev is None else (min(prev[0], lo), max(prev[1], hi))
        return out

    def finalize(self, partial, ctx, params):
        # +4 matches function_ranges: one past the last observed ip
        ranges = {fid: (lo, hi + 4) for fid, (lo, hi) in partial.items()}
        return roi_from_ranges(ctx.result("hotspot"), ranges, top=params["top"])

    def render(self, result):
        lines = [f"  [{lo:#x}, {hi:#x})" for lo, hi in result.ranges]
        return "\n".join(lines) or "  (no guard ranges)"


@register_pass
class HeatmapPass(AnalysisPass):
    """(region page x time) access and reuse-distance heatmaps (Fig. 8).

    One request carries a tuple of regions, each with its own geometry,
    and every region reads the same chunk's non-Constant reuse
    distances; the result is one :class:`~repro.core.heatmap.HeatmapResult`
    per region, in request order. A ``1 x 1`` region is one address
    range's reuse statistics (how :mod:`repro.core.zoom` gets its
    leaves' D).
    """

    name = "heatmap"
    requires = ("nonconstant", "reuse_distances")
    defaults = {"access_block": 64}
    #: bin geometry must be fixed from the whole trace before scanning;
    #: :func:`repro.core.heatmap.heatmap_request` does that.
    needs = ("regions",)
    whole_without_samples = True

    def init(self, params):
        return tuple(
            (
                np.zeros((r["n_pages"], r["n_bins"]), dtype=np.int64),
                np.zeros((r["n_pages"], r["n_bins"]), dtype=np.float64),
                np.zeros((r["n_pages"], r["n_bins"]), dtype=np.int64),
                np.full((r["n_pages"], r["n_bins"]), -1, dtype=np.int64),
            )
            for r in params["regions"]
        )

    def update(self, partial, chunk, params):
        nc, _ = chunk.nonconstant
        d = chunk.reuse_distances(params["access_block"], nonconst=True)
        addr = nc["addr"].astype(np.int64)
        t = nc["t"].astype(np.int64)
        return tuple(
            merge_heatmap(
                acc,
                accumulate_heatmap(
                    *region_points(addr, t, d, r["base"], r["size"]),
                    base=r["base"],
                    page_size=r["page_size"],
                    t_edges=r["t_edges"],
                    n_pages=r["n_pages"],
                    n_bins=r["n_bins"],
                ),
            )
            for acc, r in zip(partial, params["regions"])
        )

    def merge(self, a, b):
        return tuple(merge_heatmap(x, y) for x, y in zip(a, b))

    def finalize(self, partial, ctx, params):
        return tuple(
            finalize_heatmap(
                *acc, base=r["base"], page_size=r["page_size"], t_edges=r["t_edges"]
            )
            for acc, r in zip(partial, params["regions"])
        )

    def render(self, result):
        from repro.core.heatmap import render_heatmap_ascii

        return "\n\n".join(render_heatmap_ascii(hm.counts) for hm in result)


@register_pass
class CacheSweepPass(AnalysisPass):
    """What-if cache sweep: simulated hit rate vs. reuse-distance prediction per geometry.

    One fused scan evaluates the whole block-size x capacity x
    associativity grid. Configurations sharing (line size, set count)
    share the set-local stack-distance kernel run — associativity is
    just a threshold on the shared distances — and the paper's
    reuse-distance prediction (hit iff D < capacity in lines) is the
    fully-associative member of the same family. Every row's simulated
    counts are exactly :func:`repro.core.cachesim.simulate_cache` of
    that configuration; the partial's cross-chunk merge is exact under
    any chunking (see ``core/cachesim.py``), so the pass shards like
    every other and needs no sample boundaries.
    """

    name = "cache_sweep"
    requires = ("block_ids",)
    defaults = {
        "lines": (64,),
        "sets": (64, 512),
        "ways": (1, 2, 4, 8),
        "configs": None,
        "prefetch": False,
    }

    @staticmethod
    def _grid(params):
        return sweep_configs(
            lines=tuple(params["lines"]),
            sets=tuple(params["sets"]),
            ways=tuple(params["ways"]),
            configs=params["configs"],
            prefetch=bool(params["prefetch"]),
        )

    def validate(self, params):
        self._grid(params)  # bad geometry/policy fails before any scan

    def init(self, params):
        return SweepPartial(self._grid(params))

    def update(self, partial, chunk, params):
        return sweep_update(partial, chunk.events, chunk.block_ids)

    def merge(self, a, b):
        return sweep_merge(a, b)

    def finalize(self, partial, ctx, params):
        return sweep_finalize(partial, self._grid(params))

    def render(self, result):
        from repro.core.report import format_quantity

        if not result:
            return "  (empty sweep)"
        lines = [
            f"  {'size':>8} {'line':>5} {'ways':>4} {'sets':>5}"
            f" {'hit ratio':>9} {'predicted':>9}"
        ]
        for r in result:
            lines.append(
                f"  {format_quantity(r.size_bytes) + 'B':>8} {r.line_bytes:>5}"
                f" {r.ways:>4} {r.n_sets:>5}"
                f" {100 * r.hit_ratio:>8.1f}% {100 * r.predicted_hit_ratio:>8.1f}%"
            )
        lines.append(f"  ({result[0].n_accesses:,} accesses per configuration)")
        return "\n".join(lines)
