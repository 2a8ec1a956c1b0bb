"""Paper-style table rendering, shared report sections and canonical JSON payloads.

The benchmark harness prints the same rows the paper's tables report;
these renderers take the analysis layer's structures and format them with
humanised quantities (2.3G, 291K) so output is directly comparable to the
published tables.

Every report surface takes its sections from here. :func:`hot_region_plan`
gives the text report and the ``viz`` section the same named regions and
the region request that rides their one engine scan.
The payload builders :func:`passes_payload`, :func:`full_report_payload`
and :func:`viz_report_payload` share one signature and each runs its own
engine analysis: ``memgaze report --json`` / ``--html`` and the serve
daemon's queries and dashboard only pick one. With :func:`report_payload`
(``memgaze matrix`` cells) and :func:`payload_json` they are the
**single** serialization.
Payloads deliberately carry no path, timestamp, or host field — only
trace content and analysis results — so a live query against a session
archive and an offline report over the same bytes serialize
byte-identically. That equivalence is asserted by the serve test suite;
any field added here must stay deterministic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro._util.canonjson import canonical_json
from repro._util.tables import format_table
from repro.core.diagnostics import FootprintDiagnostics
from repro.core.zoom import (
    ZoomConfig,
    ZoomRegion,
    apply_leaves,
    leaves_request,
    zoom_leaves,
    zoom_tree,
)

__all__ = [
    "format_quantity",
    "render_function_table",
    "render_region_table",
    "render_interval_table",
    "hot_region_plan",
    "REPORT_PASSES",
    "report_requests",
    "passes_payload",
    "report_payload",
    "full_report_payload",
    "viz_report_payload",
    "payload_json",
]

_UNITS = [(1e9, "G"), (1e6, "M"), (1e3, "K")]


def format_quantity(x: float) -> str:
    """Humanise a count: 2.3e9 -> '2.3G', 291_000 -> '291K'."""
    ax = abs(x)
    for scale, suffix in _UNITS:
        if ax >= scale:
            v = x / scale
            return f"{v:.2g}{suffix}" if v < 10 else f"{v:.3g}{suffix}"
    if x == int(x):
        return str(int(x))
    return f"{x:.3g}"


def render_function_table(
    diags: Mapping[str, FootprintDiagnostics],
    title: str = "Data locality of hot function accesses",
    order: Sequence[str] | None = None,
    min_accesses: int = 0,
) -> str:
    """Table IV / VI style: Function | F | dF | F_str% | A."""
    names = list(order) if order else sorted(
        diags, key=lambda f: -diags[f].A_est
    )
    rows = []
    for name in names:
        d = diags.get(name)
        if d is None or d.A_obs < min_accesses:
            continue
        rows.append(
            [
                name,
                format_quantity(d.F_est),
                f"{d.dF:.3f}",
                f"{d.F_str_pct:.1f}",
                format_quantity(d.A_est),
            ]
        )
    return format_table(["Function", "F", "dF", "F_str%", "A"], rows, title=title)


def render_region_table(
    regions: Sequence[tuple[str, ZoomRegion]],
    title: str = "Spatio-temporal reuse of hot memory",
    show_max_d: bool = False,
) -> str:
    """Table V / VII / IX style: Object | D | [maxD] | #blocks | A | A/block."""
    headers = ["Object", "Reuse (D)"]
    if show_max_d:
        headers.append("Max D")
    headers += ["# blocks", "A", "A/block"]
    rows = []
    for name, r in regions:
        row = [name, f"{r.D_mean:.2f}"]
        if show_max_d:
            row.append(str(r.D_max))
        row += [
            format_quantity(r.n_blocks),
            format_quantity(r.n_accesses),
            f"{r.accesses_per_block:.2f}",
        ]
        rows.append(row)
    return format_table(headers, rows, title=title)


# -- canonical JSON payloads ---------------------------------------------------

#: Bump when the payload layout changes; golden fixtures pin it.
PAYLOAD_SCHEMA = 1


def report_requests(block: int = 1, reuse_block: int = 64) -> list:
    """The default report pass set at the given footprint / reuse granularities.

    The four headline passes plus the per-function code windows.
    ``report --json``, live queries, serve ingest and matrix cells all
    request exactly these, so whatever one of them stores the others are
    served from.
    """
    return [
        ("diagnostics", {"block": block}),
        ("hotspot", {}),
        ("captures", {"block": block}),
        ("reuse", {"block": reuse_block}),
        ("windows", {"block": block}),
    ]


#: the default report pass set's names
REPORT_PASSES = tuple(name for name, _ in report_requests())
#: the passes that surface under ``payload["passes"]``; ``windows``
#: surfaces as the ``functions`` mapping instead
_HEADLINE = REPORT_PASSES[:4]


def _payload(module, n_events, n_samples, n_loads_total, rho, names, results) -> dict:
    """The payload layout every producer shares (see :func:`passes_payload`)."""
    from repro.core.passes import get_pass

    return {
        "schema": PAYLOAD_SCHEMA,
        "module": module,
        "n_events": int(n_events),
        "n_samples": int(n_samples),
        "n_loads_total": int(n_loads_total),
        "rho": float(rho),
        "passes": {name: get_pass(name).jsonable(results[name]) for name in names},
    }


def passes_payload(
    module, collection, rho, fn_names, engine, *, health=None, requested
) -> dict:
    """The ``report --passes`` payload: the ``requested`` passes, fused in one scan.

    ``requested`` preserves the caller's pass order only in spirit — the
    ``passes`` mapping is serialized with sorted keys, so order never
    affects the bytes. Every field is derived from trace content and the
    analysis results; nothing environmental (paths, times, hosts) may
    appear here, or live-vs-offline equivalence breaks.
    """
    results = engine.analyze(
        (collection.events, collection.sample_id, health),
        list(requested),
        rho=rho,
        fn_names=fn_names,
    ).results
    counts = (len(collection.events), collection.n_samples, collection.n_loads_total)
    return _payload(module, *counts, rho, requested, results)


def report_payload(analysis, *, module, n_samples, n_loads_total, extra=()) -> dict:
    """The full-report payload of an analysis of :func:`report_requests`.

    The one builder behind ``report --json``, live queries and matrix
    cells, whether the :class:`~repro.core.parallel.Analysis` came from
    in-memory events or a streamed (possibly cache-served) archive. The
    ``windows`` results surface as the ``functions`` mapping; ``extra``
    pass names join the four headline passes under ``passes``.
    """
    from repro.core.passes import to_jsonable

    names = list(_HEADLINE) + [p for p in extra if p not in _HEADLINE]
    counts = (analysis.n_events, n_samples, n_loads_total)
    payload = _payload(module, *counts, analysis.rho, names, analysis.results)
    payload["functions"] = {
        name: to_jsonable(d) for name, d in sorted(analysis.results["windows"].items())
    }
    return payload


def full_report_payload(
    module,
    collection,
    rho,
    fn_names,
    engine,
    *,
    health=None,
    extra_passes=(),
) -> dict:
    """The whole-trace ``report --json`` payload (default pass set).

    Runs :data:`REPORT_PASSES` plus any ``extra_passes`` in one fused
    engine scan (served from the engine's store when ``health``, the
    collection's health record, addresses warm partials).
    """
    extra = [p for p in extra_passes or () if p not in REPORT_PASSES]
    analysis = engine.analyze(
        (collection.events, collection.sample_id, health),
        list(REPORT_PASSES) + extra,
        rho=rho,
        fn_names=fn_names,
    )
    return report_payload(
        analysis,
        module=module,
        n_samples=collection.n_samples,
        n_loads_total=collection.n_loads_total,
        extra=extra_passes or (),
    )


#: Bump when the ``viz`` payload section layout changes.
VIZ_SCHEMA = 1

#: Fixed geometry of the ``viz`` section. Deliberately small — the
#: section feeds a report page, not further analysis — and fixed, so the
#: bytes depend on trace content alone.
_VIZ_PARAMS = {
    "n_intervals": 8,
    "max_tree_depth": 7,
    "max_regions": 6,
    "min_region_pct": 2.0,
    "max_heatmaps": 2,
    "heatmap_pages": 24,
    "heatmap_bins": 32,
}


def _viz_num(x):
    """A finite float, or None — NaN/inf never enter a payload."""
    v = float(x)
    if v != v or v in (float("inf"), float("-inf")):
        return None
    return v


def _viz_floats(a) -> list:
    """A float array as (nested) lists of floats, NaN/inf as None."""
    a = np.asarray(a, dtype=np.float64)
    finite = np.isfinite(a)
    if finite.all():
        return a.tolist()
    return np.where(finite, a.astype(object), None).tolist()


def _viz_tree_node(node, depth_left: int) -> dict:
    """Serialize one interval-tree node with a bounded depth budget."""
    d = node.diagnostics
    out = {
        "level": int(node.level),
        "t_start": int(node.t_start),
        "t_end": int(node.t_end),
        "exact": bool(node.exact),
        "function": node.function,
        "a_obs": int(d.A_obs),
        "f_est": _viz_num(d.F_est),
        "df": _viz_num(d.dF),
        "children": [
            _viz_tree_node(c, depth_left - 1) for c in node.children
        ]
        if depth_left > 0
        else [],
    }
    return out


def hot_region_plan(
    collection,
    fn_names,
    *,
    hot_threshold=ZoomConfig.hot_threshold,
    min_pct,
    max_regions,
    heatmap_shape=(1, 1),
    max_heatmaps=0,
) -> tuple[list[tuple[str, ZoomRegion]], tuple | None]:
    """Named hot regions plus the request of their region scan (None: no scan).

    Builds the address-only zoom tree and names at most ``max_regions``
    leaves holding at least ``min_pct`` percent of the accesses. The
    one ``heatmap`` request carries each named leaf's ``1 x 1``
    statistics region and a ``heatmap_shape`` (pages, bins) heatmap of
    the first ``max_heatmaps`` of them; :func:`~repro.core.zoom.apply_leaves`
    reads its result back.
    """
    config = ZoomConfig(hot_threshold=hot_threshold)
    events = collection.events
    root = zoom_tree(events, config, fn_names)
    leaves = zoom_leaves(root, min_pct=min_pct)[:max_regions]
    rows = []
    for leaf in leaves:
        top_fn = leaf.functions.most_common(1)
        name = f"{leaf.base:#x} ({top_fn[0][0]})" if top_fn else f"{leaf.base:#x}"
        rows.append((name, leaf))
    if not root.n_accesses or not leaves:
        return rows, None
    request = leaves_request(
        events,
        leaves,
        access_block=config.access_block,
        extra=[(leaf.base, leaf.size, *heatmap_shape) for leaf in leaves[:max_heatmaps]],
    )
    return rows, request


def _viz_section(collection, intervals, named, maps, rho, fn_names) -> dict:
    """The visual-report data: intervals, phases, tree, regions, heatmaps.

    ``intervals`` are the ``intervals`` pass's rows and ``named`` /
    ``maps`` the hot regions and heatmaps of the report's one scan;
    phases and the tree are computed here. Everything is derived from
    trace content through deterministic code paths (the engine's sharded
    kernels are bit-identical to the serial ones), so the section — like
    the rest of the payload — is byte-stable across workers, caches, and
    live-vs-offline renders.
    """
    from repro.core.interval_tree import ExecutionIntervalTree
    from repro.core.phases import detect_phases
    from repro.core.sampletable import SampleTable

    p = _VIZ_PARAMS
    # one per-sample partial table feeds both the phases and the tree
    table = SampleTable.of(collection)
    intervals = [
        {
            "interval": int(r["interval"]),
            "F": _viz_num(r["F"]),
            "dF": _viz_num(r["dF"]),
            "D": _viz_num(r["D"]),
            "A": _viz_num(r["A"]),
            "A_obs": int(r.get("A_obs", 0)),
        }
        for r in intervals
    ]

    phases = [
        {
            "index": ph.index,
            "first_sample": ph.first_sample,
            "last_sample": ph.last_sample,
            "t_start": ph.t_start,
            "t_end": ph.t_end,
            "n_samples": ph.n_samples,
            "label": ph.label,
            "strided_share": _viz_num(ph.strided_share),
            "df": _viz_num(ph.diagnostics.dF),
            "a_obs": int(ph.diagnostics.A_obs),
        }
        for ph in detect_phases(collection, table=table)
    ]

    try:
        tree = ExecutionIntervalTree.build(
            collection, rho=rho, fn_names=fn_names, table=table
        )
        tree_node = _viz_tree_node(tree.root, p["max_tree_depth"])
    except ValueError:  # no non-empty samples
        tree_node = None

    regions = []
    for name, leaf in named:
        top_fn = leaf.functions.most_common(1)
        regions.append(
            {
                "name": name,
                "base": int(leaf.base),
                "size": int(leaf.size),
                "n_accesses": int(leaf.n_accesses),
                "pct_of_total": _viz_num(leaf.pct_of_total),
                "d_mean": _viz_num(leaf.D_mean),
                "d_max": int(leaf.D_max),
                "n_blocks": int(leaf.n_blocks),
                "accesses_per_block": _viz_num(leaf.accesses_per_block),
                "top_fn": top_fn[0][0] if top_fn else None,
            }
        )
    heatmaps = [
        {
            "name": name,
            "base": int(hm.base),
            "size": int(leaf.size),
            "page_size": int(hm.page_size),
            "t_edges": _viz_floats(hm.t_edges),
            "counts": np.asarray(hm.counts).astype(np.int64).tolist(),
            "reuse": _viz_floats(hm.reuse),
        }
        for (name, leaf), hm in zip(named, maps)
    ]

    return {
        "schema": VIZ_SCHEMA,
        "params": dict(p),
        "intervals": intervals,
        "phases": phases,
        "tree": tree_node,
        "regions": regions,
        "heatmaps": heatmaps,
    }


def viz_report_payload(
    module,
    collection,
    rho,
    fn_names,
    engine,
    *,
    health=None,
    degraded=None,
    extra_passes=None,
) -> dict:
    """The full-report payload plus the ``viz`` section the HTML needs.

    Exactly :func:`full_report_payload` extended with ``payload["viz"]``
    — interval rows, detected phases, the (depth-capped) execution
    interval tree, zoomed hot regions, and per-region heatmaps — so one
    payload drives both the offline ``memgaze report --html`` renderer
    and the serve daemon's live dashboard; identical archive bytes give
    identical payload bytes on both paths.

    One engine scan serves the default pass set, the ``intervals`` rows
    and the hot regions' ``heatmap`` request (the zoom tree is built
    from addresses before it). ``extra_passes`` (e.g.
    ``["cache_sweep"]``) ride the same scan and land under
    ``payload["passes"]``. A ``degraded`` dict (from a recovered archive
    read) is attached only when given, so payloads for clean archives
    carry no extra key.
    """
    from repro.core.interval_tree import interval_request

    p = _VIZ_PARAMS
    events = collection.events
    requests = list(REPORT_PASSES) + [x for x in extra_passes or () if x not in REPORT_PASSES]
    named, region = [], None
    if len(events):
        requests.append(interval_request(len(events), p["n_intervals"], reuse_block=64))
        # the zoom tree is built from addresses first: its leaves' region
        # request then rides the same scan
        named, region = hot_region_plan(
            collection,
            fn_names,
            min_pct=p["min_region_pct"],
            max_regions=p["max_regions"],
            heatmap_shape=(p["heatmap_pages"], p["heatmap_bins"]),
            max_heatmaps=p["max_heatmaps"],
        )
        if region is not None:
            requests.append(region)
    analysis = engine.analyze(
        (events, collection.sample_id, health), requests, rho=rho, fn_names=fn_names
    )
    payload = report_payload(
        analysis,
        module=module,
        n_samples=collection.n_samples,
        n_loads_total=collection.n_loads_total,
        extra=extra_passes or (),
    )
    maps = (
        apply_leaves([leaf for _, leaf in named], analysis.results["heatmap"])
        if region is not None
        else []
    )
    intervals = analysis.results.get("intervals", [])
    payload["viz"] = _viz_section(collection, intervals, named, maps, rho, fn_names)
    if degraded is not None:
        payload["degraded"] = degraded
    return payload


def payload_json(payload: dict) -> str:
    """Serialize a payload canonically (sorted keys, 2-space indent).

    One serializer for every producer — the CLI prints exactly this
    string and the streaming daemon sends exactly this string, so a
    byte comparison between the two is meaningful. It is the project's
    one canonical encoder, :func:`repro._util.canonjson.canonical_json`.
    """
    return canonical_json(payload)


def render_interval_table(
    rows: Sequence[dict],
    title: str = "Data locality over time of hot access intervals",
) -> str:
    """Table VIII style: Interval | F | dF | D | A."""
    table = [
        [
            r["interval"],
            format_quantity(r["F"]),
            f"{r['dF']:.3f}",
            f"{r['D']:.2f}",
            format_quantity(r["A"]),
        ]
        for r in rows
    ]
    return format_table(["Interval", "F", "dF", "D", "A"], table, title=title)
