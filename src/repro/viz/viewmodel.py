"""Payload → viewmodel: the pure content layer of the HTML report.

:func:`build_viewmodel` turns a canonical report payload (the dict built
by :func:`repro.core.report.full_report_payload` or
:func:`repro.core.report.viz_report_payload`) into the *viewmodel*: the
exact data the page renders, holding raw numeric values (never
pre-formatted strings). Like the payloads it consumes, the viewmodel
carries no path, timestamp, or host — only trace content — so
:func:`viewmodel_json` serializes byte-identically for identical
payloads. The golden suite freezes those bytes, and the rendered page
embeds them verbatim (``<script type="application/json">``), which is
what makes live-vs-offline byte comparisons meaningful end to end.

Every section degrades to an explicit empty value (``[]`` / ``None``)
when its payload source is absent, so a plain ``full_report_payload``
(no ``viz`` section, no ``cache_sweep``) still renders.
"""

from __future__ import annotations

from repro._util.canonjson import canonical_json

__all__ = ["VIEWMODEL_SCHEMA", "build_viewmodel", "viewmodel_json"]

#: Bump when the viewmodel layout changes; golden fixtures pin it.
VIEWMODEL_SCHEMA = 1


def _num(x, default=0.0):
    """A finite float, or ``None`` (NaN/inf never reach the viewmodel)."""
    if x is None:
        return None
    try:
        v = float(x)
    except (TypeError, ValueError):
        return default
    if v != v or v in (float("inf"), float("-inf")):
        return None
    return v


def _fn_pcts(d: dict) -> tuple[float, float]:
    """(F_str%, dF_str%) recomputed from a diagnostics jsonable dict."""
    denom_f = d.get("F_str", 0) + d.get("F_irr", 0)
    f_str_pct = 100.0 * d.get("F_str", 0) / denom_f if denom_f else 0.0
    denom_g = d.get("dF_str", 0.0) + d.get("dF_irr", 0.0)
    df_str_pct = 100.0 * d.get("dF_str", 0.0) / denom_g if denom_g else 0.0
    return f_str_pct, df_str_pct


def _reuse_section(reuse: dict | None) -> dict | None:
    """Histogram bins trimmed to the populated prefix, plus the moments."""
    if not reuse:
        return None
    counts = [int(c) for c in reuse.get("counts", [])]
    last = 0
    for i, c in enumerate(counts):
        if c:
            last = i + 1
    counts = counts[: max(last, 1)] if counts else [0]
    labels = []
    for k in range(len(counts)):
        if k == 0:
            labels.append("0")
        elif k == 1:
            labels.append("1")
        else:
            labels.append(f"[{2 ** (k - 1)},{2 ** k})")
    n_reuse = int(reuse.get("n_reuse", 0))
    d_sum = int(reuse.get("d_sum", 0))
    return {
        "counts": counts,
        "labels": labels,
        "n_cold": int(reuse.get("n_cold", 0)),
        "n_reuse": n_reuse,
        "d_max": int(reuse.get("d_max", 0)),
        "mean": d_sum / n_reuse if n_reuse else 0.0,
        "scope": reuse.get("scope", "sample"),
    }


def _function_rows(functions: dict) -> list[dict]:
    """Per-function table rows, hottest (A_est) first, name-tiebroken."""
    rows = []

    def hotness(name: str) -> tuple[float, str]:
        a = _num(functions[name].get("A_est"), 0.0)
        return (-(a if a is not None else 0.0), name)

    for name in sorted(functions, key=hotness):
        d = functions[name]
        f_str_pct, df_str_pct = _fn_pcts(d)
        rows.append(
            {
                "function": name,
                "A_obs": int(d.get("A_obs", 0)),
                "A_est": _num(d.get("A_est")),
                "F_est": _num(d.get("F_est")),
                "dF": _num(d.get("dF")),
                "F_str_pct": _num(f_str_pct),
                "dF_str_pct": _num(df_str_pct),
            }
        )
    return rows


def _summary_tiles(payload: dict) -> list[dict]:
    """The headline stat tiles (paper Table IV row for the whole trace)."""
    passes = payload.get("passes", {})
    d = passes.get("diagnostics") or {}
    tiles = [
        {"label": "accesses (est)", "value": _num(d.get("A_est")), "kind": "quantity"},
        {"label": "footprint (est)", "value": _num(d.get("F_est")), "kind": "quantity"},
        {"label": "growth dF", "value": _num(d.get("dF")), "kind": "ratio"},
    ]
    if d:
        f_str_pct, _ = _fn_pcts(d)
        tiles.append({"label": "strided F%", "value": _num(f_str_pct), "kind": "percent"})
        tiles.append(
            {"label": "constant A%", "value": _num(d.get("A_const_pct")), "kind": "percent"}
        )
    cap = passes.get("captures")
    if cap:
        tiles.append(
            {"label": "captures", "value": _num(cap.get("captures"), 0.0), "kind": "count"}
        )
        tiles.append(
            {"label": "survivals", "value": _num(cap.get("survivals"), 0.0), "kind": "count"}
        )
    reuse = _reuse_section(passes.get("reuse"))
    if reuse:
        tiles.append({"label": "mean reuse D", "value": _num(reuse["mean"]), "kind": "ratio"})
    return tiles


def _sweep_rows(sweep) -> list[dict] | None:
    """Cache what-if grid rows, as serialized by the cache_sweep pass."""
    if not sweep:
        return None
    rows = []
    for r in sweep:
        rows.append(
            {
                "size_bytes": int(r.get("size_bytes", 0)),
                "line_bytes": int(r.get("line_bytes", 0)),
                "ways": int(r.get("ways", 0)),
                "n_sets": int(r.get("n_sets", 0)),
                "hit_ratio": _num(r.get("hit_ratio")),
                "predicted_hit_ratio": _num(r.get("predicted_hit_ratio")),
                "n_accesses": int(r.get("n_accesses", 0)),
            }
        )
    return rows


def build_viewmodel(payload: dict) -> dict:
    """The viewmodel dict for one report payload (pure, deterministic).

    Input is a *jsonable* payload dict; output is a jsonable dict whose
    canonical serialization (:func:`viewmodel_json`) is stable byte-wise
    across processes, cache states, and live-vs-offline render paths.
    """
    passes = payload.get("passes", {})
    viz = payload.get("viz") or {}
    module = payload.get("module", "")
    vm = {
        "schema": VIEWMODEL_SCHEMA,
        "title": f"MemGaze report — {module}",
        "meta": {
            "module": module,
            "n_events": int(payload.get("n_events", 0)),
            "n_samples": int(payload.get("n_samples", 0)),
            "n_loads_total": int(payload.get("n_loads_total", 0)),
            "rho": _num(payload.get("rho"), 1.0),
            "payload_schema": payload.get("schema"),
        },
        "summary": _summary_tiles(payload),
        "functions": _function_rows(payload.get("functions", {})),
        "hotspots": [
            {
                "function": h.get("function", ""),
                "share": _num(h.get("share")),
                "n_accesses": int(h.get("n_accesses", 0)),
            }
            for h in passes.get("hotspot", []) or []
        ],
        "reuse": _reuse_section(passes.get("reuse")),
        "intervals": [
            {
                "interval": int(r.get("interval", i)),
                "F": _num(r.get("F")),
                "dF": _num(r.get("dF")),
                "D": _num(r.get("D")),
                "A": _num(r.get("A")),
                "A_obs": int(r.get("A_obs", 0)),
            }
            for i, r in enumerate(viz.get("intervals", []) or [])
        ],
        "phases": list(viz.get("phases", []) or []),
        "tree": viz.get("tree"),
        "regions": list(viz.get("regions", []) or []),
        "heatmaps": list(viz.get("heatmaps", []) or []),
        "sweep": _sweep_rows(passes.get("cache_sweep")),
        "degraded": payload.get("degraded"),
    }
    return vm


def viewmodel_json(viewmodel: dict) -> str:
    """Canonical viewmodel serialization (sorted keys, 2-space indent).

    The same encoder as :func:`repro.core.report.payload_json`
    (:func:`repro._util.canonjson.canonical_json`); the golden suite
    freezes exactly this string, and the template embeds exactly this
    string into the page.
    """
    return canonical_json(viewmodel)
