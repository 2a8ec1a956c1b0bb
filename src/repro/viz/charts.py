"""Inline SVG chart builders for the HTML report.

Pure string functions over viewmodel substructures: same input, same
bytes. Every coordinate goes through :func:`_n`, which renders finite
numbers with ``%.6g`` and maps anything non-finite to ``0`` — so even a
degenerate section (zero events, a single sample, an all-NaN heatmap)
emits well-formed SVG with finite coordinates, which the property suite
asserts. No external fonts, images, or stylesheets are referenced.
"""

from __future__ import annotations

import html
import math

__all__ = [
    "svg_reuse_histogram",
    "svg_phase_strip",
    "svg_flame_tree",
    "svg_heatmap",
]


def _n(x) -> str:
    """One numeric SVG attribute: finite, deterministic, compact."""
    try:
        v = float(x)
    except (TypeError, ValueError):
        return "0"
    if not math.isfinite(v):
        return "0"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".6g")


def _esc(s) -> str:
    return html.escape(str(s), quote=True)


def _ramp(frac: float, lo=(0xF3, 0xF6, 0xFB), hi=(0x14, 0x3A, 0x7B)) -> str:
    """Linear two-color ramp; ``frac`` outside [0,1] (or NaN) clamps."""
    if not math.isfinite(frac):
        frac = 0.0
    frac = min(1.0, max(0.0, frac))
    (r0, g0, b0), (r1, g1, b1) = lo, hi
    return "#%02x%02x%02x" % (
        round(r0 + (r1 - r0) * frac),
        round(g0 + (g1 - g0) * frac),
        round(b0 + (b1 - b0) * frac),
    )


_PHASE_FILL = {"regular": "#4c8f5d", "irregular": "#b0563c", "mixed": "#c7a13c"}


def svg_reuse_histogram(reuse: dict | None, *, width: int = 660, height: int = 190) -> str:
    """Log2-binned reuse-distance histogram as vertical bars."""
    if not reuse or not reuse.get("counts"):
        return ""
    counts = reuse["counts"]
    labels = reuse.get("labels", [str(i) for i in range(len(counts))])
    top = max(max(counts), 1)
    pad_l, pad_b, pad_t = 10, 34, 8
    plot_h = height - pad_b - pad_t
    bw = (width - 2 * pad_l) / max(len(counts), 1)
    parts = [
        f'<svg class="chart" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img" '
        'aria-label="reuse distance histogram">'
    ]
    for i, c in enumerate(counts):
        # sqrt scale keeps the long tail visible without hiding the head
        h = plot_h * math.sqrt(c / top) if c > 0 else 0.0
        x = pad_l + i * bw
        y = pad_t + plot_h - h
        parts.append(
            f'<rect x="{_n(x + 1)}" y="{_n(y)}" width="{_n(max(bw - 2, 1))}" '
            f'height="{_n(h)}" fill="{_ramp(c / top)}">'
            f"<title>D in {_esc(labels[i])}: {c} accesses</title></rect>"
        )
        if len(counts) <= 24 or i % 2 == 0:
            parts.append(
                f'<text x="{_n(x + bw / 2)}" y="{_n(height - pad_b + 14)}" '
                f'class="tick" text-anchor="middle">{_esc(labels[i])}</text>'
            )
    parts.append(
        f'<line x1="{_n(pad_l)}" y1="{_n(pad_t + plot_h)}" '
        f'x2="{_n(width - pad_l)}" y2="{_n(pad_t + plot_h)}" class="axis"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


def svg_phase_strip(phases: list[dict], *, width: int = 900, height: int = 46) -> str:
    """Execution phases as one labelled horizontal strip over load time."""
    if not phases:
        return ""
    t_lo = min(int(p.get("t_start", 0)) for p in phases)
    t_hi = max(int(p.get("t_end", 1)) for p in phases)
    span = max(t_hi - t_lo, 1)
    parts = [
        f'<svg class="chart" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img" aria-label="execution phases">'
    ]
    for p in phases:
        x = (int(p.get("t_start", 0)) - t_lo) / span * width
        w = max((int(p.get("t_end", 0)) - int(p.get("t_start", 0))) / span * width, 1.0)
        label = p.get("label", "mixed")
        fill = _PHASE_FILL.get(label, "#8a8f98")
        share = p.get("strided_share")
        share_pct = f"{100 * share:.0f}%" if isinstance(share, (int, float)) else "-"
        parts.append(
            f'<rect x="{_n(x)}" y="6" width="{_n(w)}" height="{height - 24}" '
            f'fill="{fill}" class="phase"><title>phase {p.get("index", 0)}: '
            f"{_esc(label)}, strided {share_pct}, "
            f'{p.get("n_samples", 0)} samples</title></rect>'
        )
        if w > 56:
            parts.append(
                f'<text x="{_n(x + w / 2)}" y="{_n(height / 2 - 1)}" class="phaselabel" '
                f'text-anchor="middle">{_esc(label)}</text>'
            )
    parts.append(
        f'<text x="0" y="{height - 4}" class="tick">t={t_lo}</text>'
        f'<text x="{width}" y="{height - 4}" class="tick" text-anchor="end">t={t_hi}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _tree_rows(tree: dict) -> list[list[dict]]:
    """Breadth-first levels of the serialized interval tree."""
    rows, frontier = [], [tree]
    while frontier:
        rows.append(frontier)
        frontier = [c for node in frontier for c in node.get("children", [])]
    return rows


def svg_flame_tree(tree: dict | None, *, width: int = 900, row_h: int = 22) -> str:
    """The execution interval tree as a zoomable flamegraph.

    Row 0 is the root interval; each row below splits it in time. Leaf
    function nodes render in their own hue. Rect fills encode footprint
    growth (dF). Each rect carries ``data-t0``/``data-t1`` so the inline
    JS can re-scale the x axis on click (zoom) without re-rendering.
    """
    if not tree:
        return ""
    rows = _tree_rows(tree)
    t_lo, t_hi = int(tree.get("t_start", 0)), int(tree.get("t_end", 1))
    span = max(t_hi - t_lo, 1)
    height = row_h * len(rows) + 20
    parts = [
        f'<svg class="chart" id="flame" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" data-t0="{t_lo}" data-t1="{t_hi}" '
        'role="img" aria-label="execution interval tree">'
    ]
    max_df = max(
        (n.get("df") or 0.0 for row in rows for n in row if n.get("df") is not None),
        default=0.0,
    )
    for depth, row in enumerate(rows):
        y = depth * row_h + 2
        for node in row:
            n_t0 = int(node.get("t_start", t_lo))
            n_t1 = int(node.get("t_end", n_t0 + 1))
            x = (n_t0 - t_lo) / span * width
            w = max((n_t1 - n_t0) / span * width, 0.5)
            fn = node.get("function")
            df = node.get("df")
            if fn:
                fill = "#7b5ea7"
            else:
                fill = _ramp((df or 0.0) / max_df if max_df > 0 else 0.0,
                             lo=(0xE8, 0xC9, 0x9B), hi=(0xA6, 0x3A, 0x2A))
            label = fn or f"level {node.get('level', 0)}"
            title = (
                f"{label}: t [{n_t0}, {n_t1}), "
                f"A_obs {node.get('a_obs', 0)}, dF {df if df is not None else '-'}"
            )
            parts.append(
                f'<rect class="frame" x="{_n(x)}" y="{_n(y)}" width="{_n(w)}" '
                f'height="{row_h - 3}" fill="{fill}" data-t0="{n_t0}" data-t1="{n_t1}">'
                f"<title>{_esc(title)}</title></rect>"
            )
            if w > 64:
                parts.append(
                    f'<text x="{_n(x + 4)}" y="{_n(y + row_h - 9)}" class="framelabel" '
                    f'data-t0="{n_t0}" data-t1="{n_t1}">{_esc(label)}</text>'
                )
    parts.append("</svg>")
    return "".join(parts)


def _heat_grid(matrix, top: float, x0: float, cell_w: float, cell_h: float, reuse: bool) -> str:
    """The grid's cells, skipping None and non-finite ones, a row at a time.

    Each column's ``x``, each row's ``y`` and the cell size are formatted
    once per grid, and the fill and label once per distinct value: a
    page's heatmaps repeat few values across thousands of cells. The
    cells' pieces go into one list joined once.
    """
    lo, hi = (
        ((0xF5, 0xEE, 0xE6), (0x8C, 0x2F, 0x6B)) if reuse else ((0xF3, 0xF6, 0xFB), (0x14, 0x3A, 0x7B))
    )
    size = f'width="{_n(cell_w)}" height="{_n(cell_h)}"'
    n_cols = max((len(row) for row in matrix), default=0)
    heads = [f'<rect x="{_n(x0 + c * cell_w)}" y="' for c in range(n_cols)]
    bins = [f", bin {c}: " for c in range(n_cols)]
    log_top = math.log1p(top) if top > 0 else 0.0
    styles: dict = {}  # cell value -> (fill, label), or None for a skipped cell

    def style(v):
        if v is None:
            return None
        v = float(v)
        if not math.isfinite(v):
            return None
        shown = max(v, 0.0)  # a negative cell must not crash log1p
        frac = math.log1p(shown) / log_top if top > 0 else 0.0
        return (_ramp(frac, lo, hi), _n(shown))

    out: list[str] = []
    add = out.extend
    for r, row in enumerate(matrix):
        mid = f'{_n(r * cell_h)}" {size} fill="'
        page = f'"><title>page {r}'
        for c, v in enumerate(row):
            try:
                st = styles[v]
            except KeyError:
                st = styles[v] = style(v)
            if st is not None:
                add((heads[c], mid, st[0], page, bins[c], st[1], "</title></rect>"))
    return "".join(out)


def svg_heatmap(hm: dict, *, cell: int = 11) -> str:
    """One region's (page × time) access-count and mean-reuse grids."""
    counts = hm.get("counts") or []
    reuse = hm.get("reuse") or []
    if not counts or not counts[0]:
        return ""
    n_pages, n_bins = len(counts), len(counts[0])
    gap = 28
    grid_w = n_bins * cell
    width = grid_w * 2 + gap
    height = n_pages * cell + 18
    top_c = max((float(v) for row in counts for v in row), default=0.0)
    finite_reuse = [
        float(v)
        for row in reuse
        for v in row
        if v is not None and math.isfinite(float(v))
    ]
    top_r = max(finite_reuse, default=0.0)
    parts = [
        f'<svg class="chart" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img" aria-label="access heatmap">'
    ]
    parts.append(_heat_grid(counts, top_c, 0, cell, cell, reuse=False))
    parts.append(_heat_grid(reuse, top_r, grid_w + gap, cell, cell, reuse=True))
    parts.append(
        f'<text x="0" y="{height - 4}" class="tick">accesses / (page, time)</text>'
        f'<text x="{grid_w + gap}" y="{height - 4}" class="tick">mean reuse D</text>'
    )
    parts.append("</svg>")
    return "".join(parts)
