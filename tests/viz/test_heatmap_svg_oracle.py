"""Byte pin for the heatmap SVG: ``svg_heatmap`` equals a per-cell oracle.

The golden HTML suite freezes only the viewmodel, so nothing else would
notice a change in the heatmap markup. The oracle below is the per-cell
renderer the report shipped with — every cell formats its own
coordinates, value label and fill — kept here verbatim, helpers
included, so any rewrite of :func:`repro.viz.charts.svg_heatmap` must
reproduce its bytes for every matrix: ints, floats, ``None``, NaN, ±inf,
negative cells, all-zero grids and repeated values.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz.charts import svg_heatmap


# -- the oracle: the per-cell renderer, verbatim ---------------------------------


def _oracle_n(x) -> str:
    try:
        v = float(x)
    except (TypeError, ValueError):
        return "0"
    if not math.isfinite(v):
        return "0"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".6g")


def _oracle_ramp(frac: float, lo=(0xF3, 0xF6, 0xFB), hi=(0x14, 0x3A, 0x7B)) -> str:
    if not math.isfinite(frac):
        frac = 0.0
    frac = min(1.0, max(0.0, frac))
    rgb = tuple(round(a + (b - a) * frac) for a, b in zip(lo, hi))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _oracle_heat_grid(matrix, top, x0, cell_w, cell_h, reuse) -> str:
    cells = []
    for r, row in enumerate(matrix):
        for c, v in enumerate(row):
            if v is None:
                continue
            v = float(v)
            if not math.isfinite(v):
                continue
            v = max(v, 0.0)
            frac = math.log1p(v) / math.log1p(top) if top > 0 else 0.0
            fill = (
                _oracle_ramp(frac, lo=(0xF5, 0xEE, 0xE6), hi=(0x8C, 0x2F, 0x6B))
                if reuse
                else _oracle_ramp(frac)
            )
            cells.append(
                f'<rect x="{_oracle_n(x0 + c * cell_w)}" y="{_oracle_n(r * cell_h)}" '
                f'width="{_oracle_n(cell_w)}" height="{_oracle_n(cell_h)}" fill="{fill}">'
                f"<title>page {r}, bin {c}: {_oracle_n(v)}</title></rect>"
            )
    return "".join(cells)


def oracle_svg_heatmap(hm: dict, *, cell: int = 11) -> str:
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
    parts.append(_oracle_heat_grid(counts, top_c, 0, cell, cell, reuse=False))
    parts.append(_oracle_heat_grid(reuse, top_r, grid_w + gap, cell, cell, reuse=True))
    parts.append(
        f'<text x="0" y="{height - 4}" class="tick">accesses / (page, time)</text>'
        f'<text x="{grid_w + gap}" y="{height - 4}" class="tick">mean reuse D</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


# -- strategies --------------------------------------------------------------------

#: a small pool drawn often, so equal values land in different cells
_POOL = [0, 1, 7, 0.0, -0.0, 2.5, 1e-7, 123456.789, -3, -0.5, 1e16]
_CELL = st.one_of(
    st.sampled_from(_POOL),
    st.integers(min_value=-(10**6), max_value=10**9),
    st.floats(width=64),  # NaN and ±inf included on purpose
)
_REUSE_CELL = st.one_of(st.none(), _CELL)


@st.composite
def _grids(draw):
    n_pages = draw(st.integers(0, 5))
    n_bins = draw(st.integers(0, 6))
    shape = st.lists(
        st.lists(_CELL, min_size=n_bins, max_size=n_bins),
        min_size=n_pages,
        max_size=n_pages,
    )
    counts = draw(shape)
    reuse = draw(
        st.lists(
            st.lists(_REUSE_CELL, min_size=n_bins, max_size=n_bins),
            min_size=n_pages,
            max_size=n_pages,
        )
    )
    return {"counts": counts, "reuse": reuse}


@given(_grids(), st.integers(1, 13))
@settings(max_examples=300, deadline=None)
def test_svg_heatmap_matches_per_cell_oracle(hm, cell):
    assert svg_heatmap(hm, cell=cell) == oracle_svg_heatmap(hm, cell=cell)


@pytest.mark.parametrize(
    "hm",
    [
        pytest.param({"counts": [[0, 0], [0, 0]], "reuse": [[0.0, None], [None, 0.0]]},
                     id="all-zero"),
        pytest.param({"counts": [[3, 3, 3], [3, 0, 3]], "reuse": [[2.0, 2.0, 2.0]] * 2},
                     id="repeated-values"),
        pytest.param({"counts": [[-4, 2], [float("nan"), float("inf")]],
                      "reuse": [[float("-inf"), -1.5], [None, float("nan")]]},
                     id="negative-and-non-finite"),
        pytest.param({"counts": [[1.5, 2.25]], "reuse": []}, id="no-reuse-rows"),
        pytest.param({"counts": [[5] * 32 for _ in range(24)],
                      "reuse": [[float(c % 4) for c in range(32)] for _ in range(24)]},
                     id="report-sized"),
    ],
)
def test_svg_heatmap_edge_grids(hm):
    assert svg_heatmap(hm) == oracle_svg_heatmap(hm)
