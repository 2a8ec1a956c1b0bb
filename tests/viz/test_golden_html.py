"""Golden-pixel harness for the HTML report.

``memgaze report --html`` embeds its viewmodel — the pure content layer
behind the page — as canonical JSON in a ``<script type="application/
json">`` block. This suite freezes those bytes for the same canonical
archives the JSON golden suite pins (``tests/integration/golden/``), so
any drift in the visual report's *content* is a reviewable fixture diff,
while styling-only edits (CSS, inline JS) stay free of golden churn.

It also proves the rendering invariants the dashboard relies on: the
whole page renders byte-identically with a cold cache, a warm cache, and
no cache at all, and the emitted file passes the self-containment
validator (:mod:`repro.viz.validate`).

Re-freeze intentional content changes with::

    pytest tests/viz/test_golden_html.py --update-golden

and review the diff like any other code change. The archives themselves
are owned by ``tests/integration/test_golden_reports.py`` (literal
seeds, decoupled from ``MEMGAZE_TEST_SEED``).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.viz import VIEWMODEL_SCHEMA
from repro.viz.validate import validate_html

GOLDEN = Path(__file__).resolve().parents[1] / "integration" / "golden"

CASES = ["strided-mix", "irregular", "sidless"]

_VM_RE = re.compile(
    r'<script type="application/json" id="memgaze-viewmodel">\n(.*?)\n</script>',
    re.DOTALL,
)


def embedded_viewmodel(page: str) -> str:
    """The canonical viewmodel JSON embedded in a rendered page."""
    m = _VM_RE.search(page)
    assert m, "page has no embedded viewmodel block"
    return m.group(1).replace("<\\/", "</")


def _archive(case: str) -> Path:
    archive = GOLDEN / f"{case}.npz"
    if not archive.exists():
        pytest.fail(
            f"golden archive {archive} is missing — regenerate with "
            "'pytest tests/integration/test_golden_reports.py "
            "--update-golden' and commit it"
        )
    return archive


def _render(archive: Path, out: Path, *extra: str) -> str:
    rc = cli_main(["report", str(archive), "--html", str(out), *extra])
    assert rc == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", CASES)
def test_golden_viewmodel(case, tmp_path, request):
    update = request.config.getoption("--update-golden")
    expected_path = GOLDEN / f"{case}.viewmodel.json"

    page = _render(_archive(case), tmp_path / "report.html")
    vm_text = embedded_viewmodel(page)
    assert json.loads(vm_text)["schema"] == VIEWMODEL_SCHEMA

    if update:
        expected_path.write_text(vm_text, encoding="utf-8")
        return
    if not expected_path.exists():
        pytest.fail(
            f"golden expectation {expected_path} is missing — freeze it "
            "with --update-golden and commit it"
        )
    assert vm_text == expected_path.read_text(encoding="utf-8"), (
        f"viewmodel drifted from {expected_path.name}; if the change is "
        "intentional, re-freeze with --update-golden and review the diff"
    )


@pytest.mark.parametrize("case", CASES)
def test_page_is_self_contained(case, tmp_path):
    page = _render(_archive(case), tmp_path / "report.html")
    assert validate_html(page) == []


def test_cold_warm_and_no_cache_render_identical_bytes(tmp_path):
    """The analysis cache must never change a single byte of the page.

    Four renders of the same archive — no cache, cold cache (populating
    ``--cache-dir``), warm cache (hitting it), and a sharded one across
    two workers — must agree exactly. This is the offline half of the
    live-vs-offline identity the dashboard test closes
    (``tests/serve/test_dashboard.py``).
    """
    archive = _archive("strided-mix")
    cache = tmp_path / "cache"
    plain = _render(archive, tmp_path / "plain.html")
    cold = _render(archive, tmp_path / "cold.html", "--cache-dir", str(cache))
    warm = _render(archive, tmp_path / "warm.html", "--cache-dir", str(cache))
    sharded = _render(
        archive, tmp_path / "sharded.html", "--no-cache", "--workers", "2",
        "--chunk-size", "256",
    )
    assert cold == warm, "warm-cache render drifted from the cold one"
    assert plain == cold, "cached render drifted from the uncached one"
    assert sharded == plain, "sharded render drifted from the serial one"


def test_html_report_reuse_kernel_calls(tmp_path, monkeypatch):
    """The page's analyses share one engine call, one scan and its two
    reuse-distance artifacts.

    The golden ``strided-mix`` page renders 2 heatmaps and 8 interval
    rows. Serially one scan runs the report passes, the interval rows
    and the region request that serves every hot region's statistics
    and both heatmaps. It makes one kernel call over all records (the
    reuse histogram's, which the interval rows cut at their edges
    without recomputing) and one over the non-Constant records (the
    regions') — 2 in all.
    """
    import repro.core.reuse as reuse

    calls = []
    kernel = reuse.stack_distances

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    from repro.core.parallel import ParallelEngine

    analyses = []
    analyze = ParallelEngine.analyze_many

    def counted_analyze(self, items, **kwargs):
        analyses.extend(items)
        return analyze(self, items, **kwargs)

    monkeypatch.setattr(reuse, "stack_distances", counted)
    monkeypatch.setattr(ParallelEngine, "analyze_many", counted_analyze)
    page = _render(
        _archive("strided-mix"), tmp_path / "r.html", "--workers", "1", "--no-cache"
    )
    vm = json.loads(embedded_viewmodel(page))
    assert len(vm["heatmaps"]) == 2
    assert len(vm["intervals"]) == 8
    assert len(calls) == 2
    assert len(analyses) == 1


def test_render_is_deterministic(tmp_path):
    archive = _archive("irregular")
    first = _render(archive, tmp_path / "a.html")
    second = _render(archive, tmp_path / "b.html")
    assert first == second
