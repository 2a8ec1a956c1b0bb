"""Execute the worked custom-pass example from ``docs/passes.md``.

The handbook promises that its ``StridedShare`` listing is a complete,
working pass. This test extracts that exact code block from the
markdown, executes it (which registers the pass), and runs it through
the parallel engine's fused scan — so editing the example
into something that no longer runs, or renaming the APIs it uses,
fails the build instead of shipping broken documentation.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.parallel import ParallelEngine
from repro.core.passes import unregister_pass
from repro.trace.event import LoadClass, make_events

REPO_ROOT = Path(__file__).resolve().parents[2]
PASSES_MD = REPO_ROOT / "docs" / "passes.md"

_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _worked_example() -> str:
    text = PASSES_MD.read_text(encoding="utf-8")
    blocks = [b for b in _FENCE_RE.findall(text) if "@register_pass" in b]
    assert len(blocks) == 1, (
        "docs/passes.md must contain exactly one @register_pass worked "
        f"example code block, found {len(blocks)}"
    )
    return blocks[0]


@pytest.fixture
def strided_share_pass():
    code = _worked_example()
    namespace: dict = {}
    exec(compile(code, str(PASSES_MD), "exec"), namespace)  # noqa: S102
    yield namespace
    unregister_pass("strided-share")


def _trace(n=30_000, seed=3):
    rng = np.random.default_rng(seed)
    ev = make_events(
        ip=rng.integers(0, 20, n),
        addr=rng.integers(0, 1 << 16, n) * 8,
        cls=rng.integers(0, 3, n).astype(np.uint8),
    )
    sid = np.sort(rng.integers(0, 23, n)).astype(np.int32)
    return ev, sid


def test_example_registers_and_runs_fused(strided_share_pass):
    ev, sid = _trace()
    with ParallelEngine(workers=1) as eng:
        results = eng.analyze((ev, sid, None), ["strided-share", "diagnostics"]).results
    want = int((ev["cls"] == int(LoadClass.STRIDED)).sum()) / len(ev)
    assert results["strided-share"] == want


def test_example_is_bit_identical_across_workers(strided_share_pass):
    """The doc's closing claim: 1 worker and 4 workers, same bits."""
    ev, sid = _trace()
    values = []
    for workers in (1, 4):
        with ParallelEngine(workers=workers, chunk_size=7_000) as eng:
            r = eng.analyze((ev, sid, None), ["strided-share"]).results
        values.append(r["strided-share"])
    assert values[0] == values[1]


def test_example_empty_trace(strided_share_pass):
    empty = make_events(ip=[], addr=[], cls=[])
    with ParallelEngine(workers=1) as eng:
        results = eng.analyze((empty, None, None), ["strided-share"]).results
    assert results["strided-share"] == 0.0
