"""Golden regression fixtures: canonical archives, frozen report output.

``tests/integration/golden/`` holds a few small committed trace archives
plus the exact ``memgaze report --json`` text each must produce. Any
change to analysis numerics, pass serialization, or payload layout shows
up here as a byte diff against the frozen output — the same contract the
streaming service's live queries are held to.

Intentional changes are re-frozen with::

    pytest tests/integration/test_golden_reports.py --update-golden

which rewrites the ``*.json`` expectations and the ``*.report.txt``
text-report transcripts (and regenerates any missing archive from its
pinned recipe). Review the diff like any other code
change: every altered number is a behavior change.

The archive recipes use literal seeds, **not** the suite seed — goldens
must not move when ``MEMGAZE_TEST_SEED`` re-rolls the rest of the suite.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.trace.event import LoadClass, make_events
from repro.trace.tracefile import TraceMeta, write_trace

GOLDEN = Path(__file__).parent / "golden"


def _case_strided_mix(path: Path) -> None:
    """Strided sweeps + irregular pocket + constant, 8 samples, rho 4."""
    rng = np.random.default_rng(1001)
    n = 8 * 256
    kind = np.arange(n) % 4
    addr = np.where(
        kind < 2,
        0x1000_0000 + (np.arange(n) * 64) % 16384,
        np.where(kind == 2, 0x2000_0000 + rng.integers(0, 256, n) * 8, 0x3000_0000),
    )
    cls = np.where(
        kind < 2,
        int(LoadClass.STRIDED),
        np.where(kind == 2, int(LoadClass.IRREGULAR), int(LoadClass.CONSTANT)),
    )
    fn = (np.arange(n) >= n // 2).astype(np.uint32)
    events = make_events(ip=0x40_0000 + kind * 4, addr=addr, cls=cls, fn=fn)
    sample_id = np.repeat(np.arange(8, dtype=np.int32), 256)
    meta = TraceMeta(
        module="golden-strided-mix",
        kind="sampled",
        period=1024,
        buffer_capacity=256,
        n_loads_total=n * 4,
        n_samples=8,
        extra={"fn_names": {"0": "setup", "1": "kernel"}, "mode": "ldlat"},
    )
    write_trace(path, events, meta, sample_id)


def _case_irregular(path: Path) -> None:
    """Pointer-chase style: mostly irregular loads over a wide range."""
    rng = np.random.default_rng(2002)
    n = 6 * 300
    addr = 0x5000_0000 + rng.integers(0, 1 << 16, n) * 64
    cls = np.full(n, int(LoadClass.IRREGULAR))
    cls[::7] = int(LoadClass.STRIDED)
    events = make_events(ip=0x41_0000 + (np.arange(n) % 5), addr=addr, cls=cls)
    sample_id = np.repeat(np.arange(6, dtype=np.int32), 300)
    meta = TraceMeta(
        module="golden-irregular",
        kind="sampled",
        period=2400,
        buffer_capacity=300,
        n_loads_total=n * 8,
        n_samples=6,
        extra={"fn_names": {"0": "chase"}, "mode": "ldlat"},
    )
    write_trace(path, events, meta, sample_id)


def _case_sidless(path: Path) -> None:
    """No sample ids: the whole-trace-as-one-sample degenerate layout."""
    n = 1024
    addr = 0x6000_0000 + (np.arange(n) * 128) % 65536
    events = make_events(
        ip=np.full(n, 0x42_0000),
        addr=addr,
        cls=np.full(n, int(LoadClass.STRIDED), dtype=np.uint8),
    )
    meta = TraceMeta(
        module="golden-sidless",
        kind="full",
        n_loads_total=n,
        n_samples=1,
        extra={"fn_names": {}, "mode": "full"},
    )
    write_trace(path, events, meta, None)


CASES = {
    "strided-mix": _case_strided_mix,
    "irregular": _case_irregular,
    "sidless": _case_sidless,
}

#: (case, extra CLI args, expectation suffix) — the full report plus one
#: restricted --passes payload, to pin both JSON layouts
VARIANTS = [
    ("strided-mix", [], "report"),
    ("strided-mix", ["--passes", "diagnostics,captures,reuse"], "passes"),
    ("irregular", [], "report"),
    ("sidless", [], "report"),
]


#: the text-report runs pinned, one after another, in ``<case>.report.txt``:
#: the default sections, then every section option at a non-default value
TEXT_RUNS = [
    [],
    [
        "--regions", "--intervals", "4", "--max-regions", "3",
        "--hot-threshold", "0.2", "--phases", "--working-set", "--confidence",
    ],
]


def _archive(case: str, update: bool) -> Path:
    """The case's committed archive, regenerated from its recipe on update."""
    archive = GOLDEN / f"{case}.npz"
    if not archive.exists():
        if not update:
            pytest.fail(
                f"golden archive {archive} is missing — regenerate with "
                "--update-golden and commit it"
            )
        GOLDEN.mkdir(parents=True, exist_ok=True)
        CASES[case](archive)
    return archive


def _check(out: str, expected_path: Path, update: bool) -> None:
    """Compare ``out`` with the frozen expectation (or re-freeze it)."""
    if update:
        expected_path.write_text(out, encoding="utf-8")
        return
    if not expected_path.exists():
        pytest.fail(
            f"golden expectation {expected_path} is missing — freeze it with "
            "--update-golden and commit it"
        )
    assert out == expected_path.read_text(encoding="utf-8"), (
        f"report output drifted from {expected_path.name}; if the change is "
        "intentional, re-freeze with --update-golden and review the diff"
    )


@pytest.mark.parametrize(
    "case,extra,suffix", VARIANTS, ids=[f"{c}-{s}" for c, _, s in VARIANTS]
)
def test_golden_report(case, extra, suffix, capsys, request):
    update = request.config.getoption("--update-golden")
    archive = _archive(case, update)
    rc = cli_main(["report", str(archive), "--json", *extra])
    out = capsys.readouterr().out
    assert rc == 0
    _check(out, GOLDEN / f"{case}.{suffix}.json", update)


@pytest.mark.parametrize("case", list(CASES))
def test_golden_text_report(case, capsys, request):
    """The human-readable report sections, byte for byte."""
    update = request.config.getoption("--update-golden")
    archive = _archive(case, update)
    runs = []
    for extra in TEXT_RUNS:
        rc = cli_main(["report", str(archive), *extra])
        assert rc == 0
        command = " ".join(["$ memgaze report", f"{case}.npz", *extra])
        runs.append(f"{command}\n{capsys.readouterr().out}")
    _check("\n".join(runs), GOLDEN / f"{case}.report.txt", update)
