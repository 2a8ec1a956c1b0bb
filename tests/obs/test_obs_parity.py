"""Observability parity: the same journal, metrics and stats shapes.

Runs fixed scenarios — ``report`` (text, ``--json``, ``--html``) with
``--journal --metrics --stats --workers 2``, a 2-cell ``matrix`` with
``--journal --metrics``, and one in-process :class:`TraceServer`
session (open, two ingests, query, stop) — and reduces what each left
behind to its shape, with timings, pids and paths stripped:

* the multiset of journal ``(event, stage or message)`` keys;
* the ``--metrics`` export's key tree, metric names included;
* the ``--stats`` table's row names.

``obs_parity.json`` holds the shapes these scenarios produced before
the observability handle replaced the separate journal / metrics /
timers arguments, so the test pins that the refactor moved no line,
metric or stage row. To see the current shapes, run this module as a
script: ``PYTHONPATH=src python tests/obs/test_obs_parity.py``.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np

from repro.cli import main as cli_main
from repro.obs import MetricsRegistry, Obs, RunJournal, read_journal
from repro.trace.event import LoadClass, make_events
from repro.trace.tracefile import TraceMeta, write_trace

FIXTURE = Path(__file__).with_name("obs_parity.json")

#: 100 samples of 400 events: above the engine's pooling threshold, so
#: ``--workers 2`` publishes shared-memory shards to pool workers
N_SAMPLES, PER_SAMPLE = 100, 400


def _trace(path: Path, seed: int, n_samples: int = N_SAMPLES) -> tuple:
    """A deterministic sampled archive mixing all three load classes."""
    rng = np.random.default_rng(seed)
    n = n_samples * PER_SAMPLE
    kind = np.arange(n) % 3
    addr = np.where(
        kind == 0,
        0x1000_0000 + (np.arange(n) * 8) % 65536,
        np.where(kind == 1, 0x2000_0000 + rng.integers(0, 4096, n) * 8, 0x3000_0000),
    )
    cls = np.choose(
        kind, [int(LoadClass.STRIDED), int(LoadClass.IRREGULAR), int(LoadClass.CONSTANT)]
    )
    events = make_events(
        ip=0x40_0000 + kind * 4, addr=addr, cls=cls, fn=(np.arange(n) % 2).astype(np.uint32)
    )
    sample_id = np.repeat(np.arange(n_samples, dtype=np.int32), PER_SAMPLE)
    meta = TraceMeta(
        module=f"parity-{seed}",
        kind="sampled",
        period=1000,
        buffer_capacity=PER_SAMPLE,
        n_loads_total=n * 4,
        n_samples=n_samples,
        extra={"fn_names": {"0": "alpha", "1": "beta"}, "mode": "ldlat"},
    )
    write_trace(path, events, meta, sample_id)
    return events, sample_id, meta


def _journal_keys(path: Path) -> dict:
    keys = Counter(
        f"{r['event']}|{r.get('stage') or r.get('message') or ''}"
        for r in read_journal(path)
    )
    return dict(sorted(keys.items()))


def _key_tree(obj):
    """Dict keys all the way down; lists of dicts keep one tree per item."""
    if isinstance(obj, dict):
        return {k: _key_tree(v) for k, v in sorted(obj.items())}
    if isinstance(obj, list) and obj and all(isinstance(x, dict) for x in obj):
        return [_key_tree(x) for x in obj]
    return None


def _stats_rows(out: str) -> list[str]:
    lines = out.splitlines()
    start = lines.index("== analysis stage timings ==")
    return [line.split()[0] for line in lines[start + 1 :] if line.startswith("  ")]


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(argv) == 0
    return buf.getvalue()


def _report_shapes(tmp: Path, trace: Path) -> dict:
    shapes = {}
    for name, extra in (
        ("report-text", []),
        ("report-json", ["--json", "--cache-dir", str(tmp / "report-cache")]),
        ("report-html", ["--html", str(tmp / "r.html")]),
    ):
        journal, metrics = tmp / f"{name}.jsonl", tmp / f"{name}.json"
        out = _cli(
            ["report", str(trace), "--workers", "2", "--stats",
             "--journal", str(journal), "--metrics", str(metrics), *extra]
        )
        shapes[name] = {
            "journal": _journal_keys(journal),
            "metrics": _key_tree(json.loads(metrics.read_text())),
            "stats": _stats_rows(out),
        }
    return shapes


def _matrix_shapes(tmp: Path) -> dict:
    corpus = tmp / "corpus"
    corpus.mkdir()
    for label, seed in (("base", 1), ("cand", 2)):
        _trace(corpus / f"{label}.npz", seed, n_samples=20)
    journal, metrics = tmp / "matrix.jsonl", tmp / "matrix.json"
    _cli(["matrix", str(corpus), "--cache-dir", str(tmp / "matrix-cache"),
          "--journal", str(journal), "--metrics", str(metrics)])
    return {
        "journal": _journal_keys(journal),
        "metrics": _key_tree(json.loads(metrics.read_text())),
    }


def _serve_shapes(tmp: Path) -> dict:
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ServeConfig, TraceServer

    events, sample_id, meta = _trace(tmp / "serve-src.npz", 3, n_samples=20)
    path, metrics = tmp / "serve.jsonl", MetricsRegistry()
    obs = Obs(RunJournal(path), metrics)
    server = TraceServer(ServeConfig(root=tmp / "serve-state"), obs=obs)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    async def main() -> None:
        await server.start()
        started.set()
        await server.serve_until_stopped()

    thread = threading.Thread(target=loop.run_until_complete, args=(main(),))
    thread.start()
    try:
        assert started.wait(timeout=60)
        half = len(events) // 2
        with ServeClient(port=server.port) as c:
            c.open("s", meta)
            c.append("s", events[:half], sample_id[:half])
            c.append("s", events[half:], sample_id[half:])
            c.query("s")
            c.shutdown()
        thread.join(timeout=120)
    finally:
        for w in server.workers:
            w.kill()
        loop.close()
    return {"journal": _journal_keys(path), "metrics": _key_tree(metrics.as_dict())}


def collect_shapes(tmp: Path) -> dict:
    """Every scenario's shape, keyed by scenario name."""
    trace = tmp / "report.npz"
    _trace(trace, 0)
    return {
        **_report_shapes(tmp, trace),
        "matrix": _matrix_shapes(tmp),
        "serve": _serve_shapes(tmp),
    }


def test_observability_shapes_match_the_fixture(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    got = collect_shapes(tmp_path)
    assert sorted(got) == sorted(expected)
    for scenario in expected:
        for part in expected[scenario]:
            assert got[scenario][part] == expected[scenario][part], (scenario, part)


if __name__ == "__main__":  # pragma: no cover - prints the current shapes
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        json.dump(collect_shapes(Path(d)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
