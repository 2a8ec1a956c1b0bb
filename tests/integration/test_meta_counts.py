"""Every command derives a trace's counts and rho by one rule.

An archive's metadata may record ``n_samples=0`` and ``n_loads_total=0``
(a writer that did not know them). Then ``n_loads_total`` falls back to
the implied loads ``A + A_const``, ``n_samples`` to the sample-id count
(1 for a non-empty trace without sample ids), and rho, floored at 1, is
1. Whichever command reads such an archive, it reports those numbers:
a ``matrix`` cell is byte-identical to ``report --json``, and the text
report, ``--html``, ``info`` and ``diff`` all complete.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro._util.rng import derive_rng
from repro.cli import main as cli_main
from repro.core.artifacts import ArtifactStore
from repro.core.corpus import CorpusSpec
from repro.core.matrix import run_matrix
from repro.core.parallel import ParallelEngine
from repro.core.report import payload_json
from repro.obs import Obs, RunJournal, read_journal
from repro.trace.event import make_events
from repro.trace.tracefile import TraceMeta, write_trace

N_EVENTS = 20_000
N_SAMPLES = 40

#: (label, with sample ids, with compressed Constant records)
ARCHIVES = [
    ("sidless", False, False),
    ("sidless-const", False, True),
    ("sampled", True, False),
    ("sampled-const", True, True),
]


def _events(const: bool, seed: int = 0):
    rng = derive_rng(seed, "meta-counts-trace")
    return make_events(
        ip=rng.integers(0, 40, N_EVENTS),
        addr=rng.integers(0, 1 << 18, N_EVENTS),
        cls=rng.choice([0, 1, 2], N_EVENTS, p=[0.2, 0.4, 0.4]).astype(np.uint8),
        fn=rng.integers(0, 4, N_EVENTS),
        n_const=rng.integers(0, 3, N_EVENTS) if const else 0,
    )


def _write(path, sampled: bool, const: bool, *, meta_counts: bool = False):
    ev = _events(const)
    sid = (np.arange(N_EVENTS) * N_SAMPLES // N_EVENTS).astype(np.int32) if sampled else None
    implied = N_EVENTS + int(ev["n_const"].sum())
    meta = TraceMeta(
        module="meta-zero",
        kind="sampled",
        period=1000,
        buffer_capacity=256,
        n_loads_total=4 * implied if meta_counts else 0,
        n_samples=N_SAMPLES if meta_counts else 0,
        extra={"fn_names": {"0": "alpha", "1": "beta", "2": "gamma", "3": "delta"}},
    )
    write_trace(path, ev, meta, sid)
    return implied


def _run(capsys, *argv) -> str:
    assert cli_main(list(argv)) == 0, argv
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "label,sampled,const", ARCHIVES, ids=[label for label, _, _ in ARCHIVES]
)
def test_meta_zero_counts_agree_everywhere(tmp_path, capsys, label, sampled, const):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / f"{label}.npz"
    implied = _write(path, sampled, const)

    report = _run(capsys, "report", str(path), "--json", "--no-cache")
    payload = json.loads(report)
    assert payload["n_samples"] == (N_SAMPLES if sampled else 1)
    assert payload["n_loads_total"] == implied
    assert payload["rho"] == 1.0

    matrix = json.loads(_run(capsys, "matrix", str(corpus), "--json", "--no-cache"))
    assert payload_json(matrix["cells"][label]) == payload_json(payload)

    info = _run(capsys, "info", str(path))
    assert f"rho:           {payload['rho']:.1f}\n" in info
    assert f"samples:       {payload['n_samples']} " in info
    assert f"loads total:   {payload['n_loads_total']:,}\n" in info

    html = tmp_path / "r.html"
    _run(capsys, "report", str(path), "--html", str(html), "--no-cache")
    assert f"rho {payload['rho']:.3f}</p>" in html.read_text(encoding="utf-8")

    text = _run(capsys, "report", str(path), "--no-cache")
    assert "code windows" in text
    assert "alpha" in _run(capsys, "diff", str(path), str(path))


def test_warm_cell_decodes_no_events(tmp_path):
    """A cell of an archive that records its counts stays a pure cache read."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    _write(corpus / "t.npz", True, True, meta_counts=True)
    store = ArtifactStore(tmp_path / "cache")
    spec = CorpusSpec.from_directory(corpus)

    def cell(journal):
        with ParallelEngine(store=store, obs=Obs(RunJournal(journal))) as eng:
            out = run_matrix(spec, engine=eng).cells["t"]
        return out, [r for r in read_journal(journal) if r.get("event") == "chunk-read"]

    cold, cold_reads = cell(tmp_path / "cold.jsonl")
    warm, warm_reads = cell(tmp_path / "warm.jsonl")
    assert cold.mode == "full" and cold_reads
    assert warm.mode == "cached" and not warm_reads
    assert payload_json(warm.payload) == payload_json(cold.payload)
    assert warm.payload["n_samples"] == N_SAMPLES and warm.payload["rho"] == 4.0
