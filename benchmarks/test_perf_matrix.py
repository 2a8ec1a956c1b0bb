"""Performance: fleet-scale matrix runs, cold vs warm (docs/matrix.md).

The corpus layer's acceptance criterion, pinned: over a directory
corpus of >= 4 archives, a warm `run_matrix` (every cell served from
the content-addressed artifact store) is >= 5x faster than the cold
run that populated it, and the aggregated corpus payload is
*byte-identical* — the cache can speed a verdict up but can never
change it. The journal's per-cell ``matrix-cell`` lines are the
cache-hit evidence (``mode: "cached"`` for every warm cell).

A second cold run at 2 workers, into a store of its own, records what
the shared pool does for a cold corpus next to the serial cold run
(no gate; its payload must equal the serial one).

Trace size per cell is tunable via ``MEMGAZE_BENCH_EVENTS`` (total
across cells, default 600K). Set ``MEMGAZE_BENCH_JOURNAL`` to a path
to keep the journal — CI uploads it as a build artifact.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchmarks.conftest import save_result
from repro._util.timers import Timer
from repro.core.artifacts import ArtifactStore
from repro.core.corpus import CorpusSpec
from repro.core.matrix import run_matrix
from repro.core.parallel import ParallelEngine
from repro.core.report import payload_json
from repro.obs import MetricsRegistry, Obs, RunJournal, read_journal
from repro.trace.event import make_events
from repro.trace.tracefile import TraceMeta, write_trace

N_CELLS = 4
N_TOTAL = int(os.environ.get("MEMGAZE_BENCH_EVENTS", 600_000))
N_PER_CELL = max(N_TOTAL // N_CELLS, 10_000)


def _cell_trace(n: int, seed: int):
    """One cell's synthetic mixed-pattern trace (distinct per seed)."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n, dtype=np.uint64)
    strided = 0x10_0000 + (idx * 8) % (1 << 22)
    irregular = 0x200_0000 + rng.integers(0, 1 << 20, n).astype(np.uint64) * 8
    cls = rng.choice([0, 1, 2], n, p=[0.1, 0.5, 0.4]).astype(np.uint8)
    ev = make_events(
        ip=(idx % 64) + 1,
        addr=np.where(cls == 1, strided, irregular),
        cls=cls,
        n_const=np.where(rng.random(n) < 0.05, 3, 0).astype(np.uint16),
        fn=(idx % 8).astype(np.uint32),
    )
    sid = (np.arange(n, dtype=np.int64) // 1024).astype(np.int32)
    return ev, sid


def _corpus_dir(root) -> CorpusSpec:
    root.mkdir()
    for i in range(N_CELLS):
        ev, sid = _cell_trace(N_PER_CELL, seed=100 + i)
        meta = TraceMeta(
            module=f"cell{i}", kind="sampled", period=12_000,
            buffer_capacity=1024, n_loads_total=len(ev) * 2,
            n_samples=int(sid[-1]) + 1,
        )
        write_trace(root / f"cell{i}.npz", ev, meta, sid)
    return CorpusSpec.from_directory(root)


@pytest.mark.perf
def test_matrix_warm_vs_cold(tmp_path):
    """Acceptance: a warm matrix run is >= 5x faster, byte-identical."""
    spec = _corpus_dir(tmp_path / "corpus")
    jpath = os.environ.get("MEMGAZE_BENCH_JOURNAL") or (tmp_path / "matrix.jsonl")

    def run(cache="cache", workers=1):
        obs = Obs(RunJournal(jpath), MetricsRegistry())
        with Timer() as t:
            store = ArtifactStore(tmp_path / cache, obs=obs)
            with ParallelEngine(workers, store=store, obs=obs) as engine:
                result = run_matrix(spec, engine=engine)
        obs.close()
        return result, t.elapsed

    pooled, t_pooled = run("pooled-cache", workers=2)
    cold, t_cold = run()
    warm, t_warm = run()

    assert set(cold.modes.values()) == set(pooled.modes.values()) == {"full"}
    assert set(warm.modes.values()) == {"cached"}
    cold_bytes = payload_json(cold.corpus_payload())
    assert payload_json(warm.corpus_payload()) == cold_bytes
    assert payload_json(pooled.corpus_payload()) == cold_bytes

    # journal evidence: the last N_CELLS matrix-cell lines are all cache hits
    cells = [r for r in read_journal(jpath) if r["event"] == "matrix-cell"]
    assert [r["mode"] for r in cells[-N_CELLS:]] == ["cached"] * N_CELLS

    speedup = t_cold / max(t_warm, 1e-9)
    save_result(
        "perf_matrix_warmup",
        f"matrix corpus run: cold vs warm ({N_CELLS} cells, "
        f"{N_PER_CELL:,} events/cell, cpus: {os.cpu_count()})\n"
        f"cold (scan+store): {t_cold * 1e3:9.1f} ms\n"
        f"cold, 2 workers:   {t_pooled * 1e3:9.1f} ms\n"
        f"warm (cache hits): {t_warm * 1e3:9.1f} ms\n"
        f"speedup:           {speedup:8.1f}x  (floor: 5x, warm vs serial cold)\n"
        f"payload:           {len(cold_bytes):,} bytes, warm == cold == 2-worker cold",
    )
    assert speedup >= 5.0, f"warm matrix run only {speedup:.1f}x faster"
