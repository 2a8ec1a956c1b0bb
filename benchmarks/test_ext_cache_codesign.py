"""Extension: memory-system co-design with a cache model (paper SS:IX).

The paper's future work: "Using models of different memory systems, we
can obtain insight into memory system performance and concurrency with
respect to data location, data movement, and workload accesses."

This bench drives the LRU cache model with the miniVite traces and
checks that the analytical diagnostics predict the simulated hardware:

* the chained map (v1) misses far more than the hopscotch maps;
* strided accesses hit better than irregular ones in every variant;
* across variants, higher footprint growth -> lower hit ratio.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchmarks.conftest import once, save_result
from repro._util.tables import format_table
from repro._util.timers import Timer
from repro.core.cachesim import (
    CacheConfig,
    SweepPartial,
    simulate_cache,
    sweep_configs,
    sweep_finalize,
    sweep_update,
)
from repro.core.diagnostics import compute_diagnostics
from repro.trace.event import LoadClass

#: a 4 KiB cache, proportional to our reduced working sets (scale-10
#: graphs), with the stream prefetcher on — the paper's premise
CACHE = CacheConfig(size_bytes=4 * 1024, line_bytes=64, ways=8, prefetch_next_line=True)
PREFIX = 150_000  # bounded prefix keeps the python-level simulation fast


def test_ext_cache_codesign(benchmark, minivite_runs):
    def work():
        out = {}
        for v, r in minivite_runs.items():
            lo, hi = r.phase_bounds["modularity"]
            ev = r.events[lo : min(hi, lo + PREFIX)]
            stats = simulate_cache(ev, CACHE)
            diag = compute_diagnostics(ev)
            out[v] = (stats, diag)
        return out

    results = once(benchmark, work)
    rows = []
    for v, (stats, diag) in results.items():
        rows.append(
            [
                v,
                f"{100 * stats.hit_ratio:.1f}%",
                f"{100 * stats.class_hit_ratio(LoadClass.STRIDED):.1f}%",
                f"{100 * stats.class_hit_ratio(LoadClass.IRREGULAR):.1f}%",
                f"{diag.dF:.3f}",
            ]
        )
    table = format_table(
        ["variant", "hit ratio", "strided hits", "irregular hits", "dF"],
        rows,
        title="Extension: 4 KiB 8-way LRU + stream prefetch driven by miniVite traces",
    )
    save_result("ext_cache_codesign", table)

    hit = {v: s.hit_ratio for v, (s, _) in results.items()}
    # hopscotch variants beat the chained map in the cache
    assert hit["v2"] > hit["v1"]
    assert hit["v3"] > hit["v1"]
    for v, (stats, _) in results.items():
        s = stats.class_hit_ratio(LoadClass.STRIDED)
        i = stats.class_hit_ratio(LoadClass.IRREGULAR)
        assert s > i, f"{v}: strided should hit better ({s:.2f} vs {i:.2f})"
    # footprint growth anti-correlates with hit ratio across variants
    dfs = np.array([d.dF for _, d in results.values()])
    hits = np.array([s.hit_ratio for s, _ in results.values()])
    r = np.corrcoef(dfs, hits)[0, 1]
    assert r < 0, f"dF vs hit-ratio correlation should be negative, got {r:.2f}"


# -- what-if sweep: one fused scan vs per-config re-simulation ----------------

#: an 8-way-axis grid sharing one (line size, set count) geometry group:
#: the regime the fusion targets — associativity becomes a threshold on
#: one set-local stack-distance computation instead of 8 simulations
SWEEP_WAYS = (1, 2, 4, 8, 16, 32, 64, 128)


@pytest.mark.perf
def test_ext_fused_sweep_speedup(benchmark):
    """The fused ``cache_sweep`` must be >= 3x faster than re-simulating
    every grid configuration — and bit-identical to it."""
    from repro.workloads.kvreuse import run_kvreuse

    events = run_kvreuse("sessions", scale=24, seed=0).events
    grid = sweep_configs(lines=(64,), sets=(64,), ways=SWEEP_WAYS)

    with Timer() as t_naive:
        naive = [simulate_cache(events, cfg) for cfg in grid]

    def fused():
        return sweep_finalize(sweep_update(SweepPartial(grid), events), grid)

    with Timer() as t_fused:
        rows = once(benchmark, fused)

    for row, ref in zip(rows, naive):
        assert row.n_accesses == ref.n_accesses
        assert row.n_hits == ref.n_hits
        assert row.hit_ratio == ref.hit_ratio

    speedup = t_naive.elapsed / max(t_fused.elapsed, 1e-9)
    lines = [
        "fused cache sweep vs per-config re-simulation, kvreuse:sessions trace",
        f"events:             {len(events):,}  (cpus: {os.cpu_count()})",
        f"configurations:     {len(grid)} (64 B lines, 64 sets, ways {SWEEP_WAYS})",
        f"per-config total:   {t_naive.elapsed:8.3f} s",
        f"fused sweep:        {t_fused.elapsed:8.3f} s",
        f"speedup:            {speedup:8.2f}x",
        "",
    ]
    header = f"{'size':>8} {'ways':>5} {'hit ratio':>10} {'predicted':>10}"
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row.size_bytes:>8} {row.ways:>5} "
            f"{100 * row.hit_ratio:>9.1f}% {100 * row.predicted_hit_ratio:>9.1f}%"
        )
    save_result("ext_cache_sweep_speedup", "\n".join(lines))
    assert speedup >= 3.0, f"expected >= 3x from fusion, got {speedup:.2f}x"
