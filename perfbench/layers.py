"""The program's layers: which functions are wrapped, and per-op metrics.

Every probe names a public function of ``src/repro``. Self time is a
span's duration minus its child spans, so a layer's ``_ms`` metric is the
time spent in that layer and not in a deeper one. Per op, every span of
every process that starts inside the op's window is charged to the op;
a layer metric is the median over the run's traced ops.

``unattributed_ms`` is the op root's own self time: op wall time that no
layer span covers. Pool workers run concurrently with the parent's wait
(charged to ``engine.analyze_file_ms`` self time), so their layers are
reported but do not enter that accounting; for serve the client's round
trips are split into the shard worker's layers plus
``serve.dispatch_ms`` (round trips minus the worker's ingest and query
time: framing, asyncio dispatch and pipe pickling).
"""

from __future__ import annotations

import bisect
import statistics

from perfbench.spans import Probe

__all__ = ["PROBES", "METRICS", "per_op_metrics", "summarize"]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _store_hit(args, kwargs, result) -> dict:
    from repro._util.diskcache import MISS

    return {"store.gets": 1, "store.hits": int(result is not MISS)}


PROBES = [
    Probe("cli.parser", "repro.cli:build_parser"),
    Probe("trace.load", "repro.trace.loader:load_trace_collection"),
    Probe(
        "trace.write",
        "repro.trace.tracefile:write_trace",
        counts=lambda a, k, r: {"trace.bytes_written": int(r)},
    ),
    Probe("trace.read_chunks", "repro.trace.tracefile:iter_trace_chunks", generator=True),
    Probe("engine.run_passes", "repro.core.parallel:ParallelEngine.run_passes"),
    Probe(
        "engine.analyze_file",
        "repro.core.parallel:ParallelEngine.analyze_file",
        counts=lambda a, k, r: {
            "engine.skipped_events": int(r.skipped_events),
            "engine.file_events": int(r.n_events),
        },
    ),
    Probe("engine.heatmap", "repro.core.parallel:ParallelEngine.heatmap"),
    Probe(
        "engine.lru",
        "repro._util.lru:LRUCache.get",
        counts=lambda a, k, r: {"engine.lru_gets": 1, "engine.lru_hits": int(r is not None)},
        timed=False,
    ),
    Probe(
        "passes.scan_chunk",
        "repro.core.passes:scan_chunk",
        counts=lambda a, k, r: {"passes.events_scanned": len(_arg(a, k, 0, "events"))},
    ),
    Probe("pool.worker_scan", "repro.core.parallel:scan_chunk_shm"),
    Probe("artifacts.block_ids", "repro.core.passes:ChunkContext.block_ids"),
    Probe("artifacts.reuse_distances", "repro.core.passes:ChunkContext.reuse_distances"),
    Probe(
        "reuse.stack_distances",
        "repro.core.reuse:stack_distances",
        counts=lambda a, k, r: {"reuse.stack_distances_calls": 1},
    ),
    Probe("cachesim.sweep", "repro.core.passes:CacheSweepPass.update"),
    Probe("cachesim.sweep", "repro.core.passes:CacheSweepPass.merge"),
    Probe("cachesim.sweep", "repro.core.passes:CacheSweepPass.finalize"),
    Probe("shm.publish", "repro.core.shm:publish_shard"),
    Probe("interval_tree.build", "repro.core.interval_tree:ExecutionIntervalTree.build"),
    Probe(
        "diagnostics.compute",
        "repro.core.diagnostics:compute_diagnostics",
        counts=lambda a, k, r: {"diagnostics.compute_calls": 1},
    ),
    Probe(
        "interval_tree.access_interval_metrics",
        "repro.core.interval_tree:access_interval_metrics",
    ),
    Probe("zoom.location_zoom", "repro.core.zoom:location_zoom"),
    Probe("phases.detect_phases", "repro.core.phases:detect_phases"),
    Probe("report.payload", "repro.core.report:full_report_payload"),
    Probe("report.payload", "repro.core.report:viz_report_payload"),
    Probe(
        "viz.render_html",
        "repro.viz.template:render_html",
        counts=lambda a, k, r: {"viz.html_bytes": len(r.encode("utf-8"))},
    ),
    Probe("store.put", "repro.core.artifacts:ArtifactStore.put_partial"),
    Probe("store.put", "repro.core.artifacts:ArtifactStore.put_state"),
    Probe("store.get", "repro.core.artifacts:ArtifactStore.get_partial", counts=_store_hit),
    Probe("store.get", "repro.core.artifacts:ArtifactStore.get_state"),
    Probe("store.get", "repro.core.artifacts:ArtifactStore.find_prefix_state"),
    Probe("report.serialize", "repro.core.report:payload_json"),
    Probe("corpus.spec_load", "repro.core.corpus:CorpusSpec.load"),
    Probe("corpus.payload", "repro.core.corpus:CorpusResult.corpus_payload"),
    Probe("corpus.payload", "repro.core.corpus:cell_payload"),
    Probe("corpus.diff", "repro.core.diff:corpus_diff"),
    Probe("corpus.diff", "repro.core.diff:CorpusDiff.verdict_payload"),
    Probe("corpus.diff", "repro.core.diff:CorpusDiff.render"),
    Probe("serve.ingest", "repro.serve.session:ServeSession.ingest"),
    Probe("serve.query", "repro.serve.session:ServeSession.query"),
    Probe("serve.client_append", "repro.serve.client:ServeClient.append"),
    Probe("serve.client_query", "repro.serve.client:ServeClient.query"),
]

#: the op root span the benchmark opens around every op
OP = "op"
#: client round-trip spans, replaced by the worker layers + dispatch
_ROUND_TRIPS = ("serve.client_append", "serve.client_query")

#: every per-layer metric the traced run reports: name -> unit
METRICS: dict[str, str] = {}
for _p in PROBES:
    if _p.timed and _p.span not in _ROUND_TRIPS:
        METRICS[f"{_p.span}_ms"] = "ms"
METRICS.update(
    {
        "trace.bytes_written": "bytes",
        "engine.skip_ratio": "ratio",
        "engine.lru_hit_ratio": "ratio",
        "passes.events_scanned": "count",
        "reuse.stack_distances_calls": "count",
        "diagnostics.compute_calls": "count",
        "viz.html_bytes": "bytes",
        "store.hit_ratio": "ratio",
        "serve.dispatch_ms": "ms",
        "unattributed_ms": "ms",
        "unattributed_share": "ratio",
    }
)

_RATIOS = {
    "engine.skip_ratio": ("engine.skipped_events", "engine.file_events"),
    "engine.lru_hit_ratio": ("engine.lru_hits", "engine.lru_gets"),
    "store.hit_ratio": ("store.hits", "store.gets"),
}


def per_op_metrics(records: list[dict]) -> list[dict]:
    """One dict of layer metrics per traced op, in op order."""
    ops = sorted((r for r in records if r["name"] == OP), key=lambda r: r["t0"])
    starts = [r["t0"] for r in ops]
    client = {r["pid"] for r in ops}
    selfs: list[dict] = [{} for _ in ops]
    incl: list[dict] = [{} for _ in ops]
    counts: list[dict] = [{} for _ in ops]
    remote = [0.0 for _ in ops]
    for r in records:
        if r["name"] == OP:
            continue
        i = bisect.bisect_right(starts, r["t0"]) - 1
        if i < 0 or r["t0"] > ops[i]["t1"]:
            continue  # outside every traced op (setup, warm-up)
        selfs[i][r["name"]] = selfs[i].get(r["name"], 0.0) + r["self"]
        incl[i][r["name"]] = incl[i].get(r["name"], 0.0) + r["dur"]
        if r["pid"] not in client and r["parent"] < 0:
            remote[i] += r["dur"]
        for k, v in r["counts"].items():
            counts[i][k] = counts[i].get(k, 0) + v
    out = []
    for op, s, inc, c, worker in zip(ops, selfs, incl, counts, remote):
        m: dict = {}
        for name, seconds in s.items():
            if name not in _ROUND_TRIPS:
                m[f"{name}_ms"] = seconds * 1000.0
        for name in METRICS:
            if name in c:
                m[name] = c[name]
        for name, (num, den) in _RATIOS.items():
            if c.get(den):
                m[name] = c.get(num, 0) / c[den]
        if any(n in inc for n in _ROUND_TRIPS):
            trips = sum(inc.get(n, 0.0) for n in _ROUND_TRIPS)
            m["serve.dispatch_ms"] = (trips - worker) * 1000.0
        m["unattributed_ms"] = op["self"] * 1000.0
        m["unattributed_share"] = op["self"] / op["dur"] if op["dur"] > 0 else 0.0
        m["op_ms"] = op["dur"] * 1000.0
        out.append(m)
    return out


def summarize(per_op: list[dict]) -> dict[str, float]:
    """Median per op of every metric that appeared in at least one op.

    Times and counts missing from an op count as 0 for that op (the
    layer did no work there); ratios are medians over the ops where
    they are defined.
    """
    seen = {k for m in per_op for k in m}
    out = {}
    for name in sorted(seen):
        if name in _RATIOS:
            values = [m[name] for m in per_op if name in m]
        else:
            values = [m.get(name, 0) for m in per_op]
        out[name] = statistics.median(values)
    return out
