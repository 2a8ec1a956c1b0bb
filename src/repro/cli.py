"""Command-line interface: ``memgaze``.

Three subcommands mirror the tool's workflow:

``memgaze trace``
    Run a bundled workload, collect a sampled trace with the given
    period/buffer, and write it to a ``.npz`` trace archive.

``memgaze report``
    Read a trace archive and print the analyses: whole-trace footprint
    diagnostics, per-function code windows, hot memory regions (zoom),
    locality over time, working-set curve, and sampling confidence.
    ``--workers N`` shards the window analyses over a process pool
    (bit-identical results; see :mod:`repro.core.parallel`),
    ``--chunk-size`` overrides the shard size, and ``--stats`` prints
    per-stage timings, throughput, and cache hit rates.

``memgaze info``
    Show a trace archive's collection metadata.

``memgaze validate-trace``
    Audit a trace archive's health: schema, per-chunk checksums,
    truncation/bit-flip/schema findings (see :mod:`repro.trace.health`).

Observability: ``--journal PATH`` (on ``trace`` and ``report``) appends
a structured JSONL run journal — one line per pipeline stage with
timings, item counts, and rho/kappa/window parameters — and ``report
--metrics PATH`` writes the pipeline metrics registry plus per-stage
timings as JSON. Reading a damaged archive degrades gracefully: the
verified event prefix is analyzed and every recovery step is journaled
as a warning instead of crashing (``docs/observability.md``).

Workloads are named ``family:variant``::

    ubench:str4/irr      microbenchmark spec (ISA path)
    minivite:v1|v2|v3    Louvain with the three map variants
    pagerank:pr|pr-spmv  GAP-style PageRank
    cc:cc|cc-sv          GAP-style Connected Components
    darknet:alexnet|resnet152
    kvreuse:prefix|tail|sessions   KV-cache serving streams

Example::

    memgaze trace --workload minivite:v2 --period 12000 --buffer 1024 -o v2.npz
    memgaze report v2.npz --functions --regions --working-set
    memgaze report v2.npz --workers 4 --stats
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from repro.core.confidence import code_window_confidence
from repro.core.interval_tree import interval_request
from repro.core.parallel import ParallelEngine
from repro.core.passes import UnknownPassError, get_pass, list_passes
from repro.core.report import (
    format_quantity,
    full_report_payload,
    hot_region_plan,
    passes_payload,
    payload_json,
    render_function_table,
    render_interval_table,
    render_region_table,
    viz_report_payload,
)
from repro.core.workingset import working_set_curve
from repro.core.zoom import apply_leaves
from repro.obs.handle import NULL_OBS, Obs
from repro.trace.collector import collect_sampled_trace
from repro.trace.compress import compression_ratio, sample_ratio_from
from repro.trace.sampler import SamplingConfig
from repro.trace.tracefile import TraceFormatError, TraceMeta, write_trace

__all__ = ["main", "build_parser"]


# -- workload runners -----------------------------------------------------------


def _run_workload(name: str, scale: int, seed: int):
    """Run ``family:variant``; returns (events, n_loads, fn_names, label)."""
    family, _, variant = name.partition(":")
    if family == "ubench":
        from repro.workloads.microbench import run_microbench

        spec = variant or "str4/irr"
        r = run_microbench(spec, n_elems=1 << max(8, scale), repeats=60, seed=seed)
        return r.events_observed, r.n_loads, r.fn_names, f"ubench {spec}"
    if family == "minivite":
        from repro.workloads.minivite import run_minivite

        r = run_minivite(variant or "v1", scale=scale, seed=seed, max_iters=2)
        return r.events, r.n_loads, r.fn_names, f"miniVite {r.variant}"
    if family == "pagerank":
        from repro.workloads.gap.pagerank import run_pagerank

        r = run_pagerank(variant or "pr", scale=scale, seed=seed)
        return r.events, r.n_loads, r.fn_names, f"PageRank {r.algorithm}"
    if family == "cc":
        from repro.workloads.gap.cc import run_cc

        r = run_cc(variant or "cc", scale=scale, seed=seed)
        return r.events, r.n_loads, r.fn_names, f"CC {r.algorithm}"
    if family == "darknet":
        from repro.workloads.darknet import run_darknet

        r = run_darknet(variant or "alexnet", seed=seed)
        return r.events, r.n_loads, r.fn_names, f"Darknet {r.model}"
    if family == "kvreuse":
        from repro.workloads.kvreuse import KVREUSE_VARIANTS, run_kvreuse

        v = variant or "prefix"
        if v not in KVREUSE_VARIANTS:
            raise SystemExit(
                f"unknown kvreuse variant {v!r}; pick one of "
                f"{', '.join(KVREUSE_VARIANTS)}"
            )
        r = run_kvreuse(v, scale=scale, seed=seed)
        return r.events, r.n_loads, r.fn_names, f"KV-reuse {r.variant}"
    raise SystemExit(f"unknown workload family {family!r} (see memgaze trace -h)")


# -- subcommands ------------------------------------------------------------------


def _cmd_trace(args: argparse.Namespace) -> int:
    with Obs.open(args.journal) as obs:
        events, n_loads, fn_names, label = _run_workload(args.workload, args.scale, args.seed)
        cfg = SamplingConfig(
            period=args.period,
            buffer_capacity=args.buffer,
            fill_jitter=0.0 if args.deterministic else 0.15,
            seed=args.seed,
        )
        with obs.stage("trace", workload=args.workload, period=cfg.period,
                       buffer_capacity=cfg.buffer_capacity, mode=args.mode):
            col = collect_sampled_trace(events, n_loads, cfg, mode=args.mode)
        meta = TraceMeta(
            module=label,
            kind="sampled",
            period=cfg.period,
            buffer_capacity=cfg.buffer_capacity,
            n_loads_total=n_loads,
            n_samples=col.n_samples,
            extra={"fn_names": {str(k): v for k, v in fn_names.items()}, "mode": args.mode},
        )
        size = write_trace(args.output, col.events, meta, col.sample_id)
        obs.emit(
            "trace-written",
            path=str(args.output),
            bytes=size,
            n_observed=len(events),
            n_sampled=len(col.events),
            n_samples=col.n_samples,
            rho=sample_ratio_from(col),
            kappa=compression_ratio(col.events),
        )
    frac = len(col.events) / max(1, len(events))
    print(f"{label}: {n_loads:,} loads, {len(events):,} records")
    print(
        f"sampled {len(col.events):,} records in {col.n_samples} samples "
        f"({frac:.1%} of the observed stream)"
    )
    print(f"wrote {args.output} ({size:,} bytes)")
    return 0


def _require_trace_path(path, command: str = "memgaze") -> None:
    """Exit with a clear message when a trace archive path does not exist.

    Accepts the same path forms the readers do (``numpy`` appends
    ``.npz`` when missing), so the check never rejects a loadable path.
    """
    p = Path(path)
    if p.exists() or p.with_name(p.name + ".npz").exists():
        return
    raise SystemExit(f"{command}: no such trace archive: {path}")


def _load(path, obs: Obs = NULL_OBS) -> "LoadedTrace":
    """Read a trace archive through the shared loader, reporting degradation.

    Delegates to :func:`repro.trace.loader.load_trace_collection` — the
    same path the streaming service's live queries use, which is what
    keeps ``report --json`` byte-identical to a live query. This wrapper
    adds the CLI conventions: a missing path exits immediately; an
    archive whose only damage is a truncated tail is reported as *still
    growing* (a writer may be appending — the verified prefix is
    analyzed, not an error); real damage (bit-flips, schema drift)
    prints every finding; an unrecoverable archive aborts.

    The returned :class:`~repro.trace.loader.LoadedTrace` carries the
    health verdict: ``clean`` is False when recovery ran — the events in
    memory are then a *prefix* of the archive, so ``health``, the record
    that keys the analysis cache, is None (the cache stays off), and
    renderers surface the ``findings`` (the HTML report shows them in a
    warning banner).
    """
    from repro.trace.loader import load_trace_collection

    _require_trace_path(path)
    try:
        loaded = load_trace_collection(path, obs)
    except TraceFormatError as exc:
        raise SystemExit(f"memgaze: unrecoverable trace archive: {exc}") from exc
    n_events = len(loaded.collection.events)
    if loaded.growing:
        print(
            f"warning: {path}: archive tail is incomplete but undamaged — "
            f"it appears to be still growing; analyzing the verified "
            f"prefix of {n_events:,} events",
            file=sys.stderr,
        )
    elif not loaded.clean:
        for f in loaded.findings:
            print(f"warning: {path}: [{f.kind}] {f.detail}", file=sys.stderr)
        print(
            f"warning: {path}: damaged archive; analyzing the verified "
            f"prefix of {n_events:,} events",
            file=sys.stderr,
        )
    return loaded


def _degraded_note(loaded: "LoadedTrace") -> dict | None:
    """The payload's ``degraded`` dict for a recovered archive (else None).

    Attached only when recovery ran, so clean payloads stay byte-for-byte
    what they always were.
    """
    if loaded.clean:
        return None
    return {
        "growing": loaded.growing,
        "n_events": int(len(loaded.collection.events)),
        "findings": [
            {"kind": f.kind, "detail": f.detail} for f in loaded.findings
        ],
    }


def _cmd_info(args: argparse.Namespace) -> int:
    loaded = _load(args.trace)
    col, meta, fn_names = loaded.collection, loaded.meta, loaded.fn_names
    print(f"module:        {meta.module}")
    print(f"kind:          {meta.kind}")
    print(f"period (w+z):  {meta.period:,} loads")
    print(f"buffer:        {meta.buffer_capacity} records")
    print(f"samples:       {col.n_samples} (mean w = {col.mean_w:.0f})")
    print(f"records:       {len(col.events):,}")
    print(f"loads total:   {col.n_loads_total:,}")
    print(f"rho:           {loaded.rho:.1f}")
    print(f"kappa:         {compression_ratio(col.events):.2f}")
    print(f"functions:     {', '.join(sorted(fn_names.values())) or '(unnamed)'}")
    return 0


def _default_cache_dir() -> Path:
    """The analysis-cache directory used when ``--cache-dir`` is not given."""
    env = os.environ.get("MEMGAZE_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "memgaze"


def _cmd_report(args: argparse.Namespace) -> int:
    # the handle and the engine close on every exit path, errors included
    with Obs.open(args.journal, bool(args.metrics)) as obs:
        loaded = _load(args.trace, obs)
        if len(loaded.collection.events) == 0:
            print("trace is empty")
            return 1
        with _engine(args, obs) as engine:
            if engine.store is not None and not loaded.clean:
                obs.warning(
                    "damaged archive: only a recovered prefix is analyzed, so the "
                    "analysis cache is disabled for this run",
                    path=str(args.trace),
                )
            elif engine.store is not None and loaded.health is None:
                obs.warning(
                    "archive has no usable health record; analysis cache disabled",
                    path=str(args.trace),
                )
            _print_report(args, loaded, engine)
            _report_tail(args, engine)
    return 0


def _engine(args, obs: Obs) -> ParallelEngine:
    """The engine the engine flags describe, with the analysis cache when enabled."""
    store = None
    # --cache-dir alone enables the cache; --no-cache always wins
    if args.cache or (args.cache is None and args.cache_dir is not None):
        from repro.core.artifacts import ArtifactStore

        store = ArtifactStore(args.cache_dir or _default_cache_dir(), obs=obs)
    return ParallelEngine(
        workers=args.workers, chunk_size=args.chunk_size, store=store, obs=obs
    )


def _print_report(args, loaded: "LoadedTrace", engine: ParallelEngine) -> None:
    """Print the report sections (or write the ``--html`` page)."""
    col, meta, fn_names, rho = loaded.collection, loaded.meta, loaded.fn_names, loaded.rho
    source = (col.events, col.sample_id, loaded.health)
    requested = [s.strip() for s in (args.passes or "").split(",") if s.strip()]

    if args.html or args.json or args.passes:
        # the serve daemon's payload builders, so --json and --html are
        # byte-identical to a live query / dashboard page over the same
        # archive bytes; a damaged archive renders its verified prefix
        common = (meta.module, col, rho, fn_names, engine)
        try:
            if args.html:
                out = viz_report_payload(
                    *common,
                    health=loaded.health,
                    degraded=_degraded_note(loaded),
                    extra_passes=requested,
                )
            elif args.json and args.passes:
                out = passes_payload(*common, health=loaded.health, requested=requested)
            elif args.json:
                out = full_report_payload(*common, health=loaded.health)
            else:
                out = engine.analyze(source, requested, rho=rho, fn_names=fn_names).results
        except (UnknownPassError, ValueError) as exc:
            raise SystemExit(f"memgaze report: {exc}") from exc
        if args.html:
            from repro.viz import render_html

            text = render_html(out)
            path = Path(args.html)
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path} ({len(text.encode('utf-8')):,} bytes)")
        elif args.json:
            print(payload_json(out))
        else:
            print(f"== {meta.module}: analysis passes ==")
            for name in requested:
                print(f"\n== pass: {name} ==")
                print(get_pass(name).render(out[name]))
        return

    everything = not (
        args.functions
        or args.regions
        or args.intervals
        or args.working_set
        or args.confidence
        or args.hotspots
        or args.phases
    )

    # every scanned section rides ONE fused scan with the health record
    # (so --cache stores and serves all of it): each shard of the trace
    # is visited once for diagnostics, hotspots, code windows, the hot
    # regions' statistics and the interval rows together
    header = ["diagnostics"] + (["hotspot"] if everything or args.hotspots else [])
    if everything or args.functions:
        header.append("windows")
    regions, region = [], None
    if everything or args.regions:
        # the zoom tree is built from addresses first, so its leaves'
        # region request joins the scan
        regions, region = hot_region_plan(
            col, fn_names, hot_threshold=args.hot_threshold,
            min_pct=args.min_region_pct, max_regions=args.max_regions,
        )
        if region is not None:
            header.append(region)
    n_intervals = args.intervals or 8
    if args.intervals or everything:
        header.append(interval_request(len(col.events), n_intervals, reuse_block=64))
    results = engine.analyze(source, header, rho=rho, fn_names=fn_names).results
    d = results["diagnostics"]
    print(f"== {meta.module}: footprint access diagnostics ==")
    print(f"A (est):   {format_quantity(d.A_est)}    F (est): {format_quantity(d.F_est)}")
    print(f"dF:        {d.dF:.3f}   F_str%: {d.F_str_pct:.1f}   A_const%: {d.A_const_pct:.1f}")

    if everything or args.hotspots:
        print("\n== hotspots ==")
        for h in results["hotspot"]:
            print(f"  {h.function:<20} {100 * h.share:5.1f}%  ({format_quantity(h.n_accesses)} sampled loads)")

    if everything or args.functions:
        print()
        print(
            render_function_table(
                results["windows"],
                title="code windows (per-function locality)",
            )
        )

    if everything or args.regions:
        if region is not None:
            apply_leaves([leaf for _, leaf in regions], results["heatmap"])
        print()
        print(render_region_table(regions, title="hot memory regions (location zoom)", show_max_d=True))

    if args.intervals or everything:
        print()
        print(
            render_interval_table(
                results["intervals"], title=f"locality over {n_intervals} access intervals"
            )
        )

    if everything or args.working_set:
        print("\n== working set (4 KiB pages) ==")
        for p in working_set_curve(col, n_intervals=args.intervals or 8):
            print(
                f"  interval {p.interval}: ~{format_quantity(p.pages_est)} pages "
                f"({p.mb_est:.1f} MiB est), reuse {100 * p.captured_fraction:.0f}%"
            )

    if everything or args.phases:
        from repro.core.phases import detect_phases

        print("\n== execution phases ==")
        for p in detect_phases(col):
            print(
                f"  phase {p.index}: loads [{p.t_start:,}, {p.t_end:,})  "
                f"{p.label:<9} strided {100 * p.strided_share:.0f}%  "
                f"dF={p.diagnostics.dF:.3f}  ({p.n_samples} samples)"
            )

    if everything or args.confidence:
        print("\n== sampling confidence ==")
        conf = code_window_confidence(col, fn_names)
        for name, c in sorted(conf.items(), key=lambda kv: -kv[1].A_est):
            lo, hi = c.ci95
            flag = "  UNDERSAMPLED" if c.undersampled else ""
            print(
                f"  {name:<20} A~{format_quantity(c.A_est):>8}  "
                f"CI95 [{format_quantity(lo)}, {format_quantity(hi)}]  "
                f"{c.n_samples_present}/{c.n_samples_total} samples{flag}"
            )


def _report_tail(args, engine: ParallelEngine) -> None:
    """Shared ``report`` epilogue: the ``--stats`` table and ``--metrics`` export."""
    timers = engine.obs.timers
    if args.stats:
        print()
        print(timers.report(title="analysis stage timings"))
        if engine.store is not None:
            s = engine.store.stats()
            print(
                f"  disk cache: {s['hits']} hits / {s['misses']} misses "
                f"({s['entries']} entries, {s['bytes']:,} bytes at {s['root']})"
            )
    if args.metrics:
        disk = {} if engine.store is None else {"disk_cache": engine.store.stats()}
        engine.obs.export(
            args.metrics, trace=str(args.trace), stages=timers.as_records(), **disk
        )


def _cmd_passes(args: argparse.Namespace) -> int:
    """List the registered analysis passes (``memgaze passes``)."""
    print("registered analysis passes (memgaze report --passes name,...):\n")
    for p in list_passes():
        print(f"  {p.name:<12} {p.description}")
        if p.requires:
            print(f"{'':14}requires: {', '.join(p.requires)}")
        if p.defaults:
            defaults = ", ".join(f"{k}={v!r}" for k, v in sorted(p.defaults.items()))
            print(f"{'':14}defaults: {defaults}")
        if p.needs:
            print(f"{'':14}needs:    {', '.join(p.needs)} (API-only pass)")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.core.diff import diff_traces

    before, after = _load(args.before), _load(args.after)
    diff = diff_traces(
        before.collection, after.collection, before.fn_names, after.fn_names,
        label_before=before.meta.module, label_after=after.meta.module,
    )
    print(diff.render(top=args.top))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    """Analyze a corpus of archives and gate regressions (``memgaze matrix``)."""
    from repro.core.corpus import CorpusSpec, CorpusSpecError
    from repro.core.diff import ThresholdError, Thresholds

    try:
        spec = CorpusSpec.load(args.spec, baseline=args.baseline)
    except CorpusSpecError as exc:
        raise SystemExit(f"memgaze matrix: {exc}") from exc
    if args.cache_sweep:
        # force the what-if sweep on for every cell (specs can also opt
        # in per cell with `cache_sweep = true`)
        import dataclasses

        spec = dataclasses.replace(
            spec,
            cells=tuple(dataclasses.replace(c, cache_sweep=True) for c in spec.cells),
        )
    thresholds = None
    if args.gate:
        try:
            thresholds = Thresholds.from_file(args.gate)
        except ThresholdError as exc:
            raise SystemExit(f"memgaze matrix: {exc}") from exc
    obs = Obs.open(args.journal, bool(args.metrics))
    try:
        return _matrix(args, spec, thresholds, obs)
    finally:
        obs.close(stages=False)  # matrix prints no stage table, so journals none


def _matrix(args, spec, thresholds, obs: Obs) -> int:
    """Run, diff, gate and print one corpus matrix, reporting through ``obs``."""
    from repro.core.diff import ThresholdError, corpus_diff
    from repro.core.matrix import run_matrix

    try:
        with _engine(args, obs) as engine:
            result = run_matrix(spec, engine=engine)
    except TraceFormatError as exc:
        raise SystemExit(
            f"memgaze matrix: unrecoverable trace archive: {exc}"
        ) from exc
    payload = result.corpus_payload()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload_json(payload) + "\n")

    try:
        diff = corpus_diff(payload, thresholds, min_accesses=args.min_accesses)
    except ThresholdError as exc:
        raise SystemExit(f"memgaze matrix: {exc}") from exc
    verdict = diff.verdict_payload()
    regressed = [c.label for c in diff.cells if c.regressed]
    obs.counter("matrix.regressions").inc(len(regressed))
    obs.emit(
        "matrix-verdict",
        corpus=spec.name,
        baseline=diff.baseline,
        verdict=diff.verdict,
        gated=args.gate is not None,
        regressed_cells=regressed,
    )
    if args.verdict:
        with open(args.verdict, "w", encoding="utf-8") as fh:
            fh.write(payload_json(verdict) + "\n")

    if args.json:
        # with a gate the machine-readable product is the verdict;
        # otherwise it is the aggregated corpus payload itself
        print(payload_json(verdict if args.gate else payload))
    else:
        print(
            f"== corpus {spec.name}: {len(result.cells)} cells "
            f"(baseline {spec.baseline}) =="
        )
        for label, r in sorted(result.cells.items()):
            marker = "*" if label == spec.baseline else " "
            print(
                f" {marker} {label:<20} {r.mode:<12} "
                f"{r.n_events:>12,} events  {r.seconds:8.3f}s"
            )
        print()
        print(diff.render(top=args.top))

    if args.metrics:
        obs.export(
            args.metrics, spec=str(args.spec), modes=dict(result.modes), verdict=diff.verdict
        )
    return 1 if (args.gate and diff.verdict == "regressed") else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.histograms import mape, window_histogram

    events, n_loads, fn_names, label = _run_workload(args.workload, args.scale, args.seed)
    cfg = SamplingConfig(period=args.period, buffer_capacity=args.buffer, seed=args.seed)
    col = collect_sampled_trace(events, n_loads, cfg)
    frac = len(col.events) / max(1, len(events))
    print(f"{label}: sampled {frac:.1%} of {len(events):,} records "
          f"({col.n_samples} samples)")
    sizes = [8, 16, 32, 64, 128, 256]
    worst = 0.0
    for metric in ("F", "F_str", "F_irr"):
        _, sampled = window_histogram(col.events, metric, sizes=sizes, sample_id=col.sample_id)
        _, full = window_histogram(events, metric, sizes=sizes)
        err = mape(sampled, full)
        shown = f"{err:5.1f}%" if np.isfinite(err) else "    -"
        print(f"  {metric:<6} trace-window MAPE: {shown}")
        if np.isfinite(err):
            worst = max(worst, err)
    verdict = "OK (within the paper's <25% bound)" if worst < 25 else "HIGH"
    print(f"worst MAPE: {worst:.1f}%  -> {verdict}")
    return 0 if worst < 25 else 1


def _cmd_validate_trace(args: argparse.Namespace) -> int:
    from repro.trace.health import validate

    _require_trace_path(args.trace, "memgaze validate-trace")
    report = validate(args.trace)
    if args.json:
        print(payload_json(report.as_dict()))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or maintain the persistent analysis cache (``memgaze cache``)."""
    from repro.core.artifacts import ArtifactStore

    root = Path(args.cache_dir) if args.cache_dir else _default_cache_dir()
    if root.exists() and not root.is_dir():
        raise SystemExit(f"memgaze cache: not a directory: {root}")
    if args.action == "stats":
        if not root.exists():
            print(f"cache {root}: empty (directory does not exist)")
            return 0
        store = ArtifactStore(root)
        s = store.stats()
        print(f"cache {s['root']}:")
        print(f"  entries: {s['entries']}")
        print(f"  bytes:   {s['bytes']:,}")
        return 0
    if args.action == "prune":
        if args.max_bytes is None:
            raise SystemExit(
                "memgaze cache prune: --max-bytes is required "
                "(use 'memgaze cache clear' to remove everything)"
            )
        if not root.exists():
            print(f"cache {root}: empty (directory does not exist)")
            return 0
        store = ArtifactStore(root)
        before = store.stats()
        removed = store.prune(args.max_bytes)
        after = store.stats()
        print(
            f"pruned {removed} entries "
            f"({before['bytes'] - after['bytes']:,} bytes freed, "
            f"{after['entries']} entries / {after['bytes']:,} bytes remain)"
        )
        return 0
    if args.action == "clear":
        if not root.exists():
            print(f"cache {root}: empty (directory does not exist)")
            return 0
        store = ArtifactStore(root)
        removed = store.clear()
        print(f"cleared {removed} entries from {root}")
        return 0
    raise SystemExit(f"memgaze cache: unknown action {args.action!r}")  # pragma: no cover


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming analysis daemon (``memgaze serve``)."""
    import asyncio
    import signal

    from repro.serve.daemon import ServeConfig, TraceServer

    config = ServeConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        workers=args.workers,
        chunk_size=args.chunk_size,
        serve_workers=args.serve_workers,
        session_queue_size=args.session_queue_size,
        dashboard=args.dashboard,
        dashboard_port=args.dashboard_port,
    )

    async def run(obs: Obs) -> None:
        server = TraceServer(config, obs=obs)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, lambda: asyncio.ensure_future(server.stop()))
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        if args.port_file:
            Path(args.port_file).write_text(f"{server.port}\n", encoding="utf-8")
        print(
            f"memgaze serve: listening on {config.host}:{server.port} "
            f"({config.serve_workers} session worker"
            f"{'s' if config.serve_workers != 1 else ''})",
            flush=True,
        )
        if server.dashboard_port is not None:
            if args.dashboard_port_file:
                Path(args.dashboard_port_file).write_text(
                    f"{server.dashboard_port}\n", encoding="utf-8"
                )
            print(
                f"memgaze serve: dashboard on "
                f"http://{config.host}:{server.dashboard_port}/",
                flush=True,
            )
        await server.serve_until_stopped()

    # the daemon always counts; its graceful stop closes the handle
    with Obs.open(args.journal, metrics=True) as obs:
        asyncio.run(run(obs))
    print("memgaze serve: stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Stream an existing archive into a live session (``memgaze submit``)."""
    from repro.serve.client import ServeError, submit_archive

    _require_trace_path(args.trace, "memgaze submit")
    session = args.session or Path(args.trace).stem
    try:
        info = submit_archive(
            args.trace,
            host=args.host,
            port=args.port,
            session=session,
            chunk_size=args.chunk_size,
        )
    except (ServeError, ConnectionError, OSError, TraceFormatError) as exc:
        raise SystemExit(f"memgaze submit: {exc}") from exc
    shed = f" ({info['n_shed']} sheds absorbed)" if info["n_shed"] else ""
    print(
        f"submitted {info['n_events']:,} events in {info['n_chunks']} chunks "
        f"to session {session!r}{shed}"
    )
    if info.get("archive"):
        print(f"session archive: {info['archive']}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """Query a live session's analysis (``memgaze query``)."""
    from repro.serve.client import ServeClient, ServeError

    passes = None
    if args.passes:
        passes = [s.strip() for s in args.passes.split(",") if s.strip()]
    try:
        with ServeClient(args.host, args.port) as client:
            client.open(args.session)
            info, payload = client.query(args.session, passes)
    except (ServeError, ConnectionError, OSError) as exc:
        raise SystemExit(f"memgaze query: {exc}") from exc
    if args.verbose:
        print(
            f"# session {info['session']}: {info['n_chunks']} chunks, "
            f"{info['n_events']:,} events, last ingest mode "
            f"{info.get('mode')!r}",
            file=sys.stderr,
        )
    print(payload)
    return 0


# -- parser -------------------------------------------------------------------------


def _checked(convert, ok, expected: str):
    """An argparse ``type``: ``convert`` the value, then reject it unless ``ok``."""

    def check(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return check


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_nonnegative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_percent = _checked(float, lambda v: 0.0 <= v <= 100.0, "a percentage in [0, 100]")


def _engine_flags(parser: argparse.ArgumentParser, *, cache: bool) -> None:
    """Declare the analysis-engine flags (see :func:`_engine`) on ``parser``."""
    parser.add_argument(
        "--workers", type=_nonnegative_int, default=1,
        help="analysis worker processes (0 or 1 analyzes in-process; N > 1 "
        "shards chunks across a pool of N)",
    )
    parser.add_argument(
        "--chunk-size", type=_positive_int, default=None,
        help="events per analysis shard or streamed chunk (default: 1048576; "
        "a pooled in-memory scan sizes its own from trace size and workers)",
    )
    if cache:
        parser.add_argument(
            "--cache", action=argparse.BooleanOptionalAction, default=None,
            help="reuse pass results from the persistent analysis cache "
            "(--no-cache disables it even when --cache-dir is given)",
        )
        parser.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="analysis cache directory (implies --cache; default: "
            "$MEMGAZE_CACHE_DIR or ~/.cache/memgaze)",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``memgaze`` argument parser, built once per process.

    Parsing never changes it: each ``parse_args`` call fills a new
    namespace, and the environment fallbacks are read per call by
    :func:`parse_args`, not baked into the parser.
    """
    parser = argparse.ArgumentParser(
        prog="memgaze", description="MemGaze: sampled memory trace analysis"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="run a workload and collect a sampled trace")
    p_trace.add_argument("--workload", required=True, help="family:variant (see module docs)")
    p_trace.add_argument("--scale", type=int, default=10, help="workload scale (graphs: log2 vertices)")
    p_trace.add_argument("--period", type=_positive_int, default=12_000, help="sample period w+z in loads")
    p_trace.add_argument("--buffer", type=_positive_int, default=1024, help="PT buffer capacity in records")
    p_trace.add_argument("--mode", choices=["continuous", "sampled_only"], default="continuous")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--deterministic", action="store_true", help="disable buffer fill jitter")
    p_trace.add_argument("-o", "--output", required=True, help="output .npz trace archive")
    p_trace.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append a JSONL run journal of collection stages to PATH",
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_info = sub.add_parser("info", help="show a trace archive's metadata")
    p_info.add_argument("trace")
    p_info.set_defaults(fn=_cmd_info)

    p_report = sub.add_parser("report", help="analyze a trace archive")
    p_report.add_argument("trace")
    p_report.add_argument("--functions", action="store_true", help="code-window table")
    p_report.add_argument("--regions", action="store_true", help="location-zoom table")
    p_report.add_argument("--intervals", type=_positive_int, default=0, help="locality over N access intervals")
    p_report.add_argument("--working-set", action="store_true", help="working-set curve")
    p_report.add_argument("--confidence", action="store_true", help="undersampling report")
    p_report.add_argument("--hotspots", action="store_true", help="hot-function ranking")
    p_report.add_argument(
        "--json", action="store_true",
        help="print the canonical machine-readable payload instead of tables "
        "(full report, or exactly --passes when given); byte-identical to a "
        "live 'memgaze query' over the same archive bytes",
    )
    p_report.add_argument(
        "--passes", default=None, metavar="NAME[,NAME...]",
        help="run exactly these registered analysis passes, fused in one scan "
        "(see 'memgaze passes' for the list)",
    )
    p_report.add_argument(
        "--html", default=None, metavar="OUT.html",
        help="render one self-contained HTML report (inline SVG/CSS/JS, no "
        "external fetches): interval-tree flamegraph, phases, heatmaps, "
        "reuse histogram, sortable tables; with --passes cache_sweep the "
        "what-if grid is included; a damaged archive renders its verified "
        "prefix behind a warning banner",
    )
    p_report.add_argument("--phases", action="store_true", help="phase segmentation")
    p_report.add_argument("--hot-threshold", type=_fraction, default=0.10)
    p_report.add_argument("--min-region-pct", type=_percent, default=2.0)
    p_report.add_argument("--max-regions", type=_positive_int, default=10)
    _engine_flags(p_report, cache=True)
    p_report.add_argument(
        "--stats", action="store_true",
        help="print per-stage analysis timings, throughput, and cache hits",
    )
    p_report.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append a JSONL run journal of every pipeline stage to PATH",
    )
    p_report.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the pipeline metrics registry (plus stage timings) as JSON",
    )
    p_report.set_defaults(fn=_cmd_report)

    p_passes = sub.add_parser(
        "passes", help="list the registered analysis passes and their parameters"
    )
    p_passes.set_defaults(fn=_cmd_passes)

    p_diff = sub.add_parser("diff", help="compare two trace archives per function")
    p_diff.add_argument("before")
    p_diff.add_argument("after")
    p_diff.add_argument("--top", type=_positive_int, default=12, help="movers to show")
    p_diff.set_defaults(fn=_cmd_diff)

    p_matrix = sub.add_parser(
        "matrix",
        help="analyze a corpus of trace archives, N-way diff against a "
        "baseline, and gate regressions for CI",
    )
    p_matrix.add_argument(
        "spec",
        help="corpus spec file (.toml/.json with [[cell]] tables) or a "
        "directory of .npz archives (one cell per archive, labelled by stem)",
    )
    p_matrix.add_argument(
        "--baseline", default=None, metavar="LABEL",
        help="cell label to diff every other cell against (default: the "
        "spec's 'baseline', or the first cell)",
    )
    p_matrix.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the aggregated corpus payload (canonical JSON) to PATH",
    )
    p_matrix.add_argument(
        "--json", action="store_true",
        help="print canonical JSON instead of tables: the corpus payload, "
        "or the verdict payload when --gate is given",
    )
    p_matrix.add_argument(
        "--gate", default=None, metavar="THRESHOLDS",
        help="regression thresholds file (.toml/.json, one [metric] table "
        "with max_abs/max_rel bounds); exit 1 when any cell regresses "
        "past a bound (exactly-at-threshold passes)",
    )
    p_matrix.add_argument(
        "--verdict", default=None, metavar="PATH",
        help="write the machine-readable per-cell per-metric verdict JSON "
        "to PATH (written for pass and regressed runs alike)",
    )
    p_matrix.add_argument(
        "--cache-sweep", action="store_true",
        help="run the cache-geometry what-if sweep for every cell (adds "
        "the cache_sweep pass to cell payloads and enables the cache.* "
        "gate metrics; specs can also opt in per cell)",
    )
    p_matrix.add_argument("--top", type=_positive_int, default=12, help="function movers to show per cell")
    p_matrix.add_argument(
        "--min-accesses", type=_nonnegative_int, default=100,
        help="drop functions below this many observed records on both sides",
    )
    _engine_flags(p_matrix, cache=True)
    p_matrix.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append a JSONL run journal (matrix-cell/matrix-run/"
        "matrix-verdict lines plus the engine's) to PATH",
    )
    p_matrix.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the matrix.* metrics registry plus per-cell modes as JSON",
    )
    p_matrix.set_defaults(fn=_cmd_matrix)

    p_val = sub.add_parser(
        "validate", help="Fig.6-style accuracy check: sampled vs full metrics"
    )
    p_val.add_argument("--workload", required=True)
    p_val.add_argument("--scale", type=int, default=10)
    p_val.add_argument("--period", type=_positive_int, default=9_973)
    p_val.add_argument("--buffer", type=_positive_int, default=1024)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(fn=_cmd_validate)

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain the persistent analysis cache"
    )
    p_cache.add_argument(
        "action", choices=["stats", "prune", "clear"],
        help="stats: show entry/byte counts; prune: evict oldest entries "
        "down to --max-bytes; clear: remove every entry",
    )
    p_cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $MEMGAZE_CACHE_DIR or ~/.cache/memgaze)",
    )
    p_cache.add_argument(
        "--max-bytes", type=int, default=None,
        help="size bound for prune (bytes)",
    )
    p_cache.set_defaults(fn=_cmd_cache)

    p_health = sub.add_parser(
        "validate-trace",
        help="audit a trace archive: schema, per-chunk checksums, damage findings",
    )
    p_health.add_argument("trace")
    p_health.add_argument("--json", action="store_true", help="machine-readable report")
    p_health.set_defaults(fn=_cmd_validate_trace)

    p_serve = sub.add_parser(
        "serve",
        help="run the streaming analysis daemon (live trace ingest + query)",
    )
    p_serve.add_argument(
        "--root", required=True, metavar="DIR",
        help="state directory: per-session archives plus the analysis cache",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0: let the OS pick; see --port-file)",
    )
    p_serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port here once listening (for --port 0)",
    )
    p_serve.add_argument(
        "--queue-size", type=int, default=64,
        help="daemon-wide bound on queued appends; a full queue sheds "
        "appends with an explicit 'busy' response",
    )
    p_serve.add_argument(
        "--session-queue-size", type=int, default=16,
        help="per-session cap on queued appends (inner backpressure "
        "layer); one flooding session is shed before it can fill the "
        "global queue",
    )
    p_serve.add_argument(
        "--serve-workers", type=_positive_int, default=None, metavar="N",
        help="session-shard worker processes; each session is pinned to "
        "one worker by crc32(session) mod N, so per-session ordering is "
        "preserved while independent sessions run concurrently "
        "(default: $MEMGAZE_SERVE_WORKERS or 1)",
    )
    _engine_flags(p_serve, cache=False)
    p_serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append a JSONL run journal (per-session lines are tagged)",
    )
    p_serve.add_argument(
        "--dashboard", action="store_true",
        help="serve a live HTML dashboard over HTTP alongside the framed "
        "protocol: GET / lists sessions, GET /report?session=NAME renders "
        "the session's current analysis through the same template as "
        "'memgaze report --html' (off by default; the daemon's protocol "
        "behavior is unchanged without it)",
    )
    p_serve.add_argument(
        "--dashboard-port", type=int, default=0, metavar="PORT",
        help="dashboard TCP port (0: let the OS pick; see --dashboard-port-file)",
    )
    p_serve.add_argument(
        "--dashboard-port-file", default=None, metavar="PATH",
        help="write the bound dashboard port here once listening",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="stream a trace archive into a running daemon"
    )
    p_submit.add_argument("trace")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, required=True)
    p_submit.add_argument(
        "--session", default=None,
        help="session name (default: the archive's stem)",
    )
    p_submit.add_argument(
        "--chunk-size", type=int, default=1 << 16,
        help="events per append frame (sample-aligned)",
    )
    p_submit.set_defaults(fn=_cmd_submit)

    p_query = sub.add_parser(
        "query", help="query a live session's analysis from a running daemon"
    )
    p_query.add_argument("session")
    p_query.add_argument("--host", default="127.0.0.1")
    p_query.add_argument("--port", type=int, required=True)
    p_query.add_argument(
        "--passes", default=None, metavar="NAME[,NAME...]",
        help="query exactly these passes (default: the full report payload)",
    )
    p_query.add_argument(
        "--verbose", action="store_true",
        help="print session state (chunks, events, ingest mode) to stderr",
    )
    p_query.set_defaults(fn=_cmd_query)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse ``argv`` with :func:`build_parser`, filling environment fallbacks.

    ``serve --serve-workers`` falls back to ``$MEMGAZE_SERVE_WORKERS``
    (then 1); a bad value is a usage error, like a bad flag.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.serve_workers is None:
        value = os.environ.get("MEMGAZE_SERVE_WORKERS", "1")
        try:
            args.serve_workers = _positive_int(value)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"$MEMGAZE_SERVE_WORKERS: {exc}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
