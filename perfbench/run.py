"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-html --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` installs the span probes of :mod:`perfbench.layers`,
records every other input cycle, and reports per-layer metrics plus the
tracing overhead (traced op p50 over untraced op p50, minus 1). The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the names and units declared in ``BENCHMARK.json``). The
lines before it are a readable report; the same data, with host facts,
output hashes and every per-layer metric (or why it is absent), is
written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: whole set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: ops before a run may stop, so p90 has >= 10 samples beyond it
MIN_OPS = 110
#: a run that has not reached MIN_OPS stops at this multiple of --seconds
HARD_STOP = 2.5
#: host reference kernels run before every this many ops
REF_EVERY = 10


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _load_program() -> str | None:
    """Put the checkout's ``src`` first on sys.path; None when it is usable."""
    if not (SRC / "repro" / "cli.py").is_file():
        return f"no program sources at {SRC / 'repro'}"
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        return f"cannot import the program: {exc}"
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from {SRC}"
    return None


def _run_ops(wl, seconds: float, tracing: bool, refs, log, traced, untraced):
    """The timed loop: closed loop, one op in flight."""
    from perfbench import spans
    from perfbench.workloads import Mismatch
    from repro.serve.client import ServeBusy

    start = time.perf_counter()
    deadline, hard = start + seconds, start + HARD_STOP * seconds
    # stop on whole input cycles (and whole traced/untraced pairs of them),
    # so every run weighs each input the same
    stride = wl.cycle * (2 if tracing else 1)
    i = 0
    while True:
        now = time.perf_counter()
        done = now >= deadline and log.attempted >= MIN_OPS and i % stride == 0
        if done or now >= hard:
            break
        if i % REF_EVERY == 0:
            refs.run()
        # alternate whole cycles, so traced and untraced ops see the same inputs
        record = tracing and (i // wl.cycle) % 2 == 0
        i += 1
        spans.set_recording(record)
        dt = None
        try:
            wl.prepare()
            t0 = time.perf_counter()
            with spans.span("op"):
                events = wl.call()
                # stamped inside, so the span flush on close is not timed
                dt = time.perf_counter() - t0
            spans.set_recording(False)
            wl.check()
        except Mismatch as exc:
            log.fail("mismatch", str(exc), dt)
            wl.recover()
            continue
        except ServeBusy as exc:
            log.fail("busy", str(exc))
            wl.recover()
            continue
        except (Exception, SystemExit) as exc:
            log.fail("exception", f"{type(exc).__name__}: {exc}")
            wl.recover()
            continue
        finally:
            spans.set_recording(False)
        log.ok(dt, events)
        (traced if record else untraced).append(dt)


def run(name: str, seed: int, seconds: float, tracing: bool, work: Path) -> dict:
    from perfbench import host, layers, spans
    from perfbench.stats import OpLog, supported_percentile
    from perfbench.workloads import WORKLOADS

    trace = None
    if tracing:
        trace = {
            "spans": work / "spans",
            "flag": spans.make_flag(work / "recording.flag", on=False),
        }
        probe_status = spans.install(layers.PROBES, trace["spans"], trace["flag"])
    wl = WORKLOADS[name](work, seed, trace)
    refs = host.RefKernels()
    log = OpLog()
    traced: list[float] = []
    untraced: list[float] = []
    try:
        setup_s = []
        for rep in range(SETUP_REPEATS):
            if rep:
                wl.close()
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        host.reset_peak_rss()
        with host.RssMonitor() as rss:
            _run_ops(wl, seconds, tracing, refs, log, traced, untraced)
    finally:
        wl.close()
    if tracing:
        spans.flush()

    lat_ms = [x * 1000.0 for x in log.latencies]
    result: dict = {
        "workload": name,
        "seed": seed,
        "trace": int(tracing),
        "attempted": log.attempted,
        "failed": log.failed,
        "fail_ratio": log.fail_ratio,
        "failures": log.failures,
        "first_failure": log.first_failure,
        "output_sha256": wl.output_sha256,
        "host": host.host_facts(work),
        "samples": {"ops": len(lat_ms), "setups": len(setup_s), "ref_kernels": len(refs.py_ms)},
    }
    result["host"]["ref_py_ms"] = statistics.median(refs.py_ms)
    result["host"]["ref_np_ms"] = statistics.median(refs.np_ms)
    if not tracing:
        p90, beyond = supported_percentile(lat_ms, 0.9) if lat_ms else (None, 0)
        wall = sum(log.latencies)
        result["p90_beyond"] = beyond
        result["end_to_end"] = {
            "op_p50_ms": statistics.median(lat_ms) if lat_ms else None,
            "op_p90_ms": p90,
            "events_per_s": log.events / wall if wall else None,
            "peak_rss_mib": rss.peak_kib / 1024.0,
            "setup_s": statistics.median(setup_s),
        }
        result["setup_runs_s"] = setup_s
        return result

    per_op = layers.per_op_metrics(spans.load_records(trace["spans"]))
    measured = layers.summarize(per_op)
    table = {}
    for metric, unit in layers.METRICS.items():
        if metric in measured:
            table[metric] = {"value": measured[metric], "unit": unit}
        else:
            table[metric] = {"absent": _absent_reason(metric, probe_status)}
    p50_t = statistics.median(traced) * 1000.0
    p50_u = statistics.median(untraced) * 1000.0
    table["tracing.overhead_ratio"] = {"value": p50_t / p50_u - 1.0, "unit": "ratio"}
    table["tracing.op_traced_p50_ms"] = {"value": p50_t, "unit": "ms"}
    table["tracing.op_untraced_p50_ms"] = {"value": p50_u, "unit": "ms"}
    table["host.ref_py_ms"] = {"value": result["host"]["ref_py_ms"], "unit": "ms"}
    table["host.ref_np_ms"] = {"value": result["host"]["ref_np_ms"], "unit": "ms"}
    result["samples"]["traced_ops"] = len(per_op)
    result["per_layer"] = table
    result["probes"] = probe_status
    return result


def _absent_reason(metric: str, probe_status: dict) -> str:
    prefix = metric.rsplit("_", 1)[0]
    for target, st in probe_status.items():
        if st["span"] == prefix and "absent" in st:
            return f"probe {target} absent: {st['absent']}"
    return "layer not on this workload's path (no traced op reached it)"


def _report(result: dict, declared: dict) -> dict:
    """Print the readable report; return the contract's metrics mapping."""
    print(f"== perfbench {result['workload']} seed {result['seed']} trace {result['trace']} ==")
    print(f"host: {json.dumps(result['host'], sort_keys=True)}")
    print(
        f"ops: {result['attempted']} attempted, {result['failed']} failed "
        f"(fail_ratio {result['fail_ratio']:.4f}), output sha256 {result['output_sha256']}"
    )
    n = result["samples"]
    metrics = {}
    if result["trace"] == 0:
        counts = {"setup_s": n["setups"], "op_p90_ms": n["ops"], "op_p50_ms": n["ops"]}
        for name, value in result["end_to_end"].items():
            unit = declared[name]
            shown = "unsupported" if value is None else f"{value:.4f}"
            print(f"  {name:<32} {shown:>14} {unit:<6} n={counts.get(name, n['ops'])}")
            metrics[name] = {"value": value, "unit": unit}
        print(f"  {'fail_ratio':<32} {result['fail_ratio']:>14.4f} {'ratio':<6} n={result['attempted']}")
        return metrics
    print(f"per-layer medians over {n.get('traced_ops', 0)} traced ops:")
    for name, row in result["per_layer"].items():
        if "absent" in row:
            print(f"  {name:<40} absent: {row['absent']}")
        else:
            print(f"  {name:<40} {row['value']:>14.4f} {row['unit']}")
    for name, unit in declared.items():
        row = result["per_layer"].get(name, {})
        metrics[name] = {"value": row.get("value"), "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="MemGaze benchmark")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = _load_program()
    if problem is not None:
        return _fail(problem)
    tracing = args.trace == 1
    key = "per_layer" if tracing else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}

    from perfbench import procs

    # orphans of the processes a run starts come back here to be reaped,
    # and SIGTERM unwinds through the finally below like any other exit
    procs.become_subreaper()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # keep every file the program (and the daemon it starts) writes in the checkout
    os.environ["MEMGAZE_CACHE_DIR"] = str(work / "cache")
    os.environ["TMPDIR"] = str(work)
    try:
        result = run(args.workload, args.seed, args.seconds, tracing, work)
    except Exception:
        traceback.print_exc()
        return _fail("run failed")
    finally:
        lingering = procs.reap_all()
        shutil.rmtree(work, ignore_errors=True)
    if lingering:
        return _fail(f"processes still running after the run: {lingering}")

    metrics = _report(result, declared)
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if missing:
        return _fail(f"no measurement for {', '.join(missing)}")
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    line = {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
