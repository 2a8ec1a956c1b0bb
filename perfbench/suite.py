"""Run every workload over several seeds and print the spread of each metric.

Usage (from the repository root)::

    python3 perfbench/suite.py --seeds 1-10 [--workloads report-html,...] [--trace 0]

Each run is ``perfbench/run.py`` in its own process, one after another.
For every end-to-end metric of every workload the suite prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (quartile distance over the median) against the metric's bound,
and the host reference kernels, so two sets taken at different times can
be compared. With ``--trace 1`` it prints the per-layer medians instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    units = {m["name"]: m["unit"] for m in spec[key]}

    report: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m: [] for m in units}
        host = {"ref_py_ms": [], "ref_np_ms": []}
        failed = attempted = 0
        for seed in _seeds(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [
                    sys.executable, str(ROOT / "perfbench" / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ],
                cwd=ROOT, capture_output=True, text=True,
            )
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            line = json.loads(lines[-1])
            attempted += line["attempted"]
            failed += line["failed"]
            for name, m in line["metrics"].items():
                values[name].append(m["value"])
            detail = json.loads(
                (ROOT / ".perfbench" / "results"
                 / f"{workload}-seed{seed}-trace{args.trace}.json").read_text()
            )
            for k in host:
                host[k].append(detail["host"][k])
            print(
                f"{workload} seed {seed}: {wall:.0f}s wall, {line['attempted']} ops, "
                + ", ".join(f"{k}={m['value']:.4g}" for k, m in line["metrics"].items()),
                flush=True,
            )
        rows = {}
        print(f"\n== {workload}: {attempted} ops, {failed} failed, seeds {args.seeds} ==")
        for name, vs in list(values.items()) + [(f"host.{k}", v) for k, v in host.items()]:
            q1, med, q3 = _quartiles(vs)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
            )
            unit = units.get(name, "ms")
            print(
                f"  {name:<30} median {med:>13.4f} {unit:<6} q1 {q1:>13.4f} q3 {q3:>13.4f} "
                f"spread {spread:6.3f} n={len(vs)}"
                + (f" (bound {bound}) {verdict}" if bound else "")
            )
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vs)}
        report[workload] = rows
    out = ROOT / ".perfbench" / f"suite-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
