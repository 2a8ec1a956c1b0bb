"""Trace differencing: pairwise and N-way corpus comparisons.

The paper's case studies are all *comparisons* — v1 vs v2 vs v3, pr vs
pr-spmv, AlexNet vs ResNet — done by reading tables side by side. This
module turns that workflow into a first-class operation at two scales:

* :func:`diff_traces` / ``memgaze diff a.npz b.npz`` — the original
  pairwise per-function diff, ranked by how much each function moved;
* :func:`corpus_diff` / ``memgaze matrix --gate`` — the N-way form: a
  baseline cell against every candidate in a corpus payload, with
  per-metric absolute/relative regression thresholds and a
  machine-readable ``pass``/``regressed`` verdict for CI gating.

The pairwise path runs the ``windows`` pass through the engine
(:func:`~repro.core.windows.code_windows`), as ``report`` does. Both
forms build :class:`FunctionDelta` rows through the same helper and
render through the same table, so ``memgaze diff`` output is
byte-identical to what it was before the corpus layer existed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro._util.tables import format_table
from repro.core.diagnostics import FootprintDiagnostics
from repro.core.report import format_quantity
from repro.core.windows import code_windows
from repro.trace.collector import CollectionResult
from repro.trace.compress import sample_ratio_from

__all__ = [
    "FunctionDelta",
    "TraceDiff",
    "diff_traces",
    "VERDICT_SCHEMA",
    "CORPUS_METRICS",
    "MetricThreshold",
    "Thresholds",
    "ThresholdError",
    "MetricEvidence",
    "CellDiff",
    "CorpusDiff",
    "corpus_diff",
]


@dataclass(frozen=True)
class FunctionDelta:
    """Per-function change between two traces."""

    function: str
    before: FootprintDiagnostics | None  # None = function only in 'after'
    after: FootprintDiagnostics | None  # None = function only in 'before'

    @property
    def accesses_ratio(self) -> float:
        """after/before estimated accesses (inf for new, 0 for removed)."""
        if self.before is None or self.before.A_est == 0:
            return float("inf") if self.after is not None else 1.0
        if self.after is None:
            return 0.0
        return self.after.A_est / self.before.A_est

    @property
    def dF_delta(self) -> float:
        """Change in footprint growth (positive = less reuse)."""
        b = self.before.dF if self.before else 0.0
        a = self.after.dF if self.after else 0.0
        return a - b

    @property
    def strided_delta(self) -> float:
        """Change in strided footprint share, percentage points."""
        b = self.before.F_str_pct if self.before else 0.0
        a = self.after.F_str_pct if self.after else 0.0
        return a - b

    @property
    def magnitude(self) -> float:
        """How much this function moved (for ranking)."""
        r = self.accesses_ratio
        ratio_term = abs(np.log2(r)) if 0 < r < float("inf") else 3.0
        return ratio_term + abs(self.dF_delta) * 4 + abs(self.strided_delta) / 25


def _function_deltas(
    cw_before: Mapping[str, FootprintDiagnostics],
    cw_after: Mapping[str, FootprintDiagnostics],
    min_accesses: int,
) -> list[FunctionDelta]:
    """Ranked per-function deltas between two code-window mappings.

    Functions match by name; those below ``min_accesses`` observed
    records on both sides are dropped as noise. This is the one delta
    constructor behind both the pairwise and the N-way diff.
    """
    deltas = []
    for fn in sorted(set(cw_before) | set(cw_after)):
        b, a = cw_before.get(fn), cw_after.get(fn)
        if (b is None or b.A_obs < min_accesses) and (a is None or a.A_obs < min_accesses):
            continue
        deltas.append(FunctionDelta(function=fn, before=b, after=a))
    deltas.sort(key=lambda d: -d.magnitude)
    return deltas


def _render_delta_table(
    label_before: str,
    label_after: str,
    deltas: list[FunctionDelta],
    total_ratio: float,
    top: int,
) -> str:
    """The paper-style diff table, biggest movers first (shared renderer).

    A truncated listing says how many rows it dropped — a silent top-N
    cap would read as "nothing else moved".
    """
    rows = []
    for d in deltas[:top]:
        b, a = d.before, d.after
        rows.append(
            [
                d.function,
                format_quantity(b.A_est) if b else "-",
                format_quantity(a.A_est) if a else "-",
                f"{d.accesses_ratio:.2f}x" if np.isfinite(d.accesses_ratio) else "new",
                f"{b.dF:.3f}" if b else "-",
                f"{a.dF:.3f}" if a else "-",
                f"{d.strided_delta:+.1f}",
            ]
        )
    title = (
        f"trace diff: {label_before} -> {label_after} "
        f"(total accesses {total_ratio:.2f}x)"
    )
    table = format_table(
        ["Function", "A before", "A after", "ratio", "dF before", "dF after", "dF_str% delta"],
        rows,
        title=title,
    )
    if len(deltas) > top:
        table += (
            f"\n({len(deltas) - top} of {len(deltas)} function rows omitted; "
            f"raise --top to see all)"
        )
    return table


@dataclass
class TraceDiff:
    """Result of comparing two traces."""

    label_before: str
    label_after: str
    deltas: list[FunctionDelta]
    total_before: float  # estimated accesses
    total_after: float

    @property
    def total_ratio(self) -> float:
        """after/before total estimated accesses."""
        return self.total_after / self.total_before if self.total_before else 1.0

    def render(self, *, top: int = 12) -> str:
        """Paper-style diff table, biggest movers first."""
        return _render_delta_table(
            self.label_before, self.label_after, self.deltas, self.total_ratio, top
        )


def diff_traces(
    before: CollectionResult,
    after: CollectionResult,
    fn_names_before: dict[int, str] | None = None,
    fn_names_after: dict[int, str] | None = None,
    *,
    label_before: str = "before",
    label_after: str = "after",
    min_accesses: int = 100,
) -> TraceDiff:
    """Compare two sampled traces function by function.

    Functions are matched by name; those below ``min_accesses`` observed
    records in both traces are dropped as noise.
    """
    cw_b = code_windows(before.events, rho=sample_ratio_from(before), fn_names=fn_names_before)
    cw_a = code_windows(after.events, rho=sample_ratio_from(after), fn_names=fn_names_after)
    return TraceDiff(
        label_before=label_before,
        label_after=label_after,
        deltas=_function_deltas(cw_b, cw_a, min_accesses),
        total_before=sum(d.A_est for d in cw_b.values()),
        total_after=sum(d.A_est for d in cw_a.values()),
    )


# -- N-way corpus diff and regression gating ----------------------------------

#: Bump when the verdict payload layout changes.
VERDICT_SCHEMA = 1


def _reuse_quantile(reuse: Mapping, q: float) -> float:
    """The q-quantile of the reuse-distance histogram, as a bin lower edge.

    ``counts[0]`` holds D == 0 and ``counts[k]`` holds ``[2**(k-1),
    2**k)``, so the quantile resolves to the smallest distance in the
    first bin whose cumulative count reaches ``q`` of the reusing
    accesses. Cold accesses are outside the distribution. Exact integer
    arithmetic — no float comparison can move a threshold verdict.
    """
    counts = reuse["counts"]
    total = int(reuse["n_reuse"])
    if total == 0:
        return 0.0
    target = q * total
    cum = 0
    for k, c in enumerate(counts):
        cum += int(c)
        if cum >= target:
            return 0.0 if k == 0 else float(2 ** (k - 1))
    return float(2 ** (len(counts) - 1))


def _diag_metric(name: str) -> Callable[[Mapping], float]:
    def get(payload: Mapping) -> float:
        return float(payload["passes"]["diagnostics"][name])

    return get


def _capture_rate(payload: Mapping) -> float:
    cap = payload["passes"]["captures"]
    c, s = int(cap["captures"]), int(cap["survivals"])
    return c / (c + s) if (c + s) else 0.0


def _reuse_mean(payload: Mapping) -> float:
    r = payload["passes"]["reuse"]
    return int(r["d_sum"]) / int(r["n_reuse"]) if int(r["n_reuse"]) else 0.0


def _sweep_metric(reduce: Callable[[list[dict]], float]) -> Callable[[Mapping], float]:
    def get(payload: Mapping) -> float:
        rows = payload["passes"]["cache_sweep"]
        return float(reduce(rows)) if rows else 0.0

    return get


def _pred_gap_max(rows: list[dict]) -> float:
    return max(abs(r["hit_ratio"] - r["predicted_hit_ratio"]) for r in rows)


@dataclass(frozen=True)
class _Metric:
    extract: Callable[[Mapping], float]
    worse: str  # "higher" | "lower": the direction that counts as regression
    requires: str | None = None  # pass that must be in the cell payload


#: The gateable per-cell metric catalog: how each value is read out of a
#: cell payload and which direction is a regression. Threshold files may
#: only name metrics listed here. Metrics with a ``requires`` pass are
#: evaluated only for cells that ran it (``memgaze matrix
#: --cache-sweep``); gating on one when the pass was not run is an error
#: rather than a silently-passing bound.
CORPUS_METRICS: dict[str, _Metric] = {
    "dF": _Metric(_diag_metric("dF"), "higher"),
    "dF_irr": _Metric(_diag_metric("dF_irr"), "higher"),
    "F": _Metric(_diag_metric("F"), "higher"),
    "F_est": _Metric(_diag_metric("F_est"), "higher"),
    "A_est": _Metric(_diag_metric("A_est"), "higher"),
    "reuse_mean": _Metric(_reuse_mean, "higher"),
    "reuse_p50": _Metric(lambda p: _reuse_quantile(p["passes"]["reuse"], 0.50), "higher"),
    "reuse_p90": _Metric(lambda p: _reuse_quantile(p["passes"]["reuse"], 0.90), "higher"),
    "reuse_p99": _Metric(lambda p: _reuse_quantile(p["passes"]["reuse"], 0.99), "higher"),
    "capture_rate": _Metric(_capture_rate, "lower"),
    # what-if sweep metrics: hit ratios over the swept geometry grid.
    # A drop in the worst/mean simulated hit rate is the regression
    # (less cache-friendly), as is the prediction drifting away from
    # the simulation (reuse-distance model losing fidelity).
    "cache.hit_ratio_min": _Metric(
        _sweep_metric(lambda rows: min(r["hit_ratio"] for r in rows)),
        "lower",
        requires="cache_sweep",
    ),
    "cache.hit_ratio_mean": _Metric(
        _sweep_metric(lambda rows: sum(r["hit_ratio"] for r in rows) / len(rows)),
        "lower",
        requires="cache_sweep",
    ),
    "cache.pred_gap_max": _Metric(
        _sweep_metric(_pred_gap_max), "higher", requires="cache_sweep"
    ),
}


class ThresholdError(ValueError):
    """A thresholds file that cannot gate (unknown metric, bad bound)."""


@dataclass(frozen=True)
class MetricThreshold:
    """Regression bounds for one metric; ``None`` means unbounded."""

    max_abs: float | None = None
    max_rel: float | None = None


@dataclass(frozen=True)
class Thresholds:
    """Per-metric regression bounds, usually loaded from a TOML file."""

    metrics: Mapping[str, MetricThreshold] = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, raw: Mapping, *, source: str = "thresholds") -> "Thresholds":
        out: dict[str, MetricThreshold] = {}
        for name, entry in raw.items():
            if name not in CORPUS_METRICS:
                raise ThresholdError(
                    f"{source}: unknown metric {name!r} "
                    f"(known: {', '.join(sorted(CORPUS_METRICS))})"
                )
            if not isinstance(entry, Mapping):
                raise ThresholdError(f"{source}: metric {name!r} must be a table")
            bad = sorted(set(entry) - {"max_abs", "max_rel"})
            if bad:
                raise ThresholdError(
                    f"{source}: metric {name!r}: unknown keys: {', '.join(bad)} "
                    "(known: max_abs, max_rel)"
                )
            bounds = {}
            for key in ("max_abs", "max_rel"):
                if key in entry:
                    v = float(entry[key])
                    if not np.isfinite(v) or v < 0:
                        raise ThresholdError(
                            f"{source}: metric {name!r}: {key} must be finite "
                            f"and >= 0, got {entry[key]!r}"
                        )
                    bounds[key] = v
            if not bounds:
                raise ThresholdError(
                    f"{source}: metric {name!r} sets neither max_abs nor max_rel"
                )
            out[name] = MetricThreshold(**bounds)
        return cls(metrics=out)

    @classmethod
    def from_file(cls, path) -> "Thresholds":
        """Parse a ``.toml`` (or ``.json``) thresholds file.

        One table per metric::

            [dF_irr]
            max_abs = 0.05      # candidate may exceed baseline by 0.05
            max_rel = 0.10      # ... or by 10% of the baseline value
        """
        p = Path(path)
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise ThresholdError(f"cannot read thresholds: {exc}") from exc
        if p.suffix == ".json":
            import json

            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ThresholdError(f"{p}: invalid JSON: {exc}") from exc
        else:
            import tomllib

            try:
                raw = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise ThresholdError(f"{p}: invalid TOML: {exc}") from exc
        if not isinstance(raw, Mapping):
            raise ThresholdError(f"{p}: thresholds must be a table/object")
        return cls.from_mapping(raw, source=str(p))

    def get(self, metric: str) -> MetricThreshold | None:
        return self.metrics.get(metric)


@dataclass(frozen=True)
class MetricEvidence:
    """One (cell, metric) comparison against the baseline.

    ``delta_abs`` is measured in the metric's *worse* direction (a
    positive value always means "moved toward regression", whichever
    way the raw numbers went); ``delta_rel`` is ``delta_abs`` relative
    to the baseline magnitude, ``None`` when the baseline is zero (a
    relative bound cannot apply there — only ``max_abs`` gates).
    Exactly-at-threshold is a pass: regression requires strictly
    exceeding a bound.
    """

    metric: str
    baseline: float
    candidate: float
    delta_abs: float
    delta_rel: float | None
    max_abs: float | None
    max_rel: float | None
    regressed: bool

    def jsonable(self) -> dict:
        return {
            "baseline": self.baseline,
            "candidate": self.candidate,
            "delta_abs": self.delta_abs,
            "delta_rel": self.delta_rel,
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "regressed": self.regressed,
        }


def _evidence(
    metric: str, base_payload: Mapping, cand_payload: Mapping, thresholds: Thresholds
) -> MetricEvidence:
    m = CORPUS_METRICS[metric]
    base = m.extract(base_payload)
    cand = m.extract(cand_payload)
    delta = cand - base if m.worse == "higher" else base - cand
    rel = delta / abs(base) if base else None
    th = thresholds.get(metric)
    regressed = th is not None and (
        (th.max_abs is not None and delta > th.max_abs)
        or (th.max_rel is not None and rel is not None and rel > th.max_rel)
    )
    return MetricEvidence(
        metric=metric,
        baseline=base,
        candidate=cand,
        delta_abs=delta,
        delta_rel=rel,
        max_abs=th.max_abs if th else None,
        max_rel=th.max_rel if th else None,
        regressed=regressed,
    )


@dataclass
class CellDiff:
    """One candidate cell against the baseline: functions + metrics."""

    label: str
    deltas: list[FunctionDelta]
    evidence: list[MetricEvidence]
    total_before: float
    total_after: float

    @property
    def regressed(self) -> bool:
        return any(e.regressed for e in self.evidence)

    @property
    def total_ratio(self) -> float:
        return self.total_after / self.total_before if self.total_before else 1.0


@dataclass
class CorpusDiff:
    """N-way diff: a baseline against every candidate cell of a corpus."""

    corpus: str
    baseline: str
    cells: list[CellDiff]
    thresholds: Thresholds

    @property
    def verdict(self) -> str:
        """``"regressed"`` when any cell trips any threshold, else ``"pass"``."""
        return "regressed" if any(c.regressed for c in self.cells) else "pass"

    def verdict_payload(self) -> dict:
        """The machine-readable verdict: per-cell, per-metric evidence."""
        return {
            "schema": VERDICT_SCHEMA,
            "corpus": self.corpus,
            "baseline": self.baseline,
            "verdict": self.verdict,
            "thresholds": {
                name: {"max_abs": t.max_abs, "max_rel": t.max_rel}
                for name, t in sorted(self.thresholds.metrics.items())
            },
            "cells": {
                c.label: {
                    "verdict": "regressed" if c.regressed else "pass",
                    "metrics": {e.metric: e.jsonable() for e in c.evidence},
                }
                for c in self.cells
            },
        }

    def render(self, *, top: int = 12) -> str:
        """Human-readable verdict: one section per candidate cell."""
        lines = [
            f"corpus diff: {self.corpus} (baseline {self.baseline}, "
            f"{len(self.cells)} candidate{'s' if len(self.cells) != 1 else ''}) "
            f"-> {self.verdict.upper()}"
        ]
        if not self.cells:
            lines.append("(baseline only — nothing to compare)")
        for c in self.cells:
            lines.append("")
            lines.append(
                f"== {c.label}: {'REGRESSED' if c.regressed else 'pass'} =="
            )
            for e in c.evidence:
                if not e.regressed:
                    continue
                rel = f", {100 * e.delta_rel:+.1f}%" if e.delta_rel is not None else ""
                bound = (
                    f"max_abs {e.max_abs:g}"
                    if e.max_abs is not None and e.delta_abs > e.max_abs
                    else f"max_rel {e.max_rel:g}"
                )
                lines.append(
                    f"  {e.metric}: {e.baseline:g} -> {e.candidate:g} "
                    f"({e.delta_abs:+g}{rel}) exceeds {bound}"
                )
            lines.append(
                _render_delta_table(self.baseline, c.label, c.deltas, c.total_ratio, top)
            )
        return "\n".join(lines)


def _functions_from_payload(payload: Mapping) -> dict[str, FootprintDiagnostics]:
    """Rehydrate a cell payload's ``functions`` mapping into diagnostics.

    ``to_jsonable`` serializes exactly the dataclass fields, so the
    round trip is lossless and the shared delta machinery sees the same
    objects the pairwise path computes directly.
    """
    return {name: FootprintDiagnostics(**d) for name, d in payload["functions"].items()}


def corpus_diff(
    corpus_payload: Mapping,
    thresholds: Thresholds | None = None,
    *,
    baseline: str | None = None,
    min_accesses: int = 100,
) -> CorpusDiff:
    """Diff every candidate cell of a corpus payload against its baseline.

    ``corpus_payload`` is the aggregated payload from
    :meth:`~repro.core.corpus.CorpusResult.corpus_payload` (or the same
    JSON reloaded from disk — the diff is a pure function of the
    payload). ``baseline`` overrides the payload's recorded baseline.
    With no ``thresholds`` every metric is reported as evidence but
    nothing can regress, so the verdict is always ``pass``.
    """
    thresholds = thresholds if thresholds is not None else Thresholds()
    cells: Mapping[str, Mapping] = corpus_payload["cells"]
    base_label = baseline or corpus_payload["baseline"]
    if base_label not in cells:
        raise ThresholdError(
            f"baseline {base_label!r} names no corpus cell "
            f"(cells: {', '.join(sorted(cells))})"
        )
    base_payload = cells[base_label]
    cw_base = _functions_from_payload(base_payload)
    total_base = sum(d.A_est for d in cw_base.values())
    out = []
    for label, payload in sorted(cells.items()):
        if label == base_label:
            continue
        evidence = []
        for m in sorted(CORPUS_METRICS):
            req = CORPUS_METRICS[m].requires
            if req is not None and (
                req not in base_payload["passes"] or req not in payload["passes"]
            ):
                if thresholds.get(m) is not None:
                    raise ThresholdError(
                        f"metric {m!r} is gated but pass {req!r} was not run "
                        f"for cell {base_label!r} or {label!r} "
                        f"(re-run the matrix with the pass enabled)"
                    )
                continue
            evidence.append(_evidence(m, base_payload, payload, thresholds))
        cw_cand = _functions_from_payload(payload)
        out.append(
            CellDiff(
                label=label,
                deltas=_function_deltas(cw_base, cw_cand, min_accesses),
                evidence=evidence,
                total_before=total_base,
                total_after=sum(d.A_est for d in cw_cand.values()),
            )
        )
    return CorpusDiff(
        corpus=str(corpus_payload.get("corpus", "corpus")),
        baseline=base_label,
        cells=out,
        thresholds=thresholds,
    )
