"""Corpus model: a grid of traces analyzed as one unit.

The paper's workflow — and the original CLI — analyzed one archive at a
time; judging a code change against a *fleet* of workloads needs the
corpus as a first-class object. A :class:`CorpusSpec` names every cell
of a workload x config x trace grid (loaded from a TOML/JSON spec file
or expanded from a directory of archives), and a :class:`CorpusResult`
holds each cell's canonical payload plus one aggregated corpus payload
that extends the ``full_report_payload`` conventions: pure trace
content, no paths or timestamps, so a warm (cache-served) run
serializes byte-identically to the cold run that populated the cache.

``memgaze matrix`` is the CLI entry; :mod:`repro.core.matrix` runs the
grid and :mod:`repro.core.diff` turns a result into an N-way verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = [
    "CORPUS_SCHEMA",
    "CorpusSpecError",
    "CellSpec",
    "CorpusSpec",
    "CellResult",
    "CorpusResult",
    "cell_payload",
]

#: Bump when the corpus payload layout changes; verdicts carry it too.
CORPUS_SCHEMA = 1

#: per-cell keys a spec file may set (everything else is a typo)
_CELL_KEYS = frozenset(["label", "trace", "block", "reuse_block", "cache_sweep"])
_TOP_KEYS = frozenset(["name", "baseline", "cell"])


class CorpusSpecError(ValueError):
    """A corpus spec that cannot be run (missing cells, bad labels...)."""


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: a trace archive plus its analysis parameters."""

    label: str
    trace: Path
    block: int = 1
    reuse_block: int = 64
    #: opt-in: run the cache-geometry what-if sweep for this cell (adds
    #: the ``cache_sweep`` pass to its payload and enables the
    #: ``cache.*`` gate metrics). Off by default so existing corpus
    #: payloads stay byte-identical.
    cache_sweep: bool = False


@dataclass(frozen=True)
class CorpusSpec:
    """A validated grid of cells with a designated baseline side."""

    cells: tuple[CellSpec, ...]
    baseline: str
    name: str = "corpus"

    def __post_init__(self) -> None:
        if not self.cells:
            raise CorpusSpecError("corpus spec has no cells")
        labels = [c.label for c in self.cells]
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        if dupes:
            raise CorpusSpecError(f"duplicate cell labels: {', '.join(dupes)}")
        if self.baseline not in labels:
            raise CorpusSpecError(
                f"baseline {self.baseline!r} names no cell "
                f"(cells: {', '.join(labels)})"
            )
        for c in self.cells:
            if not Path(c.trace).exists():
                raise CorpusSpecError(
                    f"cell {c.label!r}: trace archive not found: {c.trace}"
                )

    @property
    def candidates(self) -> tuple[CellSpec, ...]:
        """Every cell except the baseline, in spec order."""
        return tuple(c for c in self.cells if c.label != self.baseline)

    def cell(self, label: str) -> CellSpec:
        for c in self.cells:
            if c.label == label:
                return c
        raise KeyError(label)

    @classmethod
    def from_directory(
        cls, path, *, baseline: str | None = None, name: str | None = None
    ) -> "CorpusSpec":
        """One cell per ``*.npz`` archive, labelled by file stem.

        Cells sort by label; the baseline defaults to the first label.
        """
        root = Path(path)
        archives = sorted(root.glob("*.npz"), key=lambda p: p.stem)
        if not archives:
            raise CorpusSpecError(f"no *.npz archives in {root}")
        cells = tuple(CellSpec(label=p.stem, trace=p) for p in archives)
        return cls(
            cells=cells,
            baseline=baseline or cells[0].label,
            name=name or (root.name or "corpus"),
        )

    @classmethod
    def from_file(cls, path, *, baseline: str | None = None) -> "CorpusSpec":
        """Parse a ``.toml`` or ``.json`` spec file.

        The layout is the same in both syntaxes::

            name = "nightly"          # optional, defaults to the file stem
            baseline = "v1"           # optional, defaults to the first cell

            [[cell]]
            label = "v1"              # optional, defaults to the trace stem
            trace = "traces/v1.npz"   # required; relative to the spec file
            block = 1                 # optional analysis params
            reuse_block = 64

        ``baseline=`` (the keyword argument) overrides the file's choice.
        """
        spec_path = Path(path)
        try:
            text = spec_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CorpusSpecError(f"cannot read corpus spec: {exc}") from exc
        if spec_path.suffix == ".json":
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise CorpusSpecError(f"{spec_path}: invalid JSON: {exc}") from exc
        else:
            import tomllib

            try:
                raw = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise CorpusSpecError(f"{spec_path}: invalid TOML: {exc}") from exc
        if not isinstance(raw, dict):
            raise CorpusSpecError(f"{spec_path}: spec must be a table/object")
        unknown = sorted(set(raw) - _TOP_KEYS)
        if unknown:
            raise CorpusSpecError(
                f"{spec_path}: unknown keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(_TOP_KEYS))})"
            )
        entries = raw.get("cell", [])
        if not isinstance(entries, list):
            raise CorpusSpecError(f"{spec_path}: 'cell' must be an array of tables")
        cells = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise CorpusSpecError(f"{spec_path}: cell #{i} must be a table")
            bad = sorted(set(entry) - _CELL_KEYS)
            if bad:
                raise CorpusSpecError(
                    f"{spec_path}: cell #{i}: unknown keys: {', '.join(bad)} "
                    f"(known: {', '.join(sorted(_CELL_KEYS))})"
                )
            if "trace" not in entry:
                raise CorpusSpecError(f"{spec_path}: cell #{i} has no 'trace'")
            trace = spec_path.parent / str(entry["trace"])
            cells.append(
                CellSpec(
                    label=str(entry.get("label", trace.stem)),
                    trace=trace,
                    block=int(entry.get("block", 1)),
                    reuse_block=int(entry.get("reuse_block", 64)),
                    cache_sweep=bool(entry.get("cache_sweep", False)),
                )
            )
        if not cells:
            raise CorpusSpecError(f"{spec_path}: spec declares no [[cell]] entries")
        return cls(
            cells=tuple(cells),
            baseline=baseline or str(raw.get("baseline", cells[0].label)),
            name=str(raw.get("name", spec_path.stem)),
        )

    @classmethod
    def load(cls, path, *, baseline: str | None = None) -> "CorpusSpec":
        """Directory -> :meth:`from_directory`, file -> :meth:`from_file`."""
        p = Path(path)
        if p.is_dir():
            return cls.from_directory(p, baseline=baseline)
        if p.exists():
            return cls.from_file(p, baseline=baseline)
        raise CorpusSpecError(f"corpus spec not found: {p}")


def cell_payload(analysis) -> dict:
    """One cell's canonical payload from an archive :class:`~repro.core.parallel.Analysis`.

    Built by :func:`repro.core.report.report_payload` — the builder
    behind ``report --json`` — from the archive's metadata, so a
    cache-served cell produces the same bytes without touching events.
    Nothing environmental (paths, modes, timings) may appear here.
    """
    from repro.core.report import report_payload

    meta = analysis.meta
    # the opt-in what-if sweep (CellSpec.cache_sweep / matrix
    # --cache-sweep) is absent by default so existing corpora keep
    # their payload bytes
    return report_payload(
        analysis,
        module=meta.module,
        n_samples=meta.n_samples,
        n_loads_total=meta.n_loads_total,
        extra=["cache_sweep"] if "cache_sweep" in analysis.results else (),
    )


@dataclass
class CellResult:
    """One analyzed cell: its payload plus run evidence.

    The payload is pure content; everything run-dependent (mode,
    timing, cache evidence) lives here so journals and verdicts can
    cite it without ever leaking into the canonical bytes.
    """

    spec: CellSpec
    payload: dict
    mode: str  # "cached" | "incremental" | "full"
    n_events: int
    skipped_events: int
    seconds: float
    digest: str | None

    @property
    def label(self) -> str:
        return self.spec.label


@dataclass
class CorpusResult:
    """Every cell's result plus the aggregated corpus payload."""

    spec: CorpusSpec
    cells: dict[str, CellResult] = field(default_factory=dict)

    def corpus_payload(self) -> dict:
        """The aggregated canonical payload (content only, stable bytes)."""
        return {
            "schema": CORPUS_SCHEMA,
            "corpus": self.spec.name,
            "baseline": self.spec.baseline,
            "n_cells": len(self.cells),
            "cells": {label: r.payload for label, r in sorted(self.cells.items())},
        }

    @property
    def modes(self) -> Mapping[str, str]:
        """``{label: mode}`` — the per-cell cache evidence."""
        return {label: r.mode for label, r in sorted(self.cells.items())}
