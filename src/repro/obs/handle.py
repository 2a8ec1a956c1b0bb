"""One observability handle: the journal, the registry and the timers.

Every instrumented layer takes a single ``obs`` argument, an
:class:`Obs`, and reports through it unconditionally. ``Obs(journal,
metrics)`` journals through a :class:`~repro.obs.journal.RunJournal`
(or nowhere) and counts into a
:class:`~repro.obs.metrics.MetricsRegistry` (or into
:data:`NULL_REGISTRY`, whose instruments do nothing). It always keeps
its own :class:`~repro._util.timers.StageTimers`, because ``report
--stats`` prints them with observability off.

Owners of a stage table — the analysis engine, :class:`MemGaze
<repro.core.pipeline.MemGaze>` and the serve daemon — build a fresh
``Obs()`` when given none, so two of them never share timings;
everything else defaults to :data:`NULL_OBS`, whose timers record
nothing either. A handle pickles down to its journal address and bound
fields, so a worker process never sees its parent's registry or timers.
"""

from __future__ import annotations

import json
import time
from typing import Any

from repro._util.timers import StageTimers
from repro.obs.journal import RunJournal
from repro.obs.metrics import MetricsRegistry

__all__ = ["Obs", "NULL_OBS", "NULL_REGISTRY"]


def _ignore(self, *args, **kwargs) -> None:
    pass


class _NullInstrument:
    """Every counter, gauge and histogram of the null registry."""

    __slots__ = ()
    inc = set = observe = merge = _ignore


class _NullRegistry:
    """A registry that records nothing: one shared no-op instrument."""

    _instrument = _NullInstrument()

    def counter(self, name: str, *args) -> _NullInstrument:
        return self._instrument

    gauge = histogram = counter
    merge = _ignore


#: the registry of a handle built without metrics
NULL_REGISTRY = _NullRegistry()


class _NullTimers(StageTimers):
    """Timers that record nothing (the shared null handle's)."""

    add = _ignore


class _Stage:
    """Context manager that journals a stage's elapsed time on exit."""

    def __init__(self, obs: "Obs", stage: str, fields: dict) -> None:
        self._obs = obs
        self._stage = stage
        self._fields = fields
        self._start = 0.0

    def __enter__(self) -> "_Stage":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        fields = dict(self._fields)
        fields["seconds"] = time.perf_counter() - self._start
        if exc is not None:
            fields["error"] = f"{type(exc).__name__}: {exc}"
        self._obs.emit("stage", stage=self._stage, **fields)


class Obs:
    """Journal, metrics registry and stage timers behind one argument.

    >>> obs = Obs()  # observability off: nothing is journaled or counted
    >>> obs.counter("parallel.plans").inc()
    >>> with obs.timed("merge", items=4):
    ...     pass
    >>> obs.timers.stats["merge"].items
    4
    """

    def __init__(
        self, journal: RunJournal | None = None, metrics: MetricsRegistry | None = None
    ) -> None:
        self.journal = journal
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.timers = StageTimers()
        self._fields: dict = {}
        #: a bound view or an unpickled copy never writes the summary
        self._owner = True
        self._closed = False

    @classmethod
    def open(cls, journal_path=None, metrics: bool = False) -> "Obs":
        """The handle of one command: ``--journal PATH`` and ``--metrics``."""
        return cls(RunJournal(journal_path) if journal_path else None,
                   MetricsRegistry() if metrics else None)

    @property
    def run_id(self) -> str | None:
        """The journal's run id (None without a journal)."""
        return None if self.journal is None else self.journal.run_id

    # -- journal --

    def emit(self, event: str, **fields: Any) -> None:
        """Append one journal line carrying the bound fields (call site wins)."""
        if self.journal is not None:
            self.journal.emit(event, **{**self._fields, **fields})

    def warning(self, message: str, **fields: Any) -> None:
        """Journal a degradation the run survived (recovery, fallback)."""
        self.emit("warning", message=message, **fields)

    def stage(self, stage: str, **fields: Any) -> _Stage:
        """Journal a timed region as one ``stage`` line::

            with obs.stage("trace", period=cfg.period):
                ...
        """
        return _Stage(self, stage, fields)

    def bind(self, **fields: Any) -> "Obs":
        """A view that stamps ``fields`` onto every line it journals.

        The view shares this handle's journal, registry and timers;
        binding nests, and newer fields win. The streaming service binds
        ``session=<name>`` so one daemon journal is filterable per
        client stream.
        """
        view = Obs.__new__(Obs)
        view.__dict__.update(self.__dict__, _fields={**self._fields, **fields},
                             _owner=False)
        return view

    # -- timers and metrics --

    def timed(self, name: str, items: int = 0):
        """Time a region into the stage timers (not journaled)."""
        return self.timers.stage(name, items)

    def add(self, name: str, seconds: float, items: int = 0) -> None:
        """Record ``seconds`` (and ``items``) against a timer stage."""
        self.timers.add(name, seconds, items)

    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str, mode: str = "max"):
        return self.metrics.gauge(name, mode)

    def histogram(self, name: str):
        return self.metrics.histogram(name)

    # -- end of run --

    def export(self, path, **keys: Any) -> None:
        """Write the ``--metrics`` JSON: run id, registry snapshot and ``keys``."""
        data = {"run": self.run_id, "metrics": self.metrics.as_dict(), **keys}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def close(self, *, stages: bool = True) -> None:
        """End the run: journal the summary, then close the journal.

        Writes one ``stage-summary`` line per timer stage (unless
        ``stages`` is False) and, with a live registry, one ``metrics``
        line. Only the first call on the handle that owns the journal
        does anything; bound views and unpickled copies never close it.
        """
        if not self._owner or self._closed:
            return
        self._closed = True
        if stages:
            for rec in self.timers.as_records():
                self.emit("stage-summary", **rec)
        if self.metrics is not NULL_REGISTRY:
            self.emit("metrics", metrics=self.metrics.as_dict())
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Obs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- process boundaries --

    def __getstate__(self) -> dict:
        return {"journal": self.journal, "fields": self._fields}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["journal"])
        self._fields = state["fields"]
        self._owner = False


#: the shared null handle: no journal, no registry, timers that record
#: nothing, and no run to close — nothing about it ever changes
NULL_OBS = Obs()
NULL_OBS.timers = _NullTimers()
NULL_OBS._owner = False
