"""Structured JSONL run journal, safe across processes.

A :class:`RunJournal` appends one JSON object per line to a file. Lines
are written with a single ``os.write`` on a descriptor opened with
``O_APPEND``, which POSIX guarantees to be atomic for writes well under
``PIPE_BUF``-scale sizes — so any number of processes (the parallel
engine's pool workers in particular) can share one journal file without
locks or interleaved lines.

Journals pickle cheaply: only the path and run id cross a process
boundary; the receiving process reopens the file lazily on its first
emit. Every line carries the schema fields

``ts``
    Seconds since the epoch (``time.time()``) at emit.
``run``
    The run id — shared by every line of one toolchain invocation,
    across all worker processes.
``pid``
    The emitting process (worker id for pool-side lines).
``event``
    The record kind: ``"stage"``, ``"shard-analyzed"``, ``"warning"``,
    ``"stage-summary"``, ``"metrics"``, or any caller-chosen name.

plus whatever keyword fields the call site adds (stage names, timings,
item counts, rho/kappa/window parameters). See ``docs/observability.md``
for the worked example and the full field catalog.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator

__all__ = ["RunJournal", "read_journal"]


def _new_run_id() -> str:
    return f"{os.getpid():x}-{time.time_ns():x}"


class RunJournal:
    """Append-only JSONL journal shared by every process of one run.

    >>> j = RunJournal("/tmp/doctest-journal.jsonl")  # doctest: +SKIP
    >>> j.emit("stage", stage="merge", seconds=0.01)  # doctest: +SKIP
    """

    def __init__(self, path, run_id: str | None = None) -> None:
        self.path = Path(path)
        self.run_id = run_id or _new_run_id()
        self._fd: int | None = None

    # -- process safety --

    def _descriptor(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
            )
        return self._fd

    def __getstate__(self) -> dict:
        # only the address crosses process boundaries; workers reopen
        return {"path": self.path, "run_id": self.run_id}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self.run_id = state["run_id"]
        self._fd = None

    def close(self) -> None:
        """Close the underlying descriptor (idempotent)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- emitters --

    def emit(self, event: str, **fields: Any) -> None:
        """Append one journal line (a single atomic ``write``)."""
        record = {"ts": time.time(), "run": self.run_id, "pid": os.getpid(),
                  "event": event}
        record.update(fields)
        line = json.dumps(record, default=str) + "\n"
        os.write(self._descriptor(), line.encode("utf-8"))


def read_journal(path) -> Iterator[dict]:
    """Parse a journal file back into dicts (tooling/test helper)."""
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                yield json.loads(line)
