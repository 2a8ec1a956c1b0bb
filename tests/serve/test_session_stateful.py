"""Stateful property test: a serve session under random op sequences.

A hypothesis :class:`RuleBasedStateMachine` drives one in-process
:class:`~repro.serve.session.ServeSession` through opens, ingests
(sample-aligned, straddling the previous chunk's last sample, or
without sample ids), queries (full report, ``--passes``, viz) and
close + reopen (rehydration). After every step:

* the session archive validates clean;
* the archive holds exactly the events (and sample ids) ingested;
* every full query is byte-equal to ``memgaze report --json`` over the
  archive;
* a chunk that starts a new sample in a session with sample ids acks
  ``mode == "incremental"`` — only the tail was scanned.

Killing a shard worker mid-step is not modelled here.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cli import main
from repro.core.artifacts import ArtifactStore
from repro.core.parallel import ParallelEngine
from repro.core.report import payload_json
from repro.serve.session import SessionManager
from repro.trace import health
from repro.trace.event import LoadClass, make_events
from repro.trace.tracefile import TraceMeta, read_trace

_NAME = "stream"
_META = TraceMeta(
    module="stateful",
    kind="sampled",
    period=1000,
    buffer_capacity=64,
    n_loads_total=0,
    extra={"fn_names": {"0": "alpha", "1": "beta"}},
)


def _events(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 3, n)
    addr = np.where(
        kind == 0,
        0x1000_0000 + (np.arange(n) * 8) % 4096,
        np.where(kind == 1, 0x2000_0000 + rng.integers(0, 256, n) * 8, 0x3000_0000),
    ).astype(np.uint64)
    cls = np.where(
        kind == 0,
        int(LoadClass.STRIDED),
        np.where(kind == 1, int(LoadClass.IRREGULAR), int(LoadClass.CONSTANT)),
    )
    return make_events(ip=0x40_0000 + kind * 4, addr=addr, cls=cls, fn=(kind % 2).astype(np.uint32))


def _offline_report(archive: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", str(archive), "--json", "--no-cache"]) == 0
    return out.getvalue().rstrip("\n")


class SessionMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="memgaze-stateful-"))
        self.engine = ParallelEngine(workers=1, store=ArtifactStore(self.dir / "cache"))
        self.manager = SessionManager(self.dir / "sessions")
        self.session = None
        self.events: list[np.ndarray] = []
        self.sids: list[np.ndarray] | None = []
        self.last_sid: int | None = None
        self.seed = 0

    def teardown(self) -> None:
        self.engine.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- rules ----------------------------------------------------------------

    @initialize()
    def open(self) -> None:
        self.session = self.manager.open(_NAME, _META)

    @rule(n=st.integers(1, 400), per_sample=st.integers(1, 120),
          # weighted so most sessions keep their sample ids for a while
          kind=st.sampled_from(["aligned"] * 4 + ["straddling", "sidless"]))
    def ingest(self, n: int, per_sample: int, kind: str) -> None:
        self.seed += 1
        events = _events(n, self.seed)
        if kind == "sidless":
            sid = None
        else:
            first = self.last_sid if self.last_sid is not None else 0
            if kind == "aligned" and self.last_sid is not None:
                first += 1
            sid = (first + np.arange(n) // per_sample).astype(np.int32)
        had_events = bool(self.events)
        ack = self.session.ingest(events, sid, self.engine)

        new_sample = sid is not None and (self.last_sid is None or sid[0] != self.last_sid)
        if sid is not None:
            self.last_sid = int(sid[-1])
        self.events.append(events)
        if self.sids is not None:
            self.sids = None if sid is None else [*self.sids, sid]
        if had_events and new_sample and self.sids is not None:
            assert ack["mode"] == "incremental", ack
            assert ack["skipped_events"] == sum(map(len, self.events[:-1]))

    @precondition(lambda self: self.events)
    @rule()
    def query_full(self) -> None:
        _, payload = self.session.query(None, self.engine)
        assert payload_json(payload) == _offline_report(self.session.archive)

    @precondition(lambda self: self.events)
    @rule(passes=st.lists(st.sampled_from(["diagnostics", "reuse", "captures", "hotspot"]),
                          min_size=1, max_size=3, unique=True))
    def query_passes(self, passes) -> None:
        _, payload = self.session.query(passes, self.engine)
        assert set(payload["passes"]) >= set(passes)

    @precondition(lambda self: self.events)
    @rule()
    def query_viz(self) -> None:
        _, payload = self.session.query(None, self.engine, viz=True)
        assert payload["n_events"] == sum(map(len, self.events))

    @rule()
    def close_and_reopen(self) -> None:
        self.manager.close(_NAME)
        self.session = self.manager.open(_NAME, _META)
        assert self.session.n_events == sum(map(len, self.events))

    # -- invariants -----------------------------------------------------------

    @invariant()
    def archive_is_what_was_ingested(self) -> None:
        if not self.events:
            return
        archive = self.session.archive
        assert health.validate(archive).ok
        events, _, sid, _ = read_trace(archive)
        assert np.array_equal(events, np.concatenate(self.events))
        if self.sids is None:
            assert sid is None
        else:
            assert np.array_equal(sid, np.concatenate(self.sids))
        assert sorted(p.name for p in archive.parent.iterdir()) == [archive.name]


TestSessionMachine = SessionMachine.TestCase
TestSessionMachine.settings = settings(
    max_examples=40,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
