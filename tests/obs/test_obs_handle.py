"""The observability handle: null form, binding, pickling, ownership."""

import contextlib
import io
import os
import pickle

import numpy as np

from repro.cli import main as cli_main
from repro.core.parallel import ParallelEngine
from repro.obs import NULL_OBS, MetricsRegistry, Obs, RunJournal, read_journal
from repro.obs.handle import NULL_REGISTRY
from repro.trace.event import make_events
from repro.trace.tracefile import TraceMeta, write_trace


def _trace(n_samples: int = 100, per_sample: int = 400):
    n = n_samples * per_sample
    ev = make_events(
        ip=0x40_0000 + (np.arange(n) % 3) * 4,
        addr=0x1000_0000 + (np.arange(n) * 8) % 65536,
        cls=np.arange(n) % 3,
    )
    return ev, np.repeat(np.arange(n_samples, dtype=np.int32), per_sample)


class TestNullForm:
    def test_off_by_default_writes_nothing(self, tmp_path, monkeypatch):
        ev, sid = _trace(10)
        write_trace(tmp_path / "t.npz", ev, TraceMeta(module="null"), sample_id=sid)
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(["report", "t.npz", "--no-cache", "--stats"]) == 0
        assert "== analysis stage timings ==" in out.getvalue()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.npz"]

    def test_null_registry_hands_out_one_no_op(self):
        obs = Obs()
        assert obs.metrics is NULL_REGISTRY
        c = obs.counter("a")
        assert c is obs.gauge("b") is obs.histogram("c")
        c.inc(3)
        c.set(1.0)
        c.observe(7)
        obs.emit("ignored", x=1)  # no journal: nothing to write to
        obs.close()

    def test_shared_null_handle_collects_nothing(self):
        with NULL_OBS.timed("plan", items=3):
            pass
        NULL_OBS.add("compute", 1.0, items=10)
        NULL_OBS.bind(session="s").add("merge", 1.0)
        assert NULL_OBS.timers.stats == {}

    def test_engines_without_obs_keep_separate_timers(self):
        ev, sid = _trace(10)
        with ParallelEngine(workers=1) as a, ParallelEngine(workers=1) as b:
            a.analyze((ev, sid, None), ["diagnostics"])
            assert "compute" in a.obs.timers.stats
            assert b.obs.timers.stats == {}


class TestBinding:
    def test_bound_view_shares_state_and_stamps_fields(self, tmp_path):
        reg = MetricsRegistry()
        obs = Obs(RunJournal(tmp_path / "j.jsonl"), reg)
        view = obs.bind(session="s").bind(op="ingest")
        view.counter("n").inc()
        view.add("serve-ingest", 0.5)
        view.emit("chunk-ingested", op="query")
        view.close()  # a view never closes the shared journal
        obs.emit("after")
        obs.close()
        assert reg.counter("n").value == 1
        assert obs.timers.stats["serve-ingest"].calls == 1
        recs = list(read_journal(tmp_path / "j.jsonl"))
        assert recs[0]["session"] == "s" and recs[0]["op"] == "query"
        assert [r["event"] for r in recs] == [
            "chunk-ingested", "after", "stage-summary", "metrics"
        ]

    def test_close_is_idempotent(self, tmp_path):
        obs = Obs(RunJournal(tmp_path / "j.jsonl"), MetricsRegistry())
        obs.close()
        obs.close()
        assert [r["event"] for r in read_journal(tmp_path / "j.jsonl")] == ["metrics"]


class TestPickling:
    def test_pickle_carries_journal_address_and_fields_only(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        obs = Obs(journal, MetricsRegistry()).bind(session="s1")
        obs.counter("parent.only").inc()
        obs.add("parent-stage", 1.0)
        obs.emit("warm")  # the parent's descriptor is open
        assert set(obs.__getstate__()) == {"journal", "fields"}
        clone = pickle.loads(pickle.dumps(obs))
        assert clone.journal.path == journal.path
        assert clone.run_id == journal.run_id
        assert clone.journal._fd is None
        assert clone._fields == {"session": "s1"}
        assert clone.metrics is NULL_REGISTRY
        assert clone.timers.stats == {}
        clone.close()  # a copy never ends the run
        assert not any(
            r["event"] == "stage-summary" for r in read_journal(tmp_path / "j.jsonl")
        )
        journal.close()

    def test_pool_workers_journal_bound_fields(self, tmp_path):
        """``shard-analyzed`` lines written in pool workers carry ``session``."""
        ev, sid = _trace()
        path = tmp_path / "j.jsonl"
        with Obs(RunJournal(path)) as obs:
            with ParallelEngine(workers=2, obs=obs.bind(session="s1")) as eng:
                eng.analyze((ev, sid, None), ["diagnostics", "reuse"])
        shards = [r for r in read_journal(path) if r["event"] == "shard-analyzed"]
        assert len(shards) > 1
        assert {r["session"] for r in shards} == {"s1"}
        assert all(r["pid"] != os.getpid() for r in shards)
