"""Tests for the structured JSONL run journal."""

import json
import multiprocessing as mp
import pickle

import pytest

from repro.obs import MetricsRegistry, Obs, RunJournal, read_journal


@pytest.fixture
def journal(tmp_path):
    with RunJournal(tmp_path / "run.jsonl") as j:
        yield j


class TestEmit:
    def test_one_line_per_emit(self, journal):
        journal.emit("stage", stage="trace", seconds=0.5)
        journal.emit("stage", stage="analyze", seconds=1.5)
        lines = list(read_journal(journal.path))
        assert [r["stage"] for r in lines] == ["trace", "analyze"]

    def test_schema_fields_present(self, journal):
        journal.emit("custom", foo=1)
        (rec,) = read_journal(journal.path)
        assert {"ts", "run", "pid", "event", "foo"} <= set(rec)
        assert rec["event"] == "custom" and rec["run"] == journal.run_id

    def test_lines_are_valid_json(self, journal):
        journal.emit("stage", stage="merge", tasks=["diagnostics", "captures"])
        raw = journal.path.read_text().splitlines()
        assert all(isinstance(json.loads(line), dict) for line in raw)

    def test_non_json_values_stringified(self, journal):
        journal.emit("stage", path=journal.path)  # Path is not JSON-native
        (rec,) = read_journal(journal.path)
        assert rec["path"] == str(journal.path)

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as j1:
            j1.emit("a")
        with RunJournal(path) as j2:
            j2.emit("b")
        assert [r["event"] for r in read_journal(path)] == ["a", "b"]


class TestStage:
    def test_records_elapsed_seconds(self, journal):
        with Obs(journal).stage("shard-plan", n_shards=4):
            pass
        (rec,) = read_journal(journal.path)
        assert rec["stage"] == "shard-plan"
        assert rec["n_shards"] == 4
        assert rec["seconds"] >= 0.0

    def test_error_recorded_and_propagated(self, journal):
        with pytest.raises(RuntimeError):
            with Obs(journal).stage("analyze"):
                raise RuntimeError("boom")
        (rec,) = read_journal(journal.path)
        assert rec["error"] == "RuntimeError: boom"


class TestBridges:
    """What :class:`Obs` writes through the journal it wraps."""

    def test_warning(self, journal):
        Obs(journal).warning("dropped tail", path="t.npz", kind="truncation")
        (rec,) = read_journal(journal.path)
        assert rec["event"] == "warning" and rec["message"] == "dropped tail"

    def test_record_timers(self, journal):
        obs = Obs(journal)
        obs.add("compute", 0.25, items=100)
        obs.add("merge", 0.05, items=4)
        obs.close()
        recs = list(read_journal(journal.path))
        assert {r["stage"] for r in recs} == {"compute", "merge"}
        assert all(r["event"] == "stage-summary" for r in recs)
        assert journal._fd is None  # closing the handle closes the journal

    def test_record_metrics(self, journal):
        m = MetricsRegistry()
        m.counter("trace.chunks_read").inc(3)
        Obs(journal, m).close(stages=False)
        (rec,) = read_journal(journal.path)
        assert rec["metrics"]["counters"]["trace.chunks_read"]["value"] == 3


def _worker_emit(journal, n):
    for i in range(n):
        journal.emit("stage", stage="shard-analyzed", i=i)


class TestProcessSafety:
    def test_pickles_path_and_run_id_only(self, journal):
        journal.emit("warm")  # open the descriptor so there is state to drop
        clone = pickle.loads(pickle.dumps(journal))
        assert clone.path == journal.path
        assert clone.run_id == journal.run_id
        assert clone._fd is None

    def test_concurrent_writers_never_interleave(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        n_procs, n_lines = 4, 50
        ctx = mp.get_context("spawn")
        procs = [
            ctx.Process(target=_worker_emit, args=(journal, n_lines))
            for _ in range(n_procs)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        recs = list(read_journal(journal.path))  # raises on any torn line
        assert len(recs) == n_procs * n_lines
        assert {r["run"] for r in recs} == {journal.run_id}
        assert len({r["pid"] for r in recs}) == n_procs
