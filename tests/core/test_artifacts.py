"""The persistent analysis cache: content addressing, warm hits, increments.

The store's contract (:mod:`repro.core.artifacts`) is that a cached
result is indistinguishable from recomputation: warm runs are
bit-identical to cold ones, an appended archive rescans only its tail,
and anything that would break that equivalence — damaged entries, a cut
mid-sample, missing sample ids — falls back to a full scan, journaled.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro._util.rng import derive_rng
from repro.core.artifacts import MISS, SCHEMA_VERSION, ArtifactStore, freeze_params
from repro.core.parallel import ParallelEngine
from repro.obs import MetricsRegistry, Obs, RunJournal, read_journal
from repro.trace.event import make_events
from repro.trace.tracefile import TraceMeta, _health_record, read_trace_health, write_trace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "obs"))
import faults  # noqa: E402

#: events per synthetic sample — append cuts must land on a multiple
SAMPLE = 500


def _trace(n, seed=0):
    """Deterministic mixed trace; sample ids are runs of SAMPLE events."""
    rng = derive_rng(seed, "artifacts-trace")
    ev = make_events(
        ip=rng.integers(0, 40, n),
        addr=rng.integers(0, 1 << 18, n),
        cls=rng.choice([0, 1, 2], n, p=[0.2, 0.4, 0.4]).astype(np.uint8),
        fn=rng.integers(0, 4, n),
    )
    sid = (np.arange(n) // SAMPLE).astype(np.int32)
    return ev, sid


def _write(path, ev, sid, n_loads=None):
    meta = TraceMeta(
        module="test", kind="sampled", period=1000, buffer_capacity=256,
        n_loads_total=n_loads or len(ev) * 3,
        n_samples=int(sid.max()) + 1 if sid is not None and len(sid) else 0,
    )
    write_trace(path, ev, meta, sid)
    return path


#: the archive analyses these tests compare
FILE_PASSES = ["diagnostics", "captures", "reuse"]


def _analysis_tuple(fa):
    """Everything an analysis of FILE_PASSES computes, as a comparable value."""
    reuse = fa.results["reuse"]
    return (
        fa.n_events,
        fa.rho,
        fa.results["diagnostics"],
        fa.results["captures"],
        reuse.counts.tolist(),
        reuse.n_cold,
        reuse.n_reuse,
        reuse.d_sum,
        reuse.d_max,
        reuse.scope,
    )


class TestFreezeParams:
    def test_ndarray_keys_by_content(self):
        a = freeze_params(np.arange(4))
        b = freeze_params(np.arange(4))
        c = freeze_params(np.arange(5))
        assert a == b and a != c

    def test_dict_order_insensitive(self):
        assert freeze_params({"a": 1, "b": [2]}) == freeze_params({"b": (2,), "a": 1})

    def test_repr_is_process_stable(self):
        frozen = freeze_params({"block": 64, "edges": np.array([1.0, 2.0])})
        assert "object at 0x" not in repr(frozen)


def _digest(ev, sid):
    """The digest of in-memory arrays: the one of their health record."""
    return ArtifactStore.digest_health(_health_record(ev, sid))


def _archive_digest(path):
    return ArtifactStore.digest_health(read_trace_health(path))


class TestDigests:
    def test_archive_and_memory_digests_agree(self, tmp_path):
        ev, sid = _trace(3000)
        path = _write(tmp_path / "t.npz", ev, sid)
        assert _archive_digest(path) == _digest(ev, sid)

    def test_digest_changes_with_content(self, tmp_path):
        ev, sid = _trace(3000)
        d0 = _digest(ev, sid)
        ev2 = ev.copy()
        ev2["addr"][1500] ^= 0x40
        assert _digest(ev2, sid) != d0

    def test_digest_independent_of_path(self, tmp_path):
        ev, sid = _trace(2000)
        a = _write(tmp_path / "a.npz", ev, sid)
        b = _write(tmp_path / "sub.npz", ev, sid)
        assert _archive_digest(a) == _archive_digest(b)

    def test_digest_distinguishes_sample_ids(self):
        ev, sid = _trace(2000)
        with_sid = _digest(ev, sid)
        without = _digest(ev, None)
        assert with_sid != without

    def test_unusable_health_digests_none(self):
        assert ArtifactStore.digest_health({"bogus": True}) is None


class TestPrefixState:
    def _stores_state(self, tmp_path, ev, sid):
        store = ArtifactStore(tmp_path / "cache")
        path = _write(tmp_path / "t.npz", ev, sid)
        health = read_trace_health(path)
        digest = ArtifactStore.digest_health(health)
        store.put_state(digest, health, int(sid[-1]))
        return store, health

    def test_finds_appended_extension(self, tmp_path):
        ev, sid = _trace(10 * SAMPLE)
        store, _ = self._stores_state(tmp_path, ev, sid)
        ev2, sid2 = _trace(14 * SAMPLE)
        ev2[: len(ev)] = ev  # same prefix, 4 appended samples
        bigger = _write(tmp_path / "t2.npz", ev2, sid2)
        state = store.find_prefix_state(read_trace_health(bigger))
        assert state is not None
        assert state["n_events"] == len(ev)
        assert state["last_sample_id"] == int(sid[-1])

    def test_rejects_modified_prefix(self, tmp_path):
        ev, sid = _trace(10 * SAMPLE)
        store, _ = self._stores_state(tmp_path, ev, sid)
        ev2, sid2 = _trace(14 * SAMPLE)
        ev2[: len(ev)] = ev
        ev2["addr"][3] ^= 0x10  # prefix differs → not an extension
        other = _write(tmp_path / "t2.npz", ev2, sid2)
        # with <1 full CRC chunk the mismatch surfaces in the skip scan,
        # not here; with full chunks it must be rejected outright
        state = store.find_prefix_state(read_trace_health(other))
        if state is not None:
            assert state["events_crc"] != read_trace_health(other)["events_crc"][:1]

    def test_rejects_without_sample_ids(self, tmp_path):
        ev, sid = _trace(10 * SAMPLE)
        store, _ = self._stores_state(tmp_path, ev, sid)
        ev2, sid2 = _trace(14 * SAMPLE)
        ev2[: len(ev)] = ev
        bare = _write(tmp_path / "bare.npz", ev2, None)
        assert store.find_prefix_state(read_trace_health(bare)) is None

    def test_rejects_same_or_shorter_trace(self, tmp_path):
        ev, sid = _trace(10 * SAMPLE)
        store, health = self._stores_state(tmp_path, ev, sid)
        assert store.find_prefix_state(health) is None  # not a strict prefix
        shorter = _write(tmp_path / "s.npz", ev[: 6 * SAMPLE], sid[: 6 * SAMPLE])
        assert store.find_prefix_state(read_trace_health(shorter)) is None

    def test_rejects_stale_schema(self, tmp_path):
        ev, sid = _trace(10 * SAMPLE)
        store, _ = self._stores_state(tmp_path, ev, sid)
        (name,) = store.cache.names("state-")
        state = store.cache.get(name)
        state["schema"] = SCHEMA_VERSION + 1
        store.cache.put(name, state)
        ev2, sid2 = _trace(14 * SAMPLE)
        ev2[: len(ev)] = ev
        bigger = _write(tmp_path / "t2.npz", ev2, sid2)
        assert store.find_prefix_state(read_trace_health(bigger)) is None


class TestWarmAnalyzeFile:
    def test_warm_run_is_bit_identical_and_reads_nothing(self, tmp_path):
        ev, sid = _trace(20 * SAMPLE)
        path = _write(tmp_path / "t.npz", ev, sid)
        jpath = tmp_path / "j.jsonl"

        def run():
            obs = Obs(RunJournal(jpath))
            store = ArtifactStore(tmp_path / "cache", obs=obs)
            with ParallelEngine(
                workers=1, chunk_size=2 * SAMPLE, store=store, obs=obs
            ) as eng:
                return eng.analyze(path, FILE_PASSES)

        cold, warm = run(), run()
        assert _analysis_tuple(warm) == _analysis_tuple(cold)
        lines = list(read_journal(jpath))
        stages = [r for r in lines if r.get("stage") == "analyze-file"]
        assert stages[0]["mode"] == "full"
        assert stages[1]["mode"] == "cached"
        assert sorted(stages[1]["cached_passes"]) == ["captures", "diagnostics", "reuse"]
        # the warm run never opened the events: chunk reads all precede it
        reads = [r for r in lines if r.get("event") == "chunk-read"]
        assert sum(r["n_events"] for r in reads) == len(ev), "only the cold run reads"

    def test_run_passes_store_roundtrip(self, tmp_path):
        ev, sid = _trace(4000)
        health = _health_record(ev, sid)

        def run():
            store = ArtifactStore(tmp_path / "cache")
            with ParallelEngine(workers=1, store=store) as eng:
                r = eng.analyze((ev, sid, health), ["diagnostics", "reuse"], rho=2.0)
                return r.results, store.cache.hits
        (cold, h0), (warm, h1) = run(), run()
        assert h0 == 0 and h1 > 0, "second engine must hit the disk store"
        assert warm["diagnostics"] == cold["diagnostics"]
        assert warm["reuse"].counts.tolist() == cold["reuse"].counts.tolist()
        assert warm["reuse"].d_sum == cold["reuse"].d_sum


class TestIncrementalAppend:
    def _cold_then_append(self, tmp_path, n0_samples=20, n1_samples=26, workers=1):
        ev2, sid2 = _trace(n1_samples * SAMPLE)
        n0 = n0_samples * SAMPLE
        path0 = _write(tmp_path / "t0.npz", ev2[:n0], sid2[:n0])
        path1 = _write(tmp_path / "t1.npz", ev2, sid2)
        jpath = tmp_path / "j.jsonl"

        def run(path):
            obs = Obs(RunJournal(jpath))
            store = ArtifactStore(tmp_path / "cache", obs=obs)
            with ParallelEngine(
                workers=workers, chunk_size=2 * SAMPLE, store=store, obs=obs
            ) as eng:
                return eng.analyze(path, FILE_PASSES)

        run(path0)  # prime the cache with the shorter trace
        warm = run(path1)
        cold = ParallelEngine(workers=1, chunk_size=2 * SAMPLE).analyze(path1, FILE_PASSES)
        return warm, cold, list(read_journal(jpath)), n0

    def test_appended_trace_scans_only_the_tail(self, tmp_path):
        warm, cold, lines, n0 = self._cold_then_append(tmp_path)
        assert _analysis_tuple(warm) == _analysis_tuple(cold)
        stage = [r for r in lines if r.get("stage") == "analyze-file"][-1]
        assert stage["mode"] == "incremental"
        assert stage["skipped_events"] == n0
        skips = [r for r in lines if r.get("event") == "chunk-skip"]
        assert [r["n_events"] for r in skips] == [n0]
        # chunk-read lines after the skip cover exactly the appended tail
        i_skip = max(i for i, r in enumerate(lines) if r.get("event") == "chunk-skip")
        tail_reads = [
            r["n_events"] for r in lines[i_skip:] if r.get("event") == "chunk-read"
        ]
        assert sum(tail_reads) == warm.n_events - n0, "rescan must touch only the tail"

    def test_mid_sample_append_falls_back_to_full(self, tmp_path):
        # cut inside a sample: the tail would continue the prefix's last
        # window, so incremental analysis must refuse and rescan fully
        ev2, sid2 = _trace(26 * SAMPLE)
        mid = 20 * SAMPLE + SAMPLE // 2
        tmp2 = tmp_path / "mid"
        tmp2.mkdir()
        path0 = _write(tmp2 / "t0.npz", ev2[:mid], sid2[:mid])
        path1 = _write(tmp2 / "t1.npz", ev2, sid2)
        jpath = tmp2 / "j.jsonl"

        def run(path):
            obs = Obs(RunJournal(jpath))
            store = ArtifactStore(tmp2 / "cache", obs=obs)
            with ParallelEngine(
                workers=1, chunk_size=2 * SAMPLE, store=store, obs=obs
            ) as eng:
                return eng.analyze(path, FILE_PASSES)

        run(path0)
        got = run(path1)
        ref = ParallelEngine(workers=1, chunk_size=2 * SAMPLE).analyze(path1, FILE_PASSES)
        assert _analysis_tuple(got) == _analysis_tuple(ref)
        stage = [r for r in read_journal(jpath) if r.get("stage") == "analyze-file"][-1]
        assert stage["mode"] == "full"
        warnings = [r for r in read_journal(jpath) if r.get("event") == "warning"]
        assert any("continues the prefix's last sample" in w["message"] for w in warnings)

    def test_incremental_with_pool_workers(self, tmp_path):
        warm, cold, lines, n0 = self._cold_then_append(tmp_path, workers=2)
        assert _analysis_tuple(warm) == _analysis_tuple(cold)
        stage = [r for r in lines if r.get("stage") == "analyze-file"][-1]
        assert stage["mode"] == "incremental"


class TestReplacedArchive:
    def test_archive_replaced_after_open_is_not_cached(self, tmp_path, monkeypatch):
        """A publish between the record's open and the chunk stream's.

        The scan then reads a longer archive than the record describes;
        its partials must not be stored under the record's digest, or a
        later analysis of the shorter archive is served the longer
        trace's results.
        """
        ev, sid = _trace(26 * SAMPLE)
        n0 = 20 * SAMPLE
        path, longer = tmp_path / "t.npz", tmp_path / "longer.npz"
        _write(path, ev[:n0], sid[:n0])
        _write(longer, ev, sid)
        jpath = tmp_path / "j.jsonl"
        open_archive = ParallelEngine._open_archive

        def open_then_publish(engine, source):
            src = open_archive(engine, source)
            os.replace(longer, path)
            return src

        def run():
            obs = Obs(RunJournal(jpath))
            store = ArtifactStore(tmp_path / "cache", obs=obs)
            with ParallelEngine(
                workers=1, chunk_size=2 * SAMPLE, store=store, obs=obs
            ) as eng:
                return eng.analyze(path, FILE_PASSES)

        monkeypatch.setattr(ParallelEngine, "_open_archive", open_then_publish)
        assert run().n_events == len(ev)
        monkeypatch.undo()
        warnings = [r for r in read_journal(jpath) if r.get("event") == "warning"]
        assert any("archive changed while it was analyzed" in w["message"] for w in warnings)

        _write(path, ev[:n0], sid[:n0])  # the shorter archive again
        got = run()
        ref = ParallelEngine(workers=1, chunk_size=2 * SAMPLE).analyze(path, FILE_PASSES)
        assert got.mode == "full"
        assert _analysis_tuple(got) == _analysis_tuple(ref)


class TestInMemoryIncremental:
    """Step 2 of the lookup chain serves in-memory sources keyed by a
    health record (what a serve session passes) too."""

    def _run(self, tmp_path, source, jpath=None):
        metrics = MetricsRegistry()
        obs = Obs(RunJournal(jpath) if jpath is not None else None, metrics)
        store = ArtifactStore(tmp_path / "cache")
        with ParallelEngine(workers=1, store=store, obs=obs) as eng:
            fa = eng.analyze(source, FILE_PASSES, rho=2.0)
        events = metrics.as_dict()["counters"].get("parallel.events", {"value": 0})
        return fa, events["value"]

    def test_extension_scans_only_the_tail(self, tmp_path):
        ev, sid = _trace(26 * SAMPLE)
        n0 = 20 * SAMPLE
        self._run(tmp_path, (ev[:n0], sid[:n0], _health_record(ev[:n0], sid[:n0])))
        warm, scanned = self._run(tmp_path, (ev, sid, _health_record(ev, sid)))
        cold = ParallelEngine(workers=1).analyze((ev, sid, None), FILE_PASSES, rho=2.0)
        assert warm.mode == "incremental" and warm.skipped_events == n0
        assert warm.digest == _digest(ev, sid)
        assert scanned == len(ev) - n0
        assert _analysis_tuple(warm) == _analysis_tuple(cold)

    def test_archive_prefix_serves_an_in_memory_extension(self, tmp_path):
        ev, sid = _trace(26 * SAMPLE)
        n0 = 20 * SAMPLE
        path0 = _write(tmp_path / "t0.npz", ev[:n0], sid[:n0])
        store = ArtifactStore(tmp_path / "cache")
        with ParallelEngine(workers=1, chunk_size=2 * SAMPLE, store=store) as eng:
            eng.analyze(path0, FILE_PASSES, rho=2.0)
        warm, scanned = self._run(tmp_path, (ev, sid, _health_record(ev, sid)))
        assert warm.mode == "incremental" and scanned == len(ev) - n0

    def test_only_a_health_record_keys_arrays(self, tmp_path):
        ev, sid = _trace(4 * SAMPLE)
        with pytest.raises(TypeError, match="health record"):
            self._run(tmp_path, (ev, sid, _digest(ev, sid)))

    def test_record_of_another_length_addresses_nothing(self, tmp_path):
        # the record of a shorter prefix must neither serve nor receive
        # the longer arrays' partials
        ev, sid = _trace(26 * SAMPLE)
        n0 = 20 * SAMPLE
        short = _health_record(ev[:n0], sid[:n0])
        self._run(tmp_path, (ev[:n0], sid[:n0], short))
        names = ArtifactStore(tmp_path / "cache").cache.names()
        fa, scanned = self._run(tmp_path, (ev, sid, short))
        assert fa.digest is None and fa.mode == "full" and scanned == len(ev)
        assert ArtifactStore(tmp_path / "cache").cache.names() == names

    def test_zero_filled_sample_ids_keep_the_full_scan(self, tmp_path):
        # a sid-less trace's record with all-zero ids (what a query of a
        # sid-less session analyzes) does not describe these arrays
        ev, _ = _trace(26 * SAMPLE)
        n0 = 20 * SAMPLE
        zeros = np.zeros(len(ev), dtype=np.int32)
        self._run(tmp_path, (ev[:n0], zeros[:n0], _health_record(ev[:n0], None)))
        fa, scanned = self._run(tmp_path, (ev, zeros, _health_record(ev, None)))
        assert fa.mode == "full" and scanned == len(ev)

    def test_health_of_other_arrays_is_not_trusted(self, tmp_path):
        ev, sid = _trace(26 * SAMPLE)
        n0 = 20 * SAMPLE
        self._run(tmp_path, (ev[:n0], sid[:n0], _health_record(ev[:n0], sid[:n0])))
        other = ev.copy()
        other["addr"][-1] += 64  # the newest chunk no longer re-checksums
        fa, scanned = self._run(tmp_path, (other, sid, _health_record(ev, sid)))
        assert fa.mode == "full" and scanned == len(ev)

    def test_changed_prefix_falls_back_with_a_warning(self, tmp_path):
        ev, sid = _trace(26 * SAMPLE)
        n0 = 20 * SAMPLE
        self._run(tmp_path, (ev[:n0], sid[:n0], _health_record(ev[:n0], sid[:n0])))
        changed = ev.copy()
        changed["addr"][5] += 64
        jpath = tmp_path / "j.jsonl"
        fa, scanned = self._run(
            tmp_path, (changed, sid, _health_record(changed, sid)), jpath
        )
        assert fa.mode == "full" and scanned == len(ev)
        warnings = [r for r in read_journal(jpath) if r.get("event") == "warning"]
        assert any("prefix checksums do not match" in w["message"] for w in warnings)


class TestPrefixShadowing:
    """Below one health chunk every shorter stored state matches a
    record, so an unrelated longer state must not hide the real prefix."""

    @pytest.mark.parametrize("kind", ["archive", "memory"])
    def test_unrelated_longer_state_does_not_shadow_the_prefix(self, tmp_path, kind):
        ev, sid = _trace(7 * SAMPLE)  # 3,500 events
        n0 = 4 * SAMPLE  # the stored 2,000-event prefix
        other, other_sid = _trace(5 * SAMPLE, seed=9)  # unrelated, 2,500 events
        store = ArtifactStore(tmp_path / "cache")
        jpath = tmp_path / "j.jsonl"

        def analyze(name, events, sample_id, obs=None, store=store):
            with ParallelEngine(workers=1, store=store, obs=obs) as eng:
                if kind == "archive":
                    return eng.analyze(_write(tmp_path / name, events, sample_id), FILE_PASSES)
                health = _health_record(events, sample_id)
                return eng.analyze((events, sample_id, health), FILE_PASSES, rho=2.0)

        analyze("prefix.npz", ev[:n0], sid[:n0])
        analyze("other.npz", other, other_sid)
        warm = analyze("ext.npz", ev, sid, Obs(RunJournal(jpath)))
        cold = analyze("cold.npz", ev, sid, store=None)
        assert warm.mode == "incremental" and warm.skipped_events == n0
        assert _analysis_tuple(warm) == _analysis_tuple(cold)
        warnings = [r for r in read_journal(jpath) if r.get("event") == "warning"]
        assert [w["state_n_events"] for w in warnings] == [len(other)]
        assert "trying a shorter cached prefix" in warnings[0]["message"]


class TestNoSampleIds:
    def test_degraded_reuse_is_marked_and_journaled(self, tmp_path):
        ev, _ = _trace(8 * SAMPLE)
        path = _write(tmp_path / "bare.npz", ev, None)
        jpath = tmp_path / "j.jsonl"
        with ParallelEngine(
            workers=1, chunk_size=2 * SAMPLE, obs=Obs(RunJournal(jpath))
        ) as eng:
            fa = eng.analyze(path, FILE_PASSES)
        assert fa.results["reuse"].scope == "chunk"
        warnings = [r for r in read_journal(jpath) if r.get("event") == "warning"]
        (w,) = [w for w in warnings if "no sample ids" in w["message"]]
        assert w["reuse_scope"] == "chunk"
        assert w["chunk_size"] == 2 * SAMPLE

    def test_sampled_archive_keeps_sample_scope(self, tmp_path):
        ev, sid = _trace(8 * SAMPLE)
        path = _write(tmp_path / "t.npz", ev, sid)
        jpath = tmp_path / "j.jsonl"
        with ParallelEngine(
            workers=1, chunk_size=2 * SAMPLE, obs=Obs(RunJournal(jpath))
        ) as eng:
            fa = eng.analyze(path, FILE_PASSES)
        assert fa.results["reuse"].scope == "sample"
        warnings = [r for r in read_journal(jpath) if r.get("event") == "warning"]
        assert not warnings

    def test_chunk_scoped_passes_never_persisted(self, tmp_path):
        ev, _ = _trace(8 * SAMPLE)
        path = _write(tmp_path / "bare.npz", ev, None)
        store = ArtifactStore(tmp_path / "cache")

        def run():
            with ParallelEngine(workers=1, chunk_size=2 * SAMPLE, store=store) as eng:
                return eng.analyze(path, FILE_PASSES)

        a = run()
        names_after_cold = store.cache.names("partial-")
        assert len(names_after_cold) == 2, "only diagnostics+captures are cacheable"
        b = run()  # warm: reuse must be rescanned, not served stale
        assert _analysis_tuple(a) == _analysis_tuple(b)
        digest = _archive_digest(path)
        assert store.get_partial(digest, "reuse", {"block": 64, "max_exp": 48}) is MISS


class TestFaultInjection:
    @pytest.mark.faults
    def test_bit_flipped_entry_recomputes_correctly(self, tmp_path):
        ev, sid = _trace(12 * SAMPLE)
        path = _write(tmp_path / "t.npz", ev, sid)
        jpath = tmp_path / "j.jsonl"

        def run():
            obs = Obs(RunJournal(jpath))
            store = ArtifactStore(tmp_path / "cache", obs=obs)
            with ParallelEngine(
                workers=1, chunk_size=3 * SAMPLE, store=store, obs=obs
            ) as eng:
                return eng.analyze(path, FILE_PASSES)

        cold = run()
        for entry in sorted((tmp_path / "cache").glob("partial-*.mgc")):
            faults.flip_bytes(entry, offset_fraction=0.6)
        recovered = run()
        assert _analysis_tuple(recovered) == _analysis_tuple(cold)
        lines = list(read_journal(jpath))
        warnings = [r for r in lines if r.get("event") == "warning"]
        assert any("corrupt cache entry" in w["message"] for w in warnings)
        stage = [r for r in lines if r.get("stage") == "analyze-file"][-1]
        assert stage["mode"] == "full", "damaged entries must force a rescan"
        # and the rescan repaired the cache: a third run is fully cached
        third = run()
        assert _analysis_tuple(third) == _analysis_tuple(cold)
        stage = [r for r in read_journal(jpath) if r.get("stage") == "analyze-file"][-1]
        assert stage["mode"] == "cached"

    def test_metrics_account_cache_traffic(self, tmp_path):
        ev, sid = _trace(6 * SAMPLE)
        path = _write(tmp_path / "t.npz", ev, sid)
        m = MetricsRegistry()
        obs = Obs(metrics=m)
        store = ArtifactStore(tmp_path / "cache", obs=obs)
        with ParallelEngine(
            workers=1, chunk_size=2 * SAMPLE, store=store, obs=obs
        ) as eng:
            eng.analyze(path, FILE_PASSES)
            eng.analyze(path, FILE_PASSES)
        counters = m.as_dict()["counters"]
        assert counters["cache.stores"]["value"] >= 4  # 3 partials + 1 state
        assert counters["cache.hits"]["value"] >= 3
        assert counters["cache.bytes_written"]["value"] > 0


class TestConcurrentSharing:
    def test_two_processes_share_one_cache_dir(self, tmp_path):
        ev, sid = _trace(16 * SAMPLE)
        path = _write(tmp_path / "t.npz", ev, sid)
        src = str(Path(__file__).resolve().parents[2] / "src")
        cmd = [
            sys.executable, "-m", "repro.cli", "report", str(path),
            "--passes", "diagnostics,reuse,captures",
            "--cache", "--cache-dir", str(tmp_path / "cache"),
        ]
        procs = [
            subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**__import__("os").environ, "PYTHONPATH": src}, text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert all(p.returncode == 0 for p in procs), [o[1] for o in outs]
        assert outs[0][0] == outs[1][0], "racing runs must agree bit-for-bit"
        # a third, warm run agrees too and the cache directory is intact
        third = subprocess.run(
            cmd, capture_output=True, text=True,
            env={**__import__("os").environ, "PYTHONPATH": src},
        )
        assert third.returncode == 0
        assert third.stdout == outs[0][0]
        assert not list((tmp_path / "cache").glob(".tmp-*")), "no stale temp files"

    def test_eviction_during_read_is_a_clean_miss(self, tmp_path):
        ev, sid = _trace(8 * SAMPLE)
        path = _write(tmp_path / "t.npz", ev, sid)
        store_a = ArtifactStore(tmp_path / "cache")
        with ParallelEngine(workers=1, chunk_size=2 * SAMPLE, store=store_a) as eng:
            cold = eng.analyze(path, FILE_PASSES)
        # a second handle evicts everything mid-flight; the reader engine
        # must fall back to a scan, not crash or serve garbage
        ArtifactStore(tmp_path / "cache").prune(0)
        store_b = ArtifactStore(tmp_path / "cache")
        with ParallelEngine(workers=1, chunk_size=2 * SAMPLE, store=store_b) as eng:
            warm = eng.analyze(path, FILE_PASSES)
        assert _analysis_tuple(warm) == _analysis_tuple(cold)
        assert store_b.cache.corrupt == 0
