"""The persistent analysis cache: content addressing, warm hits, increments.

The store's contract (:mod:`repro.core.artifacts`) is that a cached
result is indistinguishable from recomputation: warm runs are
bit-identical to cold ones, an appended archive rescans only its tail,
and anything that would break that equivalence — damaged entries, a cut
mid-sample — falls back to a full scan, journaled. A trace without
sample ids is one sample and is cached like any other.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro._util.crc import crc32_chunks
from repro._util.rng import derive_rng
from repro.cli import main as cli_main
from repro.core.artifacts import MISS, SCHEMA_VERSION, ArtifactStore, freeze_params
from repro.core.corpus import CorpusSpec
from repro.core.matrix import run_matrix
from repro.core.parallel import ParallelEngine
from repro.core.report import payload_json, report_payload, report_requests
from repro.core.reuse import reuse_histogram
from repro.obs import MetricsRegistry, Obs, RunJournal, read_journal
from repro.trace.event import make_events
from repro.trace.tracefile import (
    TraceMeta,
    _health_record,
    read_trace_health,
    read_trace_meta,
    write_trace,
)

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
    # a trace without sample ids is one sample
    n_samples = int(sid.max()) + 1 if sid is not None and len(sid) else int(len(ev) > 0)
    meta = TraceMeta(
        module="test", kind="sampled", period=1000, buffer_capacity=256,
        n_loads_total=n_loads or len(ev) * 3,
        n_samples=n_samples,
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
    def test_archive_replaced_after_open_reads_as_opened(self, tmp_path, monkeypatch):
        """A publish lands between the archive's open and its scan.

        The analysis holds one open of the file, so it reads the archive
        as opened — record, events and counts alike — and stores its
        partials under that archive's own digest: a re-analysis of the
        same bytes is served from the store and equals a fresh uncached
        analysis.
        """
        ev, sid = _trace(26 * SAMPLE)
        n0 = 20 * SAMPLE
        path, longer = tmp_path / "t.npz", tmp_path / "longer.npz"
        _write(path, ev[:n0], sid[:n0])
        _write(longer, ev, sid)
        digest = _archive_digest(path)
        open_archive = ParallelEngine._open_archive

        def open_then_publish(engine, src):
            open_archive(engine, src)
            os.replace(longer, path)

        def run():
            store = ArtifactStore(tmp_path / "cache")
            with ParallelEngine(workers=1, chunk_size=2 * SAMPLE, store=store) as eng:
                return eng.analyze(path, FILE_PASSES)

        monkeypatch.setattr(ParallelEngine, "_open_archive", open_then_publish)
        first = run()
        monkeypatch.undo()
        assert first.n_events == n0
        assert first.digest == digest and first.mode == "full"

        _write(path, ev[:n0], sid[:n0])  # the same bytes again
        got = run()
        ref = ParallelEngine(workers=1, chunk_size=2 * SAMPLE).analyze(path, FILE_PASSES)
        assert got.mode == "cached" and got.digest == digest
        assert _analysis_tuple(got) == _analysis_tuple(first) == _analysis_tuple(ref)

    def test_record_that_miscounts_its_events_is_not_cached(self, tmp_path):
        """A health record whose ``n_events`` is not its events member's
        length is faulty: the archive is analyzed, but nothing is stored
        under the record."""
        ev, sid = _trace(6 * SAMPLE)
        good = _write(tmp_path / "good.npz", ev, sid)
        path = _with_health(good, tmp_path / "t.npz", n_events=len(ev) + SAMPLE)
        jpath = tmp_path / "j.jsonl"

        def run():
            obs = Obs(RunJournal(jpath))
            store = ArtifactStore(tmp_path / "cache", obs=obs)
            with ParallelEngine(workers=1, store=store, obs=obs) as eng:
                return eng.analyze(path, FILE_PASSES)

        ref = ParallelEngine(workers=1).analyze(good, FILE_PASSES)
        for _ in range(2):
            got = run()
            assert got.mode == "full"
            assert _analysis_tuple(got) == _analysis_tuple(ref)
        warnings = [r for r in read_journal(jpath) if r.get("event") == "warning"]
        assert len(warnings) == 2
        assert all("does not describe the archive's events" in w["message"] for w in warnings)
        assert warnings[0]["record_n_events"] == len(ev) + SAMPLE


def _with_health(src, dst, **change):
    """Copy archive ``src`` to ``dst`` with fields of its health record changed."""
    import io
    import zipfile

    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w", zipfile.ZIP_DEFLATED) as zout:
        for name in zin.namelist():
            data = zin.read(name)
            if name == "health.npy":
                record = {**json.loads(np.load(io.BytesIO(data)).tobytes()), **change}
                buf = io.BytesIO()
                np.save(buf, np.frombuffer(json.dumps(record).encode(), dtype=np.uint8))
                data = buf.getvalue()
            zout.writestr(name, data)
    return dst


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


def _record(ev, sid, step):
    """A health record of ``ev``/``sid`` checksummed in chunks of ``step`` records."""
    return {
        "version": 1,
        "chunk_events": step,
        "n_events": len(ev),
        "events_crc": crc32_chunks(ev, step, at_least_one=True),
        "sample_id_crc": crc32_chunks(sid, step, at_least_one=True),
    }


class TestInMemoryPrefixCheck:
    """An in-memory extension re-checksums the stored state's final
    partial chunk and its own record's final chunk, each byte once."""

    @staticmethod
    def _extend(store_dir, ev, sid, n0, step, source=None):
        store = ArtifactStore(store_dir)
        with ParallelEngine(workers=1, store=store) as eng:
            eng.analyze((ev[:n0], sid[:n0], _record(ev[:n0], sid[:n0], step)), FILE_PASSES)
            return eng.analyze(source or (ev, sid, _record(ev, sid, step)), FILE_PASSES)

    @settings(max_examples=60, deadline=None)
    @given(
        step=st.sampled_from([600, 1000, 1750, 8000]),
        n0_samples=st.integers(1, 8),
        tail_samples=st.integers(1, 6),
        flip=st.sampled_from([None, "events", "sample_id"]),
        at_tail=st.booleans(),
        data=st.data(),
    )
    def test_a_flipped_checked_byte_forces_a_full_scan(
        self, step, n0_samples, tail_samples, flip, at_tail, data
    ):
        ev, sid = _trace((n0_samples + tail_samples) * SAMPLE)
        n0, total = n0_samples * SAMPLE, len(ev)
        # the ranges the check reads: the state's partial chunk [lo, n0)
        # and the record's last chunk from n0 on: [n0, N) when the state
        # ends inside it
        lo, last_lo = n0 - n0 % step, (total - 1) // step * step
        span = (max(n0, last_lo), total) if at_tail else (lo, n0)
        assume(flip is None or span[0] < span[1])
        changed_ev, changed_sid = ev.copy(), sid.copy()
        if flip is not None:
            arr = changed_ev if flip == "events" else changed_sid
            raw = arr.view(np.uint8).reshape(len(arr), -1)
            row = data.draw(st.integers(span[0], span[1] - 1))
            col = data.draw(st.integers(0, raw.shape[1] - 1))
            raw[row, col] ^= 1 << data.draw(st.integers(0, 7))
        with tempfile.TemporaryDirectory() as d:
            fa = self._extend(
                d, ev, sid, n0, step, (changed_ev, changed_sid, _record(ev, sid, step))
            )
        if flip is None:
            assert fa.mode == "incremental" and fa.skipped_events == n0
        else:
            assert fa.mode == "full" and fa.n_events == total

    def test_a_record_listing_no_crcs_keeps_the_full_scan(self, tmp_path):
        ev, sid = _trace(4 * SAMPLE)
        n0 = 2 * SAMPLE
        empty = {**_record(ev, sid, 8000), "events_crc": [], "sample_id_crc": []}
        fa = self._extend(tmp_path / "cache", ev, sid, n0, 8000, (ev, sid, empty))
        assert fa.mode == "full" and fa.n_events == len(ev)

    def test_each_byte_is_checksummed_once(self, tmp_path, monkeypatch):
        import repro._util.crc as crc

        step = 4 * SAMPLE
        ev, sid = _trace(7 * SAMPLE)
        n0 = 5 * SAMPLE  # the state ends inside the record's last chunk
        read = []
        real = crc.crc32_of

        def counted(arr):
            read.append(arr.nbytes)
            return real(arr)

        store = ArtifactStore(tmp_path / "cache")
        with ParallelEngine(workers=1, store=store) as eng:
            eng.analyze((ev[:n0], sid[:n0], _record(ev[:n0], sid[:n0], step)), FILE_PASSES)
            monkeypatch.setattr(crc, "crc32_of", counted)
            fa = eng.analyze((ev, sid, _record(ev, sid, step)), FILE_PASSES)
        assert fa.mode == "incremental"
        lo = n0 - n0 % step
        assert sum(read) == (len(ev) - lo) * (ev.itemsize + sid.itemsize)


def test_an_analysis_evicts_once(tmp_path, monkeypatch):
    # every partial and the state are stored, then one eviction pass runs
    from repro._util.diskcache import DiskCache

    ev, sid = _trace(8 * SAMPLE)
    passes = []
    real = DiskCache._evict
    monkeypatch.setattr(DiskCache, "_evict", lambda self, n: passes.append(n) or real(self, n))
    store = ArtifactStore(tmp_path / "cache")
    with ParallelEngine(workers=1, store=store) as eng:
        fa = eng.analyze((ev, sid, _health_record(ev, sid)), FILE_PASSES)
    assert fa.mode == "full"
    assert store.stats()["stores"] == len(FILE_PASSES) + 1  # the partials and the state
    assert len(passes) == 1


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
    """A trace without sample ids is one sample: from memory or from an
    archive, at any chunk size and worker count, the numbers are the
    same, and they are cached like any other trace's."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [None, 1000, 4096])
    def test_one_sample_everywhere(self, tmp_path, capsys, chunk_size, workers):
        ev, _ = _trace(40 * SAMPLE)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        path = _write(corpus / "bare.npz", ev, None)
        flags = ["--workers", str(workers)]
        if chunk_size is not None:
            flags += ["--chunk-size", str(chunk_size)]
        assert cli_main(["report", str(path), "--json", "--no-cache", *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        meta = read_trace_meta(path)

        def payload(analysis):
            return report_payload(
                analysis,
                module=meta.module,
                n_samples=meta.n_samples,
                n_loads_total=meta.n_loads_total,
            )

        def engine(store=None):
            return ParallelEngine(workers=workers, chunk_size=chunk_size, store=store)

        store = ArtifactStore(tmp_path / "cache")
        with engine(store) as eng:
            archive = eng.analyze(path, report_requests())
        with engine() as eng:
            memory = eng.analyze((ev, None, None), report_requests(), rho=archive.rho)
            cell = run_matrix(CorpusSpec.from_directory(corpus), engine=eng).cells["bare"]
        assert archive.mode == "full"
        serial = reuse_histogram(ev, 64, None)  # one window: the whole trace
        assert archive.results["reuse"].counts.tolist() == serial.counts.tolist()
        assert archive.results["reuse"].n_cold == serial.n_cold
        assert payload(archive)["passes"] == report["passes"]
        assert payload(memory)["passes"] == report["passes"]
        assert payload_json(cell.payload) == payload_json(report)
        with engine(store) as eng:
            warm = eng.analyze(path, report_requests())
        assert warm.mode == "cached"
        assert payload_json(payload(warm)) == payload_json(report)
        reuse = store.get_partial(archive.digest, "reuse", {"block": 64, "max_exp": 48})
        assert reuse is not MISS and reuse.n_cold == archive.results["reuse"].n_cold

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
