"""Lifecycle tests for the zero-copy shard handoff.

The contract under test (``repro.core.shm`` + the engine's publish /
release discipline): a published segment is visible to workers by name,
both fan-out paths produce **bit-identical** results to the pickle
handoff, and no segment outlives its analysis — on normal exit, after a
worker is SIGKILLed mid-scan, and with two engines sharing one archive.
"Leaked" is checked two ways: the process-wide registry
(:func:`repro.core.shm.active_segments`) must drain to empty, and
``/dev/shm`` must hold no ``mg-`` entries this process created.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core.parallel import ParallelEngine
from repro.core.shm import (
    SegmentRegistry,
    active_segments,
    attach_shard,
    publish_shard,
)
from repro.obs.metrics import MetricsRegistry
from repro.trace.event import make_events
from repro.trace.tracefile import TraceMeta, write_trace

SHM_DIR = "/dev/shm"


def _live_segments() -> set[str]:
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-tmpfs platform
        return set()
    return {f for f in os.listdir(SHM_DIR) if f.startswith("mg-")}


def _trace(n=40_000, seed=11):
    rng = np.random.default_rng(seed)
    ev = make_events(
        ip=rng.integers(0, 40, n),
        addr=rng.integers(0, 1 << 18, n) * 8,
        cls=rng.integers(0, 3, n).astype(np.uint8),
        fn=rng.integers(0, 6, n),
    )
    sid = np.sort(rng.integers(0, 37, n)).astype(np.int32)
    return ev, sid


@pytest.fixture(autouse=True)
def _no_preexisting_leaks():
    before = _live_segments()
    yield
    leaked = _live_segments() - before
    assert not leaked, f"test leaked shm segments: {sorted(leaked)}"


class TestPublishAttach:
    def test_round_trip(self):
        ev, sid = _trace(n=5000)
        slab = publish_shard(ev, sid)
        try:
            got_ev, got_sid = attach_shard(slab.ref(0, len(ev)))
            assert np.array_equal(got_ev, ev)
            assert np.array_equal(got_sid, sid)
            lo, hi = 1200, 4100
            part_ev, part_sid = attach_shard(slab.ref(lo, hi))
            assert np.array_equal(part_ev, ev[lo:hi])
            assert np.array_equal(part_sid, sid[lo:hi])
        finally:
            slab.release()
        assert active_segments() == []

    def test_no_sample_id(self):
        ev, _ = _trace(n=300)
        slab = publish_shard(ev)
        try:
            got_ev, got_sid = attach_shard(slab.ref(0, len(ev)))
            assert got_sid is None
            assert np.array_equal(got_ev, ev)
        finally:
            slab.release()

    def test_bad_range_rejected(self):
        ev, _ = _trace(n=100)
        slab = publish_shard(ev)
        try:
            with pytest.raises(ValueError, match="shard range"):
                slab.ref(50, 200)
            with pytest.raises(ValueError, match="shard range"):
                slab.ref(-1, 10)
        finally:
            slab.release()

    def test_sample_id_length_mismatch(self):
        ev, _ = _trace(n=100)
        with pytest.raises(ValueError, match="sample_id"):
            publish_shard(ev, np.zeros(7, dtype=np.int32))

    def test_release_is_idempotent(self):
        ev, _ = _trace(n=64)
        slab = publish_shard(ev)
        slab.release()
        slab.release()
        assert active_segments() == []

    def test_metrics_balance(self):
        metrics = MetricsRegistry()
        ev, sid = _trace(n=1000)
        for _ in range(3):
            publish_shard(ev, sid, metrics=metrics).release()
        assert metrics.counter("shm.segments_created").value == 3
        assert metrics.counter("shm.segments_released").value == 3
        # the gauge is a high-watermark: sequential publish/release peaks at 1
        assert metrics.gauge("shm.active_segments").value == 1
        assert metrics.counter("shm.bytes_published").value >= 3 * ev.nbytes


class TestRegistry:
    def test_release_all_unlinks_everything(self):
        reg = SegmentRegistry()
        ev, _ = _trace(n=128)
        slabs = [publish_shard(ev) for _ in range(3)]
        for s in slabs:
            reg.track(s)
        assert len(reg.names()) == 3
        # pull them out of the module registry so only `reg` owns them
        from repro.core import shm as shm_mod

        for s in slabs:
            shm_mod._REGISTRY.untrack(s.name)
        assert reg.release_all() == 3
        assert reg.names() == []

    def test_sigterm_unlinks_segments(self, tmp_path):
        """A SIGTERMed publisher must leave no /dev/shm entry behind."""
        script = (
            "import os, signal, sys, time\n"
            "import numpy as np\n"
            "from repro.core.shm import publish_shard\n"
            "from repro.trace.event import make_events\n"
            "ev = make_events(ip=1, addr=np.arange(1000, dtype=np.uint64), cls=2)\n"
            "slab = publish_shard(ev)\n"
            "print(slab.name, flush=True)\n"
            "time.sleep(30)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=os.getcwd(),
        )
        try:
            name = proc.stdout.readline().strip()
            assert name.startswith("mg-")
            assert name in _live_segments()
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
        finally:
            proc.kill()
        assert name not in _live_segments()


REQUESTS = ["diagnostics", "captures", "reuse", "hotspot", "roi"]


def _fail_publish(*args, **kwargs):
    raise OSError("no space left on device")


def _same_results(a: dict, b: dict) -> None:
    assert repr(a["diagnostics"]) == repr(b["diagnostics"])
    assert a["captures"] == b["captures"]
    assert np.array_equal(a["reuse"].counts, b["reuse"].counts)
    assert repr(a["roi"]) == repr(b["roi"])


class TestEngineLifecycle:
    def test_run_passes_releases_segments(self):
        ev, sid = _trace()
        before = _live_segments()
        with ParallelEngine(workers=2, chunk_size=8192) as engine:
            engine.analyze((ev, sid, None), ["diagnostics", "captures", "reuse"])
            assert active_segments() == []
        assert _live_segments() - before == set()

    def test_shm_matches_pickle(self, monkeypatch):
        ev, sid = _trace()
        with ParallelEngine(workers=2, chunk_size=8192) as e:
            a = e.analyze((ev, sid, None), REQUESTS).results
        # a failing publish is the pickle handoff's only way in
        monkeypatch.setattr("repro.core.parallel.publish_shard", _fail_publish)
        with ParallelEngine(workers=2, chunk_size=8192) as e:
            b = e.analyze((ev, sid, None), REQUESTS).results
        _same_results(a, b)

    def test_analyze_file_releases_segments(self, tmp_path):
        ev, sid = _trace()
        path = tmp_path / "t.npz"
        write_trace(path, ev, TraceMeta(module="shm-test", period=1000), sample_id=sid)
        before = _live_segments()
        with ParallelEngine(workers=2, chunk_size=8192) as engine:
            fa = engine.analyze(path, ["diagnostics", "captures", "reuse"])
        assert fa.n_events == len(ev)
        assert active_segments() == []
        assert _live_segments() - before == set()

    def test_two_engines_one_archive(self, tmp_path):
        """Concurrent engines on one archive must not cross-release or
        leak each other's segments, and must agree on every result."""
        ev, sid = _trace()
        path = tmp_path / "t.npz"
        write_trace(path, ev, TraceMeta(module="shm-test", period=1000), sample_id=sid)
        before = _live_segments()
        results: dict[int, object] = {}
        errors: list[BaseException] = []

        def run(idx: int) -> None:
            try:
                with ParallelEngine(workers=2, chunk_size=8192) as e:
                    results[idx] = e.analyze(path, ["diagnostics", "reuse"])
            except BaseException as exc:  # noqa: BLE001 - report in main thread
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        a, b = results[0], results[1]
        assert a.n_events == b.n_events == len(ev)
        assert repr(a.results["diagnostics"]) == repr(b.results["diagnostics"])
        assert np.array_equal(a.results["reuse"].counts, b.results["reuse"].counts)
        assert active_segments() == []
        assert _live_segments() - before == set()

    @pytest.mark.parametrize("source", ["memory", "archive"])
    def test_publish_failure_falls_back_to_pickle(self, tmp_path, monkeypatch, source):
        from repro.obs.journal import RunJournal, read_journal

        ev, sid = _trace()
        path = tmp_path / "t.npz"
        write_trace(path, ev, TraceMeta(module="shm-test", period=1000), sample_id=sid)
        src = (ev, sid, None) if source == "memory" else path
        with ParallelEngine(workers=2, chunk_size=8192) as e:
            ref = e.analyze(src, REQUESTS, rho=1.0).results

        monkeypatch.setattr("repro.core.parallel.publish_shard", _fail_publish)
        metrics = MetricsRegistry()
        journal = RunJournal(tmp_path / "j.jsonl")
        with ParallelEngine(
            workers=2, chunk_size=8192, metrics=metrics, journal=journal
        ) as e:
            got = e.analyze(src, REQUESTS, rho=1.0).results
        journal.close()
        _same_results(got, ref)
        failures = metrics.as_dict()["counters"]["shm.publish_failures"]["value"]
        lines = list(read_journal(tmp_path / "j.jsonl"))
        reads = [r for r in lines if r.get("event") == "chunk-read"]
        # one publish per scan in memory, one per streamed chunk from disk
        assert failures == (1 if source == "memory" else len(reads)) > 0
        warnings = [r for r in lines if r.get("event") == "warning"]
        assert len(warnings) == failures
        assert all("falling back to pickled shard handoff" in w["message"] for w in warnings)


# -- worker crash -------------------------------------------------------------


class _KillWorkerPass:
    """A pass whose update SIGKILLs the evaluating pool worker."""

    name = "test-kill-worker"
    requires = ()
    provides = ""
    defaults = {"parent_pid": -1}
    needs = ()
    whole_without_samples = False
    description = "test helper: kill the worker mid-scan"

    def init(self, params):
        return 0

    def update(self, partial, chunk, params):
        if os.getpid() != params["parent_pid"]:
            os.kill(os.getpid(), signal.SIGKILL)
        return partial

    def merge(self, a, b):
        return a + b

    def finalize(self, partial, ctx, params):
        return partial


@pytest.mark.faults
class TestWorkerCrash:
    def test_killed_worker_releases_segments(self):
        """SIGKILLing a worker mid-scan breaks the pool — but the
        parent's ``finally`` must still unlink every published segment."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.core.passes import register_pass, unregister_pass

        register_pass(_KillWorkerPass())
        try:
            ev, sid = _trace()
            before = _live_segments()
            with ParallelEngine(workers=2, chunk_size=8192) as engine:
                with pytest.raises(BrokenProcessPool):
                    engine.analyze(
                        (ev, sid, None),
                        [("test-kill-worker", {"parent_pid": os.getpid()})],
                    )
            assert active_segments() == []
            assert _live_segments() - before == set()
        finally:
            unregister_pass("test-kill-worker")
