"""Tests for the end-to-end MemGaze driver."""

import numpy as np
import pytest

from repro.core.pipeline import AnalysisConfig, MemGaze
from repro.simmem.recorder import AccessRecorder
from repro.trace.event import LoadClass, make_events
from repro.trace.sampler import SamplingConfig
from repro.trace.tracefile import TraceMeta, read_trace_health, write_trace
from repro.workloads.microbench import build_microbench


@pytest.fixture
def mg():
    return MemGaze(
        AnalysisConfig(SamplingConfig(period=1000, buffer_capacity=128, fill_jitter=0.0))
    )


class TestAnalyzeEvents:
    def test_basic_flow(self, mg):
        ev = make_events(ip=1, addr=np.arange(50_000) % 4096, cls=2)
        res = mg.analyze_events(ev)
        assert res.collection.n_samples == 50
        assert res.rho > 1.0
        assert res.kappa == 1.0
        assert res.diagnostics.A_obs == len(res.events)

    def test_per_function_split(self, mg):
        ev = make_events(
            ip=1, addr=np.arange(20_000), cls=2, fn=(np.arange(20_000) // 10_000)
        )
        res = mg.analyze_events(ev, fn_names={0: "first", 1: "second"})
        assert set(res.per_function) <= {"first", "second"}

    def test_zoom_and_intervals_accessible(self, mg):
        ev = make_events(ip=1, addr=0x1000 + np.arange(20_000) % 8192, cls=2)
        res = mg.analyze_events(ev)
        root = res.zoom()
        assert root.n_accesses == len(res.events)
        rows = res.time_intervals(4)
        assert len(rows) == 4

    def test_wrong_dtype(self, mg):
        with pytest.raises(TypeError):
            mg.analyze_events(np.zeros(5))

    def test_cache_key_is_the_written_archives_record(self, tmp_path):
        sampling = SamplingConfig(period=1000, buffer_capacity=128, fill_jitter=0.0)
        mg = MemGaze(AnalysisConfig(sampling, cache_dir=str(tmp_path / "cache")))
        res = mg.analyze_events(make_events(ip=1, addr=np.arange(50_000) % 4096, cls=2))
        write_trace(tmp_path / "t.npz", res.events, TraceMeta(), res.sample_id)
        assert res.trace_health == read_trace_health(tmp_path / "t.npz")


class TestResultConveniences:
    def test_hotspots_method(self, mg):
        ev = make_events(
            ip=1, addr=np.arange(40_000), cls=2, fn=(np.arange(40_000) > 35_000)
        )
        res = mg.analyze_events(ev, fn_names={0: "dominant", 1: "minor"})
        hs = res.hotspots()
        assert hs[0].function == "dominant"
        assert hs[0].share > 0.8

    def test_confidence_method(self, mg):
        ev = make_events(ip=1, addr=np.arange(40_000), cls=2, fn=0)
        res = mg.analyze_events(ev, fn_names={0: "steady"})
        conf = res.confidence()
        assert "steady" in conf
        assert not conf["steady"].undersampled

    def test_working_set_method(self, mg):
        ev = make_events(ip=1, addr=(np.arange(40_000) * 64) % (32 * 4096), cls=2)
        res = mg.analyze_events(ev)
        curve = res.working_set(n_intervals=4)
        assert len(curve) == 4
        assert all(p.pages_est > 0 for p in curve)


class TestAnalyzeRecorder:
    def test_recorder_roundtrip(self, mg):
        rec = AccessRecorder()
        with rec.scope("hot"):
            site = rec.scoped_site(LoadClass.STRIDED, "x")
            rec.record_many(site, np.arange(5000) * 8)
        res = mg.analyze_recorder(rec)
        assert "hot" in res.per_function
        assert res.counts is not None


class TestRunModule:
    def test_isa_path_end_to_end(self, mg):
        module = build_microbench("str4", n_elems=1024, repeats=20)
        from repro.simmem.address_space import AddressSpace
        from repro.workloads.microbench import _setup_data

        space = AddressSpace()
        regions = _setup_data(space, 1024, 0)
        res = mg.run_module(
            module, "main", regions["arr"].base, regions["cond"].base, space=space
        )
        assert res.instrumentation is not None
        assert res.kappa > 1.0  # constants were compressed
        assert res.counts.n_ptwrites > 0
        assert "main" in res.fn_names.values()
        # samples exist and carry strided class
        assert (res.events["cls"] == int(LoadClass.STRIDED)).any()
