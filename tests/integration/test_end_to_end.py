"""Cross-module integration tests: the full MemGaze pipeline."""

import numpy as np
import pytest

from repro.core.histograms import mape, window_histogram
from repro.core.pipeline import AnalysisConfig, MemGaze
from repro.core.windows import code_windows
from repro.instrument.attribution import SourceMap
from repro.trace.collector import collect_sampled_trace
from repro.trace.compress import compression_ratio, sample_ratio_from
from repro.trace.event import LoadClass
from repro.trace.sampler import SamplingConfig
from repro.trace.tracefile import TraceMeta, read_trace, write_trace
from repro.workloads.microbench import run_microbench


@pytest.fixture(scope="module")
def bench():
    return run_microbench("str4|irr", n_elems=2048, repeats=10, seed=1)


class TestInstrumentedEquivalence:
    def test_rebuilt_equals_oracle_nonconstant(self, bench):
        nc = bench.events_full[bench.events_full["cls"] != int(LoadClass.CONSTANT)]
        assert np.array_equal(nc["addr"], bench.events_observed["addr"])
        assert np.array_equal(nc["ip"].astype(bool), nc["ip"].astype(bool))

    def test_suppressed_constants_recovered_exactly(self, bench):
        n_const_oracle = int(
            (bench.events_full["cls"] == int(LoadClass.CONSTANT)).sum()
        )
        n_const_rebuilt = int(bench.events_observed["n_const"].sum())
        assert n_const_oracle == n_const_rebuilt

    def test_kappa_matches_static_expectation(self, bench):
        kappa = compression_ratio(bench.events_observed)
        implied = len(bench.events_observed) + bench.events_observed["n_const"].sum()
        assert implied == len(bench.events_full)
        assert kappa > 1.0


class TestSampledAnalysisConsistency:
    def test_sampled_histogram_tracks_full(self, bench):
        cfg = SamplingConfig(period=2000, buffer_capacity=512, seed=0)
        col = collect_sampled_trace(bench.events_observed, config=cfg)
        sizes = [8, 16, 32, 64, 128]
        _, sampled = window_histogram(col.events, "F", sizes=sizes, sample_id=col.sample_id)
        _, full = window_histogram(bench.events_observed, "F", sizes=sizes)
        assert mape(sampled, full) < 25.0

    def test_rho_times_sample_recovers_population(self, bench):
        cfg = SamplingConfig(period=1000, buffer_capacity=256, seed=0)
        col = collect_sampled_trace(
            bench.events_observed, n_loads_total=bench.n_loads, config=cfg
        )
        rho = sample_ratio_from(col)
        est = rho * (len(col.events) + col.events["n_const"].sum())
        assert est == pytest.approx(bench.n_loads, rel=1e-6)

    def test_code_windows_find_segments(self, bench):
        mg = MemGaze(AnalysisConfig(SamplingConfig(period=1000, buffer_capacity=256)))
        from repro.instrument.rebuild import rebuild_trace  # noqa: F401  (doc pointer)

        res = mg.analyze_events(
            bench.events_observed,
            n_loads_total=bench.n_loads,
            fn_names=bench.fn_names,
        )
        segs = [n for n in res.per_function if n.startswith("seg")]
        assert len(segs) == 2
        str_seg = next(n for n in segs if "str4" in n)
        irr_seg = next(n for n in segs if n.endswith("irr"))
        assert res.per_function[str_seg].F_str_pct > 90
        assert res.per_function[irr_seg].F_str_pct < 10


class TestAttributionAndPersistence:
    def test_source_attribution_roundtrip(self, bench, tmp_path):
        ann = bench.instrumentation.annotations
        sm = SourceMap.from_annotations(ann)
        counts = sm.attribute_functions(bench.events_observed)
        assert counts  # every record attributes somewhere
        assert all(fn != "?" for fn in counts)

    def test_trace_file_roundtrip_preserves_analysis(self, bench, tmp_path):
        cfg = SamplingConfig(period=1000, buffer_capacity=256)
        col = collect_sampled_trace(bench.events_observed, config=cfg)
        meta = TraceMeta(
            module="ubench", kind="sampled", period=1000, buffer_capacity=256,
            n_loads_total=bench.n_loads, n_samples=col.n_samples,
        )
        write_trace(tmp_path / "t.npz", col.events, meta, col.sample_id)
        ev2, meta2, sid2, _ = read_trace(tmp_path / "t.npz")
        before = code_windows(col.events, fn_names=bench.fn_names)
        after = code_windows(ev2, fn_names=bench.fn_names)
        assert before.keys() == after.keys()
        for k in before:
            assert before[k].F == after[k].F
