"""Tests for the rho/kappa decompression math (Eqs. 1-2)."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.trace.collector import CollectionResult, collect_sampled_trace
from repro.trace.compress import (
    compression_ratio,
    decompress_counts,
    sample_ratio,
    sample_ratio_from,
    suppressed_count,
    trace_counts,
)
from repro.trace.event import make_events
from repro.trace.sampler import SamplingConfig
from repro.trace.tracefile import TraceMeta

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestKappa:
    def test_uncompressed_trace_kappa_is_one(self):
        ev = make_events(ip=1, addr=np.arange(10))
        assert compression_ratio(ev) == 1.0

    def test_kappa_formula(self):
        ev = make_events(ip=1, addr=np.arange(10), n_const=1)
        # A_const = 10 over A = 10 records
        assert compression_ratio(ev) == 2.0

    def test_empty_trace(self):
        ev = make_events(ip=1, addr=np.arange(0))
        assert compression_ratio(ev) == 1.0

    def test_suppressed_count(self):
        ev = make_events(ip=1, addr=np.arange(4), n_const=[0, 2, 0, 3])
        assert suppressed_count(ev) == 5

    def test_decompress_counts(self):
        ev = make_events(ip=1, addr=np.arange(4), n_const=[0, 2, 0, 3])
        assert decompress_counts(ev) == 9

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            compression_ratio(np.zeros(3))


class TestRho:
    def test_uncompressed_rho(self):
        ev = make_events(ip=1, addr=np.arange(100))
        # 10 samples of period 1000 cover 10_000 loads; 100 observed
        assert sample_ratio(10, 1000, ev) == 100.0

    def test_compression_lowers_rho(self):
        ev = make_events(ip=1, addr=np.arange(100), n_const=1)
        assert sample_ratio(10, 1000, ev) == 50.0

    def test_empty_sample(self):
        ev = make_events(ip=1, addr=np.arange(0))
        assert sample_ratio(10, 1000, ev) == 1.0

    def test_sample_ratio_from_collection(self):
        ev = make_events(ip=1, addr=np.arange(10_000))
        cfg = SamplingConfig(period=1000, buffer_capacity=100, fill_mean=1.0, fill_jitter=0.0)
        res = collect_sampled_trace(ev, config=cfg)
        # exactly 100 records per 1000 loads -> rho = 10
        assert sample_ratio_from(res) == pytest.approx(10.0)


@given(
    n=st.integers(1, 200),
    n_const=st.integers(0, 5),
)
def test_kappa_rho_consistency(n, n_const):
    """Property: rho * kappa * A == |sigma| * period (Eq. 1 rearranged)."""
    ev = make_events(ip=1, addr=np.arange(n), n_const=n_const)
    period, n_samples = 1000, 7
    rho = sample_ratio(n_samples, period, ev)
    kappa = compression_ratio(ev)
    assert rho * kappa * n == pytest.approx(n_samples * period)
    assert kappa >= 1.0


class TestTraceCounts:
    """The one rule from a stored trace's meta to its counts and rho."""

    def _never(self):
        raise AssertionError("sample ids read although the meta records the count")

    def test_meta_counts_win(self):
        meta = TraceMeta(n_samples=7, n_loads_total=8_000)
        assert trace_counts(meta, 1_000, self._never) == (7, 8_000, 8.0)

    def test_meta_zero_falls_back(self):
        meta = TraceMeta()
        sid = np.array([0, 0, 1, 4, 4], dtype=np.int32)
        assert trace_counts(meta, 9, lambda: sid) == (5, 9, 1.0)
        # a trace without sample ids is one sample, an empty one none
        assert trace_counts(meta, 9, lambda: None) == (1, 9, 1.0)
        assert trace_counts(meta, 0, lambda: None) == (0, 0, 1.0)
        assert trace_counts(meta, 0, lambda: sid[:0]) == (0, 0, 1.0)

    def test_rho_is_floored_at_one(self):
        meta = TraceMeta(n_samples=3, n_loads_total=500)
        assert trace_counts(meta, 1_000, self._never) == (3, 500, 1.0)
        assert trace_counts(TraceMeta(n_samples=3, n_loads_total=5), 0, self._never)[2] == 1.0

    def test_sample_ratio_from_shares_the_floor(self):
        ev = make_events(ip=1, addr=np.arange(100), n_const=1)
        sid = np.zeros(100, dtype=np.int32)
        res = CollectionResult(ev, sid, 1, 150, SamplingConfig(period=1000, buffer_capacity=100))
        assert sample_ratio_from(res) == 1.0  # 150 loads over 200 implied


def _meta_count_reads(source: str) -> list[int]:
    """Lines reading ``n_samples`` / ``n_loads_total`` off a ``*meta*`` object."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("n_samples", "n_loads_total")
            and isinstance(node.ctx, ast.Load)
        ):
            base = node.value
            name = getattr(base, "id", None) or getattr(base, "attr", "")
            if "meta" in name:
                lines.append(node.lineno)
    return lines


def test_the_guard_flags_only_meta_reads():
    source = (
        "meta.n_samples\n"
        "src.meta.n_loads_total\n"
        "col.n_samples\n"
        "TraceMeta(n_samples=1)\n"
        "meta.n_samples = 3\n"
        "self.meta.n_samples\n"
    )
    assert _meta_count_reads(source) == [1, 2, 6]


def test_one_module_reads_the_meta_counts():
    """Every count and rho comes from :func:`trace_counts`, so no other
    module may read the meta's raw ``n_samples`` or ``n_loads_total``."""
    readers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if _meta_count_reads(path.read_text(encoding="utf-8"))
    )
    assert readers == ["trace/compress.py"]

