"""Tests for trace windows and code windows."""

import numpy as np
import pytest
import windows_oracle

from repro._util.rng import derive_rng
from repro.core.windows import code_windows, trace_window_metrics, unique_per_group
from repro.trace.event import make_events


class TestUniquePerGroup:
    def test_basic(self):
        groups = np.array([0, 0, 0, 1, 1])
        values = np.array([5, 5, 6, 7, 7])
        assert list(unique_per_group(groups, values, 2)) == [2, 1]

    def test_empty(self):
        assert list(unique_per_group(np.array([], int), np.array([], int), 3)) == [0, 0, 0]

    def test_mismatch(self):
        with pytest.raises(ValueError):
            unique_per_group(np.array([0]), np.array([], int), 1)


class TestTraceWindows:
    def test_footprint_per_window(self):
        # 2 windows of 4: [0,1,2,3] and [0,0,0,0]
        ev = make_events(ip=1, addr=[0, 1, 2, 3, 0, 0, 0, 0], cls=2)
        vals = trace_window_metrics(ev, 4)
        assert list(vals) == [4.0, 1.0]

    def test_df_metric(self):
        ev = make_events(ip=1, addr=[0, 0, 0, 0], cls=2)
        vals = trace_window_metrics(ev, 4, metric="dF")
        assert vals[0] == pytest.approx(0.25)

    def test_class_metrics(self):
        ev = make_events(ip=1, addr=[0, 8, 16, 24], cls=[1, 1, 2, 2])
        assert trace_window_metrics(ev, 4, metric="F_str")[0] == 2.0
        assert trace_window_metrics(ev, 4, metric="F_irr")[0] == 2.0

    def test_short_tail_dropped(self):
        ev = make_events(ip=1, addr=np.arange(10), cls=2)
        vals = trace_window_metrics(ev, 8, min_fill=0.5)
        assert len(vals) == 1  # the 2-record tail is below 4

    def test_windows_respect_sample_boundaries(self):
        ev = make_events(ip=1, addr=np.arange(8), cls=2)
        sid = np.array([0] * 4 + [1] * 4)
        vals = trace_window_metrics(ev, 4, sample_id=sid)
        assert len(vals) == 2

    def test_constant_unit_in_f(self):
        ev = make_events(ip=1, addr=[1, 2, 99, 98], cls=[2, 2, 0, 0])
        assert trace_window_metrics(ev, 4)[0] == 3.0

    def test_bad_args(self):
        ev = make_events(ip=1, addr=[1], cls=2)
        with pytest.raises(ValueError):
            trace_window_metrics(ev, 0)
        with pytest.raises(ValueError):
            trace_window_metrics(ev, 4, metric="bogus")

    def test_empty(self):
        ev = make_events(ip=1, addr=np.arange(0))
        assert len(trace_window_metrics(ev, 4)) == 0


class TestCodeWindows:
    def test_per_function_split(self):
        ev = make_events(ip=1, addr=[1, 2, 3, 4], cls=2, fn=[0, 0, 1, 1])
        out = code_windows(ev, fn_names={0: "alpha", 1: "beta"})
        assert set(out) == {"alpha", "beta"}
        assert out["alpha"].A_obs == 2

    def test_fallback_names(self):
        ev = make_events(ip=1, addr=[1], cls=2, fn=7)
        assert "fn7" in code_windows(ev)

    def test_rho_applied(self):
        ev = make_events(ip=1, addr=[1, 2], cls=2, fn=0)
        out = code_windows(ev, rho=5.0)
        assert out["fn0"].A_est == 10.0

    def test_equals_the_serial_oracle(self):
        rng = derive_rng(7, "code-windows-oracle")
        n = 3000
        ev = make_events(
            ip=rng.integers(0, 40, n),
            addr=rng.integers(0, 1 << 16, n),
            cls=rng.integers(0, 3, n).astype(np.uint8),
            n_const=rng.integers(0, 3, n),
            fn=rng.integers(0, 5, n),
        )
        names = {0: "a", 1: "a", 2: "fn4"}  # colliding names win by highest id
        got = code_windows(ev, rho=2.5, block=8, fn_names=names)
        assert got == windows_oracle.code_windows(ev, rho=2.5, block=8, fn_names=names)
        assert list(got) == ["a", "fn4", "fn3"]
