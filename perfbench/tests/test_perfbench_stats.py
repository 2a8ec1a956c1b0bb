"""Percentile support rule and failure accounting."""

import statistics

import pytest

from perfbench import run as bench
from perfbench.stats import OpLog, percentile, supported_percentile
from perfbench.workloads import Mismatch, Workload


def test_percentile_matches_inclusive_quantiles():
    xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    inclusive = statistics.quantiles(xs, n=10, method="inclusive")
    assert percentile(xs, 0.9) == pytest.approx(inclusive[-1])
    assert percentile(xs, 0.5) == pytest.approx(statistics.median(xs))


def test_p90_needs_ten_samples_beyond_it():
    value, beyond = supported_percentile(list(range(1, 101)), 0.9)
    assert value is not None and beyond == 10
    value, beyond = supported_percentile(list(range(1, 91)), 0.9)
    assert value is None and beyond == 9


def test_ties_give_no_support():
    value, beyond = supported_percentile([4.0] * 500, 0.9)
    assert value is None and beyond == 0


def test_oplog_counts_failures_against_attempts():
    log = OpLog()
    log.ok(0.1, 100)
    log.ok(0.2, 100)
    log.fail("mismatch", "bytes differ")
    log.fail("busy")
    assert (log.attempted, log.failed) == (4, 2)
    assert log.fail_ratio == 0.5
    assert log.latencies == [0.1, 0.2] and log.events == 200
    assert log.first_failure.startswith("mismatch")


class _Flaky(Workload):
    """Every op kind of failure, in a fixed cycle."""

    name = "flaky"

    def __init__(self):
        super().__init__(None, 0, None)
        self.n = 0
        self.recovered = 0

    def call(self):
        from repro.serve.client import ServeBusy

        self.n += 1
        if self.n % 4 == 1:
            raise RuntimeError("boom")
        if self.n % 4 == 2:
            raise ServeBusy(10, scope="session")
        return 7

    def check(self):
        if self.n % 4 == 3:
            raise Mismatch("differs")

    def recover(self):
        self.recovered += 1


class _Refs:
    def run(self):
        pass


def test_run_loop_counts_each_failure_kind(monkeypatch):
    monkeypatch.setattr(bench, "MIN_OPS", 8)
    monkeypatch.setattr(bench, "HARD_STOP", 1e9)
    wl, log = _Flaky(), OpLog()
    bench._run_ops(wl, 1e-9, False, _Refs(), log, [], [])
    assert log.attempted == 8
    assert log.failures == {"exception": 2, "busy": 2, "mismatch": 2}
    assert log.fail_ratio == 0.75
    # a wrong output still did the work: it keeps its latency sample
    assert len(log.latencies) == 4 and log.events == 14
    assert wl.recovered == 6
