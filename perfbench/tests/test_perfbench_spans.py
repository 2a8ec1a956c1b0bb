"""The probe seam: alias rebinding, absent targets, span accounting."""

import importlib
import sys
import textwrap

import pytest

from perfbench import layers, spans
from perfbench.spans import Probe


@pytest.fixture
def fakeprog(tmp_path, monkeypatch):
    pkg = tmp_path / "fakeprog"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "core.py").write_text(
        textwrap.dedent(
            """
            def work(x):
                return x + 1

            def stream(n):
                yield from range(n)

            class Engine:
                def run(self, x):
                    return work(x) * 2

                @classmethod
                def build(cls):
                    return cls()
            """
        )
    )
    (pkg / "cli.py").write_text(
        textwrap.dedent(
            """
            from fakeprog.core import Engine, work

            def main(x):
                return Engine.build().run(work(x))
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    cli = importlib.import_module("fakeprog.cli")
    yield cli
    spans.uninstall()
    for name in [m for m in sys.modules if m.startswith("fakeprog")]:
        del sys.modules[name]


PROBES = [
    Probe("core.work", "fakeprog.core:work"),
    Probe("core.stream", "fakeprog.core:stream", generator=True),
    Probe("engine.run", "fakeprog.core:Engine.run"),
    Probe("engine.build", "fakeprog.core:Engine.build"),
    Probe("gone.attr", "fakeprog.core:missing"),
    Probe("gone.method", "fakeprog.core:Engine.removed"),
    Probe("gone.module", "fakeprog.nomodule:f"),
]


def test_install_rebinds_aliases_and_reports_absent(fakeprog, tmp_path):
    status = spans.install(PROBES, tmp_path / "spans")
    assert "fakeprog.cli.work" in status["fakeprog.core:work"]["aliases"]
    for target in ("fakeprog.core:missing", "fakeprog.core:Engine.removed",
                   "fakeprog.nomodule:f"):
        assert "absent" in status[target]
    with spans.span("op"):
        assert fakeprog.main(1) == 6  # behaviour unchanged
    import fakeprog.core as core

    assert list(core.stream(3)) == [0, 1, 2]
    names = [r["name"] for r in spans.load_records(tmp_path / "spans")]
    assert names.count("core.work") == 2  # via the cli alias and via Engine.run
    assert {"engine.run", "engine.build", "op"} <= set(names)
    assert names.count("core.stream") == 4  # three items and the end


def test_uninstall_restores_originals(fakeprog, tmp_path):
    import fakeprog.core as core

    original = core.work
    spans.install(PROBES, tmp_path / "spans")
    assert fakeprog.work is not original
    spans.uninstall()
    assert core.work is original and fakeprog.work is original


def test_recording_flag_switches_every_wrapper(fakeprog, tmp_path):
    flag = spans.make_flag(tmp_path / "flag", on=False)
    spans.install(PROBES[:1], tmp_path / "spans", flag_file=flag)
    fakeprog.main(1)
    spans.set_recording(True)
    fakeprog.main(1)
    names = [r["name"] for r in spans.load_records(tmp_path / "spans")]
    assert names == ["core.work", "core.work"]  # the second call only


def test_program_aliases_are_found(tmp_path):
    import repro.cli
    import repro.serve.session
    from repro.trace import tracefile

    try:
        status = spans.install(
            [Probe("trace.write", "repro.trace.tracefile:write_trace")], tmp_path
        )
        aliases = status["repro.trace.tracefile:write_trace"]["aliases"]
        assert {"repro.cli.write_trace", "repro.serve.session.write_trace"} <= set(aliases)
        assert repro.cli.write_trace is tracefile.write_trace
    finally:
        spans.uninstall()
    assert repro.cli.write_trace is tracefile.write_trace
    assert not hasattr(tracefile.write_trace, "__perfbench_original__")


def test_every_program_probe_resolves(tmp_path):
    try:
        status = spans.install(layers.PROBES, tmp_path)
    finally:
        spans.uninstall()
    assert not {t: s for t, s in status.items() if "absent" in s}


def test_self_time_subtracts_children():
    recs = [
        ["a", 0.0, 10.0, 0, -1, None],
        ["b", 1.0, 4.0, 1, 0, None],
        ["c", 2.0, 3.0, 2, 1, None],
        ["b", 5.0, 6.0, 3, 0, {"n": 2}],
    ]
    out = {r["id"]: r for r in spans.self_times(recs)}
    assert out[0]["self"] == pytest.approx(6.0)
    assert out[1]["self"] == pytest.approx(2.0)
    assert out[2]["self"] == pytest.approx(1.0)
    assert out[3]["counts"] == {"n": 2}


def test_per_op_accounting_splits_round_trips():
    client = spans.self_times(
        [
            ["op", 0.0, 0.100, 0, -1, None],
            ["serve.client_append", 0.001, 0.003, 1, 0, None],
            ["serve.client_query", 0.004, 0.099, 2, 0, None],
        ],
        pid=1,
    )
    worker = spans.self_times(
        [
            ["serve.ingest", 0.003, 0.060, 0, -1, None],
            ["trace.write", 0.004, 0.040, 1, 0, {"trace.bytes_written": 10}],
            ["serve.query", 0.061, 0.090, 2, -1, None],
        ],
        pid=2,
    )
    setup = spans.self_times([["trace.write", 5.0, 6.0, 3, -1, None]], pid=2)
    (m,) = layers.per_op_metrics(client + worker + setup)
    assert m["unattributed_ms"] == pytest.approx(3.0)
    assert m["serve.dispatch_ms"] == pytest.approx(97.0 - 86.0)
    assert m["serve.ingest_ms"] == pytest.approx(21.0)
    assert m["trace.write_ms"] == pytest.approx(36.0)
    assert m["trace.bytes_written"] == 10
    assert "serve.client_append_ms" not in m
