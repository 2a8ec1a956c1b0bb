"""Tests for the memgaze command-line interface."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main, parse_args


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ubench.npz"
    rc = main(
        [
            "trace",
            "--workload",
            "ubench:str4/irr",
            "--scale",
            "10",
            "--period",
            "4999",
            "--buffer",
            "512",
            "--deterministic",
            "-o",
            str(path),
        ]
    )
    assert rc == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_requires_workload_and_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "-o", "x.npz"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--workload", "ubench:irr"])

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, monkeypatch):
        assert build_parser() is build_parser()
        trace = str(tmp_path / "t.npz")
        first = parse_args(["report", trace, "--json", "--workers", "3"])
        second = parse_args(["report", trace])
        assert (first.json, first.workers) == (True, 3)
        assert (second.json, second.workers) == (False, 1)
        first.passes = "mutated"
        assert parse_args(["report", trace]).passes is None
        # the environment fallback is read per call, not cached
        root = ["serve", "--root", str(tmp_path)]
        monkeypatch.setenv("MEMGAZE_SERVE_WORKERS", "3")
        assert parse_args(root).serve_workers == 3
        monkeypatch.setenv("MEMGAZE_SERVE_WORKERS", "2")
        assert parse_args(root).serve_workers == 2
        assert parse_args([*root, "--serve-workers", "4"]).serve_workers == 4

    def test_consecutive_main_calls_share_no_state(self, trace_file, capsys):
        path = trace_file
        assert main(["report", str(path), "--json", "--no-cache"]) == 0
        as_json = capsys.readouterr().out
        assert main(["report", str(path), "--functions", "--no-cache"]) == 0
        as_text = capsys.readouterr().out
        assert as_json.lstrip().startswith("{")
        assert not as_text.lstrip().startswith("{") and "code windows" in as_text
        assert main(["report", str(path), "--json", "--no-cache"]) == 0
        assert capsys.readouterr().out == as_json

    def test_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "--workload", "x", "-o", "y", "--mode", "bogus"]
            )


class TestTrace:
    def test_writes_archive(self, trace_file):
        assert trace_file.exists()
        assert trace_file.stat().st_size > 0

    def test_unknown_family(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--workload", "nope:x", "-o", str(tmp_path / "t.npz")])

    def test_minivite_workload(self, tmp_path, capsys):
        path = tmp_path / "mv.npz"
        rc = main(
            ["trace", "--workload", "minivite:v3", "--scale", "7", "-o", str(path)]
        )
        assert rc == 0
        assert "miniVite v3" in capsys.readouterr().out

    def test_kvreuse_workload(self, tmp_path, capsys):
        path = tmp_path / "kv.npz"
        rc = main(
            ["trace", "--workload", "kvreuse:sessions", "--scale", "6", "-o", str(path)]
        )
        assert rc == 0
        assert "KV-reuse sessions" in capsys.readouterr().out

    def test_kvreuse_unknown_variant(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown kvreuse variant"):
            main(["trace", "--workload", "kvreuse:x", "-o", str(tmp_path / "t.npz")])


class TestInfo:
    def test_shows_metadata(self, trace_file, capsys):
        assert main(["info", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "ubench str4/irr" in out
        assert "period (w+z):  4,999" in out
        assert "rho:" in out


class TestReport:
    def test_default_report_has_all_sections(self, trace_file, capsys):
        assert main(["report", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "footprint access diagnostics" in out
        assert "code windows" in out
        assert "hot memory regions" in out
        assert "working set" in out
        assert "sampling confidence" in out

    def test_selective_sections(self, trace_file, capsys):
        assert main(["report", str(trace_file), "--functions"]) == 0
        out = capsys.readouterr().out
        assert "code windows" in out
        assert "hot memory regions" not in out

    def test_intervals(self, trace_file, capsys):
        assert main(["report", str(trace_file), "--intervals", "4"]) == 0
        out = capsys.readouterr().out
        assert "locality over 4 access intervals" in out

    def test_confidence_flags(self, trace_file, capsys):
        assert main(["report", str(trace_file), "--confidence"]) == 0
        out = capsys.readouterr().out
        assert "samples" in out

    def test_phases_section(self, trace_file, capsys):
        assert main(["report", str(trace_file), "--phases"]) == 0
        out = capsys.readouterr().out
        assert "execution phases" in out
        assert "phase 0" in out


class TestPasses:
    def test_passes_subcommand_lists_registry(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        for name in ("diagnostics", "captures", "reuse", "hotspot", "roi", "heatmap"):
            assert name in out
        assert "requires:" in out

    def test_report_with_explicit_passes(self, trace_file, capsys):
        assert main(["report", str(trace_file), "--passes", "diagnostics,hotspot"]) == 0
        out = capsys.readouterr().out
        assert "== pass: diagnostics ==" in out
        assert "== pass: hotspot ==" in out
        assert "code windows" not in out  # --passes replaces the sections

    def test_report_passes_pulls_dependencies(self, trace_file, capsys):
        assert main(["report", str(trace_file), "--passes", "roi"]) == 0
        out = capsys.readouterr().out
        assert "== pass: roi ==" in out
        # hotspot ran as a dependency but only roi was asked for
        assert "== pass: hotspot ==" not in out

    def test_report_cache_sweep_pass(self, trace_file, capsys):
        rc = main(["report", str(trace_file), "--passes", "cache_sweep"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pass: cache_sweep" in out
        assert "hit ratio" in out and "predicted" in out

    def test_unknown_pass_exits_with_alternatives(self, trace_file):
        with pytest.raises(SystemExit) as exc:
            main(["report", str(trace_file), "--passes", "diagnostic"])
        msg = str(exc.value)
        assert "unknown analysis pass" in msg
        assert "diagnostics" in msg  # close match suggested
        assert "hotspot" in msg  # registry listed

    def test_report_journal_proves_single_scan(self, trace_file, tmp_path):
        journal = tmp_path / "j.jsonl"
        rc = main(
            [
                "report",
                str(trace_file),
                "--passes",
                "diagnostics,captures,reuse,hotspot",
                "--journal",
                str(journal),
            ]
        )
        assert rc == 0
        recs = [json.loads(l) for l in journal.read_text().splitlines()]
        scans = [r for r in recs if r.get("event") == "shard-analyzed"]
        assert scans and all(r["n_passes"] == 4 for r in scans)

    def test_text_report_is_one_cached_scan(self, trace_file, tmp_path, capsys):
        """Every text section rides one scan with the health record: a cold
        run plans one scan, and a warm run prints the same bytes from the
        cache without scanning a chunk."""
        argv = ["report", str(trace_file), "--cache-dir", str(tmp_path / "cache")]
        outs, plans, scans = [], [], []
        for run in ("cold", "warm"):
            journal = tmp_path / f"{run}.jsonl"
            assert main(argv + ["--journal", str(journal)]) == 0
            outs.append(capsys.readouterr().out)
            recs = [json.loads(line) for line in journal.read_text().splitlines()]
            plans.append(sum(r.get("stage") == "shard-plan" for r in recs))
            scans.append(sum(r["event"] == "shard-analyzed" for r in recs))
        assert outs[0] == outs[1]
        assert plans[0] == 1 and scans[0] > 0
        assert scans[1] == 0


class TestObservability:
    def test_trace_journal_lines_parse(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        rc = main(
            ["trace", "--workload", "ubench:str4", "--scale", "9",
             "--period", "999", "--buffer", "128",
             "-o", str(tmp_path / "t.npz"), "--journal", str(journal)]
        )
        assert rc == 0
        recs = [json.loads(line) for line in journal.read_text().splitlines()]
        assert {r["event"] for r in recs} == {"stage", "trace-written"}
        written = next(r for r in recs if r["event"] == "trace-written")
        assert written["rho"] > 0 and written["n_sampled"] > 0
        assert len({r["run"] for r in recs}) == 1

    def test_report_journal_covers_pipeline_stages(self, trace_file, tmp_path):
        journal = tmp_path / "j.jsonl"
        rc = main(
            ["report", str(trace_file), "--workers", "2",
             "--journal", str(journal)]
        )
        assert rc == 0
        recs = [json.loads(line) for line in journal.read_text().splitlines()]
        events = {r["event"] for r in recs}
        assert {"stage", "shard-analyzed", "stage-summary"} <= events
        stages = {r.get("stage") for r in recs if r["event"] == "stage"}
        assert {"shard-plan", "merge"} <= stages

    def test_shard_counters_count_every_chunk(self, trace_file, tmp_path, capsys):
        """Streamed archive chunks count as shards, as in-memory ones do:
        a ``matrix`` run and a ``report`` run each put every event they
        scan into a counted shard."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "base.npz").write_bytes(trace_file.read_bytes())
        runs = {
            "matrix": ["matrix", str(corpus)],
            "report": ["report", str(trace_file), "--json"],
        }
        for name, argv in runs.items():
            path = tmp_path / f"{name}.json"
            assert main([*argv, "--no-cache", "--metrics", str(path)]) == 0
            capsys.readouterr()
            metrics = json.loads(path.read_text())["metrics"]
            counters, hist = metrics["counters"], metrics["histograms"]
            assert counters["parallel.shards"]["value"] >= 1, name
            shard_events = hist["parallel.shard_events"]["total"]
            assert shard_events == counters["parallel.events"]["value"] > 0, name

    def test_metrics_export_round_trips(self, trace_file, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        rc = main(
            ["report", str(trace_file), "--stats",
             "--journal", str(tmp_path / "j.jsonl"), "--metrics", str(metrics)]
        )
        assert rc == 0
        assert "stage timings" in capsys.readouterr().out
        data = json.loads(metrics.read_text())
        assert {"trace", "run", "metrics", "stages"} <= set(data)
        counters = data["metrics"]["counters"]
        assert counters["parallel.events"]["value"] > 0
        assert counters["parallel.plans"]["value"] > 0
        assert {s["stage"] for s in data["stages"]} >= {"plan", "compute", "merge"}
        # the registry snapshot reloads through the public constructor
        from repro.obs.metrics import MetricsRegistry

        back = MetricsRegistry.from_dict(data["metrics"])
        assert back.as_dict() == data["metrics"]

    def test_metrics_without_journal(self, trace_file, tmp_path):
        metrics = tmp_path / "m.json"
        assert main(["report", str(trace_file), "--metrics", str(metrics)]) == 0
        assert json.loads(metrics.read_text())["run"] is None


class TestValidateTrace:
    def test_clean_archive_rc_zero(self, trace_file, capsys):
        assert main(["validate-trace", str(trace_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_json_output(self, trace_file, capsys):
        assert main(["validate-trace", str(trace_file), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["has_health"] is True

    @pytest.mark.faults
    def test_truncated_archive_rc_one(self, trace_file, tmp_path, capsys):
        from obs import faults

        hurt = faults.truncate(trace_file, tmp_path / "hurt.npz")
        assert main(["validate-trace", str(hurt)]) == 1
        assert "TRUNCATION" in capsys.readouterr().out

    @pytest.mark.faults
    def test_report_survives_truncated_archive(self, tmp_path, capsys, rng):
        """Acceptance: report on a tail-truncated archive completes.

        Pure tail truncation is exactly what a reader racing a
        still-appending writer sees, so the report treats it as a
        *still-growing* archive (not corruption): the verified prefix is
        analyzed and the journal carries a ``still-growing`` warning.
        """
        import numpy as np

        from obs import faults
        from repro.trace.event import make_events
        from repro.trace.tracefile import HEALTH_CHUNK_EVENTS, TraceMeta, write_trace

        n = 3 * HEALTH_CHUNK_EVENTS
        ev = make_events(
            ip=rng.integers(0, 32, n),
            addr=rng.integers(0, 1 << 22, n),
            cls=rng.choice([0, 1, 2], n).astype(np.uint8),
        )
        sid = (np.arange(n) // 4096).astype(np.int32)
        big = tmp_path / "big.npz"
        write_trace(big, ev, TraceMeta(module="cli-fault", period=4096,
                                       buffer_capacity=256), sample_id=sid)
        hurt = faults.truncate(big, tmp_path / "hurt.npz", keep_fraction=0.7)

        journal = tmp_path / "j.jsonl"
        rc = main(["report", str(hurt), "--journal", str(journal)])
        captured = capsys.readouterr()
        assert rc == 0, "report must complete on a tail-truncated archive"
        assert "footprint access diagnostics" in captured.out
        assert "still growing" in captured.err
        assert "verified prefix" in captured.err
        recs = [json.loads(line) for line in journal.read_text().splitlines()]
        assert any(r.get("reason") == "still-growing" for r in recs)
        assert any(r["event"] == "trace-recovered" for r in recs)


def _open_descriptors(path) -> list[str]:
    """This process's descriptors that point at ``path``."""
    fds = Path("/proc/self/fd")
    out = []
    for fd in fds.iterdir():
        try:
            if os.readlink(fd) == str(path):
                out.append(fd.name)
        except OSError:
            pass  # closed while listing
    return out


@pytest.fixture(scope="module")
def damaged_trace(tmp_path_factory):
    """A 3-health-chunk archive truncated to 2/3: recovery is journaled."""
    import numpy as np

    from obs import faults
    from repro._util.rng import derive_rng
    from repro.trace.event import make_events
    from repro.trace.tracefile import HEALTH_CHUNK_EVENTS, TraceMeta, write_trace

    root = tmp_path_factory.mktemp("damaged")
    rng = derive_rng(0, "damaged-trace")
    n = 3 * HEALTH_CHUNK_EVENTS
    ev = make_events(
        ip=rng.integers(0, 32, n),
        addr=rng.integers(0, 1 << 22, n),
        cls=rng.choice([0, 1, 2], n).astype(np.uint8),
    )
    sid = (np.arange(n) // 4096).astype(np.int32)
    write_trace(root / "big.npz", ev, TraceMeta(module="cli-leak", period=4096,
                                                buffer_capacity=256), sample_id=sid)
    return faults.truncate(root / "big.npz", root / "bad.npz", keep_fraction=2 / 3)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
class TestErrorExitsCloseTheJournal:
    """A command that fails after journaling still closes its journal."""

    @pytest.mark.parametrize(
        "extra", [["--passes", "nosuch"], ["--json", "--passes", "nosuch"]]
    )
    def test_report_error_exit(self, damaged_trace, tmp_path, extra):
        journal = tmp_path / "j.jsonl"
        argv = ["report", str(damaged_trace), "--no-cache", "--journal", str(journal)]
        with pytest.raises(SystemExit):
            main(argv + extra)
        assert _open_descriptors(journal) == []
        events = [json.loads(line)["event"] for line in journal.read_text().splitlines()]
        assert "trace-recovered" in events  # the load journaled before the exit

    def test_empty_prefix_exit(self, tmp_path, capsys):
        """Recovery keeps no event of a one-chunk archive: ``trace is empty``."""
        import numpy as np

        from obs import faults
        from repro.trace.event import make_events
        from repro.trace.tracefile import TraceMeta, write_trace

        n = 20_000
        ev = make_events(ip=np.zeros(n, dtype=np.uint64), addr=np.arange(n) * 8, cls=0)
        write_trace(tmp_path / "small.npz", ev, TraceMeta(module="tiny"),
                    sample_id=np.zeros(n, dtype=np.int32))
        bad = faults.truncate(tmp_path / "small.npz", tmp_path / "bad.npz")
        journal = tmp_path / "j.jsonl"
        rc = main(["report", str(bad), "--journal", str(journal),
                   "--metrics", str(tmp_path / "m.json")])
        assert rc == 1 and "trace is empty" in capsys.readouterr().out
        assert _open_descriptors(journal) == []
        events = [json.loads(line)["event"] for line in journal.read_text().splitlines()]
        assert events[-1] == "metrics"  # the summary is journaled on this exit too


class TestFailureModes:
    """Bad input exits with a clear message — never a traceback."""

    def test_duplicate_pass_name_exits(self, trace_file):
        with pytest.raises(SystemExit) as exc:
            main(["report", str(trace_file), "--passes", "diagnostics,diagnostics"])
        assert "requested twice" in str(exc.value)
        assert str(exc.value).startswith("memgaze report:")

    def test_report_missing_archive_exits(self):
        with pytest.raises(SystemExit) as exc:
            main(["report", "does-not-exist.npz"])
        assert "no such trace archive" in str(exc.value)

    def test_validate_trace_missing_archive_exits(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate-trace", "does-not-exist.npz"])
        msg = str(exc.value)
        assert "no such trace archive" in msg
        assert "validate-trace" in msg

    def test_diff_missing_archive_exits(self, trace_file):
        with pytest.raises(SystemExit) as exc:
            main(["diff", str(trace_file), "gone.npz"])
        assert "no such trace archive" in str(exc.value)

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--intervals", "-1"),
            ("--intervals", "0"),
            ("--hot-threshold", "0"),
            ("--hot-threshold", "1.5"),
            ("--max-regions", "-1"),
            ("--max-regions", "0"),
            ("--min-region-pct", "-5"),
            ("--min-region-pct", "101"),
        ],
    )
    def test_bad_report_option_is_a_usage_error(self, trace_file, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["report", str(trace_file), option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected" in err and repr(value) in err

    @pytest.mark.parametrize(
        "command,option,value,extra",
        [
            ("report", "--workers", "-1", []),
            ("report", "--workers", "-1", ["--json"]),
            ("report", "--chunk-size", "0", []),
            ("matrix", "--workers", "-2", []),
            ("matrix", "--chunk-size", "0", []),
            ("matrix", "--chunk-size", "-3", []),
        ],
    )
    def test_bad_engine_option_is_a_usage_error(
        self, trace_file, tmp_path, capsys, command, option, value, extra
    ):
        """Engine flags are checked by argparse for every command that has them."""
        target = trace_file
        if command == "matrix":
            import shutil

            target = tmp_path / "corpus"
            target.mkdir()
            shutil.copy(trace_file, target / "base.npz")
        with pytest.raises(SystemExit) as exc:
            main([command, str(target), option, value, "--no-cache", *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected" in err and repr(value) in err

    @pytest.mark.parametrize(
        "command,option,value",
        [
            ("diff", "--top", "-1"),
            ("diff", "--top", "0"),
            ("matrix", "--top", "-1"),
            ("matrix", "--top", "0"),
            ("matrix", "--min-accesses", "-1"),
        ],
    )
    def test_bad_table_option_is_a_usage_error(self, trace_file, capsys, command, option, value):
        # a negative --top once printed "(4 of 3 function rows omitted)",
        # and 0 an empty table
        targets = [str(trace_file)] * (2 if command == "diff" else 1)
        with pytest.raises(SystemExit) as exc:
            main([command, *targets, option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected" in err and repr(value) in err

    def test_table_options_accept_their_bounds(self, trace_file, tmp_path, capsys):
        import shutil

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(trace_file, corpus / "base.npz")
        assert main(["diff", str(trace_file), str(trace_file), "--top", "1"]) == 0
        assert main(
            ["matrix", str(corpus), "--top", "1", "--min-accesses", "0", "--no-cache"]
        ) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "option,value", [("--workers", "-1"), ("--chunk-size", "0")]
    )
    def test_bad_serve_engine_option_is_a_usage_error(self, tmp_path, capsys, option, value):
        # parse only: no daemon is started
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--root", str(tmp_path), option, value])
        assert exc.value.code == 2
        assert f"argument {option}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_bad_serve_workers_is_a_usage_error(self, tmp_path, capsys, value):
        # parse only: no daemon is started
        with pytest.raises(SystemExit) as exc:
            parse_args(["serve", "--root", str(tmp_path), "--serve-workers", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --serve-workers: expected" in err and repr(value) in err

    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_bad_serve_workers_env_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, value
    ):
        monkeypatch.setenv("MEMGAZE_SERVE_WORKERS", value)
        with pytest.raises(SystemExit) as exc:
            parse_args(["serve", "--root", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "MEMGAZE_SERVE_WORKERS" in err and repr(value) in err

    def test_serve_workers_env_fallback(self, tmp_path, monkeypatch):
        root = ["serve", "--root", str(tmp_path)]
        monkeypatch.delenv("MEMGAZE_SERVE_WORKERS", raising=False)
        assert parse_args(root).serve_workers == 1
        monkeypatch.setenv("MEMGAZE_SERVE_WORKERS", "3")
        assert parse_args(root).serve_workers == 3
        # the flag wins over the environment, and other commands ignore it
        assert parse_args([*root, "--serve-workers", "2"]).serve_workers == 2
        monkeypatch.setenv("MEMGAZE_SERVE_WORKERS", "0")
        assert parse_args(["matrix", str(tmp_path)]).workers == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--workload", "ubench:str4", "-o", "t.npz"],
            ["validate", "--workload", "ubench:str4"],
        ],
    )
    @pytest.mark.parametrize("option", ["--period", "--buffer"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_bad_sampling_count_is_a_usage_error(self, capsys, argv, option, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected" in err and repr(value) in err

    def test_zero_workers_is_accepted(self, trace_file, tmp_path, capsys):
        parser = build_parser()
        for argv in (
            ["report", str(trace_file)],
            ["matrix", str(tmp_path)],
            ["serve", "--root", str(tmp_path)],
        ):
            assert parser.parse_args([*argv, "--workers", "0"]).workers == 0
        assert main(["report", str(trace_file), "--workers", "0", "--no-cache"]) == 0
        capsys.readouterr()

    def test_report_option_bounds_are_accepted(self, trace_file, capsys):
        rc = main(
            [
                "report", str(trace_file), "--regions", "--intervals", "1",
                "--hot-threshold", "1", "--min-region-pct", "0", "--max-regions", "1",
            ]
        )
        assert rc == 0
        table = capsys.readouterr().out.split("hot memory regions")[1].split("\n\n")[0]
        assert sum(line.startswith("0x") for line in table.splitlines()) == 1


def _write_prefixes(rng, paths_and_lengths):
    """Archives holding leading prefixes of one sampled trace.

    Samples are 500 events, so a prefix of a multiple of 500 ends on a
    sample boundary and a longer archive extends it by whole samples.
    """
    import numpy as np

    from repro.trace.event import make_events
    from repro.trace.tracefile import TraceMeta, write_trace

    n = max(length for _, length in paths_and_lengths)
    ev = make_events(
        ip=rng.integers(0, 32, n),
        addr=rng.integers(0, 1 << 16, n) * 8,
        cls=rng.choice([0, 1, 2], n).astype(np.uint8),
        fn=rng.integers(0, 3, n),
    )
    sid = (np.arange(n) // 500).astype(np.int32)
    for path, length in paths_and_lengths:
        meta = TraceMeta(module="prefix", period=2000, buffer_capacity=500,
                         n_loads_total=4 * length, n_samples=length // 500)
        write_trace(path, ev[:length], meta, sid[:length])


class TestCacheCLI:
    def test_archive_replaced_after_load_is_keyed_by_what_was_read(
        self, tmp_path, capsys, monkeypatch, rng
    ):
        """A publish landing after the archive is read changes no cached result.

        The cache key is the health record read in the same open as the
        events, so the partials of the 30,000 events read are stored
        under their own digest, not under the 40,000-event archive's
        that replaced them before the report finished.
        """
        import repro.cli as cli

        path, longer = tmp_path / "t.npz", tmp_path / "longer.npz"
        _write_prefixes(rng, [(path, 30_000), (longer, 40_000)])
        cache = ["--json", "--cache-dir", str(tmp_path / "cache")]
        load = cli._load

        def load_then_publish(trace, obs):
            loaded = load(trace, obs)
            os.replace(longer, path)
            return loaded

        monkeypatch.setattr(cli, "_load", load_then_publish)
        assert main(["report", str(path), *cache]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["report", str(path), *cache]) == 0
        warm = capsys.readouterr().out
        assert main(["report", str(path), "--json", "--no-cache"]) == 0
        assert warm == capsys.readouterr().out
        assert json.loads(warm)["n_events"] == 40_000

    def test_appended_archive_scans_only_the_tail(self, tmp_path, capsys, rng):
        short, longer = tmp_path / "short.npz", tmp_path / "longer.npz"
        _write_prefixes(rng, [(short, 30_000), (longer, 40_000)])
        cache = ["--json", "--cache-dir", str(tmp_path / "cache")]
        assert main(["report", str(short), *cache]) == 0
        metrics = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["report", str(longer), *cache, "--metrics", str(metrics)]) == 0
        warm = capsys.readouterr().out
        counters = json.loads(metrics.read_text())["metrics"]["counters"]
        assert counters["cache.incremental_scans"]["value"] == 1
        assert counters["parallel.events"]["value"] == 10_000
        assert main(["report", str(longer), "--json", "--no-cache"]) == 0
        assert warm == capsys.readouterr().out

    def test_warm_report_hits_disk_cache(self, trace_file, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["report", str(trace_file), "--passes", "diagnostics,reuse",
                "--cache", "--cache-dir", str(cache)]
        assert main(argv + ["--metrics", str(tmp_path / "cold.json")]) == 0
        cold_out = capsys.readouterr().out
        assert main(argv + ["--metrics", str(tmp_path / "warm.json")]) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out, "cached results must render identically"
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert cold["disk_cache"]["hits"] == 0
        assert warm["disk_cache"]["hits"] > 0
        assert warm["disk_cache"]["misses"] == 0

    def test_cache_dir_alone_implies_cache(self, trace_file, tmp_path):
        cache = tmp_path / "cache"
        assert main(["report", str(trace_file), "--passes", "diagnostics",
                     "--cache-dir", str(cache)]) == 0
        assert list(cache.glob("*.mgc")), "--cache-dir alone must enable caching"

    def test_no_cache_wins(self, trace_file, tmp_path):
        cache = tmp_path / "cache"
        assert main(["report", str(trace_file), "--passes", "diagnostics",
                     "--no-cache", "--cache-dir", str(cache)]) == 0
        assert not cache.exists(), "--no-cache must override --cache-dir"

    def test_stats_prune_clear_flow(self, trace_file, tmp_path, capsys):
        cache = tmp_path / "cache"
        main(["report", str(trace_file), "--passes", "diagnostics,captures",
              "--cache-dir", str(cache)])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "entries: 3" in out  # two partials and the trace's state
        assert main(["cache", "prune", "--cache-dir", str(cache),
                     "--max-bytes", "0"]) == 0
        assert "pruned 3 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "cleared 0 entries" in capsys.readouterr().out

    def test_stats_on_missing_dir_is_empty_not_error(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "never")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_prune_requires_max_bytes(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "prune", "--cache-dir", str(tmp_path)])
        msg = str(exc.value)
        assert "--max-bytes is required" in msg
        assert "memgaze cache clear" in msg  # the alternative is named

    def test_cache_root_must_be_directory(self, trace_file):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "stats", "--cache-dir", str(trace_file)])
        assert "not a directory" in str(exc.value)

    def test_unknown_action_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "vacuum"])


class TestValidate:
    def test_validate_passes_on_microbench(self, capsys):
        rc = main(
            ["validate", "--workload", "ubench:str4", "--scale", "10", "--period", "4999"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "MAPE" in out
        assert "OK" in out
