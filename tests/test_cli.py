"""Tests for the memgaze command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


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


class TestCacheCLI:
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
        assert "entries: 2" in out
        assert main(["cache", "prune", "--cache-dir", str(cache),
                     "--max-bytes", "0"]) == 0
        assert "pruned 2 entries" in capsys.readouterr().out
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
