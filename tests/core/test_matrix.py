"""Matrix runner: corpus aggregation, cache warmth, CLI gating."""

import json
import multiprocessing
import shutil
import sys
from pathlib import Path

import pytest
from test_shm import _live_segments

from repro.cli import main as cli_main
from repro.core.artifacts import ArtifactStore
from repro.core.corpus import CorpusSpec
from repro.core.diff import corpus_diff
from repro.core.matrix import run_matrix
from repro.core.parallel import ParallelEngine
from repro.core.report import payload_json
from repro.obs import MetricsRegistry, Obs, RunJournal, read_journal

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "obs"))
import faults  # noqa: E402


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A directory corpus of two distinct deterministic workload traces."""
    root = tmp_path_factory.mktemp("corpus")
    for label, workload in (("base", "ubench:str4/irr"), ("cand", "ubench:irr")):
        rc = cli_main(
            [
                "trace",
                "--workload",
                workload,
                "--scale",
                "9",
                "--period",
                "997",
                "--buffer",
                "128",
                "--deterministic",
                "-o",
                str(root / f"{label}.npz"),
            ]
        )
        assert rc == 0
    return root


class TestRunMatrix:
    def test_cold_run_aggregates_every_cell(self, corpus_dir):
        spec = CorpusSpec.from_directory(corpus_dir)
        result = run_matrix(spec)
        assert result.modes == {"base": "full", "cand": "full"}
        payload = result.corpus_payload()
        assert payload["baseline"] == "base"
        assert payload["n_cells"] == 2
        assert sorted(payload["cells"]) == ["base", "cand"]
        for cell in payload["cells"].values():
            assert cell["n_events"] > 0
            assert set(cell["passes"]) == {"diagnostics", "hotspot", "captures", "reuse"}
            assert cell["functions"]  # per-function windows present

    def test_cell_payload_matches_report_json(self, corpus_dir, capsys):
        """A matrix cell is byte-for-byte the single-trace report payload."""
        rc = cli_main(["report", str(corpus_dir / "base.npz"), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        spec = CorpusSpec.from_directory(corpus_dir)
        cell = run_matrix(spec).cells["base"].payload
        assert payload_json(cell) == payload_json(report)

    def test_cache_sweep_opt_in_per_cell(self, corpus_dir):
        """A sweep-enabled cell gains the cache_sweep pass; others don't."""
        import dataclasses

        spec = CorpusSpec.from_directory(corpus_dir)
        spec = dataclasses.replace(
            spec,
            cells=tuple(
                dataclasses.replace(c, cache_sweep=(c.label == "cand"))
                for c in spec.cells
            ),
        )
        payload = run_matrix(spec).corpus_payload()
        assert "cache_sweep" not in payload["cells"]["base"]["passes"]
        rows = payload["cells"]["cand"]["passes"]["cache_sweep"]
        assert len(rows) == 8
        assert all(0.0 <= r["hit_ratio"] <= 1.0 for r in rows)

    def test_cli_cache_sweep_flag_enables_every_cell(self, corpus_dir, capsys):
        rc = cli_main(["matrix", str(corpus_dir), "--cache-sweep", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        for cell in payload["cells"].values():
            assert len(cell["passes"]["cache_sweep"]) == 8

    def test_warm_run_is_cached_and_byte_identical(self, corpus_dir, tmp_path):
        spec = CorpusSpec.from_directory(corpus_dir)
        cache = tmp_path / "cache"
        cold = run_matrix(spec, engine=ParallelEngine(store=ArtifactStore(cache)))
        warm = run_matrix(spec, engine=ParallelEngine(store=ArtifactStore(cache)))
        assert set(cold.modes.values()) == {"full"}
        assert set(warm.modes.values()) == {"cached"}
        assert payload_json(warm.corpus_payload()) == payload_json(cold.corpus_payload())

    def test_engine_owns_chunk_size(self, corpus_dir, tmp_path):
        """A passed engine streams at its own chunk size, with the same payload."""
        spec = CorpusSpec.from_directory(corpus_dir)
        jpath = tmp_path / "journal.jsonl"
        with RunJournal(jpath) as journal:
            with ParallelEngine(workers=1, chunk_size=257, obs=Obs(journal)) as eng:
                result = run_matrix(spec, engine=eng)
        assert result.modes == {"base": "full", "cand": "full"}
        reads = [r for r in read_journal(jpath) if r["event"] == "chunk-read"]
        assert max(r["n_events"] for r in reads) < 1024  # 257-event chunks, sample-aligned
        assert payload_json(result.corpus_payload()) == payload_json(
            run_matrix(spec).corpus_payload()
        )

    def test_journal_and_metrics(self, corpus_dir, tmp_path):
        spec = CorpusSpec.from_directory(corpus_dir)
        jpath = tmp_path / "journal.jsonl"
        metrics = MetricsRegistry()
        with RunJournal(jpath) as journal:
            run_matrix(spec, engine=ParallelEngine(obs=Obs(journal, metrics)))
        lines = list(read_journal(jpath))
        cells = [r for r in lines if r["event"] == "matrix-cell"]
        assert [r["label"] for r in cells] == ["base", "cand"]
        assert all(r["mode"] == "full" and r["n_events"] > 0 for r in cells)
        (run,) = [r for r in lines if r["event"] == "matrix-run"]
        assert run["n_cells"] == 2 and run["n_full"] == 2 and run["n_cached"] == 0
        assert metrics.counters["matrix.cells"].value == 2
        assert metrics.counters["matrix.cells_full"].value == 2
        assert metrics.counters["matrix.events"].value == sum(
            r["n_events"] for r in cells
        )


class TestCliMatrix:
    def _payload(self, corpus_dir, capsys):
        rc = cli_main(["matrix", str(corpus_dir), "--json"])
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    def test_json_payload_and_exit_zero(self, corpus_dir, capsys):
        payload = self._payload(corpus_dir, capsys)
        assert payload["baseline"] == "base"
        assert sorted(payload["cells"]) == ["base", "cand"]

    def test_output_file_stable_across_cache_warmth(self, corpus_dir, tmp_path):
        cache = tmp_path / "cache"
        outs = []
        for name in ("cold.json", "warm.json"):
            out = tmp_path / name
            rc = cli_main(
                [
                    "matrix",
                    str(corpus_dir),
                    "--cache-dir",
                    str(cache),
                    "-o",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_pooled_matrix_closes_its_pool(self, corpus_dir, tmp_path, capsys):
        """A pooled matrix returns with no worker left alive and serial bytes."""
        import gc
        import multiprocessing

        serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
        assert cli_main(["matrix", str(corpus_dir), "--no-cache", "-o", str(serial)]) == 0
        before = set(multiprocessing.active_children())
        gc.disable()  # nothing may be left for the collector to reap
        try:
            rc = cli_main(
                [
                    "matrix", str(corpus_dir), "--no-cache", "--workers", "2",
                    "--chunk-size", "4096", "-o", str(pooled),
                ]
            )
            alive = [p for p in multiprocessing.active_children() if p not in before]
        finally:
            gc.enable()
        capsys.readouterr()
        assert rc == 0
        assert alive == []
        assert pooled.read_bytes() == serial.read_bytes()

    def test_pooled_cells_overlap(self, corpus_dir, tmp_path, capsys):
        """Without --chunk-size each cell is one job, and the cells' jobs share the pool."""
        serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
        assert cli_main(["matrix", str(corpus_dir), "--no-cache", "-o", str(serial)]) == 0
        metrics, jpath = tmp_path / "m.json", tmp_path / "journal.jsonl"
        rc = cli_main(
            [
                "matrix", str(corpus_dir), "--no-cache", "--workers", "2",
                "--metrics", str(metrics), "--journal", str(jpath), "-o", str(pooled),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        gauges = json.loads(metrics.read_text(encoding="utf-8"))["metrics"]["gauges"]
        assert gauges["parallel.peak_in_flight"]["value"] >= 2
        assert pooled.read_bytes() == serial.read_bytes()
        lines = list(read_journal(jpath))
        labels = [c.label for c in CorpusSpec.from_directory(corpus_dir).cells]
        assert [r["label"] for r in lines if r["event"] == "matrix-cell"] == labels
        # each cell still journals its own merge and analyze-file stage
        stages = [r.get("stage") for r in lines if r["event"] == "stage"]
        assert stages.count("merge") == stages.count("analyze-file") == len(labels)

    def test_gate_exit_codes_and_verdict_file(self, corpus_dir, tmp_path, capsys):
        payload = self._payload(corpus_dir, capsys)
        # pick a metric that really moved, then gate just under/at its delta
        moved = [
            e
            for c in corpus_diff(payload).cells
            for e in c.evidence
            if e.delta_abs > 0
        ]
        assert moved, "corpus of distinct workloads must move some metric"
        ev = max(moved, key=lambda e: e.delta_abs)

        strict = tmp_path / "strict.toml"
        strict.write_text(
            f"[{ev.metric}]\nmax_abs = {ev.delta_abs / 2!r}\n", encoding="utf-8"
        )
        verdict_path = tmp_path / "verdict.json"
        rc = cli_main(
            [
                "matrix",
                str(corpus_dir),
                "--gate",
                str(strict),
                "--verdict",
                str(verdict_path),
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        verdict = json.loads(verdict_path.read_text(encoding="utf-8"))
        assert verdict["verdict"] == "regressed"
        assert json.loads(out) == verdict  # --json prints the verdict when gated
        cell = verdict["cells"]["cand"]
        assert cell["verdict"] == "regressed"
        assert cell["metrics"][ev.metric]["regressed"] is True

        # exactly-at-threshold is a pass, at the CLI level too
        exact = tmp_path / "exact.toml"
        exact.write_text(
            f"[{ev.metric}]\nmax_abs = {ev.delta_abs!r}\n", encoding="utf-8"
        )
        rc = cli_main(["matrix", str(corpus_dir), "--gate", str(exact)])
        capsys.readouterr()
        assert rc == 0

    def test_gate_journal_records_verdict(self, corpus_dir, tmp_path, capsys):
        payload = self._payload(corpus_dir, capsys)
        ev = max(
            (e for c in corpus_diff(payload).cells for e in c.evidence),
            key=lambda e: e.delta_abs,
        )
        assert ev.delta_abs > 0
        strict = tmp_path / "strict.toml"
        strict.write_text(
            f"[{ev.metric}]\nmax_abs = {ev.delta_abs / 2!r}\n", encoding="utf-8"
        )
        jpath = tmp_path / "journal.jsonl"
        rc = cli_main(
            [
                "matrix",
                str(corpus_dir),
                "--gate",
                str(strict),
                "--journal",
                str(jpath),
            ]
        )
        capsys.readouterr()
        assert rc == 1
        (line,) = [r for r in read_journal(jpath) if r["event"] == "matrix-verdict"]
        assert line["verdict"] == "regressed" and line["gated"] is True
        assert line["regressed_cells"] == ["cand"]

    def test_human_output_lists_cells_and_verdict(self, corpus_dir, capsys):
        rc = cli_main(["matrix", str(corpus_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== corpus" in out and "2 cells (baseline base)" in out
        assert "corpus diff:" in out
        for label in ("base", "cand"):
            assert label in out

    def test_bad_spec_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="memgaze matrix:"):
            cli_main(["matrix", str(tmp_path / "nope.toml")])

    def test_bad_gate_file_is_a_clean_error(self, corpus_dir, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("[bogus]\nmax_abs = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="memgaze matrix:"):
            cli_main(["matrix", str(corpus_dir), "--gate", str(bad)])


@pytest.mark.faults
class TestDamagedCell:
    """A damaged archive in a corpus is a clean error, never a traceback."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fault", ["truncate", "bit_flip"])
    def test_damaged_cell_after_a_healthy_one(
        self, corpus_dir, tmp_path, capsys, fault, workers
    ):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(corpus_dir / "base.npz", corpus / "a_ok.npz")
        getattr(faults, fault)(corpus_dir / "cand.npz", corpus / "b_bad.npz")
        before_segments = _live_segments()
        before_children = set(multiprocessing.active_children())
        with pytest.raises(SystemExit) as exc:
            cli_main(["matrix", str(corpus), "--no-cache", "--workers", workers])
        capsys.readouterr()
        message = str(exc.value.code)
        assert message.startswith("memgaze matrix: unrecoverable trace archive: ")
        assert "b_bad.npz" in message
        assert _live_segments() - before_segments == set()
        alive = [p for p in multiprocessing.active_children() if p not in before_children]
        assert alive == []

    @pytest.mark.parametrize("fault", ["truncate", "bit_flip"])
    def test_report_recovers_the_same_archives(self, corpus_dir, tmp_path, capsys, fault):
        """``report`` reads the same archives through recovery, with no traceback."""
        bad = getattr(faults, fault)(corpus_dir / "cand.npz", tmp_path / "bad.npz")
        cli_main(["report", str(bad), "--no-cache"])
        assert "analyzing the verified prefix" in capsys.readouterr().err
