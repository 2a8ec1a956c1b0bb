"""Tests for trace-archive health validation and partial recovery.

The fault-injection cases (marked ``faults``) damage real archives with
the harness in ``faults.py`` and assert the health layer detects and
classifies every damage class; CI runs them as a dedicated
``pytest -m faults`` job.
"""

import numpy as np
import pytest

import faults
from repro._util.rng import derive_rng
from repro.obs import Obs, RunJournal, read_journal
from repro.trace.event import make_events
from repro.trace.health import (
    KIND_BIT_FLIP,
    KIND_SCHEMA,
    KIND_TRUNCATION,
    recover_read,
    validate,
)
from repro.trace.tracefile import (
    HEALTH_CHUNK_EVENTS,
    TraceFormatError,
    TraceMeta,
    write_trace,
)

N_EVENTS = 3 * HEALTH_CHUNK_EVENTS + 1234  # spans four checksum chunks


@pytest.fixture(scope="module")
def archive(tmp_path_factory, test_seed):
    """A healthy multi-chunk trace archive (events + sample_id)."""
    rng = derive_rng(test_seed, "health-archive")
    ev = make_events(
        ip=rng.integers(0, 64, N_EVENTS),
        addr=rng.integers(0, 1 << 24, N_EVENTS),
        cls=rng.choice([0, 1, 2], N_EVENTS).astype(np.uint8),
    )
    sid = (np.arange(N_EVENTS) // 5000).astype(np.int32)
    path = tmp_path_factory.mktemp("health") / "clean.npz"
    meta = TraceMeta(module="health-fixture", period=5000, buffer_capacity=1024)
    write_trace(path, ev, meta, sample_id=sid)
    return path, ev, sid


def kinds(report):
    return {f.kind for f in report.findings}


class TestValidateClean:
    def test_clean_archive_is_ok(self, archive):
        path, ev, _ = archive
        report = validate(path)
        assert report.ok
        assert report.has_health
        assert report.n_events_ok == len(ev)
        assert "OK" in report.render()

    def test_as_dict_is_json_shaped(self, archive):
        import json

        path, _, _ = archive
        d = validate(path).as_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["ok"] is True and d["findings"] == []

    def test_legacy_archive_without_health_member(self, archive, tmp_path):
        path, ev, _ = archive
        legacy = faults.schema_corrupt(path, tmp_path / "legacy.npz",
                                       drop_member="health.npy")
        report = validate(legacy)
        assert report.ok
        assert not report.has_health
        assert report.n_events_ok == len(ev)

    def test_missing_file_is_schema_finding(self, tmp_path):
        report = validate(tmp_path / "nope.npz")
        assert kinds(report) == {KIND_SCHEMA}

    def test_non_zip_is_schema_finding(self, tmp_path):
        bad = tmp_path / "junk.npz"
        bad.write_bytes(b"this is not a zip archive at all" * 8)
        report = validate(bad)
        assert kinds(report) == {KIND_SCHEMA}


@pytest.mark.faults
class TestTruncation:
    def test_detected_and_prefix_recovered(self, archive, tmp_path):
        path, ev, _ = archive
        hurt = faults.truncate(path, tmp_path / "trunc.npz", keep_fraction=0.7)
        report = validate(hurt)
        assert not report.ok
        assert KIND_TRUNCATION in kinds(report)
        assert 0 < report.n_events_ok < len(ev)
        assert report.n_events_ok % HEALTH_CHUNK_EVENTS == 0  # whole chunks only

    def test_recover_read_returns_verified_prefix(self, archive, tmp_path):
        path, ev, _ = archive
        hurt = faults.truncate(path, tmp_path / "trunc.npz", keep_fraction=0.7)
        events, meta, _, findings = recover_read(hurt)
        assert meta.module == "health-fixture"
        assert findings
        assert np.array_equal(events, ev[: len(events)])

    def test_recovery_is_journaled_not_raised(self, archive, tmp_path):
        path, _, _ = archive
        hurt = faults.truncate(path, tmp_path / "trunc.npz", keep_fraction=0.7)
        with RunJournal(tmp_path / "j.jsonl") as journal:
            _, _, _, findings = recover_read(hurt, Obs(journal))
        recs = list(read_journal(tmp_path / "j.jsonl"))
        warnings = [r for r in recs if r["event"] == "warning"]
        assert len(warnings) == len(findings)
        assert recs[-1]["event"] == "trace-recovered"

    def test_severe_truncation_keeps_metadata(self, archive, tmp_path):
        """meta/health are written first, so even a brutal cut identifies."""
        path, _, _ = archive
        hurt = faults.truncate(path, tmp_path / "stub.npz", keep_fraction=0.01)
        _, meta, _, _ = recover_read(hurt)
        assert meta.module == "health-fixture"


@pytest.mark.faults
class TestBitFlip:
    def test_detected_and_classified(self, archive, tmp_path):
        path, ev, _ = archive
        hurt = faults.bit_flip(path, tmp_path / "flip.npz", offset_fraction=0.5)
        report = validate(hurt)
        assert not report.ok
        assert KIND_BIT_FLIP in kinds(report)
        assert report.n_events_ok < len(ev)

    def test_early_flip_recovers_nothing(self, archive, tmp_path):
        path, _, _ = archive
        hurt = faults.bit_flip(path, tmp_path / "flip0.npz", offset_fraction=0.0)
        assert validate(hurt).n_events_ok == 0

    def test_late_flip_slices_sample_id_to_prefix(self, archive, tmp_path):
        path, ev, sid = archive
        hurt = faults.bit_flip(path, tmp_path / "flipl.npz", offset_fraction=0.9)
        events, _, sample_id, _ = recover_read(hurt)
        assert 0 < len(events) < len(ev)
        assert sample_id is not None
        assert len(sample_id) == len(events)
        assert np.array_equal(sample_id, sid[: len(events)])


@pytest.mark.faults
class TestSchema:
    def test_missing_meta_detected(self, archive, tmp_path):
        path, _, _ = archive
        hurt = faults.schema_corrupt(path, tmp_path / "nometa.npz",
                                     drop_member="meta.npy")
        report = validate(hurt)
        assert KIND_SCHEMA in kinds(report)

    def test_missing_meta_is_unrecoverable(self, archive, tmp_path):
        path, _, _ = archive
        hurt = faults.schema_corrupt(path, tmp_path / "nometa.npz",
                                     drop_member="meta.npy")
        with pytest.raises(TraceFormatError) as err:
            recover_read(hurt)
        assert err.value.key == "meta"

    def test_bad_version_detected(self, archive, tmp_path):
        path, _, _ = archive
        hurt = faults.schema_corrupt(path, tmp_path / "badver.npz",
                                     bad_version=True)
        report = validate(hurt)
        assert KIND_SCHEMA in kinds(report)

    def test_missing_events_detected(self, archive, tmp_path):
        path, _, _ = archive
        hurt = faults.schema_corrupt(path, tmp_path / "noev.npz",
                                     drop_member="events.npy")
        report = validate(hurt)
        assert KIND_SCHEMA in kinds(report)
        assert report.n_events_ok == 0


class TestRecoverReadHealthy:
    def test_fast_path_no_findings(self, archive):
        path, ev, sid = archive
        events, meta, sample_id, findings = recover_read(path)
        assert findings == []
        assert np.array_equal(events, ev)
        assert np.array_equal(sample_id, sid)
        assert meta.module == "health-fixture"
