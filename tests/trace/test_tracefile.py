"""Tests for the on-disk trace format."""

import numpy as np
import pytest

from repro._util.rng import derive_rng
from repro.trace.event import make_events
from repro.trace.tracefile import (
    TraceFormatError,
    TraceMeta,
    iter_trace_chunks,
    packet_bytes,
    read_trace,
    read_trace_meta,
    write_trace,
)


@pytest.fixture
def events():
    return make_events(ip=[1, 2, 3], addr=[10, 20, 30], cls=[0, 1, 2], n_const=[0, 1, 2])


class TestRoundTrip:
    def test_events_roundtrip(self, tmp_path, events):
        meta = TraceMeta(module="m", period=100, buffer_capacity=8)
        size = write_trace(tmp_path / "t.npz", events, meta)
        assert size > 0
        back, meta2, sid, _ = read_trace(tmp_path / "t.npz")
        assert np.array_equal(back, events)
        assert meta2.module == "m"
        assert meta2.period == 100
        assert sid is None

    def test_sample_id_roundtrip(self, tmp_path, events):
        sid = np.array([0, 0, 1], dtype=np.int32)
        write_trace(tmp_path / "t.npz", events, TraceMeta(), sample_id=sid)
        _, _, sid2, _ = read_trace(tmp_path / "t.npz")
        assert np.array_equal(sid, sid2)

    def test_source_map_roundtrip(self, tmp_path, events):
        meta = TraceMeta(source_map={17: ("f", "file.c", 3)})
        write_trace(tmp_path / "t.npz", events, meta)
        _, meta2, _, _ = read_trace(tmp_path / "t.npz")
        assert meta2.source_map[17] == ("f", "file.c", 3)

    def test_extension_appended(self, tmp_path, events):
        size = write_trace(tmp_path / "noext", events, TraceMeta())
        assert (tmp_path / "noext.npz").exists()
        assert size == (tmp_path / "noext.npz").stat().st_size

    def test_sample_id_length_checked(self, tmp_path, events):
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.npz", events, TraceMeta(), sample_id=np.zeros(99, np.int32))

    def test_wrong_dtype_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_trace(tmp_path / "t.npz", np.zeros(4), TraceMeta())


def _big_trace(n=5000, n_samples=17, seed=0):
    rng = derive_rng(seed, "tracefile-big-trace")
    ev = make_events(
        ip=rng.integers(0, 30, n),
        addr=rng.integers(0, 1 << 16, n),
        cls=rng.choice([0, 1, 2], n).astype(np.uint8),
    )
    sid = np.sort(rng.integers(0, n_samples, n)).astype(np.int32)
    return ev, sid


class TestStreaming:
    def test_meta_only_read(self, tmp_path, events):
        write_trace(tmp_path / "t.npz", events, TraceMeta(module="x", period=7))
        meta = read_trace_meta(tmp_path / "t.npz")
        assert meta.module == "x" and meta.period == 7

    @pytest.mark.parametrize("chunk", [1, 37, 1000, 5000, 99_999])
    def test_chunks_reassemble_exactly(self, tmp_path, chunk):
        ev, sid = _big_trace()
        write_trace(tmp_path / "t.npz", ev, TraceMeta(), sample_id=sid)
        parts = list(iter_trace_chunks(tmp_path / "t.npz", chunk_size=chunk))
        assert np.array_equal(np.concatenate([e for e, _ in parts]), ev)
        assert np.array_equal(np.concatenate([s for _, s in parts]), sid)

    def test_chunks_are_sample_aligned(self, tmp_path):
        ev, sid = _big_trace()
        write_trace(tmp_path / "t.npz", ev, TraceMeta(), sample_id=sid)
        parts = list(iter_trace_chunks(tmp_path / "t.npz", chunk_size=200))
        assert len(parts) > 1
        for (_, s1), (_, s2) in zip(parts, parts[1:]):
            assert s1[-1] != s2[0]

    def test_one_giant_sample_is_one_chunk(self, tmp_path):
        ev, _ = _big_trace(1000)
        sid = np.zeros(1000, dtype=np.int32)
        write_trace(tmp_path / "t.npz", ev, TraceMeta(), sample_id=sid)
        parts = list(iter_trace_chunks(tmp_path / "t.npz", chunk_size=50))
        assert len(parts) == 1 and len(parts[0][0]) == 1000

    def test_no_sample_id_member(self, tmp_path):
        ev, _ = _big_trace(500)
        write_trace(tmp_path / "t.npz", ev, TraceMeta())
        parts = list(iter_trace_chunks(tmp_path / "t.npz", chunk_size=128))
        assert all(s is None for _, s in parts)
        assert np.array_equal(np.concatenate([e for e, _ in parts]), ev)

    def test_empty_trace(self, tmp_path):
        ev = make_events(ip=np.empty(0), addr=np.empty(0))
        write_trace(tmp_path / "t.npz", ev, TraceMeta())
        assert list(iter_trace_chunks(tmp_path / "t.npz", chunk_size=4)) == []

    def test_chunk_size_validated(self, tmp_path, events):
        write_trace(tmp_path / "t.npz", events, TraceMeta())
        with pytest.raises(ValueError):
            list(iter_trace_chunks(tmp_path / "t.npz", chunk_size=0))

    def test_extension_appended_like_write(self, tmp_path, events):
        write_trace(tmp_path / "noext", events, TraceMeta())
        parts = list(iter_trace_chunks(tmp_path / "noext", chunk_size=10))
        assert np.array_equal(parts[0][0], events)


def _archive_without(src, dst, member):
    """Rewrite ``src`` as ``dst`` with one member removed."""
    import zipfile

    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for name in zin.namelist():
            if name != member:
                zout.writestr(name, zin.read(name))
    return dst


class TestTraceFormatError:
    def test_missing_events_member_is_typed(self, tmp_path, events):
        write_trace(tmp_path / "t.npz", events, TraceMeta())
        bad = _archive_without(tmp_path / "t.npz", tmp_path / "bad.npz", "events.npy")
        with pytest.raises(TraceFormatError) as err:
            read_trace(bad)
        assert err.value.key == "events"
        assert str(bad) in str(err.value)

    def test_missing_meta_member_is_typed(self, tmp_path, events):
        write_trace(tmp_path / "t.npz", events, TraceMeta())
        bad = _archive_without(tmp_path / "t.npz", tmp_path / "bad.npz", "meta.npy")
        with pytest.raises(TraceFormatError) as err:
            read_trace(bad)
        assert err.value.key == "meta"

    def test_iter_chunks_missing_events_is_typed(self, tmp_path, events):
        """The old opaque KeyError is now a TraceFormatError with context."""
        write_trace(tmp_path / "t.npz", events, TraceMeta())
        bad = _archive_without(tmp_path / "t.npz", tmp_path / "bad.npz", "events.npy")
        with pytest.raises(TraceFormatError) as err:
            list(iter_trace_chunks(bad, chunk_size=10))
        assert err.value.key == "events"
        assert err.value.path == str(bad)

    def test_read_trace_meta_missing_member_is_typed(self, tmp_path, events):
        write_trace(tmp_path / "t.npz", events, TraceMeta())
        bad = _archive_without(tmp_path / "t.npz", tmp_path / "bad.npz", "meta.npy")
        with pytest.raises(TraceFormatError):
            read_trace_meta(bad)

    def test_is_an_exception_subclass(self):
        assert issubclass(TraceFormatError, Exception)


class TestHealthMember:
    def test_written_archives_carry_checksums(self, tmp_path):
        import json
        import zipfile
        import zlib

        ev, sid = _big_trace()
        write_trace(tmp_path / "t.npz", ev, TraceMeta(), sample_id=sid)
        with zipfile.ZipFile(tmp_path / "t.npz") as zf:
            names = zf.namelist()
            assert names.index("meta.npy") < names.index("events.npy")
            assert names.index("health.npy") < names.index("events.npy")
            health = json.loads(np.load(zf.open("health.npy")).tobytes())
        assert health["n_events"] == len(ev)
        assert health["events_crc"][0] == zlib.crc32(
            ev[: health["chunk_events"]].tobytes()
        )

    def test_metrics_instrument_chunked_reads(self, tmp_path):
        from repro.obs import MetricsRegistry, Obs

        ev, sid = _big_trace()
        write_trace(tmp_path / "t.npz", ev, TraceMeta(), sample_id=sid)
        metrics = MetricsRegistry()
        parts = list(
            iter_trace_chunks(tmp_path / "t.npz", chunk_size=1000, obs=Obs(metrics=metrics))
        )
        assert metrics.counter("trace.chunks_read").value == len(parts)
        assert metrics.counter("trace.events_read").value == len(ev)


class TestMetaJson:
    def test_version_checked(self):
        bad = TraceMeta().to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError):
            TraceMeta.from_json(bad)

    def test_extra_dict_roundtrips(self):
        meta = TraceMeta(extra={"spec": "str4", "opt": "O3"})
        assert TraceMeta.from_json(meta.to_json()).extra == meta.extra


class TestPacketBytes:
    def test_base_size(self, events):
        assert packet_bytes(events) == 8 * len(events)

    def test_two_reg_fraction(self, events):
        assert packet_bytes(events, two_reg_fraction=1.0) == 16 * len(events)

    def test_fraction_validated(self, events):
        with pytest.raises(ValueError):
            packet_bytes(events, two_reg_fraction=1.5)
