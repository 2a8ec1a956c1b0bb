"""Properties of the append-only archive writer over random chunk sequences.

:class:`~repro.trace.tracefile.TraceAppender` deflates each appended
chunk as its own segment and keeps the health CRCs running, so it never
rereads what it wrote. Whatever the chunk sequence — empty chunks,
chunks that cross :data:`HEALTH_CHUNK_EVENTS`, a chunk without sample
ids mid-stream, a rehydrate from disk followed by more appends — the
published archive must read back as the concatenation, carry the same
health record (hence the same content digest) as the arrays written in
one go, validate clean, hold the same uncompressed member bytes as
numpy's writer, and recover the same prefix as numpy's writer when it
is cut short.
"""

from __future__ import annotations

import sys
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro._util.crc import crc32_combine
from repro.core.artifacts import ArtifactStore
from repro.trace import health
from repro.trace.event import EVENT_DTYPE, LoadClass, make_events
from repro.trace.health import _scan_members
from repro.trace.tracefile import (
    HEALTH_CHUNK_EVENTS,
    TraceAppender,
    TraceMeta,
    _health_record,
    iter_trace_chunks,
    read_trace,
    read_trace_health,
    write_trace,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "_util"))
from savez_oracle import write_trace_savez  # noqa: E402

_META = TraceMeta(module="appender-props", period=1000, n_samples=0)
_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _events(n: int, seed: int) -> np.ndarray:
    """Deterministic, moderately compressible events."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 3, n)
    addr = np.where(
        kind == 0,
        0x1000_0000 + (np.arange(n) * 8) % 65536,
        0x2000_0000 + rng.integers(0, 4096, n) * 64,
    ).astype(np.uint64)
    return make_events(
        ip=0x40_0000 + kind * 4,
        addr=addr,
        cls=np.where(kind == 0, int(LoadClass.STRIDED), int(LoadClass.IRREGULAR)),
        fn=(kind % 2).astype(np.uint32),
    )


#: one chunk: (events, has sample ids); sizes include empty chunks and
#: chunks longer than one health step
_chunk = st.tuples(
    st.one_of(
        st.just(0),
        st.integers(1, 3000),
        st.integers(HEALTH_CHUNK_EVENTS - 2000, HEALTH_CHUNK_EVENTS + 2000),
    ),
    st.booleans() | st.just(True),
)
#: a step is a chunk or a rehydrate (publish, reread, continue appending)
_step = st.one_of(_chunk, st.just("rehydrate"))


def _run(path: Path, steps, seed: int):
    """Drive an appender through ``steps``; returns the expected arrays."""
    writer = TraceAppender(path, _META)
    all_ev, all_sid, sid_ok = [], [], True
    next_sid = 0
    for i, step in enumerate(steps):
        if step == "rehydrate":
            writer.publish()
            ev, meta, sid, _ = read_trace(path)
            writer = TraceAppender(path, meta)
            writer.append(ev, sid)
            continue
        n, has_sid = step
        ev = _events(n, seed + i)
        # samples of 100 events, continuing across chunks
        sid = (next_sid + np.arange(n) // 100).astype(np.int32) if has_sid else None
        next_sid += -(-n // 100)
        writer.append(ev, sid)
        all_ev.append(ev)
        all_sid.append(sid)
        sid_ok = sid_ok and has_sid
    writer.publish()
    events = np.concatenate(all_ev) if all_ev else np.empty(0, dtype=EVENT_DTYPE)
    sample_id = None
    if all_sid and sid_ok:
        sample_id = np.concatenate(all_sid).astype(np.int32)
    return writer, events, sample_id


def _total(steps) -> int:
    return sum(s[0] for s in steps if s != "rehydrate")


@_SETTINGS
@given(steps=st.lists(_step, min_size=1, max_size=6), seed=st.integers(0, 2**16))
def test_appended_archive_is_the_concatenation(tmp_path_factory, steps, seed):
    assume(_total(steps) <= 3 * HEALTH_CHUNK_EVENTS)
    assume(steps[0] != "rehydrate")
    d = tmp_path_factory.mktemp("append")
    path = d / "t.npz"
    writer, events, sample_id = _run(path, steps, seed)

    ev, _, sid, record = read_trace(path)
    assert np.array_equal(ev, events)
    assert (sid is None) == (sample_id is None)
    if sample_id is not None:
        assert np.array_equal(sid, sample_id)

    chunks = list(iter_trace_chunks(path, chunk_size=5000))
    streamed = np.concatenate([c[0] for c in chunks]) if chunks else ev[:0]
    assert np.array_equal(streamed, events)
    if sample_id is not None and chunks:
        assert np.array_equal(np.concatenate([c[1] for c in chunks]), sample_id)

    expect = _health_record(events, sample_id)
    assert read_trace_health(path) == expect
    assert record == expect
    assert writer.health == expect
    assert ArtifactStore.digest_health(read_trace_health(path)) == ArtifactStore.digest_health(
        _health_record(events, sample_id)
    )
    assert health.validate(path).ok

    # same members, same order, same uncompressed bytes as numpy's writer
    oracle = write_trace_savez(d / "oracle.npz", events, _META, sample_id)
    with zipfile.ZipFile(path) as new, zipfile.ZipFile(oracle) as old:
        assert new.namelist() == old.namelist()
        for name in old.namelist():
            assert new.read(name) == old.read(name), name


# -- truncation ---------------------------------------------------------------


def _member_span(blob: bytes, name: str) -> tuple[int, int]:
    """``(data start, data end)`` of a member in an intact archive."""
    import io

    with zipfile.ZipFile(io.BytesIO(blob)) as zf:
        info = zf.getinfo(name)
    off = info.header_offset
    n_name = int.from_bytes(blob[off + 26 : off + 28], "little")
    n_extra = int.from_bytes(blob[off + 28 : off + 30], "little")
    start = off + 30 + n_name + n_extra
    return start, start + info.compress_size


def _cut_for(blob: bytes, payload_bytes: int) -> int:
    """Shortest prefix of ``blob`` whose events member inflates to at
    least ``payload_bytes`` bytes (npy header included)."""
    lo, hi = _member_span(blob, "events.npy")

    def inflated(cut: int) -> int:
        return len(_scan_members(blob[:cut]).get("events.npy", (b"", False))[0])

    while lo < hi:
        mid = (lo + hi) // 2
        if inflated(mid) >= payload_bytes:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _recover(blob: bytes, cut: int, path: Path):
    path.write_bytes(blob[:cut])
    report = health.validate(path)
    events, meta, sid, _ = health.recover_read(path)
    kinds = sorted((f.kind, f.member or "", -1 if f.chunk is None else f.chunk)
                   for f in report.findings)
    return events, sid, meta, report.n_events_ok, kinds


def _write_both(d: Path, n_chunks: int, seed: int):
    """The same arrays written by appends and by numpy's writer."""
    n = n_chunks * 20_000 + 5_000
    events = _events(n, seed)
    sample_id = (np.arange(n) // 100).astype(np.int32)
    writer = TraceAppender(d / "new.npz", _META)
    for lo in range(0, n, 20_000):
        writer.append(events[lo : lo + 20_000], sample_id[lo : lo + 20_000])
    writer.publish()
    write_trace_savez(d / "old.npz", events, _META, sample_id)
    return (d / "new.npz").read_bytes(), (d / "old.npz").read_bytes(), events, sample_id


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(
    n_chunks=st.integers(4, 7),
    keep=st.floats(0.0, 1.0),
    frac=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**16),
)
# a cut inside the events member's npy header is still a truncation
@example(n_chunks=5, keep=0.0, frac=0.001, seed=0)
def test_truncation_recovers_the_same_prefix_as_numpy_writer(
    tmp_path_factory, n_chunks, keep, frac, seed
):
    d = tmp_path_factory.mktemp("trunc")
    new, old, events, sample_id = _write_both(d, n_chunks, seed)
    hdr = len(_scan_members(new)["events.npy"][0]) - events.nbytes
    step_bytes = HEALTH_CHUNK_EVENTS * EVENT_DTYPE.itemsize
    # a cut that leaves the same inflated events payload in both
    # archives: k whole health chunks plus part of the next, staying
    # clear of the next boundary by more than one input byte can inflate
    k = int(keep * (len(events) // HEALTH_CHUNK_EVENTS + 1))
    room = min(step_bytes, events.nbytes - k * step_bytes) - 4096
    assume(room > 0)
    want = hdr + k * step_bytes + int(frac * room)
    got_new = _recover(new, _cut_for(new, want), d / "cut-new.npz")
    got_old = _recover(old, _cut_for(old, want), d / "cut-old.npz")
    expect_n = min(k * HEALTH_CHUNK_EVENTS, len(events))
    for ev, sid, meta, n_ok, kinds in (got_new, got_old):
        assert n_ok == expect_n
        assert np.array_equal(ev, events[:n_ok])
        assert meta == _META
        assert all(kind == "truncation" for kind, _, _ in kinds)
    assert got_new[4] == got_old[4]

    # any cut at all recovers a verified, chunk-aligned prefix
    cut = int(frac * len(new))
    if cut >= _member_span(new, "events.npy")[0]:
        ev, sid, _, n_ok, kinds = _recover(new, cut, d / "cut-any.npz")
        assert n_ok % HEALTH_CHUNK_EVENTS == 0 or n_ok == len(events)
        assert np.array_equal(ev, events[:n_ok])
        if sid is not None:
            assert np.array_equal(sid, sample_id[:n_ok])
        assert all(kind == "truncation" for kind, _, _ in kinds)


@pytest.mark.parametrize("member", ["meta.npy", "health.npy", "events.npy", "sample_id.npy"])
def test_cut_at_a_member_end_recovers_as_numpy_writer(tmp_path, member):
    new, old, events, sample_id = _write_both(tmp_path, 4, 7)
    got = [
        _recover(blob, _member_span(blob, member)[1], tmp_path / f"{tag}.npz")
        for tag, blob in (("new", new), ("old", old))
    ]
    (ev_n, sid_n, _, ok_n, kinds_n), (ev_o, sid_o, _, ok_o, kinds_o) = got
    assert (ok_n, kinds_n) == (ok_o, kinds_o)
    assert np.array_equal(ev_n, ev_o)
    assert (sid_n is None) == (sid_o is None)
    if sid_n is not None:
        assert np.array_equal(sid_n, sid_o)


def test_cut_in_central_directory_recovers_everything(tmp_path):
    new, old, events, sample_id = _write_both(tmp_path, 4, 11)
    for tag, blob in (("new", new), ("old", old)):
        cut = _member_span(blob, "sample_id.npy")[1] + 10
        ev, sid, _, n_ok, kinds = _recover(blob, cut, tmp_path / f"{tag}.npz")
        assert n_ok == len(events)
        assert np.array_equal(ev, events) and np.array_equal(sid, sample_id)
        assert [k for k, _, _ in kinds] == ["truncation"]


# -- writer odds and ends -----------------------------------------------------


@given(a=st.binary(max_size=4096), b=st.binary(max_size=4096))
def test_crc32_combine_equals_crc_of_concatenation(a, b):
    assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)


def test_crc32_combine_over_long_lengths():
    a, b = b"memgaze", bytes(range(256)) * 40_000
    assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)


def test_one_shot_write_trace_is_one_append(tmp_path):
    events = _events(70_000, 3)
    sid = (np.arange(70_000) // 100).astype(np.int32)
    size = write_trace(tmp_path / "a", events, _META, sid)
    writer = TraceAppender(tmp_path / "b.npz", _META)
    writer.append(events, sid)
    assert writer.publish(atomic=False) == size
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_publish_leaves_no_temp_file_and_replaces_a_stale_one(tmp_path):
    stale = tmp_path / ".t.tmp.npz"
    stale.write_bytes(b"PK\x03\x04 half a zip")
    writer = TraceAppender(tmp_path / "t.npz", _META)
    writer.append(_events(10, 1), np.zeros(10, dtype=np.int32))
    writer.publish()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.npz"]


def test_append_rejects_bad_chunks_without_changing_the_trace(tmp_path):
    writer = TraceAppender(tmp_path / "t.npz", _META)
    writer.append(_events(10, 1), np.zeros(10, dtype=np.int32))
    with pytest.raises(TypeError):
        writer.append(np.zeros(3, dtype=np.int64), None)
    with pytest.raises(ValueError):
        writer.append(_events(3, 1), np.zeros(2, dtype=np.int32))
    assert writer.n_events == 10 and writer.has_sample_ids


def test_zip64_records_match_numpy_writer(tmp_path, monkeypatch):
    # shrink the zip64 threshold so a small archive takes every zip64
    # branch (member sizes, header offsets, end records) in both writers
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 1000)
    events = _events(5000, 5)
    sid = (np.arange(5000) // 100).astype(np.int32)
    write_trace(tmp_path / "new.npz", events, _META, sid)
    write_trace_savez(tmp_path / "old.npz", events, _META, sid)
    blobs = {tag: (tmp_path / f"{tag}.npz").read_bytes() for tag in ("new", "old")}
    for blob in blobs.values():
        assert zipfile.stringEndArchive64 in blob
    with zipfile.ZipFile(tmp_path / "new.npz") as new, zipfile.ZipFile(tmp_path / "old.npz") as old:
        for a, b in zip(new.infolist(), old.infolist(), strict=True):
            same = ("filename", "CRC", "file_size", "create_version",
                    "extract_version", "external_attr", "flag_bits")
            assert [getattr(a, f) for f in same] == [getattr(b, f) for f in same]
            assert new.read(a.filename) == old.read(b.filename)
    ev, _, got_sid, _ = read_trace(tmp_path / "new.npz")
    assert np.array_equal(ev, events) and np.array_equal(got_sid, sid)
