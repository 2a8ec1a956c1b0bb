"""Packed on-disk trace format.

Traces persist as compressed ``.npz`` archives: the event array, the
optional per-event sample ids, and a JSON metadata blob
(:class:`TraceMeta`) recording how the trace was collected — enough to
re-derive rho/kappa and to attribute ips to source lines offline. Table
III's size accounting uses both the in-memory packet model
(:func:`packet_bytes`) and real on-disk sizes.

Two read paths exist:

* :func:`read_trace` — eager, materializes the whole event array and
  reads the health record in the same open;
* :func:`iter_trace_chunks` — streaming: decompresses the archive
  members incrementally and yields sample-aligned chunks, so analysis
  (and the parallel engine's workers) never hold more than one chunk of
  a multi-GB trace in memory at a time. :func:`read_trace_meta` reads
  only the metadata member.

Malformed archives raise :class:`TraceFormatError` (which carries the
archive path and the offending member/key) instead of the raw
``KeyError``/``zipfile`` internals. Archives also carry a ``health``
member — per-chunk CRC32 checksums over the raw event bytes — that
:mod:`repro.trace.health` uses to localize truncation and bit-flip
damage and to recover the intact prefix. Archives without it (written
before the health layer) stay readable.

Member order is deliberate: the small ``meta`` and ``health`` members
come *before* the bulk ``events``/``sample_id`` arrays, so a
tail-truncated file (the common on-disk failure) still holds everything
needed to identify the trace and salvage its event prefix.

**One writer.** Every archive is written by :class:`TraceAppender`;
:func:`write_trace` is its one-shot use (one append, one publish). The
appender keeps each member's compressed body in memory, so appending a
chunk to a growing trace deflates and checksums only the chunk (a
publish still writes out the compressed bytes it holds). Each member is
a plain zip DEFLATE member whose raw-deflate stream is a chain of
segments::

    events.npy = [npy header][chunk 1][chunk 2]...[chunk k][final block]

* every chunk is deflated once, at the first publish after its append,
  as its own segment ended with ``Z_FULL_FLUSH`` — byte-aligned,
  non-final, and with no back-reference into an earlier segment, so
  segments concatenate into one valid stream (a trace adopted from its
  own archive and never published again is never deflated);
* the ``.npy`` header (whose shape grows) is re-deflated as the leading
  segment on every publish, and an empty final block ends the member;
* the member CRC32 joins the header's CRC to the running body CRC with
  :func:`~repro._util.crc.crc32_combine`, and the health record's
  per-chunk CRCs continue across appends — neither rereads the prefix;
* a publish writes local headers (zip64 size fields, as numpy's writer
  does), the segments, and the central directory to a temporary sibling
  and renames it into place, so readers never see a half-written zip.

Readers see an ordinary v1 ``.npz``: the same members in the same order
with the same uncompressed bytes as before, so the health record — and
the content digest keyed off it — depends on the arrays alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import zipfile
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro._util.crc import byte_view, crc32_chunks, crc32_combine, crc32_of
from repro.obs.handle import NULL_OBS, Obs
from repro.trace.event import EVENT_DTYPE

__all__ = [
    "TraceFormatError",
    "TraceMeta",
    "PrefixSkip",
    "TraceAppender",
    "write_trace",
    "read_trace",
    "read_trace_meta",
    "read_trace_health",
    "iter_trace_chunks",
    "packet_bytes",
]

_FORMAT_VERSION = 1
#: health schema version (independent of the trace format version so old
#: readers ignore it and old archives stay valid without it).
_HEALTH_VERSION = 1
#: events per checksum chunk in the health record.
HEALTH_CHUNK_EVENTS = 1 << 16


class TraceFormatError(Exception):
    """A trace archive is malformed: missing members, bad schema/version.

    Carries the archive ``path`` and the offending ``key`` (member or
    metadata field) so callers and the run journal can report what broke
    without parsing the message.
    """

    def __init__(self, path, key: str, detail: str) -> None:
        self.path = str(path)
        self.key = key
        super().__init__(f"{self.path}: {detail} (key: {key})")


@dataclass
class TraceMeta:
    """Collection metadata stored alongside the events."""

    module: str = "?"
    kind: str = "sampled"  # "sampled" | "full" | "oracle"
    period: int = 0
    buffer_capacity: int = 0
    n_loads_total: int = 0
    n_samples: int = 0
    n_dropped: int = 0
    source_map: dict[int, tuple[str, str, int]] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise to JSON."""
        d = asdict(self)
        d["source_map"] = {str(k): list(v) for k, v in self.source_map.items()}
        d["version"] = _FORMAT_VERSION
        return json.dumps(d)

    @classmethod
    def from_json(cls, text: str) -> "TraceMeta":
        """Parse metadata serialised by :meth:`to_json`."""
        raw = json.loads(text)
        version = raw.pop("version", _FORMAT_VERSION)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        raw["source_map"] = {
            int(k): (v[0], v[1], int(v[2]))
            for k, v in raw.get("source_map", {}).items()
        }
        return cls(**raw)


def _health_record(events: np.ndarray, sample_id: np.ndarray | None) -> dict:
    """Per-chunk CRC32 checksums over the raw array bytes.

    An empty trace still records one checksum per member (of zero
    bytes); content digests key off this record, so the empty-case
    layout must never change.
    """
    step = HEALTH_CHUNK_EVENTS
    return {
        "version": _HEALTH_VERSION,
        "chunk_events": step,
        "n_events": len(events),
        "events_crc": crc32_chunks(events, step, at_least_one=True),
        "sample_id_crc": None
        if sample_id is None
        else crc32_chunks(sample_id, step, at_least_one=True),
    }


#: zlib level of every deflated segment: ``zipfile``'s ZIP_DEFLATED default
_LEVEL = zlib.Z_DEFAULT_COMPRESSION
#: an empty final DEFLATE block — ends a member's segment chain
_FINAL_BLOCK = zlib.compressobj(_LEVEL, zlib.DEFLATED, -15).flush()


def _deflate(data, *, final: bool = False) -> bytes:
    """Raw DEFLATE of ``data`` as one self-contained segment.

    A non-final segment ends with a full flush: byte-aligned and
    referencing nothing outside itself, so it can be followed by any
    other segment.
    """
    c = zlib.compressobj(_LEVEL, zlib.DEFLATED, -15)
    return c.compress(data) + c.flush(zlib.Z_FINISH if final else zlib.Z_FULL_FLUSH)


def _npy_header(dtype: np.dtype, length: int) -> bytes:
    """The ``.npy`` header numpy writes for a 1-D C-order array."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf,
        {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False,
            "shape": (length,),
        },
    )
    return buf.getvalue()


class _Column:
    """One growing array member: deflated body segments plus running CRCs."""

    def __init__(self, name: str, dtype) -> None:
        self.name = name
        self.dtype = np.dtype(dtype)
        self.length = 0
        #: deflated segments; a chunk waits here as its array until the
        #: next publish deflates it
        self.body: list[bytes | np.ndarray] = []
        self.body_crc = 0
        #: health CRCs of the complete HEALTH_CHUNK_EVENTS steps, then the
        #: open step's running CRC and record count
        self._steps: list[int] = []
        self._open_crc = 0
        self._open_n = 0

    def append(self, arr: np.ndarray) -> None:
        if not len(arr):
            return
        self.body.append(arr)
        buf = byte_view(arr)
        # one CRC pass: each piece within a health step extends both the
        # step's CRC and the body CRC
        item, step, lo = self.dtype.itemsize, HEALTH_CHUNK_EVENTS, 0
        while lo < len(arr):
            take = min(step - self._open_n, len(arr) - lo)
            crc = zlib.crc32(buf[lo * item : (lo + take) * item])
            self._open_crc = crc32_combine(self._open_crc, crc, take * item)
            self.body_crc = crc32_combine(self.body_crc, crc, take * item)
            self._open_n += take
            lo += take
            if self._open_n == step:
                self._steps.append(self._open_crc)
                self._open_crc, self._open_n = 0, 0
        self.length += len(arr)

    def step_crcs(self) -> list[int]:
        """``crc32_chunks(array, HEALTH_CHUNK_EVENTS, at_least_one=True)``."""
        if self._open_n or not self._steps:
            return [*self._steps, self._open_crc]
        return list(self._steps)

    def member(self) -> tuple[list[bytes], int, int]:
        """``(segments, crc32, uncompressed size)`` of the whole member."""
        self.body = [s if isinstance(s, bytes) else _deflate(byte_view(s)) for s in self.body]
        header = _npy_header(self.dtype, self.length)
        nbytes = self.length * self.dtype.itemsize
        crc = crc32_combine(zlib.crc32(header), self.body_crc, nbytes)
        return [_deflate(header), *self.body, _FINAL_BLOCK], crc, len(header) + nbytes


def _blob_member(data: bytes) -> tuple[list[bytes], int, int]:
    """A small ``uint8`` member (``meta``/``health``), deflated whole."""
    raw = _npy_header(np.dtype(np.uint8), len(data)) + data
    return [_deflate(raw, final=True)], zlib.crc32(raw), len(raw)


def _zip_bytes(members: list[tuple[str, list[bytes], int, int]]) -> list[bytes]:
    """A zip archive of pre-deflated members, as ``zipfile`` would lay it out.

    Local headers carry zip64 size fields (numpy opens every member with
    ``force_zip64``); the central directory and end records switch to
    zip64 exactly when ``zipfile`` would.
    """
    parts: list[bytes] = []
    infos: list[zipfile.ZipInfo] = []
    offset = 0
    for name, segments, crc, size in members:
        info = zipfile.ZipInfo(name)
        info.compress_type = zipfile.ZIP_DEFLATED
        info.external_attr = 0o600 << 16
        info.CRC, info.file_size = crc, size
        info.compress_size = sum(len(s) for s in segments)
        info.header_offset = offset
        header = info.FileHeader(zip64=True)
        parts.append(header)
        parts.extend(segments)
        infos.append(info)
        offset += len(header) + info.compress_size
    start = offset
    limit = zipfile.ZIP64_LIMIT
    for info in infos:
        extra = []
        sizes = (info.file_size, info.compress_size)
        if max(sizes) > limit:
            extra += sizes
        header_offset = info.header_offset
        if header_offset > limit:
            extra.append(header_offset)
            header_offset = 0xFFFFFFFF
        version = info.create_version
        extra_data = b""
        if extra:
            extra_data = struct.pack(f"<HH{len(extra)}Q", 1, 8 * len(extra), *extra)
            version = max(version, zipfile.ZIP64_VERSION)
        file_size, compress_size = (0xFFFFFFFF,) * 2 if max(sizes) > limit else sizes
        name = info.filename.encode("ascii")
        parts.append(
            struct.pack(
                zipfile.structCentralDir, zipfile.stringCentralDir,
                version, info.create_system, version, info.reserved,
                info.flag_bits, info.compress_type, 0, 0x21,  # 1980-01-01 00:00
                info.CRC, compress_size, file_size,
                len(name), len(extra_data), 0, 0, info.internal_attr,
                info.external_attr, header_offset,
            )
            + name
            + extra_data
        )
        offset += len(parts[-1])
    count, size = len(infos), offset - start
    if count > zipfile.ZIP_FILECOUNT_LIMIT or max(start, size) > limit:
        parts.append(
            struct.pack(
                zipfile.structEndArchive64, zipfile.stringEndArchive64,
                44, 45, 45, 0, 0, count, count, size, start,
            )
            + struct.pack(
                zipfile.structEndArchive64Locator,
                zipfile.stringEndArchive64Locator, 0, offset, 1,
            )
        )
        count, size, start = min(count, 0xFFFF), min(size, 0xFFFFFFFF), min(start, 0xFFFFFFFF)
    parts.append(
        struct.pack(
            zipfile.structEndArchive, zipfile.stringEndArchive,
            0, 0, count, count, size, start, 0,
        )
    )
    return parts


def _archive_path(path) -> Path:
    """The archive's file name: numpy's ``.npz`` suffix rule."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


class TraceAppender:
    """The archive writer: append chunks, publish the archive.

    ``append`` extends the health CRCs over the new chunk; ``publish``
    deflates the chunks appended since the last publish (see the module
    docstring for the segment layout) and writes the archive of
    everything appended so far, re-deflating nothing else but the small
    ``.npy`` headers and the meta and health records. A trace that is
    rehydrated from disk is re-appended once, as one chunk, and costs
    no compression unless it is published again.

    The first append decides whether the archive stores sample ids; a
    later chunk without them degrades the archive to sid-less for good
    (the ``sample_id`` member is dropped and later ids are ignored).
    """

    def __init__(self, path, meta: TraceMeta) -> None:
        self.path = _archive_path(path)
        self._meta = meta.to_json().encode("utf-8")
        self._events = _Column("events.npy", EVENT_DTYPE)
        self._sids: _Column | None = None
        self._started = False

    @property
    def n_events(self) -> int:
        return self._events.length

    @property
    def has_sample_ids(self) -> bool:
        return self._sids is not None

    def append(self, events: np.ndarray, sample_id: np.ndarray | None = None) -> None:
        """Add one chunk; the archive on disk changes only on :meth:`publish`.

        The chunk is checksummed now and deflated by the next publish,
        which reads the arrays again: they must not change in between.
        """
        if events.dtype != EVENT_DTYPE:
            raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
        if sample_id is not None and len(sample_id) != len(events):
            raise ValueError("sample_id length must match events")
        if not self._started:
            self._started = True
            if sample_id is not None:
                self._sids = _Column("sample_id.npy", np.int32)
        if sample_id is None:
            self._sids = None
        elif self._sids is not None:
            self._sids.append(np.asarray(sample_id, dtype=np.int32))
        self._events.append(events)

    @property
    def health(self) -> dict:
        """The health record of the trace appended so far (no data reread)."""
        return {
            "version": _HEALTH_VERSION,
            "chunk_events": HEALTH_CHUNK_EVENTS,
            "n_events": self._events.length,
            "events_crc": self._events.step_crcs(),
            "sample_id_crc": None if self._sids is None else self._sids.step_crcs(),
        }

    def publish(self, *, atomic: bool = True) -> int:
        """Write the archive; returns its size in bytes.

        With ``atomic`` the archive is written to ``.<name>.tmp.npz``
        beside it and renamed into place, so a concurrent reader only
        ever sees a complete archive; a temp file left by a writer
        killed mid-publish is overwritten, and one from a failed write
        is removed.
        """
        health = json.dumps(self.health).encode("utf-8")
        members = [("meta.npy", *_blob_member(self._meta)), ("health.npy", *_blob_member(health))]
        members += [(c.name, *c.member()) for c in (self._events, self._sids) if c]
        parts = _zip_bytes(members)
        target = self.path
        if atomic:
            target = self.path.with_name(f".{self.path.stem}.tmp.npz")
        try:
            with open(target, "wb") as f:
                f.writelines(parts)
            if atomic:
                os.replace(target, self.path)
        except BaseException:
            if atomic:
                target.unlink(missing_ok=True)
            raise
        return sum(len(p) for p in parts)


def write_trace(
    path,
    events: np.ndarray,
    meta: TraceMeta,
    sample_id: np.ndarray | None = None,
    *,
    atomic: bool = False,
) -> int:
    """Write a trace archive; returns the on-disk size in bytes.

    The one-shot use of :class:`TraceAppender`. With ``atomic=True`` the
    archive is written to a temporary sibling and published with
    ``os.replace``, so a concurrent reader only ever sees a complete
    archive — never a half-written zip.
    """
    writer = TraceAppender(path, meta)
    writer.append(events, sample_id)
    return writer.publish(atomic=atomic)


@contextlib.contextmanager
def _damage_is_format_error(path, key: str):
    """Raise zip and DEFLATE damage met inside the block as :class:`TraceFormatError`."""
    try:
        yield
    except (zipfile.BadZipFile, zlib.error, EOFError) as e:
        raise TraceFormatError(path, key, f"damaged archive: {e}") from e


def _parse_meta(path, blob: bytes) -> TraceMeta:
    """Decode a ``meta`` member, mapping failures to TraceFormatError."""
    try:
        return TraceMeta.from_json(blob.decode("utf-8"))
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as e:
        raise TraceFormatError(path, "meta", f"unreadable trace metadata: {e}") from e


def _read_health(archive) -> dict | None:
    """The ``health`` record of an open archive, or None when unusable.

    The one parser behind :func:`read_trace` and
    :func:`read_trace_health`: a missing, damaged, unparsable or
    incomplete member gives ``None``, never an exception.
    """
    if "health" not in archive:
        return None
    try:
        record = json.loads(bytes(archive["health"]).decode("utf-8"))
    except (OSError, ValueError, zipfile.BadZipFile, zlib.error):
        return None
    if not isinstance(record, dict):
        return None
    required = {"version", "chunk_events", "n_events", "events_crc"}
    if not required <= set(record):
        return None
    return record


def read_trace(path) -> tuple[np.ndarray, TraceMeta, np.ndarray | None, dict | None]:
    """Read a trace archive: ``(events, meta, sample_id, health)``.

    ``health`` is the archive's health record (see
    :func:`read_trace_health`), read in the same open as the events, so
    it describes exactly the arrays returned even when a writer replaces
    the archive meanwhile. Raises :class:`TraceFormatError` when a
    required member is missing or the metadata does not parse.
    """
    # the file is opened here, not by np.load, which leaks it when the
    # zip directory does not parse
    with open(path, "rb") as fh, np.load(fh) as archive:
        for member in ("events", "meta"):
            if member not in archive:
                raise TraceFormatError(
                    path, member, f"archive is missing required member {member!r}"
                )
        events = archive["events"]
        meta = _parse_meta(path, bytes(archive["meta"]))
        sample_id = archive["sample_id"] if "sample_id" in archive else None
        health = _read_health(archive)
    if events.dtype != EVENT_DTYPE:
        raise TraceFormatError(
            path, "events", f"archive events have dtype {events.dtype}"
        )
    return events, meta, sample_id, health


def read_trace_meta(path) -> TraceMeta:
    """Read only the metadata member of a trace archive (cheap).

    A damaged archive (no zip directory, a member failing its CRC)
    raises :class:`TraceFormatError` naming it.
    """
    # the file is opened here, not by np.load, which leaks it when the
    # zip directory does not parse
    with _damage_is_format_error(path, "meta"), open(path, "rb") as fh, np.load(fh) as archive:
        if "meta" not in archive:
            raise TraceFormatError(
                path, "meta", "archive is missing required member 'meta'"
            )
        return _parse_meta(path, bytes(archive["meta"]))


def read_trace_health(path) -> dict | None:
    """Read an archive's ``health`` record (per-chunk CRCs), or None.

    Returns ``None`` — never raises — for archives written before the
    health layer, or whose health member is missing, unparsable, or
    incomplete. Callers (the analysis cache in
    :mod:`repro.core.artifacts`) treat ``None`` as "this trace cannot
    be content-addressed".
    """
    try:
        with open(path, "rb") as fh, np.load(fh) as archive:
            return _read_health(archive)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, zlib.error):
        return None


@dataclass
class PrefixSkip:
    """A request to skip — and checksum — the first ``n_events`` of a trace.

    Passed to :func:`iter_trace_chunks` for incremental re-analysis of
    an appended archive: the prefix that a previous run already analyzed
    is decompressed and *discarded*, but its bytes are CRC'd in the same
    :data:`HEALTH_CHUNK_EVENTS` steps :func:`write_trace` uses, filling
    ``events_crc`` / ``sample_id_crc`` / ``last_sample_id`` in place.
    The caller compares those against the stored trace state to prove
    the skipped bytes are exactly the trace it cached — a mismatch means
    the "extended" file was actually rewritten, and the caller falls
    back to a full scan.

    Skipping emits one ``chunk-skip`` journal line (not ``chunk-read``
    lines), so a run journal distinguishes rescanned chunks from
    verified-and-skipped ones.
    """

    n_events: int
    chunk_events: int = HEALTH_CHUNK_EVENTS
    events_crc: list = field(default_factory=list)
    sample_id_crc: list | None = None
    last_sample_id: int | None = None


class _MemberStream:
    """Incremental reader over one ``.npy`` member of an ``.npz`` archive.

    ``zipfile`` decompresses DEFLATE streams lazily, so reading N bytes
    touches only the compressed prefix that produces them — the array is
    never materialized whole.
    """

    def __init__(self, zf: zipfile.ZipFile, name: str, expect_dtype=None) -> None:
        self._fp = zf.open(name)
        version = np.lib.format.read_magic(self._fp)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(self._fp)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(self._fp)
        else:  # pragma: no cover - numpy always writes 1.0/2.0 here
            raise ValueError(f"unsupported npy version {version} in {name}")
        if len(shape) != 1 or fortran:
            raise ValueError(f"member {name} is not a 1-D C-order array")
        if expect_dtype is not None and dtype != expect_dtype:
            raise TypeError(f"member {name} has dtype {dtype}")
        self.dtype = dtype
        self.length = shape[0]
        self._remaining = shape[0]

    def read(self, n_items: int) -> np.ndarray:
        """Read up to ``n_items`` items; shorter only at end of member."""
        n_items = min(n_items, self._remaining)
        if n_items <= 0:
            return np.empty(0, dtype=self.dtype)
        want = n_items * self.dtype.itemsize
        buf = self._fp.read(want)
        if len(buf) != want:
            raise OSError(
                f"truncated archive member: wanted {want} bytes, got {len(buf)}"
            )
        self._remaining -= n_items
        return np.frombuffer(buf, dtype=self.dtype)

    def close(self) -> None:
        self._fp.close()


def _skip_prefix(
    ev_stream: "_MemberStream",
    sid_stream: "_MemberStream | None",
    skip: PrefixSkip,
    obs: Obs,
) -> None:
    """Discard ``skip.n_events`` from the streams, checksumming as it goes."""
    if skip.n_events <= 0:
        return
    step = skip.chunk_events
    if step <= 0:
        raise ValueError(f"chunk_events must be > 0, got {step}")
    skip.events_crc = []
    skip.sample_id_crc = [] if sid_stream is not None else None
    remaining = skip.n_events
    while remaining > 0:
        take = min(step, remaining)
        ev = ev_stream.read(take)
        if len(ev) < take:
            raise ValueError(
                f"cannot skip {skip.n_events} events: archive holds fewer"
            )
        skip.events_crc.append(crc32_of(ev))
        if sid_stream is not None:
            sid = sid_stream.read(take)
            if len(sid) < take:
                raise ValueError("sample_id member shorter than events member")
            skip.sample_id_crc.append(crc32_of(sid))
            skip.last_sample_id = int(sid[-1])
        remaining -= take
    obs.counter("trace.events_skipped").inc(skip.n_events)
    obs.emit("chunk-skip", n_events=skip.n_events)


def iter_trace_chunks(
    path,
    chunk_size: int = 1 << 20,
    *,
    obs: Obs = NULL_OBS,
    skip: PrefixSkip | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Yield ``(events, sample_id)`` chunks of a trace archive, streaming.

    Chunks hold about ``chunk_size`` events. With a stored ``sample_id``,
    a sample is never split across two chunks: the trailing run of the
    last sample id is carried into the next chunk, so per-chunk
    intra-sample analyses (reuse distances, boundaries) see exactly what
    a whole-trace pass would.

    A missing ``events`` member raises :class:`TraceFormatError` naming
    the archive and the member, instead of ``zipfile``'s bare
    ``KeyError``; so does zip or DEFLATE damage met while streaming (a
    member failing its CRC, a corrupt compressed stream). Through
    ``obs`` (a :class:`~repro.obs.Obs`) it counts chunks, events, and
    decompressed bytes read under
    ``trace.chunks_read`` / ``trace.events_read`` /
    ``trace.bytes_read`` and journals one ``chunk-read`` line per chunk
    (with ``n_events`` and ``nbytes``), so the journal proves how many times
    the trace was actually read — a fused multi-pass analysis shows one
    line per chunk, not chunks x passes — and how many bytes each
    zero-copy publish will move (see ``docs/performance.md``).

    With a :class:`PrefixSkip`, the first ``skip.n_events`` events are
    decompressed, checksummed into ``skip``, and discarded before the
    first chunk is yielded (one ``chunk-skip`` journal line, counted
    under ``trace.events_skipped`` — not as chunks read). Yielding then
    continues from the skip point, so an appended archive's new tail
    streams without re-analyzing its cached prefix.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
    actual = _archive_path(path)
    with _damage_is_format_error(actual, "events"), zipfile.ZipFile(actual) as zf:
        names = set(zf.namelist())
        if "events.npy" not in names:
            raise TraceFormatError(
                actual, "events", "archive is missing required member 'events'"
            )
        ev_stream = _MemberStream(zf, "events.npy", EVENT_DTYPE)
        sid_stream = (
            _MemberStream(zf, "sample_id.npy") if "sample_id.npy" in names else None
        )
        try:
            if skip is not None:
                _skip_prefix(ev_stream, sid_stream, skip, obs)
            carry_ev = np.empty(0, dtype=ev_stream.dtype)
            carry_sid = (
                np.empty(0, dtype=sid_stream.dtype) if sid_stream is not None else None
            )
            while True:
                ev = ev_stream.read(chunk_size)
                sid = sid_stream.read(chunk_size) if sid_stream is not None else None
                done = len(ev) < chunk_size
                if len(carry_ev):
                    ev = np.concatenate([carry_ev, ev])
                    if sid is not None:
                        sid = np.concatenate([carry_sid, sid])
                    carry_ev = carry_ev[:0]
                if len(ev) == 0:
                    break
                if sid is not None and not done:
                    # hold back the trailing run of the last sample id —
                    # the next chunk may continue that sample
                    cut = int(np.searchsorted(sid, sid[-1], side="left"))
                    if cut == 0:
                        # one giant sample fills the chunk: keep growing it
                        carry_ev, carry_sid = ev, sid
                        continue
                    carry_ev, carry_sid = ev[cut:], sid[cut:]
                    ev, sid = ev[:cut], sid[:cut]
                nbytes = ev.nbytes + (sid.nbytes if sid is not None else 0)
                obs.counter("trace.chunks_read").inc()
                obs.counter("trace.events_read").inc(len(ev))
                obs.counter("trace.bytes_read").inc(nbytes)
                obs.emit("chunk-read", n_events=len(ev), nbytes=nbytes)
                yield ev, sid
                if done:
                    break
        finally:
            ev_stream.close()
            if sid_stream is not None:
                sid_stream.close()


def packet_bytes(events: np.ndarray, *, two_reg_fraction: float = 0.0) -> int:
    """Raw PT payload bytes a trace's records occupy (8 B per ptwrite).

    Loads with two source registers emit two packets (paper SS:VI-C);
    ``two_reg_fraction`` is the fraction of records that do.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    if not 0.0 <= two_reg_fraction <= 1.0:
        raise ValueError(f"two_reg_fraction must be in [0,1], got {two_reg_fraction}")
    n = len(events)
    return int(round(8 * n * (1.0 + two_reg_fraction)))
