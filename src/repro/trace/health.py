"""Trace-archive health: validation and best-effort partial recovery.

A production trace store sees damaged archives — copies cut short by a
full disk or a killed transfer (**truncation**), storage-level
corruption (**bit-flips**), and archives written by foreign or broken
tools (**schema** problems). :func:`~repro.trace.tracefile.write_trace`
embeds a ``health`` member (per-chunk CRC32 checksums over the raw
event bytes, chunk size
:data:`~repro.trace.tracefile.HEALTH_CHUNK_EVENTS`) precisely so damage
can be *localized* after the fact. This module consumes it:

* :func:`validate` — read-only audit of one archive. Returns a
  :class:`HealthReport` whose findings classify every problem as
  ``truncation`` / ``bit-flip`` / ``schema``; ``memgaze
  validate-trace`` is its CLI face.
* :func:`recover_read` — the degraded-mode loader, for an archive whose
  normal eager read failed: it audits the archive, drops event chunks
  whose checksums fail, and returns the intact prefix plus the findings,
  journaling one warning per problem instead of crashing the pipeline.

Truncation destroys the zip central directory, which lives at the *end*
of the file; ``zipfile``/``np.load`` then refuse the whole archive even
though the early members are intact. The audit therefore falls back to
a forward scan of zip local headers, and the archive writer puts the
small ``meta``/``health`` members *before* the bulk arrays — so a
tail-truncated file still identifies itself and salvages its event
prefix.

Recovery is *prefix* recovery by design: analyses assume events are in
retirement order, so data past the first damaged chunk is discarded
rather than spliced (a gap would silently corrupt reuse distances and
sample alignment).
"""

from __future__ import annotations

import io
import json
import struct
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro._util.crc import crc32_chunks
from repro.obs.handle import NULL_OBS, Obs
from repro.trace.event import EVENT_DTYPE
from repro.trace.tracefile import (
    TraceFormatError,
    TraceMeta,
    _archive_path,
    _parse_meta,
)

__all__ = ["Finding", "HealthReport", "validate", "recover_read"]

#: finding kinds, in rough severity order
KIND_TRUNCATION = "truncation"
KIND_BIT_FLIP = "bit-flip"
KIND_SCHEMA = "schema"


@dataclass
class Finding:
    """One detected problem in a trace archive."""

    kind: str  # "truncation" | "bit-flip" | "schema"
    detail: str
    member: str | None = None
    chunk: int | None = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "member": self.member,
            "chunk": self.chunk,
        }


@dataclass
class HealthReport:
    """Outcome of :func:`validate` for one archive."""

    path: str
    findings: list[Finding] = field(default_factory=list)
    has_health: bool = False  # archive carries the checksum member
    n_events_expected: int | None = None  # from the health record
    n_events_ok: int = 0  # events in the verified prefix

    @property
    def ok(self) -> bool:
        """True when no problem was found."""
        return not self.findings

    def add(self, kind: str, detail: str, **kw) -> None:
        """Record one finding."""
        self.findings.append(Finding(kind, detail, **kw))

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "has_health": self.has_health,
            "n_events_expected": self.n_events_expected,
            "n_events_ok": self.n_events_ok,
            "findings": [f.as_dict() for f in self.findings],
        }

    def render(self) -> str:
        """Human-readable summary."""
        lines = [f"== trace health: {self.path} =="]
        if self.ok:
            lines.append(f"  OK — {self.n_events_ok:,} events verified")
            if not self.has_health:
                lines.append(
                    "  (no checksum member: legacy archive, structural checks only)"
                )
            return "\n".join(lines)
        for f in self.findings:
            where = f" [{f.member}]" if f.member else ""
            at = f" chunk {f.chunk}" if f.chunk is not None else ""
            lines.append(f"  {f.kind.upper():<10}{where}{at}: {f.detail}")
        if self.n_events_expected is not None:
            lines.append(
                f"  recoverable prefix: {self.n_events_ok:,} of "
                f"{self.n_events_expected:,} events"
            )
        return "\n".join(lines)


# -- low-level sequential zip scan --------------------------------------------

_LOCAL_SIG = b"PK\x03\x04"
_LOCAL_HEADER = struct.Struct("<4s5H3I2H")


def _scan_members(blob: bytes) -> dict[str, tuple[bytes, bool]]:
    """Sequentially decode zip members by their local headers.

    A member's length is discovered by running its DEFLATE stream to
    the end marker rather than trusting the header (zip writers may
    defer sizes to a trailing data descriptor, general-purpose flag
    bit 3). Returns ``{name: (payload, complete)}``;
    ``complete`` is False when the stream ended prematurely — the
    partial payload is still returned.
    """
    out: dict[str, tuple[bytes, bool]] = {}
    pos = 0
    while True:
        pos = blob.find(_LOCAL_SIG, pos)
        if pos < 0 or pos + _LOCAL_HEADER.size > len(blob):
            break
        (_, _, _, method, _, _, _, csize, _, nlen, elen) = _LOCAL_HEADER.unpack(
            blob[pos : pos + _LOCAL_HEADER.size]
        )
        name_start = pos + _LOCAL_HEADER.size
        name = blob[name_start : name_start + nlen].decode("utf-8", "replace")
        data_start = name_start + nlen + elen
        if data_start > len(blob):
            break
        payload = io.BytesIO()
        complete = False
        if method == 0:  # stored
            end = min(data_start + csize, len(blob)) if csize else len(blob)
            payload.write(blob[data_start:end])
            complete = csize > 0 and data_start + csize <= len(blob)
            pos = end
        elif method == 8:  # deflate
            d = zlib.decompressobj(-15)
            cursor = data_start
            try:
                while cursor < len(blob) and not d.eof:
                    chunk = blob[cursor : cursor + (1 << 16)]
                    payload.write(d.decompress(chunk))
                    cursor += len(chunk)
                complete = d.eof
                # rewind past any bytes the decompressor did not consume
                cursor -= len(d.unused_data)
            except zlib.error:
                complete = False
            pos = max(cursor, data_start + 1)
        else:  # unknown method: skip the signature and rescan
            pos = data_start
            continue
        out[name] = (payload.getvalue(), complete)
    return out


_NPY_MAGIC = b"\x93NUMPY"


def _parse_npy(payload: bytes) -> tuple[np.dtype, int, bytes]:
    """Split a (possibly truncated) ``.npy`` payload into header + data.

    Returns ``(dtype, declared_length, data_bytes)``.
    """
    if not payload.startswith(_NPY_MAGIC):
        raise ValueError("not an npy payload")
    fp = io.BytesIO(payload)
    version = np.lib.format.read_magic(fp)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fp)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(fp)
    else:
        raise ValueError(f"unsupported npy version {version}")
    if len(shape) != 1 or fortran:
        raise ValueError("not a 1-D C-order array")
    return dtype, shape[0], payload[fp.tell() :]


# -- the audit pass ------------------------------------------------------------


@dataclass
class _Audit:
    """Everything one pass over a (possibly damaged) archive yields."""

    report: HealthReport
    meta: TraceMeta | None = None
    events: np.ndarray | None = None  # verified prefix
    sample_id: np.ndarray | None = None


def _read_members(
    blob: bytes, report: HealthReport
) -> tuple[dict[str, tuple[bytes, bool]], set[str]]:
    """Archive members, via the central directory or the forward scan.

    Returns ``(members, corrupt)`` where ``corrupt`` names members that
    failed zip-level integrity inside an *intact* directory — data
    corruption rather than a short file.
    """
    corrupt: set[str] = set()
    try:
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            members: dict[str, tuple[bytes, bool]] = {}
            scanned: dict[str, tuple[bytes, bool]] | None = None
            for name in zf.namelist():
                try:
                    members[name] = (zf.read(name), True)
                except (zipfile.BadZipFile, zlib.error) as e:
                    if scanned is None:
                        scanned = _scan_members(blob)
                    members[name] = (scanned.get(name, (b"", False))[0], False)
                    corrupt.add(name)
                    report.add(
                        KIND_BIT_FLIP,
                        f"member fails zip-level integrity: {e}",
                        member=name.removesuffix(".npy"),
                    )
            return members, corrupt
    except zipfile.BadZipFile:
        report.add(
            KIND_TRUNCATION,
            "zip central directory missing or unreadable (file cut short); "
            "recovered members by forward scan",
        )
        return _scan_members(blob), corrupt


def _load_health(members: dict, report: HealthReport) -> dict | None:
    if "health.npy" not in members:
        return None
    try:
        _, _, data = _parse_npy(members["health.npy"][0])
        health = json.loads(data.decode("utf-8"))
        for key in ("chunk_events", "n_events", "events_crc"):
            if key not in health:
                raise ValueError(f"missing {key!r}")
        report.has_health = True
        return health
    except (ValueError, UnicodeDecodeError) as e:
        report.add(KIND_SCHEMA, f"health member unreadable: {e}", member="health")
        return None


def _verified_prefix(
    data: bytes,
    health: dict | None,
    report: HealthReport,
    member_complete: bool,
    corrupt: bool = False,
) -> np.ndarray:
    """Whole events in ``data`` whose health chunk checksums verify.

    ``corrupt`` marks a member that failed zip integrity inside an
    intact archive, so dropped chunks classify as bit-flips even though
    the salvaged payload is short.
    """
    itemsize = EVENT_DTYPE.itemsize
    n_whole = len(data) // itemsize
    events = np.frombuffer(data[: n_whole * itemsize], dtype=EVENT_DTYPE)
    if health is None:
        if not member_complete:
            report.add(
                KIND_TRUNCATION,
                f"events member incomplete; keeping {n_whole:,} whole records "
                "(no checksums to verify against)",
                member="events",
            )
        report.n_events_ok = n_whole
        return events
    step = int(health["chunk_events"])
    n_expected = int(health["n_events"])
    report.n_events_expected = n_expected
    # one batched sweep over zero-copy chunk views; at_least_one matches
    # the writer's empty-trace record (a single checksum of zero bytes)
    n_avail = min(len(events), n_expected)
    got = crc32_chunks(events[:n_avail], step, at_least_one=True)
    keep = 0
    for i, crc in enumerate(health["events_crc"]):
        lo = i * step
        hi = min(lo + step, n_expected)
        avail = max(0, min(n_avail, hi) - lo)
        if avail < hi - lo:
            report.add(
                KIND_BIT_FLIP if corrupt else KIND_TRUNCATION,
                f"events chunk {i} is short ({avail:,} of {hi - lo:,} records)",
                member="events",
                chunk=i,
            )
            break
        if got[i] != int(crc):
            report.add(
                KIND_BIT_FLIP
                if (corrupt or member_complete)
                else KIND_TRUNCATION,
                f"events chunk {i} fails its checksum",
                member="events",
                chunk=i,
            )
            break
        keep = hi
    report.n_events_ok = keep
    return events[:keep]


def _audit_archive(path) -> _Audit:
    """One full pass: structural checks, metadata, verified event prefix."""
    actual = _archive_path(path)
    report = HealthReport(path=str(actual))
    audit = _Audit(report=report)
    try:
        blob = actual.read_bytes()
    except OSError as e:
        report.add(KIND_SCHEMA, f"unreadable file: {e}")
        return audit
    if not blob.startswith(_LOCAL_SIG):
        report.add(KIND_SCHEMA, "not a zip archive (bad signature)")
        return audit

    members, corrupt = _read_members(blob, report)

    for member in ("meta.npy", "events.npy"):
        if member not in members:
            report.add(
                KIND_SCHEMA,
                f"required member {member!r} absent",
                member=member.removesuffix(".npy"),
            )
    if "meta.npy" in members:
        try:
            _, _, data = _parse_npy(members["meta.npy"][0])
            audit.meta = _parse_meta(actual, data)
        except (ValueError, TraceFormatError) as e:
            report.add(KIND_SCHEMA, f"metadata unreadable: {e}", member="meta")

    health = _load_health(members, report)

    if "events.npy" in members:
        payload, complete = members["events.npy"]
        try:
            dtype, declared, data = _parse_npy(payload)
        except ValueError as e:
            # a member cut short inside its npy header is a truncation
            kind = KIND_SCHEMA if complete else KIND_TRUNCATION
            report.add(kind, f"events member unreadable: {e}", member="events")
            return audit
        if dtype != EVENT_DTYPE:
            report.add(
                KIND_SCHEMA,
                f"events have dtype {dtype}, not EVENT_DTYPE",
                member="events",
            )
            return audit
        if complete and len(data) < declared * dtype.itemsize:
            complete = False
            report.add(
                KIND_TRUNCATION,
                f"events member holds {len(data) // dtype.itemsize:,} of "
                f"{declared:,} declared records",
                member="events",
            )
        audit.events = _verified_prefix(
            data, health, report, complete, corrupt="events.npy" in corrupt
        )

    n_kept = 0 if audit.events is None else len(audit.events)
    if "sample_id.npy" in members:
        sid_payload, sid_complete = members["sample_id.npy"]
        try:
            sid_dtype, sid_len, sid_data = _parse_npy(sid_payload)
            sid = np.frombuffer(
                sid_data[: (len(sid_data) // sid_dtype.itemsize) * sid_dtype.itemsize],
                dtype=sid_dtype,
            )
            if len(sid) >= n_kept and (sid_complete or n_kept < sid_len):
                audit.sample_id = sid[:n_kept] if n_kept else sid[:0]
            if not sid_complete or len(sid) < sid_len:
                report.add(
                    KIND_TRUNCATION,
                    f"sample_id member holds {len(sid):,} of {sid_len:,} ids",
                    member="sample_id",
                )
        except ValueError as e:
            report.add(
                KIND_SCHEMA if sid_complete else KIND_TRUNCATION,
                f"sample_id member unreadable: {e}",
                member="sample_id",
            )
    elif report.findings and n_kept:
        # damage elsewhere may have consumed a sample_id the writer
        # stored; the prefix then analyzes as a single window
        report.add(
            KIND_TRUNCATION,
            "no sample_id member recovered; the event prefix analyzes as "
            "one window",
            member="sample_id",
        )
    return audit


# -- public API ---------------------------------------------------------------


def validate(path) -> HealthReport:
    """Audit one trace archive; classifies every problem found.

    Detects the three damage classes fault injection exercises:
    truncation (short members, missing central directory), bit-flips
    (checksum mismatches inside a structurally intact file), and schema
    corruption (missing members, unreadable or wrong-version metadata).
    """
    return _audit_archive(path).report


def recover_read(
    path, obs: Obs = NULL_OBS
) -> tuple[np.ndarray, TraceMeta, np.ndarray | None, list[Finding]]:
    """Best-effort load of a damaged archive: the verified event prefix.

    Runs the audit pass (the caller has already seen the eager read
    fail), drops corrupt tail chunks, and returns ``(events, meta,
    sample_id, findings)``; an intact archive comes back whole with no
    findings. Every finding is journaled through ``obs`` as a warning.
    Raises :class:`TraceFormatError` only when nothing usable survives
    (no readable metadata at all).
    """
    actual = _archive_path(path)
    audit = _audit_archive(actual)
    if audit.meta is None:
        raise TraceFormatError(
            actual, "meta", "unrecoverable archive: no readable metadata survives"
        )
    events = (
        audit.events if audit.events is not None else np.empty(0, dtype=EVENT_DTYPE)
    )
    findings = audit.report.findings
    for f in findings:
        obs.warning(
            f"trace recovery: {f.detail}",
            path=str(actual),
            kind=f.kind,
            member=f.member,
            chunk=f.chunk,
        )
    obs.emit(
        "trace-recovered",
        path=str(actual),
        n_events=len(events),
        n_expected=audit.report.n_events_expected,
        n_findings=len(findings),
    )
    return events, audit.meta, audit.sample_id, findings
