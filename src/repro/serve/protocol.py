"""Wire format of the streaming analysis service.

Every message — either direction — is one **frame**::

    +----------------+-----------------+------------------+
    | !II fixed part | header bytes    | payload bytes    |
    | (json_len,     | UTF-8 JSON      | raw array bytes  |
    |  payload_len)  | object          | (may be empty)   |
    +----------------+-----------------+------------------+

The 8-byte fixed part is two big-endian ``uint32`` lengths; the header
is a JSON object whose ``type`` field names the message; the payload
carries bulk binary data (event records, sample ids) *outside* the JSON
so arrays cross the socket as raw bytes, never base64.

Client requests: ``open``, ``append``, ``query``, ``close``, ``ping``,
``shutdown``. Server responses: ``ok``, ``result``, ``busy`` (the
load-shedding rejection — see :mod:`repro.serve.daemon`; it carries
``retry_ms``, the shed ``scope`` (``"session"`` or ``"global"``), and
``queue_depth``, the rejected session's queued-append count, so a
multi-session client can throttle exactly the stream that is backed
up), ``error``.

Event chunks travel as ``events.tobytes()`` (:data:`EVENT_DTYPE`,
little-endian packed records) followed by the optional ``int32`` sample
ids; the header records both lengths so the receiver can split and
validate the payload exactly (:func:`encode_chunk` /
:func:`decode_chunk`).

Frames are bounded: a peer advertising a header or payload larger than
:data:`MAX_FRAME_BYTES` is rejected with :class:`ProtocolError` *before* any
allocation, so a malicious or broken client cannot balloon the daemon.
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np

from repro.trace.event import EVENT_DTYPE

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "RETRY_MS",
    "ProtocolError",
    "pack_frame",
    "read_frame",
    "read_frame_sync",
    "write_frame_sync",
    "encode_chunk",
    "decode_chunk",
]

#: bumped when the frame layout or message schema changes; ``open``
#: carries it so mismatched peers fail fast with a clear error.
PROTOCOL_VERSION = 1

#: ceiling for one frame (header + payload). Large enough for a
#: multi-million-event append, small enough to bound a connection's
#: memory; both sides enforce it.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: the client backoff, in milliseconds, that every ``busy`` reply suggests
RETRY_MS = 50

_FIXED = struct.Struct("!II")


class ProtocolError(Exception):
    """A malformed, oversized, or out-of-contract frame."""


def pack_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one frame: fixed lengths + JSON header + payload."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _FIXED.pack(len(blob), len(payload)) + blob + payload


def _parse_fixed(fixed: bytes, max_bytes: int) -> tuple[int, int]:
    json_len, payload_len = _FIXED.unpack(fixed)
    if json_len == 0:
        raise ProtocolError("frame has an empty header")
    if json_len + payload_len > max_bytes:
        raise ProtocolError(
            f"frame of {json_len + payload_len:,} bytes exceeds the "
            f"{max_bytes:,}-byte limit"
        )
    return json_len, payload_len


def _parse_header(blob: bytes) -> dict:
    try:
        header = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as e:
        raise ProtocolError(f"unparsable frame header: {e}") from e
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError("frame header must be an object with a 'type' field")
    return header


async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> tuple[dict, bytes]:
    """Read one frame from an asyncio stream.

    Raises :class:`asyncio.IncompleteReadError` on a cleanly closed
    peer (zero bytes read) and :class:`ProtocolError` on garbage.
    """
    fixed = await reader.readexactly(_FIXED.size)
    json_len, payload_len = _parse_fixed(fixed, max_bytes)
    header = _parse_header(await reader.readexactly(json_len))
    payload = await reader.readexactly(payload_len) if payload_len else b""
    return header, payload


def _read_all(fp, n: int) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        got = fp.read(remaining)
        if not got:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} bytes)"
            )
        chunks.append(got)
        remaining -= len(got)
    return b"".join(chunks)


def read_frame_sync(fp, max_bytes: int = MAX_FRAME_BYTES) -> tuple[dict, bytes]:
    """Blocking :func:`read_frame` over a socket file object.

    Raises :class:`EOFError` when the peer closed before a frame began.
    """
    fixed = fp.read(_FIXED.size)
    if not fixed:
        raise EOFError("connection closed")
    if len(fixed) < _FIXED.size:
        fixed += _read_all(fp, _FIXED.size - len(fixed))
    json_len, payload_len = _parse_fixed(fixed, max_bytes)
    header = _parse_header(_read_all(fp, json_len))
    payload = _read_all(fp, payload_len) if payload_len else b""
    return header, payload


def write_frame_sync(fp, header: dict, payload: bytes = b"") -> None:
    """Blocking frame write (single buffered write + flush)."""
    fp.write(pack_frame(header, payload))
    fp.flush()


# -- event chunk encoding ------------------------------------------------------


def encode_chunk(
    events: np.ndarray, sample_id: np.ndarray | None
) -> tuple[dict, bytes]:
    """Header fields + payload bytes for one event chunk.

    The receiver reconstructs the arrays exactly: EVENT_DTYPE records
    first, then the optional ``int32`` sample ids.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"expected EVENT_DTYPE events, got {events.dtype}")
    payload = events.tobytes()
    fields = {"n_events": int(len(events)), "n_sid": None}
    if sample_id is not None:
        sample_id = np.ascontiguousarray(sample_id, dtype=np.int32)
        if len(sample_id) != len(events):
            raise ValueError("sample_id length must match events")
        fields["n_sid"] = int(len(sample_id))
        payload += sample_id.tobytes()
    return fields, payload


def decode_chunk(header: dict, payload: bytes) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverse of :func:`encode_chunk`; validates the payload geometry."""
    try:
        n_events = int(header["n_events"])
        n_sid = header.get("n_sid")
    except (KeyError, TypeError, ValueError) as e:
        raise ProtocolError(f"append header missing chunk geometry: {e}") from e
    if n_events < 0:
        raise ProtocolError(f"negative n_events: {n_events}")
    ev_bytes = n_events * EVENT_DTYPE.itemsize
    sid_bytes = 0 if n_sid is None else int(n_sid) * 4
    if n_sid is not None and int(n_sid) != n_events:
        raise ProtocolError(f"sample_id length {n_sid} != n_events {n_events}")
    if len(payload) != ev_bytes + sid_bytes:
        raise ProtocolError(
            f"payload holds {len(payload)} bytes, geometry implies "
            f"{ev_bytes + sid_bytes}"
        )
    events = np.frombuffer(payload[:ev_bytes], dtype=EVENT_DTYPE)
    sample_id = (
        None
        if n_sid is None
        else np.frombuffer(payload[ev_bytes:], dtype=np.int32)
    )
    return events, sample_id
