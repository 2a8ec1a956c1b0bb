"""Batched CRC32 over array chunk views, without intermediate copies.

The trace-health layer checksums archives in :data:`HEALTH_CHUNK_EVENTS`
sized chunks. The original sweep materialised every chunk with
``chunk.tobytes()`` before hashing — one full copy of the member per
audit. ``zlib.crc32`` accepts any C-contiguous buffer, so hashing a
zero-copy byte view of each chunk produces identical checksums while
touching the array bytes exactly once. :func:`crc32_chunks` is the one
shared sweep used by the archive writer, the health auditor, and the
streaming prefix-skip path, so all three stay bit-for-bit in agreement
about chunk geometry.

:func:`crc32_combine` joins two checksums without the bytes behind
them (zlib's ``crc32_combine``, which Python's ``zlib`` does not
expose): the append-only archive writer uses it to checksum a member
whose small header changes on every append while its bulk body only
grows.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["byte_view", "crc32_chunks", "crc32_combine", "crc32_of"]

#: the reflected CRC-32 polynomial ``zlib.crc32`` uses
_POLY = 0xEDB88320


def byte_view(arr: np.ndarray) -> memoryview:
    """Flat ``uint8`` view of a contiguous array's raw bytes (no copy)."""
    if not arr.flags.c_contiguous:
        # slices of archive members are always contiguous; anything else
        # (a strided caller view) must pay for one packed copy
        arr = np.ascontiguousarray(arr)
    return memoryview(arr).cast("B")


def crc32_of(arr: np.ndarray) -> int:
    """CRC32 of one array's raw bytes, equal to ``crc32(arr.tobytes())``."""
    return zlib.crc32(byte_view(arr))


def crc32_chunks(arr: np.ndarray, step: int, *, at_least_one: bool = False) -> list[int]:
    """Per-chunk CRC32s of ``arr`` in chunks of ``step`` records.

    Equivalent to ``[crc32(arr[i:i+step].tobytes()) for i in
    range(0, len(arr), step)]`` without the per-chunk copies. With
    ``at_least_one`` an empty array still yields one checksum (of zero
    bytes) — the archive health record's layout for empty traces, which
    content digests and cache keys depend on.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    n = len(arr)
    if n == 0:
        return [zlib.crc32(b"")] if at_least_one else []
    buf = byte_view(arr)
    item = arr.dtype.itemsize
    return [
        zlib.crc32(buf[lo * item : min(lo + step, n) * item])
        for lo in range(0, n, step)
    ]


def _multmodp(a: int, b: int) -> int:
    """``a * b`` modulo the CRC polynomial, in zlib's reflected bit order."""
    m = 1 << 31
    p = 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1


def _x2n_table() -> list[int]:
    """``x^(2^k)`` modulo the polynomial for k = 0..31."""
    table = []
    p = 1 << 30  # x^1
    for _ in range(32):
        table.append(p)
        p = _multmodp(p, p)
    return table


_X2N = _x2n_table()


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC32 of ``a + b`` from ``crc32(a)``, ``crc32(b)`` and ``len(b)``.

    A port of zlib's ``crc32_combine``: ``crc1`` is shifted past
    ``len2`` zero bytes (multiplied by ``x^(8*len2)``) and xored with
    ``crc2``, in O(log len2) polynomial products — the bytes themselves
    are never touched.
    """
    if len2 < 0:
        raise ValueError(f"len2 must be >= 0, got {len2}")
    # x^(8 * len2) = product of x^(2^k) over the set bits of len2, k >= 3
    p = 1 << 31  # x^0
    k = 3
    n = len2
    while n:
        if n & 1:
            p = _multmodp(_X2N[k & 31], p)
        n >>= 1
        k += 1
    return _multmodp(p, crc1) ^ crc2
