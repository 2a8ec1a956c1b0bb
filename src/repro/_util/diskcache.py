"""A small persistent on-disk cache with atomic writes and LRU eviction.

One entry per file under a root directory: ``<name>.mgc`` holding a
4-byte magic, a CRC32 of the payload, and the pickled value. The layer
is deliberately dumb — it knows nothing about traces or passes; the
content-addressed key discipline lives in
:mod:`repro.core.artifacts`. What it does guarantee:

* **atomic publication** — ``put`` writes to a temp file in the same
  directory and ``os.replace``\\ s it into place, so a concurrent reader
  sees either the old entry, the new entry, or a miss — never a torn
  file, even with several processes sharing one cache directory;
* **corruption tolerance** — ``get`` verifies the magic and the CRC
  before unpickling; any damage (bit flips, truncation, a foreign
  file) is a counted-and-journaled miss and the damaged file is
  removed, never an exception;
* **bounded size** — with ``max_bytes`` set, ``put`` evicts the
  least-recently-*used* entries (``get`` refreshes an entry's mtime)
  until the cache fits; inside a :meth:`DiskCache.batch` block the
  puts share one eviction pass at the block's end. A reader racing an
  eviction simply misses.

Misses return the module-level :data:`MISS` sentinel — entries may
legitimately hold falsy values (empty arrays, zero counts), so ``None``
cannot signal absence.

Hits, misses, stores, evictions, corrupt entries and byte volumes are
reported through the ``obs`` handle (:class:`repro.obs.Obs`): journal
lines, and counters under ``cache.*`` (see ``docs/caching.md`` for the
catalog).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import re
import struct
import tempfile
import zlib
from pathlib import Path

from repro.obs.handle import NULL_OBS, Obs

__all__ = ["MISS", "DiskCache"]

#: Sentinel returned by :meth:`DiskCache.get` when an entry is absent or
#: damaged (cached values may be falsy, so ``None`` cannot mean "miss").
MISS = object()

_MAGIC = b"MGC1"
_SUFFIX = ".mgc"
_TMP_PREFIX = ".tmp-"
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class DiskCache:
    """A directory of named, checksummed, pickled entries.

    ``max_bytes=None`` disables eviction. The directory is created
    lazily on the first ``put``; ``get``/``names``/``stats`` on a
    missing directory behave as an empty cache.
    """

    def __init__(
        self,
        root,
        *,
        max_bytes: int | None = None,
        obs: Obs = NULL_OBS,
    ) -> None:
        self.root = Path(root)
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self.obs = obs
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0
        #: open :meth:`batch` blocks, and whether a put inside them stored
        self._batches = 0
        self._batch_stored = False

    # -- accounting -----------------------------------------------------------

    def _count(self, counter: str, n: int = 1) -> None:
        self.obs.counter(f"cache.{counter}").inc(n)

    def _miss(self, name: str, reason: str) -> None:
        self.misses += 1
        self._count("misses")
        self.obs.emit("cache", op="miss", name=name, reason=reason)

    # -- entry paths ----------------------------------------------------------

    def _path(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid cache entry name {name!r}")
        return self.root / (name + _SUFFIX)

    def names(self, prefix: str = "") -> list[str]:
        """Entry names currently on disk (sorted), optionally filtered."""
        try:
            found = [
                p.name[: -len(_SUFFIX)]
                for p in self.root.iterdir()
                if p.name.endswith(_SUFFIX) and not p.name.startswith(_TMP_PREFIX)
            ]
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(n for n in found if n.startswith(prefix))

    # -- read / write ---------------------------------------------------------

    def get(self, name: str):
        """The stored value, or :data:`MISS`. Damage is a journaled miss."""
        path = self._path(name)
        try:
            blob = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            self._miss(name, "absent")
            return MISS
        except OSError:
            self._miss(name, "unreadable")
            return MISS
        if len(blob) < 8 or blob[:4] != _MAGIC:
            return self._drop_corrupt(name, path, "bad header")
        (crc,) = struct.unpack("<I", blob[4:8])
        body = blob[8:]
        if zlib.crc32(body) != crc:
            return self._drop_corrupt(name, path, "checksum mismatch")
        try:
            value = pickle.loads(body)
        except Exception as exc:  # damaged pickle stream
            return self._drop_corrupt(name, path, f"unpicklable: {type(exc).__name__}")
        try:  # refresh recency for mtime-LRU eviction
            os.utime(path)
        except OSError:
            pass  # evicted between read and touch: the value is still good
        self.hits += 1
        self._count("hits")
        self._count("bytes_read", len(blob))
        self.obs.emit("cache", op="hit", name=name, bytes=len(blob))
        return value

    def _drop_corrupt(self, name: str, path: Path, detail: str):
        """A damaged entry: journal it, remove it, report a miss."""
        self.corrupt += 1
        self._count("corrupt")
        self.obs.warning(
            f"corrupt cache entry dropped: {detail}", name=name, path=str(path)
        )
        try:
            path.unlink()
        except OSError:
            pass
        self._miss(name, "corrupt")
        return MISS

    def put(self, name: str, value) -> None:
        """Store ``value`` under ``name`` atomically, then evict if over budget.

        Inside a :meth:`batch` block the eviction waits for the block's end.
        """
        path = self._path(name)
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + struct.pack("<I", zlib.crc32(body)) + body
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=_TMP_PREFIX, suffix=_SUFFIX, dir=self.root)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        self._count("stores")
        self._count("bytes_written", len(blob))
        self.obs.emit("cache", op="store", name=name, bytes=len(blob))
        if self._batches:
            self._batch_stored = True
        elif self.max_bytes is not None:
            self._evict(self.max_bytes)

    @contextlib.contextmanager
    def batch(self):
        """Defer the eviction of the puts inside the block to one pass at its end.

        Each eviction lists and stats the whole directory, so a caller
        storing several entries at once pays for one listing, not one
        per entry. The pass runs even when the block raises, as long as
        something was stored; blocks nest, and only the outermost evicts.
        """
        self._batches += 1
        try:
            yield
        finally:
            self._batches -= 1
            if not self._batches and self._batch_stored:
                self._batch_stored = False
                if self.max_bytes is not None:
                    self._evict(self.max_bytes)

    def delete(self, name: str) -> bool:
        """Remove one entry; True when a file was actually removed."""
        try:
            self._path(name).unlink()
            return True
        except OSError:
            return False

    # -- maintenance ----------------------------------------------------------

    def _listing(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) of every entry file, oldest first.

        One ``os.scandir`` pass; each entry's ``stat`` comes from its
        ``DirEntry`` (no ``Path`` per entry).
        """
        rows: list[tuple[float, int, str]] = []
        try:
            with os.scandir(self.root) as it:
                for entry in it:
                    if not entry.name.endswith(_SUFFIX):
                        continue
                    try:
                        st = entry.stat()
                    except OSError:
                        continue  # removed by a concurrent evictor
                    rows.append((st.st_mtime, st.st_size, entry.path))
        except (FileNotFoundError, NotADirectoryError):
            return rows
        rows.sort()
        return rows

    def _evict(self, max_bytes: int) -> int:
        """Remove least-recently-used entries until the cache fits."""
        rows = self._listing()
        total = sum(size for _, size, _ in rows)
        removed = 0
        for _, size, path in rows:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # lost the race to another evictor: already gone
            total -= size
            removed += 1
        if removed:
            self.evictions += removed
            self._count("evictions", removed)
            self.obs.emit("cache", op="evict", n_entries=removed, bytes_kept=total)
        return removed

    def prune(self, max_bytes: int) -> int:
        """Explicitly evict down to ``max_bytes``; returns entries removed."""
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        return self._evict(max_bytes)

    def clear(self) -> int:
        """Remove every entry (and stale temp files); returns entries removed."""
        removed = 0
        try:
            entries = list(self.root.iterdir())
        except (FileNotFoundError, NotADirectoryError):
            return 0
        for p in entries:
            if not p.name.endswith(_SUFFIX):
                continue
            try:
                p.unlink()
            except OSError:
                continue
            if not p.name.startswith(_TMP_PREFIX):
                removed += 1
        return removed

    def stats(self) -> dict:
        """On-disk totals plus this process's session counters."""
        rows = self._listing()
        return {
            "root": str(self.root),
            "entries": len(rows),
            "bytes": sum(size for _, size, _ in rows),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }
