"""Persistent content-addressed store for analysis-pass results.

The pass framework made one scan compute every metric; this layer makes
the *second* run of that scan free. Results persist across processes in
a :class:`~repro._util.diskcache.DiskCache`, addressed by **what was
analyzed and how** — never by path or mtime:

``trace digest``
    SHA-256 over the trace's ``health`` record — the per-chunk CRC32s
    that :func:`repro.trace.tracefile.write_trace` embeds (event bytes,
    sample-id bytes, counts, chunk geometry). The record is the one key
    type: an archive carries it, :func:`~repro.trace.tracefile.read_trace`
    returns it with the arrays it describes, and a writer or
    :func:`~repro.trace.tracefile._health_record` builds it for arrays
    in memory, so the eager and streamed analysis paths address
    identical entries. Two traces with the same events and sample ids
    share a digest wherever they live; touching a single event changes
    it.

``pass name + frozen params``
    The resolved request, hashed through :func:`freeze_params`, so an
    ``ndarray`` parameter (heatmap ``t_edges``) keys by its bytes.

``schema version``
    :data:`SCHEMA_VERSION` is folded into every key. Bumping it when a
    partial's layout changes orphans old entries (the size-bounded LRU
    reclaims them) instead of unpickling stale shapes.

Two granularities are stored:

* **whole-trace partials** — the merged (unfinalized) partial of a pass
  over the full trace. Finalization is cheap and deterministic, so
  re-finalizing a cached partial is bit-identical to recomputation —
  the same equivalence contract the merge operators honor.
* **trace states** — a small record of a trace's health CRCs and last
  sample id. When a new archive's CRC list *extends* a stored state's
  (same prefix, new chunks appended), the engine scans only the tail
  and merges against the cached prefix partials: incremental
  re-analysis (:meth:`ArtifactStore.prefix_states`).

Unfinalized partials are stored (not finalized results) because they
merge: the same entry serves an exact re-run *and* the prefix of an
extended trace.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro._util.diskcache import MISS, DiskCache
from repro.obs.handle import NULL_OBS, Obs

__all__ = ["MISS", "SCHEMA_VERSION", "freeze_params", "ArtifactStore"]

#: Bump when a partial's pickle layout or a pass's partial semantics
#: change: every key embeds it, so old entries become unreachable.
SCHEMA_VERSION = 1

#: Default size bound for CLI-managed caches (512 MiB).
DEFAULT_MAX_BYTES = 512 * 1024 * 1024


def freeze_params(value):
    """A hashable, deterministic key form of a pass parameter value.

    The on-disk key material: dicts sort, sequences become tuples,
    ndarrays key by dtype/shape/bytes. ``repr`` of the result is stable
    across processes.
    """
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return tuple(sorted((k, freeze_params(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze_params(v) for v in value)
    return value


def _canonical_health(health: dict) -> dict | None:
    """The digest-relevant subset of a health record, or None if unusable."""
    try:
        out = {
            "version": int(health["version"]),
            "chunk_events": int(health["chunk_events"]),
            "n_events": int(health["n_events"]),
            "events_crc": [int(c) for c in health["events_crc"]],
            "sample_id_crc": None
            if health.get("sample_id_crc") is None
            else [int(c) for c in health["sample_id_crc"]],
        }
    except (KeyError, TypeError, ValueError):
        return None
    return out


class ArtifactStore:
    """Content-addressed persistence for merged pass partials.

    A thin key-discipline layer over :class:`DiskCache`: it owns the
    naming scheme (``partial-<digest>-<keyhash>`` / ``state-<digest>``)
    and the prefix-matching logic for incremental re-analysis. All
    durability properties (atomic writes, corruption-as-miss, LRU
    eviction) come from the cache underneath.
    """

    def __init__(
        self,
        root,
        *,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        obs: Obs = NULL_OBS,
    ) -> None:
        self.cache = DiskCache(root, max_bytes=max_bytes, obs=obs)

    # -- digests --------------------------------------------------------------

    @staticmethod
    def digest_health(health: dict) -> str | None:
        """SHA-256 hex digest of a health record's canonical content."""
        canon = _canonical_health(health)
        if canon is None:
            return None
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- whole-trace partials -------------------------------------------------

    @staticmethod
    def _partial_name(digest: str, pass_name: str, params: dict) -> str:
        material = repr((SCHEMA_VERSION, pass_name, freeze_params(params)))
        key = hashlib.sha256(material.encode("utf-8")).hexdigest()
        return f"partial-{digest[:32]}-{key[:32]}"

    def get_partial(self, digest: str, pass_name: str, params: dict):
        """The merged whole-trace partial for a pass, or :data:`MISS`."""
        return self.cache.get(self._partial_name(digest, pass_name, params))

    def put_partial(self, digest: str, pass_name: str, params: dict, partial) -> None:
        """Persist a merged whole-trace partial."""
        self.cache.put(self._partial_name(digest, pass_name, params), partial)

    def batch(self):
        """A block whose puts share one eviction pass (:meth:`DiskCache.batch`)."""
        return self.cache.batch()

    # -- trace states (incremental append) ------------------------------------

    def put_state(
        self, digest: str, health: dict, last_sample_id: int | None
    ) -> None:
        """Record a trace's CRC fingerprint for future prefix matching."""
        canon = _canonical_health(health)
        if canon is None:
            return
        state = dict(canon)
        state["schema"] = SCHEMA_VERSION
        state["digest"] = digest
        state["last_sample_id"] = (
            None if last_sample_id is None else int(last_sample_id)
        )
        self.cache.put(f"state-{digest[:32]}", state)

    def get_state(self, digest: str) -> dict | None:
        """The stored trace state for an exact digest, or ``None``.

        Cheaper than :meth:`find_prefix_state` when the caller already
        knows the digest it wants. Nothing in the package calls it; the
        perfbench layer probes name it.
        """
        state = self.cache.get(f"state-{digest[:32]}")
        if state is MISS or not isinstance(state, dict):
            return None
        if state.get("schema") != SCHEMA_VERSION or state.get("digest") != digest:
            return None
        return state

    def find_prefix_state(self, health: dict) -> dict | None:
        """The longest of :meth:`prefix_states`, or ``None``."""
        states = self.prefix_states(health)
        return states[0] if states else None

    def prefix_states(self, health: dict) -> list[dict]:
        """Stored trace states that may be strict prefixes of ``health``, longest first.

        A candidate matches when its chunk geometry agrees, both traces
        carry sample ids (reuse windows need sample boundaries to make
        an appended tail mergeable), and every *complete* CRC chunk of
        the candidate equals the new trace's. The candidate's final CRC
        may cover a partial chunk whose bytes the new record checksums
        differently (they now sit inside a larger chunk) — that last
        span is verified during the skip scan instead
        (:class:`repro.trace.tracefile.PrefixSkip`). Below one complete
        CRC chunk every shorter state matches, so an unrelated longer
        state can come before the real prefix: callers try candidates in
        order until one verifies.
        """
        target = _canonical_health(health)
        if target is None or target["sample_id_crc"] is None:
            return []
        found = []
        for name in self.cache.names("state-"):
            state = self.cache.get(name)
            if state is MISS or not isinstance(state, dict):
                continue
            if state.get("schema") == SCHEMA_VERSION and self._is_prefix(state, target):
                found.append(state)
        # longest first; the digest breaks ties so the order is stable
        found.sort(key=lambda s: (-int(s["n_events"]), str(s.get("digest"))))
        return found

    @staticmethod
    def _is_prefix(state: dict, target: dict) -> bool:
        try:
            if state["chunk_events"] != target["chunk_events"]:
                return False
            n, chunk = int(state["n_events"]), int(target["chunk_events"])
            if not 0 < n < target["n_events"]:
                return False
            ev_crc, sid_crc = state["events_crc"], state["sample_id_crc"]
            if sid_crc is None or state.get("last_sample_id") is None:
                return False
            # the final CRC spans a partial chunk unless n divides evenly;
            # compare only the chunks both records checksummed identically
            k = len(ev_crc) if n % chunk == 0 else len(ev_crc) - 1
            return (
                len(ev_crc) == len(sid_crc)
                and ev_crc[:k] == target["events_crc"][: k]
                and sid_crc[:k] == target["sample_id_crc"][: k]
            )
        except (KeyError, TypeError, ValueError):
            return False

    # -- maintenance passthrough ----------------------------------------------

    def stats(self) -> dict:
        """Cache totals and session counters (see :meth:`DiskCache.stats`)."""
        return self.cache.stats()

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries down to ``max_bytes``."""
        return self.cache.prune(max_bytes)

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        return self.cache.clear()
