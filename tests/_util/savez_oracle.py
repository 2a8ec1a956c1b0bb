"""Reference archive writer: one ``np.savez_compressed`` call per archive.

The production writer (:class:`repro.trace.tracefile.TraceAppender`)
deflates every appended chunk as its own segment and lays the zip out
itself. This module keeps the writer it replaced — numpy's, which
deflates each member as a single stream — so tests can check that both
produce the same members with the same uncompressed bytes, and that a
damaged archive recovers the same prefix whichever wrote it.

Import it from a test after putting this directory on ``sys.path``::

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "_util"))
    from savez_oracle import write_trace_savez
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.trace.tracefile import TraceMeta, _health_record

__all__ = ["write_trace_savez"]


def write_trace_savez(path, events: np.ndarray, meta: TraceMeta, sample_id=None) -> Path:
    """Write ``events`` the way the archive writer did before segments."""
    if sample_id is not None:
        sample_id = np.asarray(sample_id, dtype=np.int32)
    health = _health_record(events, sample_id)
    arrays = {
        "meta": np.frombuffer(meta.to_json().encode("utf-8"), dtype=np.uint8),
        "health": np.frombuffer(json.dumps(health).encode("utf-8"), dtype=np.uint8),
        "events": events,
    }
    if sample_id is not None:
        arrays["sample_id"] = sample_id
    path = Path(path)
    np.savez_compressed(path, **arrays)
    return path
