"""Performance: a serve ingest costs its tail plus the trace's footprint.

Every ``append`` to a serve session deflates only the new chunk
(:class:`~repro.trace.tracefile.TraceAppender`), publishes the archive
from the compressed segments it already holds, and scans only the
appended tail. What the ingest still does in proportion to something
other than the tail is merge the tail into the whole-trace partials and
write them back to the analysis store: the footprint passes hold the
set of distinct blocks touched so far, so that work is O(footprint). A
serve ingest is therefore O(tail) exactly when the program's footprint
is bounded, and O(tail + footprint) otherwise.

This bench times ``ServeSession.ingest`` of one sample-aligned chunk
(about 8,192 events) in a session of about 10k events and in one of
about 1M events, on two traces:

* a synthetic trace whose address range is bounded, so its partials
  stop growing early (the bench checks that they do): the ratio of the
  two sessions' median ingest latencies is gated at ``<= 2``;
* the serve-ingest benchmark's own program, ``minivite:v1`` at scale 14
  (about 1.09M events), split by
  :func:`~repro.trace.tracefile.iter_trace_chunks` as that benchmark
  splits it. Its footprint grows with the trace, and so do its partials;
  the ratio is gated at ``<= max(2, partials growth)``: per-append
  latency may grow with the footprint but not with the trace.

Both gates fail for a writer that re-deflates the whole archive per
append or an analysis that re-reads it (such a writer measured about
17x on the minivite trace).

The 1M-event session is reached the way a restarted daemon reaches it:
its archive is written once and the session rehydrates it; the first
ingest after that is a full scan and the first publish deflates the
adopted prefix (untimed warm-up), every later one is incremental.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import save_result
from repro.cli import main
from repro.core.artifacts import ArtifactStore
from repro.core.parallel import ParallelEngine
from repro.serve.session import SessionManager
from repro.trace.event import LoadClass, make_events
from repro.trace.tracefile import (
    TraceMeta,
    iter_trace_chunks,
    read_trace_health,
    read_trace_meta,
    write_trace,
)

pytestmark = pytest.mark.perf

#: events per chunk, as the serve-ingest benchmark appends them
CHUNK = 8192
#: timed ingests per session (after one untimed warm-up ingest)
REPS = 9
#: minivite:v1 at this scale traces about 1.09M events
MINIVITE_SCALE = 14
#: chunks in the large synthetic session's prefix (1,048,576 events)
SYNTHETIC_PREFIX = 128
#: events per sample of the synthetic trace (16 samples per chunk)
PER_SAMPLE = 512
MAX_RATIO = 2.0


def _synthetic():
    """``(meta, chunks)``: samples of ``PER_SAMPLE`` over a bounded footprint."""
    n = (SYNTHETIC_PREFIX + REPS + 1) * CHUNK
    rng = np.random.default_rng(0)
    kind = rng.integers(0, 3, n)
    addr = np.where(
        kind == 0,
        0x1000_0000 + (np.arange(n) * 8) % (1 << 16),
        np.where(kind == 1, 0x2000_0000 + rng.integers(0, 1 << 14, n) * 8, 0x3000_0000),
    ).astype(np.uint64)
    cls = np.where(
        kind == 0,
        int(LoadClass.STRIDED),
        np.where(kind == 1, int(LoadClass.IRREGULAR), int(LoadClass.CONSTANT)),
    )
    events = make_events(
        ip=0x40_0000 + kind * 4, addr=addr, cls=cls, fn=(kind % 2).astype(np.uint32)
    )
    sid = (np.arange(n) // PER_SAMPLE).astype(np.int32)
    meta = TraceMeta(
        module="synthetic", kind="sampled", period=1000, buffer_capacity=PER_SAMPLE,
        n_loads_total=4 * n, n_samples=int(sid[-1]) + 1,
    )
    return meta, [(events[lo : lo + CHUNK], sid[lo : lo + CHUNK]) for lo in range(0, n, CHUNK)]


def _minivite(tmp_path):
    """``(meta, chunks)`` of a seeded minivite trace, sample-aligned."""
    src = tmp_path / "minivite.npz"
    argv = ["trace", "--workload", "minivite:v1", "--scale", str(MINIVITE_SCALE)]
    argv += ["--period", "2000", "--seed", "1", "--deterministic", "-o", str(src)]
    assert main(argv) == 0
    return read_trace_meta(src), list(iter_trace_chunks(src, chunk_size=CHUNK))


def _partial_bytes(cache_dir, archive) -> int:
    """Bytes of the whole-trace partials a store holds for ``archive``."""
    digest = ArtifactStore.digest_health(read_trace_health(archive))
    return sum(f.stat().st_size for f in cache_dir.rglob(f"partial-{digest[:32]}-*"))


def _session(root, meta, chunks, n_prefix: int) -> tuple[int, list[float], int]:
    """``(prefix events, timed ingest ms, partial bytes)`` after ``n_prefix`` chunks."""
    prefix, timed = chunks[:n_prefix], chunks[n_prefix : n_prefix + REPS + 1]
    assert len(timed) == REPS + 1
    sessions = root / "sessions"
    sessions.mkdir(parents=True)
    events = np.concatenate([c[0] for c in prefix])
    write_trace(sessions / "s.npz", events, meta, np.concatenate([c[1] for c in prefix]))
    times = []
    with ParallelEngine(workers=1, store=ArtifactStore(root / "cache")) as engine:
        session = SessionManager(sessions).open("s", meta)
        assert session.n_events == len(events)
        for i, (ev, sid, *_) in enumerate(timed):
            t0 = time.perf_counter()
            ack = session.ingest(ev, sid, engine)
            dt = time.perf_counter() - t0
            if i:  # the first ingest after rehydration scans the whole trace
                assert ack["mode"] == "incremental", ack
                times.append(dt * 1000.0)
    return len(events), times, _partial_bytes(root / "cache", session.archive)


def _compare(root, title: str, meta, chunks, n_large: int):
    """Time both sessions; returns ``(latency ratio, partials growth, lines)``."""
    rows = [
        (name, *_session(root / name, meta, chunks, n))
        for name, n in (("small", 1), ("large", n_large))
    ]
    (_, n_small, small, p_small), (_, n_big, big, p_big) = rows
    assert n_small < 12_000 and n_big > 1_000_000, (n_small, n_big)
    ratio = statistics.median(big) / statistics.median(small)
    growth = p_big / p_small
    lines = [
        f"-- {title} --",
        f"{'session':>8} {'prefix events':>14} {'p50 ms':>8} {'min ms':>8} {'max ms':>8} "
        f"{'partials KiB':>13}",
    ]
    for name, n, times, partials in rows:
        lines.append(
            f"{name:>8} {n:>14,} {statistics.median(times):>8.2f} {min(times):>8.2f} "
            f"{max(times):>8.2f} {partials / 1024:>13.1f}"
        )
    lines.append(f"latency ratio large/small p50: {ratio:.2f}   partials growth: {growth:.2f}")
    return ratio, growth, lines


def test_ingest_latency_grows_with_the_footprint_not_the_trace(tmp_path):
    meta, chunks = _synthetic()
    flat, flat_growth, flat_lines = _compare(
        tmp_path / "synthetic", "synthetic, bounded footprint", meta, chunks, SYNTHETIC_PREFIX
    )
    meta, chunks = _minivite(tmp_path)
    # the large session's timed chunks are the ten before the short last one
    mv, mv_growth, mv_lines = _compare(
        tmp_path / "minivite",
        f"minivite:v1 scale {MINIVITE_SCALE}",
        meta,
        chunks,
        len(chunks) - REPS - 2,
    )
    mv_bound = max(MAX_RATIO, mv_growth)
    save_result(
        "perf_serve_append",
        "\n".join(
            [
                "== serve per-append latency: one ingest of a sample-aligned chunk ==",
                f"cpus: {os.cpu_count()}  chunk: ~{CHUNK:,} events  "
                f"timed ingests: {REPS} per session",
                *flat_lines,
                f"gate: latency ratio <= {MAX_RATIO}",
                *mv_lines,
                f"gate: latency ratio <= max({MAX_RATIO}, partials growth) = {mv_bound:.2f}",
            ]
        ),
    )
    assert flat_growth < 1.25, f"synthetic partials grew {flat_growth:.2f}x: footprint unbounded"
    assert flat <= MAX_RATIO, f"per-append latency grew {flat:.2f}x at a bounded footprint"
    assert mv <= mv_bound, (
        f"per-append latency grew {mv:.2f}x on minivite, faster than its "
        f"partials ({mv_growth:.2f}x)"
    )
