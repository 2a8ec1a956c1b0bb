"""Property/round-trip tests over random arrays for the trace layer.

Complements the example-based suites: hypothesis drives randomized event
streams through packing, compression accounting, sampling geometry,
guard filtering, and the archive format, checking the invariants each
module promises (lossless round trips, conservation of counts, bounds).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.compress import (
    compression_ratio,
    decompress_counts,
    sample_ratio,
    suppressed_count,
)
from repro.trace.event import LoadClass, concat_events, make_events
from repro.trace.guards import RegionOfInterest, apply_guards
from repro.trace.packing import pack_strided_runs, unpack_strided_runs
from repro.trace.sampler import SamplingConfig, sample_bounds
from repro.trace.tracefile import TraceMeta, read_trace, write_trace

# -- strategies ---------------------------------------------------------------------

#: a segment is (kind, length); kinds build qualitatively different runs
_segment = st.tuples(st.sampled_from(["strided", "irregular", "constant", "repeat"]),
                     st.integers(min_value=1, max_value=12))


def _build_stream(segments, seed):
    """Deterministically expand segment specs into one event stream."""
    rng = np.random.default_rng(seed)
    parts = []
    base = 0x1000_0000
    for i, (kind, n) in enumerate(segments):
        ip = 0x40_0000 + i % 5
        if kind == "strided":
            stride = int(rng.choice([-64, -8, 8, 64, 256]))
            addr = base + stride * np.arange(n) if stride > 0 else base - stride * n + stride * np.arange(n)
            cls = int(LoadClass.STRIDED)
        elif kind == "irregular":
            addr = base + rng.integers(0, 1 << 20, n) * 8
            cls = int(LoadClass.IRREGULAR)
        elif kind == "constant":
            addr = np.full(n, base + 0x500)
            cls = int(LoadClass.CONSTANT)
        else:  # repeat: same address, strided class (must never pack as a run)
            addr = np.full(n, base + 0x900)
            cls = int(LoadClass.STRIDED)
        n_const = rng.integers(0, 4, n) if kind == "constant" else 0
        parts.append(
            make_events(ip=np.full(n, ip), addr=np.asarray(addr, dtype=np.uint64),
                        cls=cls, n_const=n_const)
        )
        base += (1 + i) * 0x10_0000
    events = concat_events(parts)
    events["t"] = np.arange(len(events), dtype=np.uint64)
    return events


# -- packing ------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    segments=st.lists(_segment, min_size=1, max_size=10),
    seed=st.integers(min_value=0, max_value=2**31),
    min_run=st.integers(min_value=2, max_value=6),
)
def test_pack_unpack_identity_on_random_streams(segments, seed, min_run):
    events = _build_stream(segments, seed)
    packed = pack_strided_runs(events, min_run=min_run)
    restored = unpack_strided_runs(packed)
    assert restored.tobytes() == events.tobytes(), "packing must be lossless"
    assert packed.n_records <= len(events)
    assert packed.packing_ratio >= 1.0
    # run bookkeeping is conserved: lengths sum to the original count
    assert int(packed.runs["length"].sum()) == len(events)


# -- compression accounting ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n_const=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=100)
)
def test_kappa_and_decompress_counts_accounting(n_const):
    n = len(n_const)
    events = make_events(
        ip=np.arange(n), addr=np.arange(n) * 8, cls=int(LoadClass.CONSTANT),
        n_const=np.asarray(n_const, dtype=np.uint16),
    )
    a_const = sum(n_const)
    assert suppressed_count(events) == a_const
    assert decompress_counts(events) == n + a_const  # A + A_const, exactly
    kappa = compression_ratio(events)
    assert kappa == 1.0 + a_const / n  # Eq. 2
    assert kappa >= 1.0
    # rho (Eq. 1): |sigma|*(w+z) spread over the implied accesses
    rho = sample_ratio(4, 1000, events)
    assert np.isclose(rho * decompress_counts(events), 4 * 1000)


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=40),
    b=st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=40),
)
def test_kappa_merges_as_weighted_mean(a, b):
    """Concatenating streams merges kappa by record-weighted average —
    the same associativity contract the parallel engine's merges rely on."""
    mk = lambda xs: make_events(  # noqa: E731
        ip=np.arange(len(xs)), addr=np.arange(len(xs)),
        cls=int(LoadClass.CONSTANT), n_const=np.asarray(xs, dtype=np.uint16),
    )
    ev_a, ev_b = mk(a), mk(b)
    both = concat_events([ev_a, ev_b])
    expected = (
        len(a) * compression_ratio(ev_a) + len(b) * compression_ratio(ev_b)
    ) / (len(a) + len(b))
    assert np.isclose(compression_ratio(both), expected)


# -- sampling geometry (w/z accounting) ---------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    n_loads=st.integers(min_value=0, max_value=10_000_000),
    period=st.integers(min_value=1, max_value=100_000),
    capacity=st.integers(min_value=1, max_value=4096),
    jitter=st.sampled_from([0.0, 0.15]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sample_bounds_accounting(n_loads, period, capacity, jitter, seed):
    config = SamplingConfig(
        period=period, buffer_capacity=capacity, fill_jitter=jitter, seed=seed
    )
    triggers, budgets = sample_bounds(n_loads, config)
    assert len(triggers) == n_loads // period == len(budgets)
    if len(triggers):
        assert triggers[0] == period
        assert triggers[-1] <= n_loads
        assert np.all(np.diff(triggers) == period)  # w+z spacing is exact
    assert np.all(budgets >= 1)
    assert np.all(budgets <= capacity)  # w never exceeds the PT buffer
    # the stream is a pure function of the config: replaying it is identical
    triggers2, budgets2 = sample_bounds(n_loads, config)
    assert np.array_equal(triggers, triggers2)
    assert np.array_equal(budgets, budgets2)


@settings(max_examples=40, deadline=None)
@given(
    n_loads=st.integers(min_value=0, max_value=1_000_000),
    period=st.integers(min_value=1, max_value=50_000),
    capacity=st.integers(min_value=1, max_value=2048),
)
def test_sample_bounds_deterministic_fill(n_loads, period, capacity):
    config = SamplingConfig(period=period, buffer_capacity=capacity, fill_jitter=0.0)
    _, budgets = sample_bounds(n_loads, config)
    expected = max(1, round(capacity * config.fill_mean))
    assert np.all(budgets == expected)


# -- guards -------------------------------------------------------------------------

_ranges = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 20),
              st.integers(min_value=1, max_value=1 << 12)),
    min_size=0, max_size=4,
).map(lambda spans: [(lo, lo + width) for lo, width in spans])


@settings(max_examples=60, deadline=None)
@given(
    ranges=_ranges,
    ips=st.lists(st.integers(min_value=0, max_value=1 << 21), min_size=1, max_size=200),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_apply_guards_conserves_and_filters(ranges, ips, seed):
    rng = np.random.default_rng(seed)
    n = len(ips)
    events = make_events(
        ip=np.asarray(ips, dtype=np.uint64),
        addr=rng.integers(0, 1 << 30, n),
        cls=int(LoadClass.IRREGULAR),
    )
    roi = RegionOfInterest(ranges=ranges)
    admitted, n_suppressed = apply_guards(events, roi)
    assert len(admitted) + n_suppressed == n  # every record accounted for
    if roi.is_unrestricted:
        assert n_suppressed == 0 and len(admitted) == n
    else:
        in_roi = np.array(
            [any(lo <= ip < hi for lo, hi in ranges) for ip in ips]
        )
        assert np.array_equal(admitted.tobytes(), events[in_roi].tobytes())
        # idempotent: the admitted stream passes its own guards untouched
        again, n2 = apply_guards(admitted, roi)
        assert n2 == 0
        assert again.tobytes() == admitted.tobytes()


# -- archive round trip -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    segments=st.lists(_segment, min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**31),
    with_sids=st.booleans(),
    atomic=st.booleans(),
)
def test_archive_round_trip_on_random_streams(tmp_path_factory, segments, seed,
                                              with_sids, atomic):
    events = _build_stream(segments, seed)
    n = len(events)
    sids = None
    if with_sids:
        bounds = np.sort(np.random.default_rng(seed).integers(0, n + 1, 3))
        sids = np.searchsorted(bounds, np.arange(n), side="right").astype(np.int32)
    meta = TraceMeta(module="prop", n_loads_total=n * 3, n_samples=4)
    path = tmp_path_factory.mktemp("prop") / "t.npz"
    write_trace(path, events, meta, sids, atomic=atomic)
    got_events, got_meta, got_sids, _ = read_trace(path)
    assert got_events.tobytes() == events.tobytes()
    assert got_meta.module == meta.module
    assert got_meta.n_loads_total == meta.n_loads_total
    if with_sids:
        assert np.array_equal(got_sids, sids)
    else:
        assert got_sids is None
