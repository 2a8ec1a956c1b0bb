"""Tests for the location zoom tree."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.rng import derive_rng
from repro.core.parallel import ParallelEngine
from repro.core.reuse import reuse_distances
from repro.core.zoom import ZoomConfig, location_zoom, zoom_leaves
from repro.trace.event import LoadClass, make_events


def _two_region_stream(n=8000):
    """Half the accesses sweep region A (64 KiB), half hammer region B (4 KiB)."""
    rng = derive_rng(0, "zoom-two-region")
    a = 0x10_0000 + (np.arange(n // 2) * 8) % 65536
    b = 0x40_0000 + rng.integers(0, 512, n // 2) * 8
    addr = np.empty(n, dtype=np.uint64)
    addr[0::2] = a
    addr[1::2] = b
    cls = np.where(np.arange(n) % 2 == 0, 1, 2)
    fn = np.where(np.arange(n) % 2 == 0, 0, 1)
    return make_events(ip=1, addr=addr, cls=cls, fn=fn)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZoomConfig(page_size=100)
        with pytest.raises(ValueError):
            ZoomConfig(hot_threshold=0.0)
        with pytest.raises(ValueError):
            ZoomConfig(shrink=1)
        with pytest.raises(ValueError):
            ZoomConfig(max_depth=0)


class TestZoom:
    def test_finds_both_hot_regions(self):
        root = location_zoom(_two_region_stream())
        leaves = zoom_leaves(root, min_pct=10)
        bases = {l.base & ~0xFFFFF for l in leaves}
        assert 0x10_0000 in {b & 0xFF_FFFF | 0x10_0000 for b in bases} or any(
            0x10_0000 <= l.base < 0x12_0000 for l in leaves
        )
        assert any(0x40_0000 <= l.base < 0x42_0000 for l in leaves)

    def test_hotness_percentages_sum_sensibly(self):
        root = location_zoom(_two_region_stream())
        leaves = zoom_leaves(root, min_pct=10)
        assert sum(l.pct_of_total for l in leaves) <= 100.0 + 1e-6
        assert all(0 < l.pct_of_total <= 100 for l in leaves)

    def test_irregular_region_has_higher_d(self):
        root = location_zoom(_two_region_stream())
        leaves = zoom_leaves(root, min_pct=10)
        strided_leaf = min(leaves, key=lambda l: l.base)
        irregular_leaf = max(leaves, key=lambda l: l.base)
        assert irregular_leaf.D_mean > strided_leaf.D_mean

    def test_leaf_block_stats(self):
        cfg = ZoomConfig(access_block=64)
        root = location_zoom(_two_region_stream(), cfg)
        for leaf in zoom_leaves(root, min_pct=10):
            assert leaf.n_blocks == max(1, leaf.size // 64)
            assert leaf.accesses_per_block == pytest.approx(
                leaf.n_accesses / leaf.n_blocks
            )

    def test_function_attribution(self):
        root = location_zoom(
            _two_region_stream(), fn_names={0: "sweep", 1: "hammer"}
        )
        leaves = zoom_leaves(root, min_pct=10)
        irregular_leaf = max(leaves, key=lambda l: l.base)
        assert irregular_leaf.functions.most_common(1)[0][0] == "hammer"

    def test_constants_ignored(self):
        ev = make_events(ip=1, addr=[100, 100, 100], cls=0)
        root = location_zoom(ev)
        assert root.n_accesses == 0

    def test_cold_gap_kept_inside_contiguous_region(self):
        """The contiguity rule: one object with a cold middle stays one leaf."""
        addr = np.concatenate(
            [
                0x10_0000 + np.tile(np.arange(0, 4096, 8), 20),  # hot first page
                0x10_2000 + np.tile(np.arange(0, 4096, 8), 20),  # hot third page
                0x10_1000 + np.arange(0, 4096, 8),  # middle page touched once/line
            ]
        )
        ev = make_events(ip=1, addr=np.sort(addr), cls=1)
        cfg = ZoomConfig(page_size=4096, min_region_bytes=4096)
        leaves = zoom_leaves(location_zoom(ev, cfg))
        spans = [(l.base, l.end) for l in leaves if l.pct_of_total > 50]
        assert any(hi - lo >= 3 * 4096 for lo, hi in spans)

    def test_depth_bounded(self):
        cfg = ZoomConfig(max_depth=2)
        root = location_zoom(_two_region_stream(), cfg)
        stack, max_depth = [root], 0
        while stack:
            n = stack.pop()
            max_depth = max(max_depth, n.depth)
            stack.extend(n.children)
        assert max_depth <= 2

    def test_wrong_dtype(self):
        with pytest.raises(TypeError):
            location_zoom(np.zeros(4))


# -- engine-backed leaf statistics against the serial oracle --------------------


def _oracle_leaf_stats(events, sample_id, leaves, block):
    """Serial leaf D: one reuse array over the non-Constant stream.

    The leaf statistics ``location_zoom`` computed before its leaves
    became regions of the engine's heatmap scan — D over the whole
    non-Constant stream (intra-sample when ``sample_id`` is given),
    restricted to each leaf's address range.
    """
    mask = events["cls"] != int(LoadClass.CONSTANT)
    nc = events[mask]
    sid = sample_id[mask] if sample_id is not None else None
    d = reuse_distances(nc, block, sid)
    addrs = nc["addr"].astype(np.int64)
    out = []
    for leaf in leaves:
        dr = d[(addrs >= leaf.base) & (addrs < leaf.end)]
        if not len(dr):
            out.append((0.0, 0))
            continue
        hits = dr[dr >= 0]
        out.append(
            (float(hits.mean()) if len(hits) else 0.0, int(dr.max()) if dr.max() >= 0 else 0)
        )
    return out


#: (workers, chunk_size) shapes the leaf scan must agree across
ENGINE_SHAPES = [(1, None), (1, 97), (2, 256), (2, 1500)]


@pytest.fixture(scope="module")
def engines():
    engs = [ParallelEngine(workers=w, chunk_size=c) for w, c in ENGINE_SHAPES]
    yield engs
    for eng in engs:
        eng.close()


@st.composite
def _zoom_traces(draw):
    """Clustered accesses over a few objects, mixed classes, sorted samples."""
    n = draw(st.integers(0, 2500))
    seed = draw(st.integers(0, 2**16))
    n_objects = draw(st.integers(1, 4))
    const_frac = draw(st.sampled_from([0.0, 0.3, 1.0]))
    n_samples = draw(st.sampled_from([1, 3, 40]))
    rng = np.random.default_rng(seed)
    bases = 0x10_0000 + rng.integers(0, 64, n_objects) * 0x4000
    spans = rng.choice([512, 4096, 16384], n_objects)
    obj = rng.integers(0, n_objects, n)
    addr = bases[obj] + rng.integers(0, spans[obj]) // 8 * 8
    cls = np.where(
        rng.random(n) < const_frac, int(LoadClass.CONSTANT), rng.integers(1, 3, n)
    )
    ev = make_events(ip=1, addr=addr.astype(np.uint64), cls=cls, fn=obj)
    sid = np.sort(rng.integers(0, n_samples, n)).astype(np.int32)
    return ev, sid


def _assert_leaves_match_oracle(root, ev, sid, block):
    leaves = zoom_leaves(root)
    expected = _oracle_leaf_stats(ev, sid, leaves, block)
    assert [(leaf.D_mean, leaf.D_max) for leaf in leaves] == expected


@given(trace=_zoom_traces(), with_sid=st.booleans(), block=st.sampled_from([64, 256]))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_engine_leaf_stats_match_serial_oracle(engines, trace, with_sid, block):
    ev, sid = trace
    sid = sid if with_sid else None
    config = ZoomConfig(access_block=block, min_region_bytes=1024)
    for eng in engines:
        _assert_leaves_match_oracle(location_zoom(ev, config, sid, engine=eng), ev, sid, block)


@pytest.mark.parametrize("case", ["pooled", "single-sample", "all-constant", "no-sample-ids"])
def test_engine_leaf_stats_edge_traces(engines, case):
    rng = np.random.default_rng(7)
    n = 40_000 if case == "pooled" else 3000  # above the pooling threshold
    addr = 0x20_0000 + rng.integers(0, 3, n) * 0x8000 + rng.integers(0, 512, n) * 8
    cls = np.full(n, int(LoadClass.CONSTANT)) if case == "all-constant" else rng.integers(1, 3, n)
    ev = make_events(ip=1, addr=addr.astype(np.uint64), cls=cls, fn=rng.integers(0, 3, n))
    if case == "single-sample":
        sid = np.zeros(n, dtype=np.int32)
    elif case == "no-sample-ids":
        sid = None
    else:
        sid = (np.arange(n) // 400).astype(np.int32)
    for eng in engines:
        root = location_zoom(ev, sample_id=sid, engine=eng)
        _assert_leaves_match_oracle(root, ev, sid, 64)
        if case == "all-constant":
            assert root.n_accesses == 0 and root.is_leaf
        else:
            assert any(leaf.D_mean > 0 for leaf in zoom_leaves(root))
