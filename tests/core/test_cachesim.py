"""Tests for the LRU cache model, including the D-vs-hit cross-check."""

import numpy as np
import pytest

from repro.core.cachesim import (
    CacheConfig,
    _simulate_cache_python,
    _simulate_cache_vector,
    simulate_cache,
)
from repro.core.reuse import reuse_distances
from repro.trace.event import LoadClass, make_events


class TestConfig:
    def test_n_sets(self):
        cfg = CacheConfig(size_bytes=32 * 1024, line_bytes=64, ways=8)
        assert cfg.n_sets == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=64, ways=8)


class TestSimulation:
    def test_repeated_access_hits(self):
        ev = make_events(ip=1, addr=np.zeros(100), cls=2)
        stats = simulate_cache(ev)
        assert stats.n_hits == 99

    def test_streaming_misses(self):
        ev = make_events(ip=1, addr=np.arange(10_000) * 64, cls=1)
        stats = simulate_cache(ev, CacheConfig(size_bytes=4096, line_bytes=64, ways=4))
        assert stats.hit_ratio == 0.0

    def test_working_set_fits(self):
        # 16 lines looped, cache holds 64 lines -> all hits after warmup
        addr = np.tile(np.arange(16) * 64, 100)
        ev = make_events(ip=1, addr=addr, cls=1)
        stats = simulate_cache(ev, CacheConfig(size_bytes=4096, line_bytes=64, ways=4))
        assert stats.n_hits == len(addr) - 16

    def test_capacity_eviction(self):
        # loop over 2x the cache capacity -> LRU always evicts before reuse
        n_lines = 128
        addr = np.tile(np.arange(n_lines) * 64, 10)
        ev = make_events(ip=1, addr=addr, cls=1)
        stats = simulate_cache(ev, CacheConfig(size_bytes=4096, line_bytes=64, ways=64))
        assert stats.hit_ratio == 0.0

    def test_per_class_accounting(self):
        ev = make_events(ip=1, addr=[0, 0, 64, 64], cls=[1, 1, 2, 2])
        stats = simulate_cache(ev)
        assert stats.accesses_by_class[LoadClass.STRIDED] == 2
        assert stats.class_hit_ratio(LoadClass.STRIDED) == 0.5
        assert stats.class_hit_ratio(LoadClass.IRREGULAR) == 0.5

    def test_suppressed_constants_always_hit(self):
        ev = make_events(ip=1, addr=[0], cls=1, n_const=10)
        stats = simulate_cache(ev)
        assert stats.n_accesses == 11
        assert stats.class_hit_ratio(LoadClass.CONSTANT) == 1.0

    def test_wrong_dtype(self):
        with pytest.raises(TypeError):
            simulate_cache(np.zeros(4))


class TestPrefetcher:
    def test_streaming_hits_with_prefetch(self):
        ev = make_events(ip=1, addr=np.arange(10_000) * 8, cls=1)
        cfg = CacheConfig(size_bytes=4096, line_bytes=64, ways=4)
        cold = simulate_cache(ev, cfg)
        warm = simulate_cache(
            ev, CacheConfig(size_bytes=4096, line_bytes=64, ways=4, prefetch_next_line=True)
        )
        assert warm.hit_ratio > cold.hit_ratio
        assert warm.hit_ratio > 0.95

    def test_prefetch_does_not_help_random(self, rng):
        ev = make_events(ip=1, addr=rng.integers(0, 1 << 20, 5000) * 64, cls=2)
        cfg = CacheConfig(size_bytes=4096, line_bytes=64, ways=4, prefetch_next_line=True)
        assert simulate_cache(ev, cfg).hit_ratio < 0.05


class TestDistancePredictsHits:
    def test_fully_associative_matches_reuse_distance(self, make_rng):
        """An access hits a fully-associative LRU of capacity C iff its
        spatio-temporal reuse distance (in lines) is < C."""
        rng = make_rng("fa-lru")
        addr = rng.integers(0, 256, 4000) * 64
        ev = make_events(ip=1, addr=addr, cls=2)
        ways = 32
        cfg = CacheConfig(size_bytes=ways * 64, line_bytes=64, ways=ways)  # 1 set
        stats = simulate_cache(ev, cfg)
        d = reuse_distances(ev, block=64)
        predicted_hits = int(((d >= 0) & (d < ways)).sum())
        assert stats.n_hits == predicted_hits

    def test_hit_ratio_monotone_in_size(self, rng):
        ev = make_events(ip=1, addr=rng.integers(0, 4096, 5000) * 64, cls=2)
        ratios = [
            simulate_cache(ev, CacheConfig(size_bytes=s, line_bytes=64, ways=8)).hit_ratio
            for s in (8 * 1024, 32 * 1024, 128 * 1024)
        ]
        assert ratios[0] <= ratios[1] <= ratios[2]


# -- kernel equivalence -------------------------------------------------------


class TestCacheKernelEquivalence:
    """The set-local stack-distance kernel matches the per-event loop.

    :func:`simulate_cache` runs the vector kernel unless the config
    prefetches; the loop stays in the library as the prefetch path, and
    here it is the reference the kernel must equal field for field.
    """

    def _events(self, rng, n=2500):
        return make_events(
            ip=1,
            addr=rng.integers(0, 1 << 14, n) * 8,
            cls=rng.integers(0, 3, n).astype(np.uint8),
            n_const=rng.choice([0, 0, 3], n).astype(np.uint16),
        )

    @pytest.mark.parametrize("ways,sets", [(1, 64), (8, 64), (4, 1), (16, 512)])
    def test_vector_equals_python(self, make_rng, ways, sets):
        rng = make_rng(f"cache-eq-{ways}-{sets}")
        ev = self._events(rng)
        cfg = CacheConfig(size_bytes=ways * sets * 64, line_bytes=64, ways=ways)
        a = simulate_cache(ev, cfg)
        b = _simulate_cache_python(ev, cfg)
        # repr covers every field including the class-count dict order
        assert repr(a) == repr(b) == repr(_simulate_cache_vector(ev, cfg))

    def test_hierarchy_vector_equals_python(self, make_rng):
        from repro.core.cachesim import (
            HierarchyConfig,
            _simulate_hierarchy_python,
            simulate_hierarchy,
        )

        rng = make_rng("hier-eq")
        ev = self._events(rng)
        cfg = HierarchyConfig(
            l1=CacheConfig(
                size_bytes=32 * 1024, line_bytes=64, ways=8, prefetch_next_line=False
            ),
            l2=CacheConfig(
                size_bytes=256 * 1024, line_bytes=64, ways=8, prefetch_next_line=False
            ),
        )
        a = simulate_hierarchy(ev, cfg)
        b = _simulate_hierarchy_python(ev, cfg)
        assert repr(a) == repr(b)

    def test_vector_rejects_prefetch(self):
        ev = make_events(ip=1, addr=[0, 64], cls=2)
        cfg = CacheConfig(
            size_bytes=4096, line_bytes=64, ways=4, prefetch_next_line=True
        )
        with pytest.raises(ValueError, match="prefetch"):
            _simulate_cache_vector(ev, cfg)

    def test_auto_falls_back_for_prefetch(self):
        """A prefetching config must run the per-event loop — and still
        produce a result (no exception)."""
        ev = make_events(ip=1, addr=[0, 64, 0], cls=2)
        cfg = CacheConfig(
            size_bytes=4096, line_bytes=64, ways=4, prefetch_next_line=True
        )
        stats = simulate_cache(ev, cfg)
        assert stats.n_accesses == 3
        assert repr(stats) == repr(_simulate_cache_python(ev, cfg))


# -- schedule-time sweep validation (hoisted out of the scan) -----------------


class TestConfigKernelField:
    def test_sweep_schedule_rejects_prefetch(self):
        from repro.core.passes import schedule_passes

        with pytest.raises(ValueError, match="prefetch"):
            schedule_passes([("cache_sweep", {"prefetch": True})])

    def test_sweep_schedule_rejects_bad_line(self):
        from repro.core.passes import schedule_passes

        with pytest.raises(ValueError, match="power of two"):
            schedule_passes([("cache_sweep", {"lines": (48,)})])


# -- fused sweep equivalence --------------------------------------------------


class TestSweepEquivalence:
    """One fused sweep scan == N independent ``simulate_cache`` runs.

    Bit-identical, per configuration, at every worker count and chunk
    size — the mergeable partial must be exact, not approximate.
    """

    def _events(self, rng, n=2500):
        return make_events(
            ip=1,
            addr=rng.integers(0, 1 << 14, n) * 8,
            cls=rng.integers(0, 3, n).astype(np.uint8),
            n_const=rng.choice([0, 0, 3], n).astype(np.uint16),
        )

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("chunk_size", [17, 257, 5000])
    def test_fused_sweep_matches_independent_runs(self, make_rng, workers, chunk_size):
        from repro.core.cachesim import sweep_configs
        from repro.core.parallel import ParallelEngine

        rng = make_rng("sweep-eq")
        ev = self._events(rng)
        # one sample per event so chunk_size controls sharding exactly
        sid = np.arange(len(ev), dtype=np.int32)
        with ParallelEngine(workers=workers, chunk_size=chunk_size) as eng:
            rows = eng.analyze((ev, sid, None), ["cache_sweep"]).results["cache_sweep"]
        grid = sweep_configs()
        assert len(rows) == len(grid) == 8
        for row, cfg in zip(rows, grid):
            ref = simulate_cache(ev, cfg)
            assert (row.size_bytes, row.line_bytes, row.ways, row.n_sets) == (
                cfg.size_bytes, cfg.line_bytes, cfg.ways, cfg.n_sets
            )
            assert row.n_accesses == ref.n_accesses
            assert row.n_hits == ref.n_hits
            assert row.hit_ratio == ref.hit_ratio  # same expression, bit-identical
            assert row.accesses_by_class == {
                k.name: v for k, v in ref.accesses_by_class.items() if v
            }
            assert row.hits_by_class == {
                k.name: v for k, v in ref.hits_by_class.items() if v
            }
            # the prediction column is the paper's reuse-distance model:
            # identical to a fully-associative LRU of the same capacity
            fa = simulate_cache(
                ev,
                CacheConfig(
                    size_bytes=cfg.size_bytes,
                    line_bytes=cfg.line_bytes,
                    ways=cfg.size_bytes // cfg.line_bytes,
                ),
            )
            assert row.predicted_hits == fa.n_hits
            assert row.predicted_hit_ratio == fa.hit_ratio

    def test_explicit_config_triples(self, make_rng):
        from repro.core.cachesim import sweep_configs

        rng = make_rng("sweep-triples")
        ev = self._events(rng, n=800)
        grid = sweep_configs(configs=[(8192, 64, 2), (65536, 128, 8)])
        from repro.core.parallel import ParallelEngine

        with ParallelEngine(workers=1, chunk_size=257) as eng:
            rows = eng.analyze(
                (ev, np.arange(len(ev), dtype=np.int32), None),
                [("cache_sweep", {"configs": [(8192, 64, 2), (65536, 128, 8)]})],
            ).results["cache_sweep"]
        for row, cfg in zip(rows, grid):
            ref = simulate_cache(ev, cfg)
            assert row.n_hits == ref.n_hits and row.n_accesses == ref.n_accesses

    def test_sweep_configs_rejects_duplicates_and_empty(self):
        from repro.core.cachesim import sweep_configs

        with pytest.raises(ValueError):
            sweep_configs(configs=[(8192, 64, 2), (8192, 64, 2)])
        with pytest.raises(ValueError):
            sweep_configs(ways=())
