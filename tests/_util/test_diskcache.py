"""The persistent on-disk cache: atomicity, corruption tolerance, eviction.

Covers the durability contract :mod:`repro._util.diskcache` promises to
the artifact store above it: falsy values round-trip (MISS is a
sentinel, not None), any damage is a journaled miss that removes the
entry, and the mtime-LRU eviction order follows *use*, not insertion.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro._util.diskcache import MISS, DiskCache
from repro.obs import MetricsRegistry, Obs, RunJournal, read_journal

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "obs"))
import faults  # noqa: E402


class TestRoundTrip:
    def test_value_round_trips(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        c.put("a", {"x": np.arange(5), "y": "text"})
        got = c.get("a")
        assert got["y"] == "text"
        np.testing.assert_array_equal(got["x"], np.arange(5))

    def test_falsy_values_are_not_misses(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        for name, value in [("zero", 0), ("empty", []), ("none", None)]:
            c.put(name, value)
            got = c.get(name)
            assert got is not MISS
            assert got == value or (got is None and value is None)

    def test_absent_entry_is_miss(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        assert c.get("nothing") is MISS
        assert c.misses == 1 and c.hits == 0

    def test_overwrite_replaces(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        c.put("a", 1)
        c.put("a", 2)
        assert c.get("a") == 2
        assert c.stats()["entries"] == 1

    def test_invalid_names_rejected(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        for bad in ["", "../escape", "a/b", ".hidden"]:
            with pytest.raises(ValueError, match="invalid cache entry name"):
                c.put(bad, 1)

    def test_names_listing_and_prefix(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        for n in ["partial-a", "partial-b", "state-a"]:
            c.put(n, n)
        assert c.names() == ["partial-a", "partial-b", "state-a"]
        assert c.names("state-") == ["state-a"]

    def test_delete(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        c.put("a", 1)
        assert c.delete("a") is True
        assert c.delete("a") is False
        assert c.get("a") is MISS


class TestCorruption:
    @pytest.mark.faults
    def test_bit_flip_is_journaled_miss_and_removed(self, tmp_path):
        jpath = tmp_path / "j.jsonl"
        c = DiskCache(tmp_path / "c", obs=Obs(RunJournal(jpath)))
        c.put("a", list(range(1000)))
        (entry,) = list((tmp_path / "c").glob("*.mgc"))
        faults.flip_bytes(entry, offset_fraction=0.5)
        assert c.get("a") is MISS
        assert c.corrupt == 1
        assert not entry.exists(), "damaged entry must be removed"
        warnings = [r for r in read_journal(jpath) if r.get("event") == "warning"]
        assert any("corrupt cache entry" in w["message"] for w in warnings)

    @pytest.mark.faults
    def test_truncated_header_is_miss(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        c.put("a", 123)
        (entry,) = list((tmp_path / "c").glob("*.mgc"))
        entry.write_bytes(entry.read_bytes()[:3])
        assert c.get("a") is MISS
        assert c.corrupt == 1

    @pytest.mark.faults
    def test_foreign_file_is_miss(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        c.put("a", 1)  # creates the directory
        (tmp_path / "c" / "b.mgc").write_bytes(b"not a cache entry at all")
        assert c.get("b") is MISS
        assert c.get("a") == 1, "damage to one entry must not affect others"

    def test_corruption_counted_in_metrics(self, tmp_path):
        m = MetricsRegistry()
        c = DiskCache(tmp_path / "c", obs=Obs(metrics=m))
        c.put("a", 1)
        (entry,) = list((tmp_path / "c").glob("*.mgc"))
        entry.write_bytes(b"MGC1garbagegarbage")
        c.get("a")
        counters = m.as_dict()["counters"]
        assert counters["cache.corrupt"]["value"] == 1
        assert counters["cache.misses"]["value"] == 1


class TestEviction:
    def _put_sized(self, c, name, kb, mtime):
        c.put(name, b"x" * (kb * 1024))
        path = c.root / (name + ".mgc")
        os.utime(path, (mtime, mtime))

    def test_lru_eviction_order_is_by_use(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        t0 = time.time() - 100
        self._put_sized(c, "old", 4, t0)
        self._put_sized(c, "mid", 4, t0 + 10)
        self._put_sized(c, "new", 4, t0 + 20)
        # a get() refreshes "old" — it becomes the most recently used
        assert c.get("old") is not MISS
        removed = c.prune(5 * 1024)
        assert removed == 2
        assert c.names() == ["old"], "recently-read entry must survive eviction"

    def test_put_evicts_when_over_budget(self, tmp_path):
        c = DiskCache(tmp_path / "c", max_bytes=10 * 1024)
        t0 = time.time() - 100
        self._put_sized(c, "a", 6, t0)
        c.put("b", b"y" * (6 * 1024))
        assert c.names() == ["b"], "oldest entry must be evicted on put"
        assert c.evictions == 1

    def test_batch_evicts_once_at_its_end(self, tmp_path, monkeypatch):
        jpath = tmp_path / "j.jsonl"
        c = DiskCache(tmp_path / "c", max_bytes=10 * 1024, obs=Obs(RunJournal(jpath)))
        t0 = time.time() - 100
        self._put_sized(c, "a", 4, t0)
        self._put_sized(c, "b", 4, t0 + 10)
        passes = []
        real = DiskCache._evict
        monkeypatch.setattr(
            DiskCache, "_evict", lambda self, n: passes.append(n) or real(self, n)
        )
        with c.batch():
            with c.batch():  # nested blocks: only the outermost evicts
                c.put("c", b"z" * (4 * 1024))
            c.put("d", b"w" * (4 * 1024))
            assert passes == [] and c.names() == ["a", "b", "c", "d"]
        assert passes == [10 * 1024]
        # the two least-recently-used entries go, in one journaled pass
        assert c.names() == ["c", "d"] and c.evictions == 2
        evicts = [r for r in read_journal(jpath) if r.get("op") == "evict"]
        assert [r["n_entries"] for r in evicts] == [2]

    def test_batch_without_a_store_does_not_evict(self, tmp_path, monkeypatch):
        c = DiskCache(tmp_path / "c", max_bytes=1024)
        monkeypatch.setattr(DiskCache, "_evict", lambda self, n: pytest.fail("evicted"))
        with c.batch():
            assert c.get("a") is MISS

    def test_batch_evicts_when_its_block_raises(self, tmp_path):
        c = DiskCache(tmp_path / "c", max_bytes=5 * 1024)
        with pytest.raises(RuntimeError), c.batch():
            c.put("a", b"x" * (4 * 1024))
            c.put("b", b"y" * (4 * 1024))
            raise RuntimeError
        assert len(c.names()) == 1 and c.evictions == 1

    def test_prune_and_clear(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        for i in range(4):
            c.put(f"e{i}", i)
        assert c.prune(0) + c.clear() == 4  # prune removes all; clear finds none
        assert c.names() == []

    def test_clear_removes_stale_temp_files(self, tmp_path):
        c = DiskCache(tmp_path / "c")
        c.put("a", 1)
        stale = tmp_path / "c" / ".tmp-dead.mgc"
        stale.write_bytes(b"stale")
        c.clear()
        assert not stale.exists()

    def test_reader_racing_eviction_misses_cleanly(self, tmp_path):
        # two handles on one directory: one evicts while the other reads
        writer = DiskCache(tmp_path / "c")
        reader = DiskCache(tmp_path / "c")
        writer.put("a", 1)
        assert reader.get("a") == 1
        writer.prune(0)  # evict everything
        assert reader.get("a") is MISS
        assert reader.corrupt == 0, "a lost entry is an absent miss, not damage"

    def test_stats_on_missing_directory(self, tmp_path):
        c = DiskCache(tmp_path / "never-created")
        s = c.stats()
        assert s["entries"] == 0 and s["bytes"] == 0
        assert c.names() == []
        assert c.get("a") is MISS
