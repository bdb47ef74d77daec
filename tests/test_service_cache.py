"""Tests for the content-addressed result cache (:mod:`repro.service.cache`)."""

import json

import pytest

import repro
from repro.service import ResultCache


def _key(i):
    return (f"fingerprint-{i}", "jz", "earliest-start")


def _value(i):
    return {"makespan": float(i), "schedule": {"entries": [i]}}


class TestLruSemantics:
    def test_hit_miss_counters(self):
        cache = ResultCache(capacity=4)
        assert cache.get(_key(0)) is None
        cache.put(_key(0), _value(0))
        assert cache.get(_key(0)) == _value(0)
        assert cache.get(_key(1)) is None
        s = cache.stats()
        assert (s["hits"], s["misses"]) == (1, 2)
        assert s["hit_ratio"] == pytest.approx(1 / 3)
        assert s["size"] == 1 and s["capacity"] == 4

    def test_eviction_is_lru_not_fifo(self):
        cache = ResultCache(capacity=2)
        cache.put(_key(0), _value(0))
        cache.put(_key(1), _value(1))
        assert cache.get(_key(0)) is not None  # refresh 0 → 1 is LRU
        cache.put(_key(2), _value(2))  # evicts 1
        assert _key(0) in cache and _key(2) in cache
        assert _key(1) not in cache
        assert cache.stats()["evictions"] == 1

    def test_put_refreshes_existing_key_without_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(_key(0), _value(0))
        cache.put(_key(1), _value(1))
        cache.put(_key(0), {"makespan": -1.0})
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 0
        assert cache.get(_key(0)) == {"makespan": -1.0}

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=0)

    def test_clear(self):
        cache = ResultCache(capacity=2)
        cache.put(_key(0), _value(0))
        cache.clear()
        assert len(cache) == 0
        assert cache.get(_key(0)) is None


class TestDiskSpill:
    def test_eviction_spills_and_get_promotes(self, tmp_path):
        cache = ResultCache(capacity=1, spill_dir=tmp_path / "spill")
        cache.put(_key(0), _value(0))
        cache.put(_key(1), _value(1))  # evicts 0 → disk
        assert cache.stats()["spill_writes"] == 1
        assert len(list((tmp_path / "spill").glob("*.json"))) == 1
        got = cache.get(_key(0))  # spill hit, promoted (evicts 1)
        assert got == _value(0)
        s = cache.stats()
        assert s["spill_hits"] == 1 and s["hits"] == 1
        # 1 was evicted to disk by the promotion; it round-trips too.
        assert cache.get(_key(1)) == _value(1)

    def test_spill_survives_restart(self, tmp_path):
        spill = tmp_path / "spill"
        old = ResultCache(capacity=1, spill_dir=spill)
        old.put(_key(0), _value(0))
        old.put(_key(1), _value(1))
        fresh = ResultCache(capacity=8, spill_dir=spill)
        assert fresh.get(_key(0)) == _value(0)
        assert fresh.stats()["spill_hits"] == 1

    def test_spill_from_other_package_version_is_a_miss(self, tmp_path):
        # A solver upgrade may change schedules; pre-upgrade spill
        # entries must be re-solved, not served.
        spill = tmp_path / "spill"
        cache = ResultCache(capacity=1, spill_dir=spill)
        cache.put(_key(0), _value(0))
        cache.put(_key(1), _value(1))
        for f in spill.glob("*.json"):
            data = json.loads(f.read_text())
            data["version"] = "0.0.0-older"
            f.write_text(json.dumps(data))
        assert cache.get(_key(0)) is None

    def test_spill_from_before_the_slim_lp_is_a_miss(self, tmp_path):
        # 1.5.0 drops LP (9)'s implied fit/span rows; on degenerate
        # instances HiGHS may then stop at another optimal vertex, so a
        # 1.4.0 spill can hold a schedule a direct solve no longer
        # returns.
        spill = tmp_path / "spill"
        cache = ResultCache(capacity=1, spill_dir=spill)
        cache.put(_key(0), _value(0))
        cache.put(_key(1), _value(1))
        for f in spill.glob("*.json"):
            data = json.loads(f.read_text())
            assert data["version"] == repro.__version__ != "1.4.0"
            data["version"] = "1.4.0"
            f.write_text(json.dumps(data))
        assert cache.get(_key(0)) is None

    def test_corrupt_spill_file_is_a_miss(self, tmp_path):
        spill = tmp_path / "spill"
        cache = ResultCache(capacity=1, spill_dir=spill)
        cache.put(_key(0), _value(0))
        cache.put(_key(1), _value(1))
        for f in spill.glob("*.json"):
            f.write_text("{ not json")
        assert cache.get(_key(0)) is None
        assert cache.stats()["misses"] == 1

    def test_key_mismatch_in_spill_file_is_a_miss(self, tmp_path):
        spill = tmp_path / "spill"
        cache = ResultCache(capacity=1, spill_dir=spill)
        cache.put(_key(0), _value(0))
        cache.put(_key(1), _value(1))
        for f in spill.glob("*.json"):
            f.write_text(
                json.dumps({"key": ["x", "y", "z"], "value": {"a": 1}})
            )
        assert cache.get(_key(0)) is None

    def test_no_spill_dir_means_eviction_is_final(self, tmp_path):
        cache = ResultCache(capacity=1)
        cache.put(_key(0), _value(0))
        cache.put(_key(1), _value(1))
        assert cache.get(_key(0)) is None
        s = cache.stats()
        assert s["spill_writes"] == 0 and s["spill_dir"] is None

    def test_spill_tier_is_bounded(self, tmp_path):
        spill = tmp_path / "spill"
        cache = ResultCache(
            capacity=1, spill_dir=spill, spill_max_files=2
        )
        for i in range(6):  # evicts 5 entries; only 2 files may land
            cache.put(_key(i), _value(i))
        files = list(spill.glob("*.json"))
        assert len(files) == 2
        assert cache.stats()["spill_files"] == 2
        # Bounded, not broken: the landed entries still round-trip.
        assert cache.get(_key(0)) == _value(0)

    def test_spill_count_restored_at_startup(self, tmp_path):
        spill = tmp_path / "spill"
        old = ResultCache(capacity=1, spill_dir=spill)
        old.put(_key(0), _value(0))
        old.put(_key(1), _value(1))
        fresh = ResultCache(capacity=1, spill_dir=spill)
        assert fresh.stats()["spill_files"] == 1

    def test_clear_drop_spill(self, tmp_path):
        spill = tmp_path / "spill"
        cache = ResultCache(capacity=1, spill_dir=spill)
        cache.put(_key(0), _value(0))
        cache.put(_key(1), _value(1))
        cache.clear(drop_spill=True)
        assert list(spill.glob("*.json")) == []
        assert cache.get(_key(0)) is None
