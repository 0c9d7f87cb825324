"""Tests for the bounded LRU mapping behind the evaluator memos."""

from repro.utils.lru import LRUCache


class TestLRUCache:
    def test_acts_like_a_dict_below_capacity(self):
        cache = LRUCache(4)
        cache["a"] = 1
        cache["b"] = 2
        assert cache["a"] == 1
        assert "b" in cache
        assert cache.get("c") is None
        assert len(cache) == 2

    def test_evicts_oldest_past_capacity(self):
        cache = LRUCache(3)
        for i, key in enumerate("abcd"):
            cache[key] = i
        assert "a" not in cache
        assert list(cache) == ["b", "c", "d"]

    def test_reads_refresh_recency(self):
        cache = LRUCache(3)
        for i, key in enumerate("abc"):
            cache[key] = i
        assert cache["a"] == 0  # touch 'a' so 'b' is now oldest
        cache["d"] = 3
        assert "a" in cache
        assert "b" not in cache

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        cache.get("a")
        cache["c"] = 3
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_overwrite_does_not_grow(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["a"] = 2
        cache["b"] = 3
        assert len(cache) == 2
        assert cache["a"] == 2

    def test_zero_capacity_means_unbounded(self):
        cache = LRUCache(0)
        for i in range(1000):
            cache[i] = i
        assert len(cache) == 1000

    def test_negative_capacity_means_unbounded(self):
        cache = LRUCache(-5)
        for i in range(100):
            cache[i] = i
        assert len(cache) == 100

    def test_capacity_one_keeps_only_latest(self):
        cache = LRUCache(1)
        for i, key in enumerate("abc"):
            cache[key] = i
        assert list(cache.items()) == [("c", 2)]
        # Reading the sole entry keeps it resident; writing replaces it.
        assert cache["c"] == 2
        cache["d"] = 3
        assert list(cache) == ["d"]

    def test_eviction_order_under_mixed_reads_and_writes(self):
        cache = LRUCache(3)
        for i, key in enumerate("abc"):
            cache[key] = i
        cache.get("a")          # order: b, c, a
        cache["b"] = 10         # overwrite refreshes: c, a, b
        cache["d"] = 3          # evicts c: a, b, d
        assert list(cache) == ["a", "b", "d"]
        cache.get("missing")    # a miss must not disturb recency
        cache["e"] = 4          # evicts a
        assert list(cache) == ["b", "d", "e"]

    def test_setdefault_respects_capacity_and_recency(self):
        # setdefault is inherited from OrderedDict; it must behave
        # exactly like a read-hit / write-miss pair.
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.setdefault("a", 99) == 1   # hit: keeps value, refreshes
        assert cache.setdefault("c", 3) == 3    # miss: inserts, evicts 'b'
        assert list(cache) == ["a", "c"]
        assert len(cache) == 2
