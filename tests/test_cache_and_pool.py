"""Tests for the LRU caches, prefetch strategies, and thread pool."""

import threading
import time

import pytest

from repro.cache import (
    FetchMultiStream,
    FetchNextAdaptive,
    FetchNextFixed,
    LRUCache,
)
from repro.errors import UsageError
from repro.pool import ThreadPool


class TestLRUCache:
    def test_basic_insert_get(self):
        cache = LRUCache(2)
        cache.insert("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.insert("a", 1)
        cache.insert("b", 2)
        cache.get("a")  # refresh a
        cache.insert("c", 3)  # evicts b
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_reinsert_updates_value(self):
        cache = LRUCache(2)
        cache.insert("a", 1)
        cache.insert("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_statistics(self):
        cache = LRUCache(1)
        cache.insert("x", 0)
        cache.get("x")
        cache.get("y")
        cache.insert("z", 1)
        stats = cache.statistics
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.evictions == 1
        assert 0 < stats.hit_rate < 1

    def test_peek_does_not_touch(self):
        cache = LRUCache(2)
        cache.insert("a", 1)
        cache.insert("b", 2)
        cache.peek("a")
        cache.insert("c", 3)  # a is still LRU -> evicted
        assert "a" not in cache

    def test_pop(self):
        cache = LRUCache(2)
        cache.insert("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a", "gone") == "gone"

    def test_capacity_validation(self):
        with pytest.raises(UsageError):
            LRUCache(0)

    def test_thread_safety_smoke(self):
        cache = LRUCache(16)

        def worker(base):
            for i in range(300):
                cache.insert((base, i % 20), i)
                cache.get((base, (i + 1) % 20))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 16


class TestPrefetchStrategies:
    def test_fixed_returns_next_degree(self):
        strategy = FetchNextFixed()
        assert strategy.prefetch([5], 3) == [6, 7, 8]
        assert strategy.prefetch([], 3) == []

    def test_adaptive_first_access_full_degree(self):
        # Paper §3.2: full prefetch depth on the initial access so
        # decompression starts fully parallel.
        strategy = FetchNextAdaptive()
        assert strategy.prefetch([0], 8) == list(range(1, 9))

    def test_adaptive_ramps_with_sequential_run(self):
        strategy = FetchNextAdaptive()
        short_run = strategy.prefetch([7, 3, 4], 16)  # run of 2
        long_run = strategy.prefetch([3, 4, 5, 6, 7], 16)  # run of 5
        assert len(short_run) < len(long_run)
        assert long_run == list(range(8, 8 + 16))  # saturated at degree

    def test_adaptive_resets_on_random_access(self):
        strategy = FetchNextAdaptive()
        wishes = strategy.prefetch([3, 4, 5, 42], 16)
        assert wishes == []

    def test_adaptive_counts_a_repeated_chunk_once(self):
        # A chunk split inside its cell is requested twice under one id.
        strategy = FetchNextAdaptive()
        assert strategy.prefetch([3, 4, 5, 5], 16) == strategy.prefetch(
            [3, 4, 5], 16
        )
        assert strategy.prefetch([0, 0], 8) == list(range(1, 9))

    def test_multistream_tracks_streams_independently(self):
        strategy = FetchMultiStream()
        history = [100, 0, 101, 1, 102, 2]
        wishes = strategy.prefetch(history, 8)
        assert any(w > 100 for w in wishes)
        assert any(w < 100 for w in wishes)

    def test_multistream_no_duplicates(self):
        strategy = FetchMultiStream()
        wishes = strategy.prefetch([1, 2, 3, 2, 3, 4], 8)
        assert len(wishes) == len(set(wishes))

    def test_multistream_single_stream_behaves_like_adaptive(self):
        strategy = FetchMultiStream()
        wishes = strategy.prefetch([0, 1, 2, 3], 8)
        assert wishes[0] == 4

    def test_multistream_lone_access_wishes_nothing_for_its_stream(self):
        strategy = FetchMultiStream()
        wishes = strategy.prefetch([0, 1, 2, 100], 8)
        assert wishes
        assert all(wish < 100 for wish in wishes)


class TestThreadPool:
    def test_submit_and_result(self):
        with ThreadPool(2) as pool:
            future = pool.submit(lambda x: x * 2, 21)
            assert future.result(timeout=5) == 42

    def test_exception_propagates(self):
        with ThreadPool(1) as pool:
            future = pool.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result(timeout=5)

    def test_parallel_execution(self):
        barrier = threading.Barrier(3, timeout=5)
        with ThreadPool(3) as pool:
            futures = [pool.submit(barrier.wait) for _ in range(3)]
            for future in futures:
                future.result(timeout=5)  # deadlocks unless truly parallel

    def test_queued_work_runs_in_submission_order(self):
        order = []
        gate = threading.Event()
        with ThreadPool(1) as pool:
            pool.submit(gate.wait)  # occupy the single worker
            for name in ("first", "second", "third"):
                pool.submit(order.append, name)
            gate.set()
            pool.shutdown(wait=True)
        assert order == ["first", "second", "third"]

    def test_shutdown_drains_queue(self):
        results = []
        pool = ThreadPool(2)
        for i in range(20):
            pool.submit(results.append, i)
        pool.shutdown(wait=True)
        assert sorted(results) == list(range(20))

    def test_submit_after_shutdown_raises(self):
        pool = ThreadPool(1)
        pool.shutdown()
        with pytest.raises(UsageError):
            pool.submit(print)

    def test_counters(self):
        pool = ThreadPool(2)
        futures = [pool.submit(time.sleep, 0) for _ in range(5)]
        for future in futures:
            future.result(timeout=5)
        pool.shutdown()
        assert pool.tasks_submitted == 5
        assert pool.tasks_completed == 5
        assert pool.pending == 0

    def test_size_validation(self):
        with pytest.raises(UsageError):
            ThreadPool(0)


class TestLRUMembershipPaths:
    """Membership/scan paths must not perturb recency or statistics.

    The fetcher's prefetch wish-check probes both caches on every access;
    if those probes refreshed recency or counted as lookups, prefetch
    traffic would age out data the consumer is about to re-read and
    inflate the reported hit rates.
    """

    def test_contains_does_not_touch_recency(self):
        cache = LRUCache(2)
        cache.insert("a", 1)
        cache.insert("b", 2)
        assert "a" in cache  # must NOT refresh a
        cache.insert("c", 3)  # a is still LRU -> evicted
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_contains_peek_keys_do_not_touch_statistics(self):
        cache = LRUCache(2)
        cache.insert("a", 1)
        assert "a" in cache
        assert "missing" not in cache
        cache.peek("a")
        cache.peek("missing")
        cache.keys()
        stats = cache.statistics
        assert stats.hits == 0
        assert stats.misses == 0

    def test_keys_does_not_touch_recency(self):
        cache = LRUCache(2)
        cache.insert("a", 1)
        cache.insert("b", 2)
        assert cache.keys() == ["a", "b"]
        cache.insert("c", 3)  # a unrefreshed -> evicted
        assert "a" not in cache


class TestLRUByteAccounting:
    def test_byte_capacity_eviction(self):
        cache = LRUCache(10, max_bytes=100, sizer=len)
        cache.insert("a", b"x" * 60)
        cache.insert("b", b"y" * 60)  # 120 > 100 -> evict a
        assert "a" not in cache and "b" in cache
        assert cache.current_bytes == 60
        assert cache.statistics.bytes_evicted == 60

    def test_sole_oversized_entry_survives(self):
        cache = LRUCache(10, max_bytes=100, sizer=len)
        cache.insert("big", b"z" * 500)
        assert "big" in cache  # never evict the sole newest entry
        assert cache.current_bytes == 500

    def test_replacement_swaps_charge(self):
        cache = LRUCache(10, max_bytes=1000, sizer=len)
        cache.insert("a", b"x" * 100)
        cache.insert("a", b"y" * 30)
        assert cache.current_bytes == 30

    def test_pop_and_clear_discharge(self):
        cache = LRUCache(10, max_bytes=1000, sizer=len)
        cache.insert("a", b"x" * 100)
        cache.insert("b", b"y" * 50)
        cache.pop("a")
        assert cache.current_bytes == 50
        cache.clear()
        assert cache.current_bytes == 0

    def test_max_bytes_requires_sizer(self):
        with pytest.raises(UsageError):
            LRUCache(2, max_bytes=100)


class TestThreadPoolShed:
    def test_shed_cancels_every_queued_task(self):
        gate = threading.Event()
        started = threading.Event()

        def blocker_task():
            started.set()
            gate.wait()

        with ThreadPool(1) as pool:
            blocker = pool.submit(blocker_task)
            assert started.wait(timeout=5)  # occupy the sole worker
            prefetches = [pool.submit(time.sleep, 0) for _ in range(3)]
            shed = pool.shed()
            assert pool.shed() == 0  # nothing newly cancelled
            gate.set()
            pool.shutdown(wait=True)
        assert shed == 3
        assert all(future.cancelled() for future in prefetches)
        assert blocker.done()

    def test_shed_does_not_touch_running_tasks(self):
        gate = threading.Event()
        started = threading.Event()

        def task():
            started.set()
            gate.wait()
            return "done"

        with ThreadPool(1) as pool:
            future = pool.submit(task)
            assert started.wait(timeout=5)
            assert pool.shed() == 0
            gate.set()
            assert future.result(timeout=5) == "done"
