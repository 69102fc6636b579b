"""The Module 4 compute-once cache and the work it saves.

Every rank of a Module 4 launch needs the same catalog, index and query
profile; these tests pin that each is computed once per key, however
many rank threads ask at the same moment, and that only ``int`` seeds
share anything.
"""

import threading
import time

import pytest

from repro import smpi
from repro.modules import module4_range
from repro.modules.module4_range import compute_once_cache, range_query_activity, shared_work
from repro.spatial import RTree


def _counting(fn, calls):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append(result)
        return result

    return wrapper


def test_concurrent_callers_compute_once_and_share_the_value():
    cache = compute_once_cache(maxsize=4)
    threads_n = 16
    barrier = threading.Barrier(threads_n)
    computed = []
    results = [None] * threads_n

    def compute():
        computed.append(1)
        time.sleep(0.01)  # widens the window in which a racy cache recomputes
        return object()

    def worker(i):
        barrier.wait()
        results[i] = cache("key", compute)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(computed) == 1
    assert all(r is results[0] for r in results)
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (threads_n - 1, 1, 1)


def test_raising_compute_propagates_and_does_not_poison_the_key():
    cache = compute_once_cache(maxsize=4)

    def boom():
        raise RuntimeError("compute failed")

    with pytest.raises(RuntimeError, match="compute failed"):
        cache("key", boom)
    assert cache.cache_info().currsize == 0
    assert cache("key", lambda: 42) == 42
    assert cache("key", boom) == 42


def test_size_bound_evicts_least_recently_used():
    cache = compute_once_cache(maxsize=2)
    computed = []

    def value(name):
        def compute():
            computed.append(name)
            return name

        return compute

    for name in ("a", "b", "a", "c"):
        cache(name, value(name))
    assert computed == ["a", "b", "c"]
    assert cache.cache_info().currsize == 2
    cache("a", value("a"))  # still cached: "b" was the LRU entry
    cache("b", value("b"))
    assert computed == ["a", "b", "c", "b"]
    assert cache.cache_info().currsize == 2


def test_cache_clear_empties_like_functools():
    cache = compute_once_cache(maxsize=4)
    cache("k", object)
    cache.cache_clear()
    assert cache.cache_info() == (0, 0, 4, 0)
    with pytest.raises(Exception):
        compute_once_cache(maxsize=0)


def test_one_launch_builds_once_and_runs_each_query_once(monkeypatch):
    calls_build, calls_query = [], []
    monkeypatch.setattr(module4_range, "build_index", _counting(module4_range.build_index, calls_build))
    monkeypatch.setattr(RTree, "query_range", _counting(RTree.query_range, calls_query))
    shared_work.cache_clear()
    q = 40
    out = smpi.run(16, range_query_activity, n=2000, q=q, algorithm="rtree", seed=4242)
    assert len(calls_build) == 1
    assert len(calls_query) == q
    assert out[0].global_matches == sum(len(found) for found in calls_query)
    assert sum(r.queries_answered for r in out) == q


def test_non_int_seed_shares_nothing(monkeypatch):
    """``seed=None`` draws fresh data on every rank of every launch, so
    no rank may reuse another's index or profile, within a launch or
    across launches."""
    built = []
    monkeypatch.setattr(module4_range, "build_index", _counting(module4_range.build_index, built))
    before = shared_work.cache_info().currsize
    q, ranks = 16, 4
    for _ in range(2):
        out = smpi.run(ranks, range_query_activity, n=2000, q=q, algorithm="rtree", seed=None)
        assert out[0].global_matches == sum(r.local_matches for r in out)
        assert sum(r.queries_answered for r in out) == q
    assert shared_work.cache_info().currsize == before
    assert len(built) == 2 * ranks
    assert len({id(index) for index in built}) == 2 * ranks
