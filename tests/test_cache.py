"""Tests for the persistent simulation result cache."""

import os
import pickle
import threading
import time

import pytest

from repro.sim import cache


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    return tmp_path


def test_round_trip(cache_env):
    key = ("espresso", "PI4", "sequential", 1000)
    assert cache.load("sim_stats", key) is None
    cache.store("sim_stats", key, {"ipc": 2.5})
    assert cache.load("sim_stats", key) == {"ipc": 2.5}


def test_kinds_are_namespaced(cache_env):
    key = ("espresso", "PI4")
    cache.store("sim_stats", key, "a")
    cache.store("eir_stats", key, "b")
    assert cache.load("sim_stats", key) == "a"
    assert cache.load("eir_stats", key) == "b"


def test_corrupt_entry_is_dropped(cache_env):
    key = ("li", "PI12", "collapsing_buffer")
    cache.store("sim_stats", key, 42)
    (entry,) = cache_env.glob("**/*.pkl")
    entry.write_bytes(b"not a pickle")
    assert cache.load("sim_stats", key) is None
    assert not entry.exists()  # damaged file removed
    # ... and the slot heals on the next store.
    cache.store("sim_stats", key, 43)
    assert cache.load("sim_stats", key) == 43


def test_key_mismatch_is_a_miss(cache_env):
    key = ("li", "PI4", "sequential")
    cache.store("sim_stats", key, 1)
    (entry,) = cache_env.glob("**/*.pkl")
    entry.write_bytes(
        pickle.dumps({"key": ("sim_stats", ("other",)), "value": 99})
    )
    assert cache.load("sim_stats", key) is None


def test_disable_via_env(cache_env, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    key = ("ora", "PI4", "sequential")
    cache.store("sim_stats", key, 7)
    assert cache.load("sim_stats", key) is None
    assert not list(cache_env.glob("**/*.pkl"))


def test_clear_removes_entries(cache_env):
    for i in range(3):
        cache.store("sim_stats", ("bench", i), i)
    assert cache.clear() == 3
    assert cache.load("sim_stats", ("bench", 0)) is None


def test_source_version_is_stable():
    assert cache.source_version() == cache.source_version()
    assert len(cache.source_version()) == 64


def test_counters_track_miss_store_hit(cache_env):
    cache.reset_stats()
    key = ("espresso", "PI4", "sequential", 500)
    assert cache.load("sim_stats", key) is None
    cache.store("sim_stats", key, 1)
    assert cache.load("sim_stats", key) == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.hits == 1


def test_counters_track_corruption(cache_env):
    cache.reset_stats()
    key = ("li", "PI8", "perfect")
    cache.store("sim_stats", key, 42)
    (entry,) = cache_env.glob("**/*.pkl")
    entry.write_bytes(b"junk")
    assert cache.load("sim_stats", key) is None
    assert cache.stats.corrupt_dropped == 1
    assert cache.stats.misses == 1


def test_stats_snapshot_delta_and_merge(cache_env):
    cache.reset_stats()
    before = cache.stats.snapshot()
    cache.store("sim_stats", ("a",), 1)
    cache.load("sim_stats", ("a",))
    delta = cache.stats.since(before)
    assert delta["stores"] == 1
    assert delta["hits"] == 1
    # A worker's delta folds into a fresh parent-side accumulator.
    fresh = cache.ResultCacheStats()
    fresh.add(delta)
    assert (fresh.hits, fresh.stores) == (1, 1)


def test_kernel_knob_salts_the_key(cache_env, monkeypatch):
    key = ("espresso", "PI4", "sequential")
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    cache.store("sim_stats", key, "plain")
    monkeypatch.setenv("REPRO_KERNEL", "0")
    assert cache.load("sim_stats", key) is None  # different generation


# -- single-flight (get_or_compute) -------------------------------------------


def test_get_or_compute_miss_then_hit(cache_env):
    cache.reset_stats()
    calls = []
    value = cache.get_or_compute("sim_stats", ("k",), lambda: calls.append(1) or 41)
    assert value == 41 and calls == [1]
    assert cache.get_or_compute("sim_stats", ("k",), lambda: 99) == 41
    assert calls == [1]  # second call served from the cache
    assert cache.stats.coalesced == 0
    assert not list(cache_env.glob("**/*.claim"))  # claim released


def test_concurrent_misses_coalesce_to_one_compute(cache_env):
    cache.reset_stats()
    calls = []
    barrier = threading.Barrier(2)
    results = {}

    def compute():
        calls.append(threading.get_ident())
        time.sleep(0.2)  # hold the claim long enough for the waiter
        return 42

    def miss(name):
        barrier.wait()
        results[name] = cache.get_or_compute("sim_stats", ("c",), compute)

    threads = [
        threading.Thread(target=miss, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    assert results == {"a": 42, "b": 42}
    assert len(calls) == 1  # single flight: exactly one simulation
    assert cache.stats.coalesced == 1


def test_stale_claim_is_broken(cache_env, monkeypatch):
    cache.reset_stats()
    monkeypatch.setenv("REPRO_CACHE_CLAIM_TTL", "0.1")
    lock = cache._claim_path("sim_stats", ("stale",))
    lock.parent.mkdir(parents=True, exist_ok=True)
    lock.write_text("99999")
    old = time.time() - 60
    os.utime(lock, (old, old))
    start = time.monotonic()
    value = cache.get_or_compute("sim_stats", ("stale",), lambda: 7)
    assert value == 7
    assert time.monotonic() - start < 5.0  # did not wait out a dead claim


def test_failed_compute_releases_the_claim(cache_env):
    cache.reset_stats()
    with pytest.raises(RuntimeError):
        cache.get_or_compute(
            "sim_stats", ("boom",), lambda: (_ for _ in ()).throw(RuntimeError())
        )
    assert not list(cache_env.glob("**/*.claim"))
    assert cache.get_or_compute("sim_stats", ("boom",), lambda: 5) == 5


def test_get_or_compute_with_cache_disabled(cache_env, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    calls = []
    for _ in range(2):
        assert cache.get_or_compute(
            "sim_stats", ("off",), lambda: calls.append(1) or 3
        ) == 3
    assert len(calls) == 2  # no memoisation, but no claims either
    assert not list(cache_env.glob("**/*"))
