"""Tests for the TTL client cache."""

import pytest
from hypothesis import given, strategies as st

from repro.store import ClientCache


def test_get_miss_then_hit():
    c = ClientCache(ttl=5.0)
    assert c.get("k", now=0.0) is None
    c.put("k", "v", now=0.0)
    assert c.get("k", now=1.0) == "v"
    assert c.hits == 1 and c.misses == 1


def test_entry_expires_after_ttl():
    c = ClientCache(ttl=2.0)
    c.put("k", "v", now=0.0)
    assert c.get("k", now=2.0) == "v"     # exactly at ttl: still fresh
    assert c.get("k", now=2.01) is None   # past ttl: expired
    # expired entry was dropped
    assert len(c) == 0


def test_put_refreshes_timestamp():
    c = ClientCache(ttl=2.0)
    c.put("k", "v1", now=0.0)
    c.put("k", "v2", now=1.5)
    assert c.get("k", now=3.0) == "v2"


def test_lru_eviction_order():
    c = ClientCache(ttl=100.0, capacity=2)
    c.put("a", 1, now=0.0)
    c.put("b", 2, now=0.0)
    c.get("a", now=0.1)       # touch a so b becomes LRU
    c.put("c", 3, now=0.2)
    assert c.get("b", now=0.3) is None
    assert c.get("a", now=0.3) == 1
    assert c.get("c", now=0.3) == 3


def test_clear_empties_the_cache():
    c = ClientCache(ttl=10.0)
    c.put("a", 1, now=0.0)
    c.put("b", 2, now=0.0)
    c.clear()
    assert len(c) == 0
    assert c.get("a", now=0.1) is None


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ClientCache(ttl=-1.0)
    with pytest.raises(ValueError):
        ClientCache(capacity=0)


def test_hit_rate():
    c = ClientCache(ttl=10.0)
    assert c.hit_rate == 0.0
    c.put("a", 1, now=0.0)
    c.get("a", now=0.1)
    c.get("zzz", now=0.1)
    assert c.hit_rate == pytest.approx(0.5)


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 100)), max_size=50))
def test_capacity_never_exceeded(ops):
    c = ClientCache(ttl=1000.0, capacity=5)
    for key, value in ops:
        c.put(key, value, now=0.0)
        assert len(c) <= 5


@given(st.integers(0, 100), st.floats(min_value=0.0, max_value=10.0))
def test_fresh_entries_always_hit(key, age):
    c = ClientCache(ttl=10.0)
    c.put(key, "v", now=0.0)
    assert c.get(key, now=age) == "v"
