"""A TTL-based client cache.

Caching is the canonical source of the staleness the paper worries
about ("cached data may be stale").  The cache is deliberately simple —
entries expire after a fixed time-to-live and are never invalidated
remotely — because that is exactly the weak behaviour whose consistency
cost experiment E5's ablation measures.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

__all__ = ["ClientCache"]


class ClientCache:
    """Bounded TTL cache with LRU eviction and hit/miss counters."""

    def __init__(self, ttl: float = 5.0, capacity: int = 1024):
        if ttl < 0:
            raise ValueError(f"negative ttl {ttl}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.ttl = ttl
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, tuple[float, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, now: float) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stored_at, value = entry
        if now - stored_at > self.ttl:
            del self._entries[key]
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: Hashable, now: float) -> Optional[tuple[Any, float]]:
        """Return ``(value, age)`` even past the TTL, or ``None`` if absent.

        Stale-while-offline read: a DISCONNECTED client would rather have
        an arbitrarily old value (with its age accounted for) than none.
        Does not evict, does not touch LRU order, does not count as a
        hit or miss — ordinary TTL accounting stays honest.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        stored_at, value = entry
        return value, now - stored_at

    def put(self, key: Hashable, value: Any, now: float) -> None:
        if key in self._entries:
            del self._entries[key]
        self._entries[key] = (now, value)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (f"ClientCache(ttl={self.ttl}, entries={len(self._entries)}, "
                f"hit_rate={self.hit_rate:.2f})")
