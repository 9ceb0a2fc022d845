"""A small LRU cache with hit/miss accounting.

``functools.lru_cache`` would force the memoized values to live on
function identities and hide its statistics behind a C-level counter;
the engine wants per-cache, per-instance statistics it can report in
benchmarks and a ``get_or_build`` idiom that keeps the expensive
builders out of the cache module. Plain ``dict`` keeps LRU order via
its insertion ordering: a hit re-inserts the key, eviction pops the
oldest entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Hashable, TypeVar

from repro.utils.validation import require_positive

__all__ = ["CacheStats", "LRUCache"]

V = TypeVar("V")


@dataclass
class CacheStats:
    """Running counters of one cache's traffic."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache(Generic[V]):
    """Bounded mapping with least-recently-used eviction and stats."""

    def __init__(self, max_entries: int = 128):
        require_positive(max_entries, "max_entries")
        self.max_entries = int(max_entries)
        self.stats = CacheStats()
        self._data: dict[Hashable, V] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> V | None:
        """The cached value for ``key`` as a counted hit, or None.

        An absent key counts nothing: the caller then builds the value
        through :meth:`get_or_build`, which counts the miss.
        """
        if key not in self._data:
            return None
        self.stats.hits += 1
        self._data[key] = value = self._data.pop(key)  # refresh recency
        return value

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """Return the cached value for ``key``, building it on a miss."""
        if key in self._data:
            self.stats.hits += 1
            self._data[key] = self._data.pop(key)  # refresh recency
            return self._data[key]
        self.stats.misses += 1
        value = build()
        self._data[key] = value
        if len(self._data) > self.max_entries:
            oldest = next(iter(self._data))
            del self._data[oldest]
            self.stats.evictions += 1
        return value

    def peek(self, key: Hashable) -> V | None:
        """Read without touching recency or counters (tests, diagnostics)."""
        return self._data.get(key)

    def clear(self) -> None:
        """Drop every entry; statistics keep accumulating across clears."""
        self._data.clear()

    def keys(self) -> list[Any]:
        """Current keys, oldest first."""
        return list(self._data)
