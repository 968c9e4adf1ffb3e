"""The one bounded LRU map behind both caches, and its counter ledger.

Both bounded LRU caches in the library — the score memoization map
(:class:`repro.runtime.cache.ScoreCache`) and the feature memoization
wrapper (:class:`repro.features.base.CachingExtractor`) — are built on
:class:`BoundedLRU`: one get-with-recency-refresh, one insert with
least-recently-used eviction, and one set of hit/miss/eviction counters
that dashboards and tests read.  Those counters historically drifted
from the cache contents: ``clear()`` emptied the map but left the
counters standing, and a bulk reload re-based some counters but not
others, so ``evictions`` could end up claiming more departures than
entries that ever existed.

This module pins the counters to one **ledger invariant**:

    ``inserts - evictions - removed == size``

where ``inserts`` counts entries that entered the map (bulk loads
re-base it to the loaded size), ``evictions`` counts capacity-pressure
departures, and ``removed`` counts explicit departures (``clear()``).
Every mutation path of :class:`BoundedLRU` maintains the identity, and
:func:`assert_counters_consistent` is the self-check it and the tests
call to prove it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable


class CounterDriftError(AssertionError):
    """A cache's counters no longer account for its contents."""


class BoundedLRU:
    """Bounded least-recently-used map that keeps the counter ledger.

    ``get`` refreshes recency and counts a hit or a miss; ``put``
    inserts (or overwrites in place) and evicts the least recently used
    entries beyond ``max_entries``.  ``label`` names the cache in a
    :class:`CounterDriftError`.
    """

    def __init__(self, max_entries: int, label: str) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._label = label
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        # ledger counters: inserts - evictions - removed == cache_size()
        self.inserts = 0
        self.evictions = 0
        self.removed = 0

    def get(self, key: Hashable):
        """The value under ``key``, refreshing recency; None on miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        else:
            self.inserts += 1
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def cache_size(self) -> int:
        return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def clear(self) -> None:
        """Drop every entry, keeping the ledger balanced."""
        self.removed += len(self._entries)
        self._entries.clear()
        assert_counters_consistent(self, label=self._label)

    def reset_counters(self) -> None:
        """Zero the activity counters without touching the contents.

        ``inserts`` re-bases to the current size (not zero) so the
        ledger invariant keeps holding over entries loaded in bulk —
        zeroing it while the map is populated is exactly the stale-
        counter drift this ledger exists to catch.
        """
        self.hits = self.misses = self.evictions = self.removed = 0
        self.inserts = len(self._entries)
        assert_counters_consistent(self, label=self._label)


def counter_ledger(cache: BoundedLRU) -> Dict[str, int]:
    """The counter ledger of a cache as one plain dict."""
    return {
        "inserts": int(cache.inserts),
        "evictions": int(cache.evictions),
        "removed": int(cache.removed),
        "size": int(cache.cache_size()),
    }


def assert_counters_consistent(cache, label: str = "cache") -> Dict[str, int]:
    """Verify the ledger invariant; returns the ledger on success.

    Raises :class:`CounterDriftError` naming the cache and showing the
    full ledger when ``inserts - evictions - removed != size`` — the
    signature of a mutation path that touched the map without updating
    its counters (or vice versa).
    """
    ledger = counter_ledger(cache)
    balance = ledger["inserts"] - ledger["evictions"] - ledger["removed"]
    if balance != ledger["size"]:
        raise CounterDriftError(
            f"{label}: counter ledger drifted from contents: "
            f"inserts({ledger['inserts']}) - evictions({ledger['evictions']})"
            f" - removed({ledger['removed']}) = {balance} "
            f"!= size({ledger['size']})"
        )
    return ledger
