"""Thread-safe, optionally capped LRU memo keyed on content fingerprints.

The estimate memo (:mod:`repro.gpusim.kernel`) and the sweep memo
(:mod:`repro.bench.runner`) share this one implementation.  Keys are
tuples whose element 1 is a matrix fingerprint, so a superseded matrix
version's entries can be dropped without touching any other matrix's.
Drops surface as ``<prefix>.evictions`` (LRU cap) and
``<prefix>.invalidations`` (fingerprint) counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

from repro import obs

__all__ = ["LRUMemo"]


class LRUMemo:
    """Recency-ordered dict with an optional entry cap (None = unlimited,
    the default).  Every method is safe to call from sweep worker
    threads."""

    def __init__(self, counter_prefix: str) -> None:
        self._prefix = counter_prefix
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._limit: Optional[int] = None

    def get(self, key: Hashable) -> Any:
        """The cached value (refreshing its recency), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert as most recent, LRU-evicting past the cap."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = self._trim_locked()
        self._count("evictions", evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry whose key's element 1 is ``fingerprint``;
        returns the number dropped."""
        with self._lock:
            stale = [k for k in self._entries if k[1] == fingerprint]
            for k in stale:
                del self._entries[k]
        self._count("invalidations", len(stale))
        return len(stale)

    @property
    def limit(self) -> Optional[int]:
        with self._lock:
            return self._limit

    def set_limit(self, limit: Optional[int]) -> Optional[int]:
        """Cap at ``limit`` entries (None removes the cap), evicting the
        coldest beyond it; returns the previous limit."""
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be a positive int or None, got {limit!r}")
        with self._lock:
            prev, self._limit = self._limit, limit
            evicted = self._trim_locked()
        self._count("evictions", evicted)
        return prev

    def _trim_locked(self) -> int:
        evicted = 0
        if self._limit is not None:
            while len(self._entries) > self._limit:
                self._entries.popitem(last=False)
                evicted += 1
        return evicted

    def _count(self, what: str, n: int) -> None:
        if n:
            obs.get_registry().counter(f"{self._prefix}.{what}").inc(n)
