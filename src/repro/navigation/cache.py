"""A per-generation page cache for the serving hot path.

The serving layer's pages are deterministic for a fixed audience, page
and woven renderer — everything session-variant is confined to the
breadcrumb trail, a nav block the audience renderer never records: the
trail is session data, and :meth:`~repro.web.html.HtmlPage.skeleton_html`
writes :data:`~repro.web.html.TRAIL_SLOT` where a session's
:func:`~repro.navigation.session.breadcrumb_fragment` goes.  That makes
the rendered *skeleton* cacheable, provided the cache key pins down the
stack that rendered it.  The pin is the **renderer object** itself:
:class:`~repro.navigation.serving.AudienceServer` publishes a new
renderer with every reconfigure, a request reads the renderer once,
renders with it and keys the cache on it, so an entry can only ever be
served to a request that would have rendered it with the same stack.
Keys compare renderers by identity, never by class.

One :class:`PageCache` per audience (the key inside it is
``(page_uri, renderer)``), LRU-bounded, with counters for ``/-/stats``
that survive reconfigures.  ``ServingConfig(cache_enabled=False)``
(``serve --no-cache``) switches the whole tier off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class CachedSkeleton:
    """One cache entry: a serialized skeleton plus trail-recording facts.

    ``title`` and ``path`` let a cache hit record the visit on the
    session's breadcrumb trail exactly as the
    :class:`~repro.navigation.session.BreadcrumbAspect` would have during
    a live render — same ``(path, title)`` pair, so hit and miss produce
    identical trails.
    """

    skeleton: str
    title: str
    path: str


class PageCache:
    """An LRU map of ``(page_uri, renderer)`` -> serialized skeleton.

    Thread-safe: the serving layer's renders are lock-free and
    concurrent, so lookups and stores race freely; every operation here
    holds one short internal lock.  :meth:`drop_stale` reclaims a
    retired renderer's entries after a swap and makes the cache refuse
    stores under any renderer but the current one, so a render that
    straddled the swap cannot park an entry that would pin the retired
    generation until LRU pressure pushes it out.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("page cache needs max_entries >= 1")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, Any], CachedSkeleton] = OrderedDict()
        #: The renderer the last drop_stale named (None: any is current).
        self._current: Any = None
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, page_uri: str, renderer: Any) -> CachedSkeleton | None:
        """The entry *renderer* rendered for *page_uri*, or ``None`` (counted)."""
        key = (page_uri, renderer)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, page_uri: str, renderer: Any, entry: CachedSkeleton) -> None:
        """Store *entry*, evicting least-recently-used ones past the cap.

        A store under a renderer that is no longer current is dropped.
        """
        key = (page_uri, renderer)
        with self._lock:
            if self._current is not None and renderer is not self._current:
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def drop_stale(self, renderer: Any) -> int:
        """Make *renderer* the current one and reclaim every other's entries.

        Correctness never needs this — no request keys with a retired
        renderer — but the entries would otherwise squat in the LRU, and
        keep the retired generation alive, until natural pressure evicts
        them.  Returns the count (tallied as ``invalidations``, distinct
        from LRU ``evictions``).
        """
        with self._lock:
            self._current = renderer
            stale = [key for key in self._entries if key[1] is not renderer]
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._current = None

    def stats(self) -> "dict[str, int]":
        """Counters for ``/-/stats``: hits, misses, evictions, size."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
            }
