"""A weave-epoch page cache for the serving hot path.

The serving layer's pages are deterministic for a fixed audience, page
and deployment state — everything session-variant is confined to the
breadcrumb trail, a nav block the audience renderer never records: the
trail is session data, and :meth:`~repro.web.html.HtmlPage.skeleton_html`
writes :data:`~repro.web.html.TRAIL_SLOT` where a session's
:func:`~repro.navigation.session.breadcrumb_fragment` goes.  That makes
the rendered *skeleton* cacheable, provided the cache key pins down the
deployment state.  The pin is the **weave epoch**: a monotonic
counter (:attr:`~repro.aop.WeaverRuntime.weave_epoch`, snapshotted per
audience by :class:`~repro.navigation.serving.AudienceServer`) that
advances on every weave mutation touching the audience's stack.  A
``deploy``, ``undeploy``, ``reconfigure`` or scoped session deployment
moves the audience to a new epoch; every entry keyed under an older
epoch becomes unreachable at that instant — invalidation is a counter
bump, never a scan.

One :class:`PageCache` per audience (the audience is the cache instance;
the key inside it is ``(page_uri, epoch)``), LRU-bounded, counters for
``/-/stats``.  ``ServingConfig(cache_enabled=False)`` (``serve
--no-cache``) switches the whole tier off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass


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
    """An LRU map of ``(page_uri, weave_epoch)`` -> serialized skeleton.

    Thread-safe: the serving layer's renders are lock-free and
    concurrent, so lookups and stores race freely; every operation here
    holds one short internal lock.  Entries under superseded epochs are
    never *served* (readers always key with the current epoch) but would
    otherwise linger until LRU pressure pushes them out —
    :meth:`drop_stale` reclaims them eagerly after an epoch bump.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("page cache needs max_entries >= 1")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, int], CachedSkeleton] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: "tuple[str, int]") -> bool:
        """Whether ``(page_uri, epoch)`` is stored, counting nothing.

        A peek: hit and miss counters and the LRU order stay as they
        were, so a caller can ask where a request should run without
        disturbing what :meth:`get` reports.
        """
        with self._lock:
            return key in self._entries

    def get(self, page_uri: str, epoch: int) -> CachedSkeleton | None:
        """The entry for *page_uri* at *epoch*, or ``None`` (counted)."""
        key = (page_uri, epoch)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, page_uri: str, epoch: int, entry: CachedSkeleton) -> None:
        """Store *entry*, evicting least-recently-used ones past the cap."""
        key = (page_uri, epoch)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def drop_stale(self, epoch: int) -> int:
        """Reclaim every entry keyed under an epoch older than *epoch*.

        Correctness never needs this — superseded keys are unreachable —
        but an epoch bump otherwise leaves the old generation squatting
        in the LRU until natural pressure evicts it.  Returns the count
        (tallied as ``invalidations``, distinct from LRU ``evictions``).
        """
        with self._lock:
            stale = [key for key in self._entries if key[1] < epoch]
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

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
