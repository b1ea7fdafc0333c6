"""Live multi-audience serving: one immutable generation per audience.

The paper's claim is that navigation is a swappable aspect over an
untouched base program; the production question is serving *several
audiences at once* from one live process, and swapping one audience's
navigation while requests are in flight.  Every audience is served by a
:class:`Generation`: a private ``PageRenderer`` subclass with the
audience's stack woven into it class-wide.  The base class is never
woven, and no two audiences share a woven class.

:class:`AudienceServer` is that arrangement held as an object::

    from repro.navigation import AudienceServer, UserAgent

    with AudienceServer(fixture, DEFAULT_AUDIENCES) as server:
        visitor = UserAgent(server.provider("visitor"))
        curator = UserAgent(server.provider("curator"))
        visitor.open("index.html")          # tour + index navigation
        curator.open("index.html")          # index only — same process
        server.reconfigure("curator", ("indexed-guided-tour",))
        curator.open("index.html")          # new nav; visitor untouched

Pages render on demand through :class:`LazyWovenProvider`, which resolves
the audience's current generation on every page, so a
:meth:`~AudienceServer.reconfigure` between two requests changes what the
*next* page shows — for that audience only.  A reconfigure builds the
new generation beside the old one and publishes it with one store: every
page is rendered by exactly one complete stack, old or new.
"""

from __future__ import annotations

import functools
import posixpath
import weakref
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping
from urllib.parse import unquote

from repro.aop import Aspect, Deployment, DeploymentSet, WeaverRuntime

from .agent import PageAnchor, PageView
from .audience import DEFAULT_AUDIENCES, AudienceBundle
from .cache import PageCache
from .config import ServingConfig
from .errors import NavigationError
from .session import BreadcrumbTrail, SessionRecord

def normalize_page_uri(uri: str) -> str:
    """The site-relative normal form providers key their page maps by.

    Decodes percent-encoded segments (``rooms%2Fr1.html``), folds
    Windows-style backslashes to ``/``, strips any leading slashes and
    collapses ``.``/``..`` segments, so rooted (``/index.html``),
    explicitly-relative (``./rooms/r1.html``) and escaped spellings of the
    same page resolve to one key.  References escaping the site root —
    plain (``../outside.html``), rooted (``/../outside.html``) or dressed
    up in percent-encoding (``%2e%2e%2foutside.html``) — are rejected
    with :class:`NavigationError` *after* decoding, so no encoded escape
    can silently remap to an in-site page: slashes are stripped before
    ``..`` segments collapse, which keeps a rooted escape's ``..`` in the
    normal form where the guard sees it.

    Deliberate tradeoff: the HTTP front's ``PATH_INFO`` arrives with one
    WSGI decode already applied, so over HTTP this adds a second decode —
    double-encoded spellings (``%2567uitar``) alias to the same page.
    The page map is the only authority here (there are no path-keyed
    ACLs), escapes past the site root are rejected after any number of
    decodes, and provider-side callers hand in raw node URIs that need
    the decode — so one normal form for both surfaces wins over
    boundary-split decoding.
    """
    decoded = unquote(uri.strip()).replace("\\", "/")
    normalized = posixpath.normpath(decoded.lstrip("/"))
    if normalized == ".." or normalized.startswith("../"):
        raise NavigationError(f"page URI {uri!r} escapes the site root")
    if normalized in ("", "."):
        return "index.html"
    return normalized


def build_node_map(renderer: Any) -> "dict[str, Any]":
    """Normalized URI -> node for everything *renderer* serves.

    The one page-map builder both serving surfaces key off — the
    in-process :class:`LazyWovenProvider` and the HTTP front — so page
    keys cannot drift between them.
    """
    renderer = getattr(renderer, "renderer", renderer)
    return {
        normalize_page_uri(node.uri): node for node in renderer.node_inventory()
    }


def resolve_page_target(nodes: Mapping[str, Any], uri: str) -> "tuple[str, Any]":
    """``(normalized_uri, node)`` for *uri*; ``node=None`` means the home page.

    Raises :class:`NavigationError` when the page is not in the map —
    shared by every serving surface so lookup/404 semantics stay
    identical.
    """
    normalized = normalize_page_uri(uri)
    if normalized == "index.html":
        return normalized, None
    node = nodes.get(normalized)
    if node is None:
        raise NavigationError(f"no page at {uri!r}")
    return normalized, node


class LazyWovenProvider:
    """On-demand page provider over a live woven renderer.

    Unlike a materialized site build, a page is rendered only when the
    user agent asks for it — and because rendering passes through the
    renderer's deployed join points, reconfiguring the weave between two
    requests changes the navigation of pages rendered afterwards.

    *current* is a zero-argument callable returning the renderer to use:
    a :class:`~repro.core.renderer.PageRenderer`, or anything exposing
    the same ``render_home``/``render_node``/``node_inventory`` surface.
    It is called once per :meth:`page`, so a provider over an
    :class:`AudienceServer` audience follows every reconfigure.
    """

    def __init__(self, current: Callable[[], Any]):
        self._current = current
        # Normalized URI -> node, computed once from the inventory.
        self._nodes = build_node_map(current())

    def page(self, uri: str) -> PageView:
        from repro.xlink import resolve_uri

        normalized, node = resolve_page_target(self._nodes, uri)
        renderer = self._current()
        if node is None:
            page = renderer.render_home()
        else:
            page = renderer.render_node(node)
        anchors = [
            PageAnchor(
                label=a.label,
                href=normalize_page_uri(resolve_uri(normalized, a.href)),
                rel=a.rel,
            )
            for a in page.anchors()
        ]
        return PageView(uri=normalized, title=page.title, anchors=anchors)


@dataclass(frozen=True)
class Generation:
    """One audience's navigation as served: immutable once published.

    ``renderer`` is an instance of a ``PageRenderer`` subclass made for
    this generation alone, and ``weave`` is the transaction that wove the
    bundle's stack class-wide into that subclass.  ``number`` counts the
    audience's generations from 1.
    """

    number: int
    bundle: AudienceBundle
    renderer: Any
    weave: DeploymentSet


def _unweave(index: Any, cls: type) -> None:
    """Drop a retired generation's woven members and its cached scan."""
    index.invalidate(cls)
    for name, member in list(vars(cls).items()):
        if getattr(member, "__woven__", False):
            delattr(cls, name)


class AudienceServer:
    """Serve every audience's navigation live from one woven process.

    Each audience is served by one :class:`Generation`: a private
    ``PageRenderer`` subclass with the audience's stack of
    :class:`~repro.core.aspect.NavigationAspect` deployments woven into
    it class-wide, one per access structure.  Pointcuts match through the
    MRO, so ``PageRenderer`` itself is never mutated, and one
    :class:`~repro.aop.WeaverRuntime` counts every audience's live
    deployments.

    ``specs_by_access`` maps access-structure names to prebuilt specs;
    unresolved names are built once via
    :func:`~repro.core.navspec.default_museum_spec` and shared across
    every bundle that stacks them.

    **A swap is one store.**  :meth:`reconfigure` builds the new
    generation beside the old one and publishes it with one dict store,
    so every render runs exactly one complete stack: a request that took
    the old renderer finishes on the old, still-woven subclass.  A
    session is plain data (:class:`SessionTier`), so opening, serving and
    evicting sessions never touches the weave.  Reconfigures are
    serialized on an internal lock; renders stay lock-free.
    """

    def __init__(
        self,
        fixture: Any,
        bundles: Iterable[AudienceBundle] | None = None,
        *,
        specs_by_access: Mapping[str, Any] | None = None,
        config: ServingConfig | None = None,
    ):
        self._fixture = fixture
        if config is None:
            config = ServingConfig()
        self._config = config
        # None, "warn" or "error": passed to every DeploymentSet.add this
        # server performs, so a serving process can refuse
        # statically-broken weaves up front.
        self._lint = config.lint
        self._specs: dict[str, Any] = dict(specs_by_access or {})
        self._runtime = WeaverRuntime("audience-server")
        self._generations: dict[str, Generation] = {}
        #: Audience -> skeleton cache (``None`` when the tier is off).
        self._caches: dict[str, PageCache | None] = {}
        self._providers: dict[str, LazyWovenProvider] = {}
        self._closed = False
        self._lock = threading.RLock()
        try:
            for bundle in bundles if bundles is not None else DEFAULT_AUDIENCES:
                if bundle.name in self._generations:
                    raise NavigationError(
                        f"duplicate audience bundle {bundle.name!r}"
                    )
                self._generations[bundle.name] = self._build(bundle.name, bundle, 1)
                self._caches[bundle.name] = (
                    PageCache(config.cache_pages) if config.cache_enabled else None
                )
        except BaseException:
            for generation in self._generations.values():
                generation.weave.retire()
            raise

    # -- construction helpers --------------------------------------------------

    def _spec_for(self, access: str) -> Any:
        from repro.core.navspec import default_museum_spec

        spec = self._specs.get(access)
        if spec is None:
            spec = self._specs[access] = default_museum_spec(access)
        return spec

    def _build(self, audience: str, bundle: AudienceBundle, number: int) -> Generation:
        """Weave *bundle* into a fresh renderer subclass; publishes nothing.

        A failure rolls back only this generation's own transaction.
        """
        from repro.core import NavigationAspect, PageRenderer

        # Build every aspect first: an unknown access-structure name (or a
        # broken spec) fails before anything is woven.
        aspects = [
            NavigationAspect(self._spec_for(access), self._fixture)
            for access in bundle.access_structures
        ]
        cls = type(f"PageRenderer[{audience}:{number}]", (PageRenderer,), {})
        weave = self._runtime.transaction([cls])
        try:
            for aspect in aspects:
                weave.add(aspect, lint=self._lint)
        except BaseException:
            weave.rollback()
            raise
        weave.commit()
        renderer = cls(self._fixture)
        # A class is always in a reference cycle with itself, so a retired
        # generation's class would hold its wrappers and aspects until a
        # full collection.  Once its last renderer is gone, no render can
        # reach the class again, and unweaving it frees the stack at once.
        weakref.finalize(renderer, _unweave, self._runtime.shadow_index, cls)
        return Generation(number, bundle, renderer, weave)

    def _require(self, audience: str) -> None:
        if self._closed:
            raise NavigationError("audience server is closed")
        if audience not in self._generations:
            raise NavigationError(
                f"no audience {audience!r} "
                f"(serving: {', '.join(sorted(self._generations)) or 'none'})"
            )

    # -- the serving surface ---------------------------------------------------

    @property
    def runtime(self) -> WeaverRuntime:
        """The runtime holding every audience's live deployments."""
        return self._runtime

    @property
    def config(self) -> ServingConfig:
        """The serving configuration this server was built with."""
        return self._config

    @property
    def fixture(self) -> Any:
        """The content fixture every renderer instance serves from."""
        return self._fixture

    def audiences(self) -> list[str]:
        """The audiences currently served, in registration order."""
        return list(self._generations)

    def bundle(self, audience: str) -> AudienceBundle:
        """The bundle *audience* is currently configured with."""
        self._require(audience)
        return self._generations[audience].bundle

    def generation(self, audience: str) -> int:
        """The number of the generation serving *audience* (1, 2, ...)."""
        self._require(audience)
        return self._generations[audience].number

    def renderer(self, audience: str) -> Any:
        """The audience's current woven renderer instance.

        A request reads it once and renders with it throughout; the
        page cache keys on the object returned here.
        """
        self._require(audience)
        return self._generations[audience].renderer

    def deployments(self, audience: str) -> list[Deployment]:
        """The audience's live deployment handles, oldest first."""
        self._require(audience)
        return self._generations[audience].weave.deployments

    def provider(self, audience: str) -> LazyWovenProvider:
        """A lazy per-audience page provider (created once, then cached).

        Every ``page()`` resolves the audience's current generation, so a
        provider taken before a reconfigure serves the new stack after it.
        """
        self._require(audience)
        provider = self._providers.get(audience)
        if provider is None:
            provider = self._providers[audience] = LazyWovenProvider(
                functools.partial(self.renderer, audience)
            )
        return provider

    # -- the cache tier --------------------------------------------------------

    def page_cache(self, audience: str) -> PageCache | None:
        """The audience's skeleton cache, or ``None`` when the server's
        config disables the tier (``cache_enabled=False``)."""
        self._require(audience)
        return self._caches.get(audience)

    # -- sessions --------------------------------------------------------------

    def session_tier(
        self, audience: str, sid: str = "", *, limit: int = 8
    ) -> "SessionTier":
        """Open a session over *audience*: a fresh :class:`SessionTier`.

        Plain data: nothing is woven and no lock is taken, so opening a
        session costs the same with one or ten thousand live.  *limit*
        bounds the session's breadcrumb trail.
        """
        self._require(audience)
        return SessionTier(sid, audience, limit=limit)

    def reconfigure(
        self, audience: str, bundle: AudienceBundle | Iterable[str]
    ) -> None:
        """Swap one audience's navigation stack without disturbing the rest.

        *bundle* is an :class:`AudienceBundle` or a bare iterable of
        access-structure names.  The new generation is built beside the
        old one; if that fails (an unknown access-structure name, a lint
        refusal) only its own transaction rolls back and the old
        generation keeps serving.  Then the new generation is published
        with one store, the audience's cache drops the old renderer's
        skeletons, and the old weave is retired without being reverted,
        so a request that took the old renderer still renders its whole
        stack.  No other audience's weave is touched.
        """
        with self._lock:
            self._require(audience)
            if not isinstance(bundle, AudienceBundle):
                bundle = AudienceBundle(audience, tuple(bundle))
            old = self._generations[audience]
            self._generations[audience] = self._build(
                audience, bundle, old.number + 1
            )
            cache = self._caches[audience]
            if cache is not None:
                cache.drop_stale(self.renderer(audience))
            old.weave.retire()

    def close(self) -> None:
        """Retire every audience's weave; ``PageRenderer`` was never woven."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for audience, generation in self._generations.items():
                cache = self._caches[audience]
                if cache is not None:
                    cache.clear()
                generation.weave.retire()

    def __enter__(self) -> "AudienceServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<AudienceServer {state}, audiences={self.audiences()!r}>"


class SessionTier:
    """One session over an audience, as plain data.

    The session's id, audience and breadcrumb trail, plus the bookkeeping
    the HTTP front keeps for it: the live form of a
    :class:`~repro.navigation.session.SessionRecord`.  Nothing is woven
    per session.  Pages render through the audience's shared renderer and
    the trail is spliced in as a fragment (see
    :mod:`repro.navigation.http`), so a session costs a few small objects
    and opening, touching or evicting one is O(1).
    """

    __slots__ = ("sid", "audience", "trail", "last_seen", "requests")

    def __init__(
        self, sid: str, audience: str, *, limit: int = 8, last_seen: float = 0.0
    ):
        self.sid = sid
        self.audience = audience
        self.trail = BreadcrumbTrail(limit)
        #: Last request time, by the serving app's clock.
        self.last_seen = last_seen
        #: Pages served to this session (observability for ``/-/stats``).
        self.requests = 0

    def snapshot(self) -> SessionRecord:
        """This session as a portable :class:`SessionRecord`."""
        return SessionRecord(
            sid=self.sid,
            audience=self.audience,
            trail=tuple(self.trail.entries()),
            last_seen=self.last_seen,
            requests=self.requests,
        )

    def deploy(self, aspect: Aspect) -> Deployment:
        """Refuse: sessions weave nothing.

        Navigation is woven per audience (:meth:`AudienceServer.
        reconfigure`); a session's own concern, its trail, is data.
        """
        raise NavigationError(
            f"cannot deploy {type(aspect).__name__} into a session: sessions "
            "are plain data; weave navigation per audience with "
            "AudienceServer.reconfigure"
        )

    def close(self) -> None:
        """Drop the trail; idempotent.  There is no weave state to unwind."""
        self.trail.clear()

    def __enter__(self) -> "SessionTier":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<SessionTier {self.sid!r}, audience={self.audience!r}, "
            f"crumbs={len(self.trail)}>"
        )
