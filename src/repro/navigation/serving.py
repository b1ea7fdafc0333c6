"""Live multi-audience serving over instance-scoped weaving.

The paper's claim is that navigation is a swappable aspect over an
untouched base program; the production question is serving *several
audiences at once* from one live process.  Class-level weaving cannot do
that — two differently-configured navigation stacks woven into the shared
renderer class would both fire on every page.  Instance-scoped
deployments (:meth:`repro.aop.WeaverRuntime.deploy` with ``instances=``)
can: every audience gets its own renderer *instance*, its navigation
aspects are scoped to exactly that instance, and all the deployments stay
live side by side in **one** runtime woven from **one** class scan.

:class:`AudienceServer` is that arrangement held as an object::

    from repro.navigation import AudienceServer, UserAgent

    with AudienceServer(fixture, DEFAULT_AUDIENCES) as server:
        visitor = UserAgent(server.provider("visitor"))
        curator = UserAgent(server.provider("curator"))
        visitor.open("index.html")          # tour + index navigation
        curator.open("index.html")          # index only — same process
        server.reconfigure("curator", ("indexed-guided-tour",))
        curator.open("index.html")          # new nav; visitor untouched

Pages render on demand through :class:`LazyWovenProvider`, so a
:meth:`~AudienceServer.reconfigure` between two requests changes what the
*next* page shows — for that audience only.  Reconfiguration rides the
runtime's transactional machinery: the audience's deployments are
partially undeployed (survivors re-weave with their original instance
scopes, so the other audiences' pages stay byte-identical) and the new
stack is added to the same deployment set.
"""

from __future__ import annotations

import posixpath
import threading
import warnings
from typing import Any, Iterable, Mapping
from urllib.parse import unquote

from repro.aop import Aspect, Deployment, InstanceScope, WeaverRuntime

from .agent import PageAnchor, PageView
from .audience import DEFAULT_AUDIENCES, AudienceBundle
from .cache import PageCache
from .config import ServingConfig
from .errors import NavigationError
from .session import BreadcrumbTrail, SessionRecord

#: Sentinel distinguishing "not passed" from an explicit ``None`` in the
#: deprecated keyword shims.
_UNSET: Any = object()


def _deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"repro.navigation.{old} is deprecated; use {new} instead",
        DeprecationWarning,
        stacklevel=3,
    )


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

    Accepts a :class:`~repro.core.renderer.PageRenderer` (or anything
    exposing the same ``render_home``/``render_node``/``node_inventory``
    surface, including a ``.renderer``-bearing wrapper like
    :class:`~repro.core.weave.NavigationWeaver`).
    """

    def __init__(self, renderer: Any):
        renderer = getattr(renderer, "renderer", renderer)
        self._renderer = renderer
        # Normalized URI -> node, computed once from the inventory.
        self._nodes = build_node_map(renderer)

    def page(self, uri: str) -> PageView:
        from repro.xlink import resolve_uri

        normalized, node = resolve_page_target(self._nodes, uri)
        if node is None:
            page = self._renderer.render_home()
        else:
            page = self._renderer.render_node(node)
        anchors = [
            PageAnchor(
                label=a.label,
                href=normalize_page_uri(resolve_uri(normalized, a.href)),
                rel=a.rel,
            )
            for a in page.anchors()
        ]
        return PageView(uri=normalized, title=page.title, anchors=anchors)


class AudienceServer:
    """Serve every audience's navigation live from one woven process.

    One :class:`~repro.aop.WeaverRuntime`, one transactional
    :class:`~repro.aop.DeploymentSet`, one shadow scan of the renderer
    class: each audience bundle gets a private renderer instance and one
    instance-scoped :class:`~repro.core.aspect.NavigationAspect`
    deployment per stacked access structure.  All audiences' deployments
    are live simultaneously; the per-shadow dispatch routes each render
    call to the receiving renderer's own navigation stack.

    ``specs_by_access`` maps access-structure names to prebuilt specs;
    unresolved names are built once via
    :func:`~repro.core.navspec.default_museum_spec` and shared across
    every bundle that stacks them.

    **One scope per audience, none per session.**  Each audience's
    deployments share one *persistent* :class:`~repro.aop.InstanceScope`
    holding the audience's renderer, kept across :meth:`reconfigure`, so
    the number of scopes and deployments is bounded by the audiences
    served.  A session is plain data (:class:`SessionTier`): its
    breadcrumb trail is spliced into pages the audience renderer
    produced, so opening, serving and evicting sessions never touches the
    weave.  All weave *mutations* are serialized on an internal lock;
    renders stay lock-free and concurrent.
    """

    def __init__(
        self,
        fixture: Any,
        bundles: Iterable[AudienceBundle] | None = None,
        *,
        specs_by_access: Mapping[str, Any] | None = None,
        runtime: WeaverRuntime | None = None,
        config: ServingConfig | None = None,
        lint: Any = _UNSET,
    ):
        from repro.core import PageRenderer

        self._fixture = fixture
        if config is None:
            config = ServingConfig()
        if lint is not _UNSET:
            _deprecated(
                "AudienceServer(lint=...)",
                "AudienceServer(config=ServingConfig(lint=...))",
            )
            config = config.replace(lint=lint)
        self._config = config
        # None, "warn" or "error": passed to every DeploymentSet.add this
        # server performs, so a serving process can refuse
        # statically-broken weaves up front.
        self._lint = config.lint
        # Read once: flipping REPRO_PAGE_CACHE affects servers built
        # afterwards, never this one's live caches.
        self._cache_active = config.cache_active()
        self._specs: dict[str, Any] = dict(specs_by_access or {})
        self._runtime = (
            runtime if runtime is not None else WeaverRuntime("audience-server")
        )
        self._bundles: dict[str, AudienceBundle] = {}
        self._renderers: dict[str, Any] = {}
        self._scopes: dict[str, InstanceScope] = {}
        self._aspects: dict[str, list[Any]] = {}
        #: Audience -> snapshot of the runtime's weave epoch taken after
        #: the last mutation touching that audience's stack; the page
        #: cache keys on it (readers snapshot it lock-free).
        self._epochs: dict[str, int] = {}
        #: Audience -> skeleton cache (``None`` when the tier is off).
        self._caches: dict[str, PageCache | None] = {}
        self._providers: dict[str, LazyWovenProvider] = {}
        self._closed = False
        self._lock = threading.RLock()
        self._tx = self._runtime.transaction([PageRenderer])
        try:
            for bundle in bundles if bundles is not None else DEFAULT_AUDIENCES:
                if bundle.name in self._renderers:
                    raise NavigationError(
                        f"duplicate audience bundle {bundle.name!r}"
                    )
                renderer = PageRenderer(fixture)
                self._renderers[bundle.name] = renderer
                self._scopes[bundle.name] = InstanceScope([renderer])
                self._weave(bundle)
                self._epochs[bundle.name] = self._runtime.weave_epoch
                self._caches[bundle.name] = (
                    PageCache(config.cache_pages) if self._cache_active else None
                )
        except BaseException:
            self._tx.rollback()
            raise
        self._tx.commit()

    # -- construction helpers --------------------------------------------------

    def _spec_for(self, access: str) -> Any:
        from repro.core.navspec import default_museum_spec

        spec = self._specs.get(access)
        if spec is None:
            spec = self._specs[access] = default_museum_spec(access)
        return spec

    def _weave(self, bundle: AudienceBundle) -> None:
        from repro.core import NavigationAspect

        scope = self._scopes[bundle.name]
        # Build every aspect first: an unknown access-structure name (or a
        # broken spec) must fail before any deployment is touched.
        aspects = [
            NavigationAspect(self._spec_for(access), self._fixture)
            for access in bundle.access_structures
        ]
        added: list[Any] = []
        try:
            for aspect in aspects:
                self._tx._add(aspect, instances=scope, lint=self._lint)
                added.append(aspect)
        except BaseException:
            # Unwind the partial stack so the audience is never left with
            # deployments no bookkeeping entry tracks.
            partial = set(map(id, added))
            live = [d for d in self._tx.deployments if id(d.aspect) in partial]
            if live:
                self._tx.undeploy(live)
            raise
        self._bundles[bundle.name] = bundle
        self._aspects[bundle.name] = aspects

    def _require(self, audience: str) -> None:
        if self._closed:
            raise NavigationError("audience server is closed")
        if audience not in self._bundles:
            raise NavigationError(
                f"no audience {audience!r} "
                f"(serving: {', '.join(sorted(self._bundles)) or 'none'})"
            )

    def _bump_epoch(self, audience: str | None) -> None:
        """Move *audience* (or every audience) to a fresh weave epoch.

        Callers hold ``self._lock``.  The fresh value is strictly newer
        than anything a concurrent reader can have snapshotted, so every
        skeleton cached before — or rendered across — the mutation is
        unreachable the moment this returns; the stale generation is
        reclaimed from the cache eagerly.
        """
        fresh = self._runtime.advance_epoch()
        for name in [audience] if audience is not None else list(self._bundles):
            self._epochs[name] = fresh
            cache = self._caches.get(name)
            if cache is not None:
                cache.drop_stale(fresh)

    # -- the serving surface ---------------------------------------------------

    @property
    def runtime(self) -> WeaverRuntime:
        """The scoped runtime holding every audience's deployments."""
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
        return list(self._bundles)

    def scope(self, audience: str) -> InstanceScope:
        """The audience's persistent instance scope.

        Every deployment of the audience's stack dispatches through this
        one scope — across reconfigures — so a renderer in it is advised
        by whatever the audience's *current* stack is.
        """
        self._require(audience)
        return self._scopes[audience]

    def bundle(self, audience: str) -> AudienceBundle:
        """The bundle *audience* is currently configured with."""
        self._require(audience)
        return self._bundles[audience]

    def renderer(self, audience: str) -> Any:
        """The audience's private (woven) renderer instance."""
        self._require(audience)
        return self._renderers[audience]

    def deployments(self, audience: str) -> list[Deployment]:
        """The audience's live deployment handles, oldest first.

        Looked up by aspect identity rather than cached: a partial
        undeploy (another audience reconfiguring) re-weaves survivors and
        refreshes their handles.
        """
        self._require(audience)
        aspects = set(map(id, self._aspects[audience]))
        return [d for d in self._tx.deployments if id(d.aspect) in aspects]

    def provider(self, audience: str) -> LazyWovenProvider:
        """A lazy per-audience page provider (created once, then cached).

        Pages render concurrently with every other audience's — each
        render passes through the shared class's dispatch wrappers and
        runs only the receiving renderer's navigation stack.
        """
        self._require(audience)
        provider = self._providers.get(audience)
        if provider is None:
            provider = self._providers[audience] = LazyWovenProvider(
                self._renderers[audience]
            )
        return provider

    # -- the cache tier --------------------------------------------------------

    def weave_epoch(self, audience: str) -> int:
        """The epoch *audience*'s stack is currently at (lock-free read).

        A snapshot of :attr:`~repro.aop.WeaverRuntime.weave_epoch` taken
        under the server lock after the last mutation that touched this
        audience — ``reconfigure`` or ``close``.  A skeleton rendered and
        cached under epoch *e* is valid exactly while this still returns
        *e*.
        """
        self._require(audience)
        return self._epochs[audience]

    def page_cache(self, audience: str) -> PageCache | None:
        """The audience's skeleton cache, or ``None`` when the tier is off.

        Off when the server's config disables it or the
        ``REPRO_PAGE_CACHE`` environment escape hatch was set at
        construction time.
        """
        self._require(audience)
        return self._caches.get(audience)

    # -- sessions --------------------------------------------------------------

    def session_tier(
        self, audience: str, sid: str = "", *, limit: int = 8
    ) -> "SessionTier":
        """Open a session over *audience*: a fresh :class:`SessionTier`.

        Plain data: nothing is woven, no lock is taken and no epoch
        moves, so opening a session costs the same with one or ten
        thousand live.  *limit* bounds the session's breadcrumb trail.
        """
        self._require(audience)
        return SessionTier(sid, audience, limit=limit)

    def reconfigure(
        self, audience: str, bundle: AudienceBundle | Iterable[str]
    ) -> None:
        """Swap one audience's navigation stack without disturbing the rest.

        *bundle* is an :class:`AudienceBundle` or a bare iterable of
        access-structure names.  The audience's deployments are undeployed
        through the set (LIFO unwind, other audiences' survivors re-woven
        with their original instance scopes) and the new stack is added in
        their place; the audience keeps its renderer instance, so existing
        providers and agents see the new navigation on their next request.
        The work is bounded by the audiences served: sessions hold no
        weave state, so none is re-stacked.

        Failure-safe: the new bundle's specs are resolved *before* the old
        stack is disturbed (an unknown access-structure name raises with
        the audience untouched), and if weaving the new stack fails anyway
        the previous stack is re-woven before the exception propagates.
        """
        with self._lock:
            self._require(audience)
            if not isinstance(bundle, AudienceBundle):
                bundle = AudienceBundle(audience, tuple(bundle))
            for access in bundle.access_structures:
                self._spec_for(access)
            # Epoch fence *before* the first weave mutation: requests
            # that snapshotted the pre-reconfigure epoch can no longer
            # install skeletons under a key any later reader will hit.
            self._bump_epoch(audience)
            previous = self._bundles[audience]
            old = self.deployments(audience)
            if old:
                self._tx.undeploy(old)
            try:
                self._weave(bundle)
            except BaseException:
                self._weave(previous)
                raise
            finally:
                # Closing fence: anything rendered *during* the swap was
                # keyed under the opening fence's epoch and dies here, so
                # the first post-reconfigure request re-renders.
                self._bump_epoch(audience)

    def close(self) -> None:
        """Undeploy every audience's stack and release the renderer class."""
        with self._lock:
            if self._closed:
                return
            self._bump_epoch(None)
            for cache in self._caches.values():
                if cache is not None:
                    cache.clear()
            self._closed = True
            self._tx.undeploy()

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
