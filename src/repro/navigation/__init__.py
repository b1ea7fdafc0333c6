"""Navigation runtime: sessions, history, a user agent, and live serving.

Executes the paper's navigation semantics: movement through an information
space where "the next page to visit will depend on the previous
navigation" — see :class:`NavigationSession` for the context-dependent
``next()``/``previous()`` and :class:`UserAgent` for the browser stand-in.

The serving layer (:mod:`repro.navigation.serving`) turns the paper's
"navigation is a swappable aspect" claim into a live multi-audience
process: an :class:`AudienceServer` weaves each :class:`AudienceBundle`'s
navigation stack into a private renderer subclass,
serves lazy per-audience page providers concurrently, and reconfigures
one audience's navigation without disturbing the others::

    with AudienceServer(fixture, DEFAULT_AUDIENCES) as server:
        visitor = UserAgent(server.provider("visitor"))
        curator = UserAgent(server.provider("curator"))
        visitor.open("index.html")      # tour + index navigation
        curator.open("index.html")      # index only — same live process
        server.reconfigure("curator", ("indexed-guided-tour",))

The HTTP front (:mod:`repro.navigation.http`) puts that process behind a
threaded WSGI server — ``GET /{audience}/{page_uri}`` with a breadcrumb
trail per connected user (a plain-data :class:`SessionTier`, idle
eviction) and a live management surface
(``POST /-/reconfigure/{audience}``, ``GET /-/stats``)::

    python -m repro.tools serve --audiences visitor,curator

(See ``examples/live_weaving.py`` for the full walkthrough.)
"""

from .agent import CallableProvider, PageAnchor, PageProvider, PageView, UserAgent
from .asgi import AsgiHttpServer, AsgiNavigationApp, serve_async
from .audience import DEFAULT_AUDIENCES, AudienceBundle
from .cache import CachedSkeleton, PageCache
from .config import ServingConfig
from .errors import NavigationError
from .history import History
from .http import NavigationApp, serve
from .serving import (
    AudienceServer,
    LazyWovenProvider,
    SessionTier,
    normalize_page_uri,
)
from .session import (
    BreadcrumbAspect,
    BreadcrumbTrail,
    NavigationSession,
    Position,
    SessionRecord,
)

__all__ = [
    "AsgiHttpServer",
    "AsgiNavigationApp",
    "AudienceBundle",
    "AudienceServer",
    "BreadcrumbAspect",
    "BreadcrumbTrail",
    "CachedSkeleton",
    "CallableProvider",
    "DEFAULT_AUDIENCES",
    "History",
    "LazyWovenProvider",
    "NavigationApp",
    "NavigationError",
    "NavigationSession",
    "PageAnchor",
    "PageCache",
    "PageProvider",
    "PageView",
    "Position",
    "ServingConfig",
    "SessionRecord",
    "SessionTier",
    "UserAgent",
    "normalize_page_uri",
    "serve",
    "serve_async",
]
