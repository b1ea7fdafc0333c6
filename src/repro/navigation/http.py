"""An HTTP serving front over :class:`~repro.navigation.serving.AudienceServer`.

The ROADMAP's production rung: the live multi-audience process behind a
real (threaded WSGI) HTTP server.  ``GET /{audience}/{page_uri}`` renders
the page through that audience's instance-scoped navigation stack — one
woven renderer class, every audience's stack live simultaneously — and
splices in the requesting session's breadcrumb trail:

- a session is plain data (:class:`~repro.navigation.serving.SessionTier`:
  id, audience, trail); nothing is woven per session;
- every page is an audience-level skeleton (cached per weave epoch, or
  rendered fresh when the cache is off or bypassed) with the session's
  trail fragment spliced over its slot, so two users of one audience
  each see only their own footsteps;
- sessions idle past the timeout are evicted oldest first from a map
  kept in last-seen order, so a request's session bookkeeping is O(1)
  amortised however many sessions are live.

Sessions are identified by the ``repro_session`` cookie (minted on the
first response) or an explicit ``X-Repro-Session`` request header.

The management surface lives under ``/-/``:

- ``GET /-/stats`` — scope-aware :meth:`~repro.aop.WeaverRuntime.stats`
  (dispatch tiers, join point pools, codegen counters) plus per-audience
  scope sizes and live session counts, as JSON;
- ``POST /-/reconfigure/{audience}`` — swap one audience's stack while
  requests are in flight (body: comma-separated access-structure names,
  or JSON ``{"access_structures": [...]}``); every other audience's — and
  every live session's trail — next response is unchanged.

Run it::

    python -m repro.tools serve --audiences visitor,curator --port 8000

or embed it: :class:`NavigationApp` is a plain WSGI callable, and
:func:`make_wsgi_server` binds it under a threaded ``wsgiref`` server
(one OS thread per in-flight request — genuine request concurrency over
the instance-scope dispatchers and join point pools).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from collections import Counter, OrderedDict, deque
from socketserver import ThreadingMixIn
from typing import Any, Callable, Iterable, Mapping
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro.web import compose_page

from .audience import DEFAULT_AUDIENCES, AudienceBundle
from .cache import CachedSkeleton
from .config import ServingConfig
from .errors import NavigationError
from .serving import (
    AudienceServer,
    SessionTier,
    build_node_map,
    resolve_page_target,
)
from .session import SessionRecord, breadcrumb_fragment

#: The session cookie the app mints on a cookieless request.
SESSION_COOKIE = "repro_session"

#: Request header overriding the cookie (handy for scripted clients).
SESSION_HEADER = "HTTP_X_REPRO_SESSION"

#: Request header controlling the page cache; send ``bypass`` to render
#: the page afresh without touching the cache.  Responses echo
#: the cache outcome in the same header: ``hit``, ``miss``, ``bypass``
#: or ``off``.
CACHE_HEADER = "HTTP_X_REPRO_CACHE"


class SessionCapacityError(RuntimeError):
    """No capacity for another session (served as ``503``)."""


def quantile(sorted_values: "list[float]", q: float) -> float:
    """The *q*-quantile of pre-sorted *sorted_values* (nearest-rank).

    ``0.0`` on an empty list — callers report latency summaries for
    windows that may not have seen a request yet.
    """
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[rank]


class LatencyWindow:
    """A bounded rolling window of request latencies, in microseconds.

    One per audience on the serving app: every successful page response
    records its service time, and :meth:`summary` folds the window into
    the ``count``/``p50``/``p99`` triple ``/-/stats`` publishes — so a
    load harness reads its results from the management surface instead of
    scraping stdout.  The count is lifetime (monotonic); the percentiles
    cover the last *size* requests.  Mutations are lock-serialized:
    renders run concurrently across server threads.
    """

    def __init__(self, size: int = 512):
        if size < 1:
            raise ValueError("latency window size must be >= 1")
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=size)
        self._count = 0

    def record(self, elapsed_us: float) -> None:
        with self._lock:
            self._window.append(elapsed_us)
            self._count += 1

    def summary(self) -> dict[str, float]:
        with self._lock:
            count = self._count
            window = sorted(self._window)
        return {
            "count": count,
            "window": len(window),
            "p50_us": round(quantile(window, 0.50), 1),
            "p99_us": round(quantile(window, 0.99), 1),
        }


class _MethodNotAllowed(Exception):
    """Wrong HTTP method for a known route (served as ``405`` + Allow)."""

    def __init__(self, method: str, allowed: str):
        super().__init__(f"method {method} not allowed here (use {allowed})")
        self.allowed = allowed


class NavigationApp:
    """A WSGI application serving every audience — and every user — live.

    One :class:`~repro.navigation.serving.AudienceServer` underneath; the
    app adds the HTTP routing and the sessions.  Renders are lock-free
    and run concurrently across server threads; session bookkeeping
    (open/touch/evict) is serialized by the app's lock, weave mutations
    by the server's.

    Session policy comes from a :class:`~repro.navigation.config.
    ServingConfig` (default: the server's own): ``session_idle_timeout``
    seconds without a request evicts a session (checked opportunistically
    on every request, or explicitly via :meth:`evict_idle`);
    ``max_sessions`` bounds the live sessions, so a client that never
    replays its cookie cannot grow memory without limit; at the cap
    (after evicting every idle session) new sessions are refused with
    ``503``.  ``clock`` is injectable for tests; it must not
    run backwards, since eviction walks sessions in last-seen order.

    ``GET`` responses assemble from an audience-level skeleton plus the
    session's freshly rendered breadcrumb fragment (see
    :mod:`repro.navigation.cache`).  With the server's page cache on,
    the skeleton comes from the cache; the ``X-Repro-Cache`` response
    header reports ``hit``/``miss``/``bypass``/``off``, and sending
    ``X-Repro-Cache: bypass`` renders the skeleton afresh without
    touching the cache.  Every outcome serves the same bytes.
    """

    def __init__(
        self,
        server: AudienceServer,
        config: ServingConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        from repro.core import PageRenderer

        self._server = server
        if config is None:
            config = server.config
        self._config = config
        self._idle_timeout = config.session_idle_timeout
        self._max_sessions = config.max_sessions
        self._breadcrumb_limit = config.breadcrumb_limit
        self._clock = clock
        self._lock = threading.Lock()
        #: ``(sid, audience)`` -> session, least recently seen first: every
        #: touch moves a session to the end, so eviction pops from the
        #: front and stops at the first session still inside the timeout.
        self._sessions: OrderedDict[tuple[str, str], SessionTier] = OrderedDict()
        self._evicted_total = 0
        #: Pages served, evicted sessions included (restores add theirs).
        self._requests_total = 0
        self._sid_counter = itertools.count(1)
        # Per-audience request counters and rolling latency windows; the
        # /-/stats latency summary the load harness reads comes from here.
        self._latency: dict[str, LatencyWindow] = {
            audience: LatencyWindow() for audience in server.audiences()
        }
        # Normalized URI -> node: fixture-level, identical for every
        # renderer instance, so one inventory pass serves all sessions.
        self._nodes = build_node_map(PageRenderer(server.fixture))

    @property
    def config(self) -> ServingConfig:
        """The effective serving configuration."""
        return self._config

    # -- the WSGI surface ------------------------------------------------------

    def __call__(self, environ, start_response) -> list[bytes]:
        status, headers, body = self.respond(environ)
        start_response(status, headers)
        return [body]

    def respond(self, environ) -> tuple[str, list[tuple[str, str]], bytes]:
        """The transport-neutral request surface: environ in, response out.

        Takes a WSGI-shaped environ dict and returns the complete
        ``(status, headers, body)`` triple with the routing errors already
        mapped to their HTTP statuses.  Both fronts route through here —
        :meth:`__call__` adds the WSGI calling convention on top, and the
        ASGI front (:mod:`repro.navigation.asgi`) runs it on its event
        loop for cache hits and on a worker thread for everything else —
        so the two cannot drift apart.
        """
        try:
            return self._route(environ)
        except NavigationError as exc:
            return _text_response("404 Not Found", str(exc))
        except SessionCapacityError as exc:
            return _text_response("503 Service Unavailable", str(exc))
        except _MethodNotAllowed as exc:
            status, headers, body = _text_response(
                "405 Method Not Allowed", str(exc)
            )
            headers.append(("Allow", exc.allowed))
            return status, headers, body

    def would_hit_cache(self, environ) -> bool:
        """Whether :meth:`respond` would serve *environ* from the page cache.

        True for a ``GET`` page whose skeleton is cached under its
        audience's current weave epoch.  Free of side effects: it counts
        no hit or miss, leaves the LRU order alone and opens no session.
        The answer can go stale at once (a reconfigure may land next), so
        it only decides where a request runs; :meth:`respond` checks
        everything again and serves the correct page either way.
        """
        path = environ.get("PATH_INFO", "/") or "/"
        if (
            environ.get("REQUEST_METHOD", "GET") != "GET"
            or path.startswith("/-/")
            or _wants_bypass(environ)
        ):
            return False
        audience, _, page_uri = path.lstrip("/").partition("/")
        if audience not in self._server.audiences():
            return False
        cache = self._server.page_cache(audience)
        if cache is None:
            return False
        try:
            normalized, _ = resolve_page_target(self._nodes, page_uri)
        except NavigationError:
            return False
        return (normalized, self._server.weave_epoch(audience)) in cache

    def _route(self, environ) -> tuple[str, list[tuple[str, str]], bytes]:
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/") or "/"
        if path == "/":
            return self._front_door(method)
        if path == "/-/stats":
            _require_method(method, "GET")
            return _json_response("200 OK", self.stats())
        if path == "/-/sessions":
            _require_method(method, "GET")
            return _json_response(
                "200 OK",
                {
                    "sessions": [
                        record.to_dict() for record in self.snapshot_sessions()
                    ]
                },
            )
        if path == "/-/sessions/restore":
            _require_method(method, "POST")
            return self._restore_sessions(environ)
        if path.startswith("/-/reconfigure/"):
            _require_method(method, "POST")
            return self._reconfigure(environ, path[len("/-/reconfigure/") :])
        if path.startswith("/-/"):
            raise NavigationError(f"no management endpoint at {path!r}")
        audience, _, page_uri = path.lstrip("/").partition("/")
        # Existence before method: 405 asserts the resource exists, so a
        # POST to an unknown audience must 404 like its GET would.
        self._require_audience(audience)
        _require_method(method, "GET")
        return self._page(environ, audience, page_uri)

    def _front_door(self, method: str):
        _require_method(method, "GET")
        lines = ["<html><head><title>Audiences</title></head><body><ul>"]
        for audience in self._server.audiences():
            stack = "+".join(self._server.bundle(audience).access_structures)
            lines.append(
                f'<li><a href="/{audience}/index.html">{audience}</a>'
                f" ({stack})</li>"
            )
        lines.append("</ul></body></html>")
        body = "\n".join(lines).encode("utf-8")
        return "200 OK", _html_headers(body), body

    def _require_audience(self, audience: str) -> None:
        if audience not in self._server.audiences():
            raise NavigationError(
                f"no audience {audience!r} "
                f"(serving: {', '.join(self._server.audiences()) or 'none'})"
            )

    def _page(self, environ, audience: str, page_uri: str):
        started = time.perf_counter()
        # Resolve the page *before* touching the sessions: a request that
        # will 404 must not open one.
        normalized, node = resolve_page_target(self._nodes, page_uri)
        session, minted = self._session_for(environ, audience)
        bypass = _wants_bypass(environ)
        cache = None if bypass else self._server.page_cache(audience)
        if cache is None:
            outcome = "bypass" if bypass else "off"
            entry = self._render_skeleton(audience, node)
        else:
            # The epoch is snapshotted *before* the render: a weave
            # mutation landing mid-render moves the audience to a newer
            # epoch, so the skeleton we install stays keyed under the
            # superseded one and no later request can hit it.
            epoch = self._server.weave_epoch(audience)
            entry = cache.get(normalized, epoch)
            if entry is None:
                outcome = "miss"
                entry = self._render_skeleton(audience, node)
                cache.put(normalized, epoch, entry)
            else:
                outcome = "hit"
        # One assembly for every outcome: the trail grows by the same
        # (path, title) and splices over the same slot, so hit, miss,
        # bypass and off serve identical bytes.
        crumbs = session.trail.record(entry.path, entry.title)
        text = compose_page(entry.skeleton, breadcrumb_fragment(crumbs, entry.path))
        body = text.encode("utf-8")
        headers = _html_headers(body)
        if minted:
            headers.append(
                ("Set-Cookie", f"{SESSION_COOKIE}={session.sid}; Path=/")
            )
        headers.append(("X-Repro-Audience", audience))
        headers.append(("X-Repro-Session", session.sid))
        headers.append(("X-Repro-Cache", outcome))
        self._latency[audience].record((time.perf_counter() - started) * 1e6)
        return "200 OK", headers, body

    def _render_skeleton(self, audience: str, node: Any) -> CachedSkeleton:
        """Render *node* (``None``: home) through the audience renderer.

        The skeleton is audience-level: only the audience's navigation is
        woven into it, and the slot where a trail goes is left empty.
        """
        renderer = self._server.renderer(audience)
        if node is None:
            page = renderer.render_home()
        else:
            page = renderer.render_node(node)
        skeleton, _ = page.skeleton_html()
        return CachedSkeleton(
            skeleton=skeleton, title=page.title or page.path, path=page.path
        )

    def _reconfigure(self, environ, audience: str):
        # ValueError -> 400 only here: a malformed body or an unknown
        # access-structure name is the client's fault (and the audience's
        # old stack stays intact — reconfigure is atomic), while a
        # ValueError anywhere else in the request path is a server bug
        # and must surface as a 500.  Unknown audiences raise
        # NavigationError -> 404 (the route names a resource).
        try:
            names = _parse_reconfigure_body(environ)
            self._server.reconfigure(audience, names)
        except ValueError as exc:
            return _text_response("400 Bad Request", str(exc))
        return _json_response(
            "200 OK",
            {
                "audience": audience,
                "access_structures": list(
                    self._server.bundle(audience).access_structures
                ),
            },
        )

    # -- sessions --------------------------------------------------------------

    def _session_for(self, environ, audience: str) -> tuple[SessionTier, bool]:
        sid = environ.get(SESSION_HEADER) or _cookie_sid(environ)
        with self._lock:
            # Read under the lock, so the map's order is last-seen order.
            now = self._clock()
            self._evict_idle_locked(now)
            minted = sid is None
            if minted:
                sid = f"s{next(self._sid_counter)}-{uuid.uuid4().hex[:12]}"
            session = self._touch_locked(sid, audience, now)
            session.requests += 1
            self._requests_total += 1
            return session, minted

    def _touch_locked(self, sid: str, audience: str, now: float) -> SessionTier:
        """The live ``(sid, audience)`` session, opened if need be, seen *now*."""
        key = (sid, audience)
        session = self._sessions.get(key)
        if session is None:
            if len(self._sessions) >= self._max_sessions:
                raise SessionCapacityError(
                    f"{len(self._sessions)} live sessions (cap "
                    f"{self._max_sessions}); retry with an existing "
                    "session cookie or after the idle timeout"
                )
            session = self._server.session_tier(
                audience, sid, limit=self._breadcrumb_limit
            )
            self._sessions[key] = session
        else:
            self._sessions.move_to_end(key)
        session.last_seen = now
        return session

    def _close_session_locked(self, session: SessionTier) -> None:
        del self._sessions[(session.sid, session.audience)]
        session.close()
        self._evicted_total += 1

    def _evict_idle_locked(self, now: float) -> int:
        if self._idle_timeout is None:
            return 0
        evicted = 0
        while self._sessions:
            oldest = next(iter(self._sessions.values()))
            if now - oldest.last_seen <= self._idle_timeout:
                break
            self._close_session_locked(oldest)
            evicted += 1
        return evicted

    def evict_idle(self, *, now: float | None = None) -> int:
        """Evict every session idle past the timeout; returns the count."""
        with self._lock:
            return self._evict_idle_locked(self._clock() if now is None else now)

    def sessions(self) -> list[SessionTier]:
        """The live sessions, least recently seen first (a snapshot)."""
        with self._lock:
            return list(self._sessions.values())

    # -- session portability ---------------------------------------------------

    def snapshot_sessions(self) -> list[SessionRecord]:
        """Every live session as a portable :class:`SessionRecord`.

        Plain data — the cluster front (or a draining worker's ``SIGTERM``
        handler) serializes these, and another worker restores them via
        :meth:`restore_session` with the trails byte-for-byte intact.
        Also served at ``GET /-/sessions``.
        """
        with self._lock:
            return [session.snapshot() for session in self._sessions.values()]

    def restore_session(self, record: SessionRecord) -> SessionTier:
        """Restore a snapshotted session into this app.

        Opens the session if ``(sid, audience)`` is not already live (the
        same path a cookie-bearing request takes, capacity check
        included), then replaces its breadcrumb trail with the record's —
        so the next page this session renders shows exactly the crumbs it
        would have on the worker it left.  ``last_seen`` is stamped from
        *this* app's clock (monotonic clocks don't travel between
        processes) and a newly opened session carries the record's
        request count over.

        Raises :class:`~repro.navigation.errors.NavigationError` for an
        unknown audience and :class:`SessionCapacityError` at the session
        cap — the HTTP surface maps them to 404/503 as usual.
        """
        with self._lock:
            now = self._clock()
            self._evict_idle_locked(now)
            if record.audience not in self._server.audiences():
                raise NavigationError(
                    f"cannot restore session {record.sid!r}: no audience "
                    f"{record.audience!r}"
                )
            opened = (record.sid, record.audience) not in self._sessions
            session = self._touch_locked(record.sid, record.audience, now)
            if opened:
                session.requests = record.requests
                self._requests_total += record.requests
            session.trail.restore(record.trail)
            return session

    def _restore_sessions(self, environ):
        # Mirrors _reconfigure's error split: a malformed body is the
        # client's fault (400); capacity is 503 per the session
        # contract.  Restores are per-record best-effort so one bad
        # record cannot strand the rest of a draining worker's sessions —
        # the response reports both sides.
        try:
            records = _parse_restore_body(environ)
        except ValueError as exc:
            return _text_response("400 Bad Request", str(exc))
        restored, errors = [], []
        for record in records:
            try:
                self.restore_session(record)
            except (NavigationError, SessionCapacityError) as exc:
                errors.append({"sid": record.sid, "error": str(exc)})
            else:
                restored.append(record.sid)
        return _json_response(
            "200 OK", {"restored": restored, "errors": errors}
        )

    def close(self) -> None:
        """Evict every session (the underlying server stays open)."""
        with self._lock:
            for session in list(self._sessions.values()):
                self._close_session_locked(session)

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The management snapshot served at ``GET /-/stats``."""
        with self._lock:
            sessions = {
                "active": len(self._sessions),
                "evicted_total": self._evicted_total,
                "by_audience": dict(
                    Counter(s.audience for s in self._sessions.values())
                ),
                # Monotonic: the total never drops when sessions evict.
                "requests": self._requests_total,
            }
        audiences = {}
        for audience in self._server.audiences():
            cache = self._server.page_cache(audience)
            latency = self._latency[audience].summary()
            audiences[audience] = {
                "access_structures": list(
                    self._server.bundle(audience).access_structures
                ),
                "scope_instances": len(self._server.scope(audience)),
                "weave_epoch": self._server.weave_epoch(audience),
                "requests": latency.pop("count"),
                "latency": latency,
                "cache": {"enabled": cache is not None}
                | (cache.stats() if cache is not None else {}),
            }
        return {
            "audiences": audiences,
            "sessions": sessions,
            "runtime": self._server.runtime.stats(),
        }


# -- WSGI plumbing -------------------------------------------------------------


def _require_method(method: str, expected: str) -> None:
    if method != expected:
        raise _MethodNotAllowed(method, expected)


def _wants_bypass(environ) -> bool:
    return environ.get(CACHE_HEADER, "").strip().lower() == "bypass"


def _cookie_sid(environ) -> str | None:
    for part in environ.get("HTTP_COOKIE", "").split(";"):
        name, _, value = part.strip().partition("=")
        if name == SESSION_COOKIE and value:
            return value
    return None


def _parse_reconfigure_body(environ) -> list[str]:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        length = 0
    raw = environ["wsgi.input"].read(length).decode("utf-8") if length else ""
    raw = raw.strip()
    if raw.startswith("{"):
        payload = json.loads(raw)
        names = payload.get("access_structures")
        if not isinstance(names, list) or not names:
            raise ValueError(
                'reconfigure body must carry {"access_structures": [...]}'
            )
        return [str(name) for name in names]
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise ValueError(
            "reconfigure body names no access structures "
            "(send e.g. 'index,guided-tour')"
        )
    return names


def _parse_restore_body(environ) -> list[SessionRecord]:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        length = 0
    raw = environ["wsgi.input"].read(length).decode("utf-8") if length else ""
    raw = raw.strip()
    if not raw:
        raise ValueError(
            'restore body must carry {"sessions": [...]} or a JSON list '
            "of session records"
        )
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"restore body is not JSON: {exc}") from exc
    if isinstance(payload, Mapping):
        payload = payload.get("sessions")
    if not isinstance(payload, list):
        raise ValueError(
            'restore body must carry {"sessions": [...]} or a JSON list '
            "of session records"
        )
    return [SessionRecord.from_dict(item) for item in payload]


def _html_headers(body: bytes) -> list[tuple[str, str]]:
    return [
        ("Content-Type", "text/html; charset=utf-8"),
        ("Content-Length", str(len(body))),
    ]


def _json_response(status: str, payload: Any):
    body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    headers = [
        ("Content-Type", "application/json"),
        ("Content-Length", str(len(body))),
    ]
    return status, headers, body


def _text_response(status: str, message: str):
    body = (message + "\n").encode("utf-8")
    headers = [
        ("Content-Type", "text/plain; charset=utf-8"),
        ("Content-Length", str(len(body))),
    ]
    return status, headers, body


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """``wsgiref`` with one thread per in-flight request."""

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    """Suppress per-request access logging (CI logs stay readable)."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


def make_wsgi_server(
    app: NavigationApp,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
) -> WSGIServer:
    """Bind *app* under a threaded WSGI server (``port=0``: ephemeral).

    Returns the listening server; call ``serve_forever()`` on it (or
    drive it from a thread in tests) and ``server_close()`` when done.
    """
    return make_server(
        host,
        port,
        app,
        server_class=ThreadingWSGIServer,
        handler_class=_QuietHandler if quiet else WSGIRequestHandler,
    )


def serve(
    fixture: Any,
    bundles: Iterable[AudienceBundle] | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    config: ServingConfig | None = None,
    quiet: bool = True,
    ready: Callable[[WSGIServer], None] | None = None,
    on_drain: Callable[[NavigationApp], None] | None = None,
) -> None:
    """Stand up the whole stack and serve until interrupted.

    Weaves every bundle into one live :class:`AudienceServer` (built with
    *config* — session policy, lint mode and the page-cache tier in one
    :class:`~repro.navigation.config.ServingConfig`), wraps it in a
    :class:`NavigationApp`, binds the threaded WSGI server and blocks in
    ``serve_forever()``.  *ready* (if given) is called with the bound
    server before serving starts — the CLI uses it to print the ephemeral
    port.  *on_drain* (if given) is called with the still-live app after
    the listener closes but before the sessions unwind — the CLI's
    graceful-shutdown hook snapshots every live
    :class:`~repro.navigation.session.SessionRecord` there.  Teardown
    unwinds every session and the audience stacks, so the renderer class
    leaves the process exactly as it entered.
    """
    if config is None:
        config = ServingConfig()
    bundles = list(bundles) if bundles is not None else list(DEFAULT_AUDIENCES)
    with AudienceServer(fixture, bundles, config=config) as server:
        app = NavigationApp(server)
        httpd = make_wsgi_server(app, host, port, quiet=quiet)
        if ready is not None:
            ready(httpd)
        try:
            httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            httpd.server_close()
            if on_drain is not None:
                on_drain(app)
            app.close()
