"""The asyncio/ASGI front: WSGI parity, the adapter, and the HTTP host.

The contract under test is *byte-identical parity*: both fronts route
through :meth:`NavigationApp.respond`, so any request answered by the
WSGI front must get the same status, management payloads and page bytes
from the ASGI front — including session identity, cache header semantics
and error mapping.  The socket suite drives the hand-rolled asyncio
HTTP/1.1 server end-to-end: keep-alive, malformed requests, concurrent
sessions, and the close-then-drain shutdown sequence.
"""

import asyncio
import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.baselines import museum_fixture
from repro.navigation import (
    AsgiHttpServer,
    AsgiNavigationApp,
    AudienceBundle,
    AudienceServer,
    NavigationApp,
    ServingConfig,
)
from repro.navigation.asgi import build_environ

VISITOR_CURATOR = [
    AudienceBundle("visitor", ("index", "guided-tour")),
    AudienceBundle("curator", ("index",)),
]

GUITAR = "PaintingNode/guitar.html"


@pytest.fixture()
def fixture():
    return museum_fixture()


@pytest.fixture()
def served(fixture):
    with AudienceServer(fixture, VISITOR_CURATOR) as server:
        app = NavigationApp(server)
        try:
            yield server, app
        finally:
            app.close()


def wsgi_call(app, path, *, method="GET", sid=None, body=None, headers=()):
    payload = body.encode() if isinstance(body, str) else (body or b"")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": str(len(payload)),
        "wsgi.input": io.BytesIO(payload),
    }
    if sid is not None:
        environ["HTTP_X_REPRO_SESSION"] = sid
    for name, value in headers:
        environ["HTTP_" + name.upper().replace("-", "_")] = value
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = headers

    chunks = app(environ, start_response)
    return (
        int(captured["status"].split()[0]),
        dict(captured["headers"]),
        b"".join(chunks),
    )


def asgi_call(asgi_app, path, *, method="GET", sid=None, body=None, headers=()):
    """Drive the ASGI callable directly on a private event loop."""
    payload = body.encode() if isinstance(body, str) else (body or b"")
    extra = [(name.encode(), value.encode()) for name, value in headers]
    headers = [(b"host", b"testserver"), *extra]
    if sid is not None:
        headers.append((b"x-repro-session", sid.encode()))
    if payload:
        headers.append((b"content-length", str(len(payload)).encode()))
    scope = {
        "type": "http",
        "http_version": "1.1",
        "method": method,
        "scheme": "http",
        "path": urllib.request.unquote(path),
        "raw_path": path.encode("latin-1"),
        "query_string": b"",
        "headers": headers,
    }
    messages = [{"type": "http.request", "body": payload, "more_body": False}]

    async def receive():
        return messages.pop(0) if messages else {"type": "http.disconnect"}

    captured = {"headers": [], "body": b""}

    async def send(message):
        if message["type"] == "http.response.start":
            captured["status"] = message["status"]
            captured["headers"] = message["headers"]
        else:
            captured["body"] += message.get("body", b"")

    asyncio.run(asgi_app(scope, receive, send))
    headers_out = {
        name.decode(): value.decode() for name, value in captured["headers"]
    }
    return captured["status"], headers_out, captured["body"]


class TestWsgiParity:
    """Same request, either front, identical answer."""

    PATHS = [
        "/",
        "/visitor/index.html",
        f"/visitor/{GUITAR}",
        "/visitor/PaintingNode%2Fguitar.html",
        f"/curator/{GUITAR}",
        "/stranger/index.html",
        "/visitor/ghost.html",
        "/-/ghost",
    ]

    def test_get_responses_are_byte_identical(self, served):
        _, app = served
        asgi_app = AsgiNavigationApp(app)
        for path in self.PATHS:
            w_status, w_headers, w_body = wsgi_call(app, path, sid="alice")
            a_status, a_headers, a_body = asgi_call(asgi_app, path, sid="alice")
            assert (a_status, a_body) == (w_status, w_body), path
            # The WSGI request warms the page cache the ASGI request then
            # hits; the cache-outcome header is the one legitimate delta.
            a_headers.pop("X-Repro-Cache", None)
            w_headers = dict(w_headers)
            w_headers.pop("X-Repro-Cache", None)
            assert a_headers == w_headers, path

    def test_session_trails_span_fronts(self, served):
        """One session, served by both fronts, grows a single trail."""
        _, app = served
        asgi_app = AsgiNavigationApp(app)
        wsgi_call(app, "/visitor/index.html", sid="alice")
        status, _, text = asgi_call(asgi_app, f"/visitor/{GUITAR}", sid="alice")
        assert status == 200
        assert b'class="breadcrumbs"' in text
        assert len(app.sessions()) == 1

    def test_management_surface_parity(self, served):
        _, app = served
        asgi_app = AsgiNavigationApp(app)
        asgi_call(asgi_app, f"/visitor/{GUITAR}", sid="alice")
        status, headers, text = asgi_call(asgi_app, "/-/stats")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        stats = json.loads(text)
        assert stats["sessions"]["active"] == 1
        assert stats["audiences"]["visitor"]["requests"] == 1
        status, _, text = asgi_call(
            asgi_app,
            "/-/reconfigure/curator",
            method="POST",
            body="indexed-guided-tour",
        )
        assert status == 200
        assert json.loads(text)["access_structures"] == ["indexed-guided-tour"]

    def test_error_statuses_map_identically(self, served):
        _, app = served
        asgi_app = AsgiNavigationApp(app)
        for path, method, expected in [
            ("/stranger/index.html", "GET", 404),
            ("/visitor/index.html", "POST", 405),
            ("/-/reconfigure/curator", "POST", 400),  # empty body
        ]:
            status, _, _ = asgi_call(asgi_app, path, method=method)
            assert status == expected, (path, method)

    def test_lifespan_scope_is_acknowledged(self, served):
        _, app = served
        asgi_app = AsgiNavigationApp(app)
        messages = [
            {"type": "lifespan.startup"},
            {"type": "lifespan.shutdown"},
        ]
        sent = []

        async def receive():
            return messages.pop(0)

        async def send(message):
            sent.append(message["type"])

        asyncio.run(asgi_app({"type": "lifespan"}, receive, send))
        assert sent == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]


class TestBuildEnviron:
    def test_raw_path_wins_over_decoded_path(self):
        environ = build_environ(
            {
                "method": "GET",
                "path": "/visitor/PaintingNode/guitar.html",
                "raw_path": b"/visitor/PaintingNode%2Fguitar.html",
                "headers": [],
            },
            b"",
        )
        assert environ["PATH_INFO"] == "/visitor/PaintingNode%2Fguitar.html"

    def test_headers_become_http_keys_and_fold_duplicates(self):
        environ = build_environ(
            {
                "method": "GET",
                "path": "/",
                "headers": [
                    (b"X-Repro-Session", b" alice "),
                    (b"accept", b"text/html"),
                    (b"accept", b"application/json"),
                    (b"content-type", b"text/plain"),
                    (b"content-length", b"999"),  # ignored: body is read
                ],
            },
            b"hi",
        )
        assert environ["HTTP_X_REPRO_SESSION"] == "alice"
        assert environ["HTTP_ACCEPT"] == "text/html,application/json"
        assert environ["CONTENT_TYPE"] == "text/plain"
        assert environ["CONTENT_LENGTH"] == "2"
        assert environ["wsgi.input"].read() == b"hi"

    def test_cookie_lines_fold_with_semicolons(self, served):
        """Two ``Cookie`` lines must not glue into one cookie value."""
        _, app = served
        cookies = [("cookie", "theme=dark"), ("cookie", "repro_session=s1-abc")]
        environ = build_environ(
            {
                "method": "GET",
                "path": "/",
                "headers": [(n.encode(), v.encode()) for n, v in cookies],
            },
            b"",
        )
        assert environ["HTTP_COOKIE"] == "theme=dark; repro_session=s1-abc"
        asgi_app = AsgiNavigationApp(app)
        for page in ("index.html", GUITAR):
            status, headers, _ = asgi_call(
                asgi_app, f"/visitor/{page}", headers=cookies
            )
            assert status == 200
            assert headers["X-Repro-Session"] == "s1-abc"
            assert "Set-Cookie" not in headers
        assert [session.sid for session in app.sessions()] == ["s1-abc"]


class TestOneThread:
    """Every request runs ``respond`` inline, on the event loop's thread."""

    @staticmethod
    def record_threads(app, monkeypatch):
        """Thread ids ``respond`` ran on, one per request."""
        threads = []
        respond = app.respond

        def recording(environ):
            threads.append(threading.get_ident())
            return respond(environ)

        monkeypatch.setattr(app, "respond", recording)
        return threads

    def test_every_route_runs_on_the_loop_thread(self, served, monkeypatch):
        _, app = served
        asgi_app = AsgiNavigationApp(app)
        threads = self.record_threads(app, monkeypatch)
        page = f"/visitor/{GUITAR}"
        calls = [
            (page, {}, "miss"),
            (page, {}, "hit"),
            (page, {"headers": [("X-Repro-Cache", "bypass")]}, "bypass"),
            ("/visitor/ghost.html", {}, None),
            ("/stranger/index.html", {}, None),
            ("/-/stats", {}, None),
            (
                "/-/reconfigure/curator",
                {"method": "POST", "body": "indexed-guided-tour"},
                None,
            ),
        ]
        for path, kwargs, outcome in calls:
            _, headers, _ = asgi_call(asgi_app, path, sid="alice", **kwargs)
            assert headers.get("X-Repro-Cache") == outcome, path
        assert threads == [threading.get_ident()] * len(calls)

    def test_cache_off_runs_on_the_loop_thread(self, fixture, monkeypatch):
        config = ServingConfig(cache_enabled=False)
        with AudienceServer(fixture, VISITOR_CURATOR, config=config) as server:
            app = NavigationApp(server)
            try:
                threads = self.record_threads(app, monkeypatch)
                asgi_app = AsgiNavigationApp(app)
                for _ in range(2):
                    _, headers, _ = asgi_call(
                        asgi_app, f"/visitor/{GUITAR}", sid="alice"
                    )
                    assert headers["X-Repro-Cache"] == "off"
                assert threads == [threading.get_ident()] * 2
            finally:
                app.close()

    def test_reconfigure_between_two_gets_rerenders_the_new_stack(self, served):
        _, app = served
        asgi_app = AsgiNavigationApp(app)
        page = f"/visitor/{GUITAR}"
        asgi_call(asgi_app, page, sid="alice")
        _, headers, before = asgi_call(asgi_app, page, sid="alice")
        assert headers["X-Repro-Cache"] == "hit"
        assert b'rel="next"' in before  # the guided tour is woven
        status, _, _ = asgi_call(
            asgi_app, "/-/reconfigure/visitor", method="POST", body="index"
        )
        assert status == 200
        _, headers, after = asgi_call(asgi_app, page, sid="alice")
        assert headers["X-Repro-Cache"] == "miss"
        assert b'rel="next"' not in after
        _, _, fresh = wsgi_call(
            app, page, sid="alice", headers=[("X-Repro-Cache", "bypass")]
        )
        assert after == fresh


class _LoopServer:
    """AsgiHttpServer on a background event-loop thread, for socket tests."""

    def __init__(self, asgi_app):
        self._ready = threading.Event()
        self.loop = asyncio.new_event_loop()
        self.server = AsgiHttpServer(asgi_app)
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        # start_server begins accepting immediately; the loop just needs
        # to keep running (server.close() must not tear the loop down —
        # the drain test keeps using it afterwards).
        self.loop.run_until_complete(self.server.start())
        self.address = self.server.address
        self._ready.set()
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(5), "server never came up"
        return self

    def __exit__(self, *exc):
        try:
            self.run_coro(self.server.aclose())
        except RuntimeError:
            pass
        try:
            self.loop.call_soon_threadsafe(self.loop.stop)
        except RuntimeError:
            pass
        self._thread.join(timeout=5)

    def url(self, path):
        host, port = self.address
        return f"http://{host}:{port}{path}"

    def run_coro(self, coro, timeout=5.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)


class TestOverRealSockets:
    def test_serves_pages_and_management_over_tcp(self, served):
        _, app = served
        with _LoopServer(AsgiNavigationApp(app)) as host:
            request = urllib.request.Request(
                host.url(f"/visitor/{GUITAR}"),
                headers={"X-Repro-Session": "alice"},
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
                assert response.headers["X-Repro-Cache"] in (
                    "hit",
                    "miss",
                    "off",
                )
                assert b"Guitar" in response.read()
            with urllib.request.urlopen(host.url("/-/stats")) as response:
                stats = json.loads(response.read())
            assert stats["sessions"]["active"] == 1
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(host.url("/stranger/index.html"))
            assert info.value.code == 404
            info.value.close()  # the error still holds the open response

    def test_keep_alive_reuses_one_connection(self, served):
        import http.client

        _, app = served
        with _LoopServer(AsgiNavigationApp(app)) as host:
            connection = http.client.HTTPConnection(*host.address)
            try:
                for n in range(3):
                    connection.request(
                        "GET",
                        f"/visitor/{GUITAR}",
                        headers={"X-Repro-Session": "alice"},
                    )
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
                    assert response.headers["Connection"] == "keep-alive"
            finally:
                connection.close()
            assert len(app.sessions()) == 1

    def test_malformed_requests_get_400_and_disconnect(self, served):
        import socket

        _, app = served
        with _LoopServer(AsgiNavigationApp(app)) as host:
            with socket.create_connection(host.address, timeout=5) as raw:
                raw.sendall(b"NONSENSE\r\n\r\n")
                reply = raw.recv(4096)
            assert reply.startswith(b"HTTP/1.1 400 ")

    def test_close_then_drain_finishes_in_flight_requests(self, served):
        _, app = served
        with _LoopServer(AsgiNavigationApp(app)) as host:
            with urllib.request.urlopen(
                urllib.request.Request(
                    host.url(f"/visitor/{GUITAR}"),
                    headers={"X-Repro-Session": "alice"},
                )
            ) as response:
                assert response.status == 200
                response.read()

            async def shut_down():
                host.server.close()
                return await host.server.drain(timeout=5)

            assert host.run_coro(shut_down())
            # New connections are refused after close().
            with pytest.raises(OSError):
                urllib.request.urlopen(host.url("/"), timeout=2)

    def test_concurrent_sessions_stay_isolated_over_tcp(self, served):
        _, app = served
        with _LoopServer(AsgiNavigationApp(app)) as host:
            errors = []
            pages = {}

            def browse(sid):
                try:
                    opener = urllib.request.build_opener()
                    for path in ("index.html", GUITAR):
                        request = urllib.request.Request(
                            host.url(f"/visitor/{path}"),
                            headers={"X-Repro-Session": sid},
                        )
                        with opener.open(request, timeout=10) as response:
                            pages[sid] = response.read().decode()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append((sid, exc))

            threads = [
                threading.Thread(target=browse, args=(f"user-{n}",))
                for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            # Every session saw its own trail (home crumb), nobody else's.
            for sid, text in pages.items():
                assert 'class="breadcrumbs"' in text
                assert "user-" not in text  # sids never leak into pages
            assert len(app.sessions()) == 8
