"""An asyncio/ASGI serving front over the same :class:`NavigationApp`.

The WSGI front (:mod:`repro.navigation.http`) spends one OS thread per
in-flight request; this module serves the identical application surface —
routing, sessions, cache semantics, management endpoints —
under a single event loop:

- :class:`AsgiNavigationApp` adapts a :class:`~repro.navigation.http.\
NavigationApp` to the ASGI 3 calling convention.  The app is
  synchronous by design (instance-scope dispatch, join point pools and
  the session locks are all thread-based).  A page whose skeleton is
  already cached costs tens of microseconds, less than the hop to a
  thread, so its :meth:`~repro.navigation.http.NavigationApp.respond`
  runs inline on the event loop; misses and management calls, which
  render or weave for a millisecond or more, run on the loop's
  worker-thread executor.  Both fronts call the *same* ``respond``, so
  they cannot drift apart — a WSGI response and an ASGI response to the
  same request are byte-identical.
- :class:`AsgiHttpServer` binds any ASGI callable under a hand-rolled
  ``asyncio`` HTTP/1.1 server (``asyncio.start_server`` + a minimal
  request parser) — the container has no third-party ASGI server, and
  the protocol surface the app needs (methods, paths, headers,
  content-length bodies, keep-alive) is small enough to own.  It also
  provides the graceful half of cluster life: ``close()`` stops
  accepting, ``drain()`` awaits in-flight requests.
- :func:`serve_async` stands up the whole stack — fixture, audience
  server, app, ASGI adapter, HTTP server — and serves until cancelled,
  mirroring :func:`repro.navigation.http.serve`.

Run it::

    python -m repro.tools serve --asgi --audiences visitor,curator
"""

from __future__ import annotations

import asyncio
import io
from typing import Any, Callable, Iterable
from urllib.parse import unquote

from .audience import DEFAULT_AUDIENCES, AudienceBundle
from .config import ServingConfig
from .http import NavigationApp
from .serving import AudienceServer

#: Request-line / header-block size bound (a parser, not a proxy target).
MAX_HEADER_BYTES = 64 * 1024

#: Request body size bound (management bodies are small JSON documents).
MAX_BODY_BYTES = 16 * 1024 * 1024


class RequestSyntaxError(ValueError):
    """A malformed HTTP request (served as ``400`` and disconnected)."""


def build_environ(scope: "dict[str, Any]", body: bytes) -> "dict[str, Any]":
    """A WSGI-shaped environ from an ASGI http *scope* plus its *body*.

    Only the keys :meth:`NavigationApp.respond` reads are populated —
    method, path, headers (as ``HTTP_*``), content length and the body
    stream — plus the conventional address/scheme keys for parity with
    what a WSGI server would hand over.  ``raw_path`` is preferred when
    the scope carries it: the app's own URI normalization handles
    percent-encoding, and decoding ``%2F`` early would corrupt page
    paths the way it would under any other server.  Repeated headers
    fold into one key with ``,``, except ``Cookie``, which folds with
    ``; `` as RFC 6265 requires.
    """
    raw_path = scope.get("raw_path")
    if raw_path:
        path = raw_path.decode("latin-1").split("?", 1)[0]
    else:
        path = scope.get("path", "/")
    environ: dict[str, Any] = {
        "REQUEST_METHOD": scope.get("method", "GET"),
        "PATH_INFO": path,
        "QUERY_STRING": scope.get("query_string", b"").decode("latin-1"),
        "SERVER_PROTOCOL": f"HTTP/{scope.get('http_version', '1.1')}",
        "wsgi.url_scheme": scope.get("scheme", "http"),
        "CONTENT_LENGTH": str(len(body)),
        "wsgi.input": io.BytesIO(body),
    }
    for name, value in scope.get("headers", ()):
        key = name.decode("latin-1").strip().upper().replace("-", "_")
        text = value.decode("latin-1").strip()
        if key == "CONTENT_TYPE":
            environ["CONTENT_TYPE"] = text
        elif key == "CONTENT_LENGTH":
            pass  # measured from the body actually read
        else:
            http_key = f"HTTP_{key}"
            if http_key in environ:
                # Cookie lines fold with "; " (RFC 6265 §5.4): a ","
                # would glue two cookies into one value.
                joiner = "; " if key == "COOKIE" else ","
                environ[http_key] += f"{joiner}{text}"
            else:
                environ[http_key] = text
    client = scope.get("client")
    if client:
        environ["REMOTE_ADDR"], environ["REMOTE_PORT"] = (
            client[0],
            str(client[1]),
        )
    server = scope.get("server")
    if server:
        environ["SERVER_NAME"], environ["SERVER_PORT"] = (
            server[0],
            str(server[1]),
        )
    return environ


async def _drain_body(receive) -> bytes:
    chunks = []
    while True:
        message = await receive()
        if message["type"] == "http.disconnect":
            raise ConnectionError("client disconnected during request body")
        chunks.append(message.get("body", b""))
        if not message.get("more_body"):
            return b"".join(chunks)


class AsgiNavigationApp:
    """ASGI 3 adapter over a :class:`NavigationApp`.

    HTTP requests are translated to WSGI-shaped environs and answered by
    the wrapped app's :meth:`~repro.navigation.http.NavigationApp.\
respond`.  Where it runs is decided per request by
    :meth:`~repro.navigation.http.NavigationApp.would_hit_cache`: a
    ``GET`` page whose skeleton is cached is answered inline on the
    event loop, everything else (misses, ``X-Repro-Cache: bypass``, the
    cache-off tier, 404s and every ``/-/`` route) on the loop's default
    thread-pool executor — renders stay genuinely concurrent (they are
    lock-free in the serving layer) while the loop never blocks on one.
    If a reconfigure lands between the check and ``respond``, the inline
    request renders the new stack once on the loop: late, never wrong.
    Lifespan scopes are acknowledged so the adapter also runs under
    standard ASGI servers.
    """

    def __init__(self, app: NavigationApp):
        self._app = app

    @property
    def app(self) -> NavigationApp:
        """The wrapped (transport-neutral) application."""
        return self._app

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            raise RuntimeError(
                f"AsgiNavigationApp only serves http scopes, not "
                f"{scope['type']!r}"
            )
        body = await _drain_body(receive)
        environ = build_environ(scope, body)
        if self._app.would_hit_cache(environ):
            status, headers, payload = self._app.respond(environ)
        else:
            loop = asyncio.get_running_loop()
            status, headers, payload = await loop.run_in_executor(
                None, self._app.respond, environ
            )
        await send(
            {
                "type": "http.response.start",
                "status": int(status.split(maxsplit=1)[0]),
                "headers": [
                    (name.encode("latin-1"), value.encode("latin-1"))
                    for name, value in headers
                ],
            }
        )
        await send({"type": "http.response.body", "body": payload})

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return


# -- the asyncio HTTP/1.1 server ------------------------------------------------


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


async def _read_request(reader: asyncio.StreamReader):
    """One parsed request: ``(method, target, version, headers, body)``.

    Returns ``None`` on a clean EOF before any bytes (the client closed
    an idle keep-alive connection).  Raises :class:`RequestSyntaxError`
    on anything malformed — the connection handler answers 400 and
    disconnects rather than guessing at framing.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise RequestSyntaxError("truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise RequestSyntaxError("request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise RequestSyntaxError("request head too large")
    request_line, _, header_block = head.partition(b"\r\n")
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise RequestSyntaxError(f"malformed request line: {parts!r}")
    method, target, version = parts
    if not version.startswith("HTTP/"):
        raise RequestSyntaxError(f"malformed HTTP version: {version!r}")
    headers: list[tuple[bytes, bytes]] = []
    for line in header_block.split(b"\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(b":")
        if not sep:
            raise RequestSyntaxError(f"malformed header line: {line!r}")
        headers.append((name.strip().lower(), value.strip()))
    length = 0
    for name, value in headers:
        if name == b"content-length":
            try:
                length = int(value)
            except ValueError:
                raise RequestSyntaxError(
                    f"malformed content-length: {value!r}"
                ) from None
        elif name == b"transfer-encoding":
            raise RequestSyntaxError("chunked request bodies are unsupported")
    if length < 0 or length > MAX_BODY_BYTES:
        raise RequestSyntaxError(f"unacceptable content-length: {length}")
    body = await reader.readexactly(length) if length else b""
    return method, target, version.removeprefix("HTTP/"), headers, body


class AsgiHttpServer:
    """A minimal asyncio HTTP/1.1 host for one ASGI application.

    Owns the protocol work a third-party server would do: accept
    connections, parse requests (with size bounds), build ASGI http
    scopes, run the application, frame responses, keep connections
    alive.  Every response carries an explicit ``Content-Length`` (the
    application always sets one; the server adds it if missing), so
    keep-alive framing is unambiguous.

    Shutdown is two-phase for the cluster's graceful drain:
    ``close()`` stops accepting new connections, ``drain()`` awaits the
    requests already in flight — after which the process can snapshot
    its sessions and exit with nothing half-served.
    """

    def __init__(
        self,
        asgi_app: Callable,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._asgi_app = asgi_app
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._closing = False

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=MAX_HEADER_BYTES,
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemerals)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def close(self) -> None:
        """Stop accepting new connections (in-flight requests continue)."""
        self._closing = True
        if self._server is not None:
            self._server.close()

    async def drain(self, timeout: float | None = None) -> bool:
        """Await in-flight requests; ``False`` if *timeout* expired first.

        Call :meth:`close` first — draining while still accepting never
        terminates under load.  Idle keep-alive connections are told to
        finish via the closing flag and are cancelled at the deadline.
        """
        pending = {task for task in self._connections if not task.done()}
        if not pending:
            return True
        done, still_pending = await asyncio.wait(pending, timeout=timeout)
        for task in still_pending:
            task.cancel()
        return not still_pending

    async def aclose(self) -> None:
        self.close()
        await self.drain(timeout=0.1)
        if self._server is not None:
            await self._server.wait_closed()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            pass  # the client went away; nothing to answer
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        while not self._closing:
            try:
                request = await _read_request(reader)
            except RequestSyntaxError as exc:
                await self._write_simple(writer, 400, str(exc))
                return
            if request is None:
                return
            method, target, version, headers, body = request
            keep_alive = await self._dispatch(
                writer, method, target, version, headers, body
            )
            if not keep_alive:
                return

    async def _dispatch(
        self, writer, method, target, version, headers, body
    ) -> bool:
        path, _, query = target.partition("?")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": version,
            "method": method,
            "scheme": "http",
            "path": unquote(path),
            "raw_path": path.encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "headers": headers,
            "client": writer.get_extra_info("peername"),
            "server": writer.get_extra_info("sockname"),
        }
        wants_close = (
            version == "1.0"
            or any(
                name == b"connection" and value.lower() == b"close"
                for name, value in headers
            )
            or self._closing
        )

        messages = [{"type": "http.request", "body": body, "more_body": False}]

        async def receive():
            if messages:
                return messages.pop(0)
            return {"type": "http.disconnect"}

        state: dict[str, Any] = {"status": None, "headers": []}

        async def send(message):
            if message["type"] == "http.response.start":
                state["status"] = message["status"]
                state["headers"] = list(message.get("headers", ()))
            elif message["type"] == "http.response.body":
                state.setdefault("body", b"")
                state["body"] += message.get("body", b"")

        try:
            await self._asgi_app(scope, receive, send)
        except Exception:
            if state["status"] is None:
                await self._write_simple(
                    writer, 500, "internal server error"
                )
            return False
        status = state["status"] or 500
        payload = state.get("body", b"")
        response_headers = list(state["headers"])
        if not any(
            name.lower() == b"content-length"
            for name, _ in response_headers
        ):
            response_headers.append(
                (b"content-length", str(len(payload)).encode())
            )
        response_headers.append(
            (b"connection", b"close" if wants_close else b"keep-alive")
        )
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}".encode("latin-1")]
        head.extend(name + b": " + value for name, value in response_headers)
        writer.write(b"\r\n".join(head) + b"\r\n\r\n" + payload)
        await writer.drain()
        return not wants_close

    async def _write_simple(self, writer, status: int, message: str) -> None:
        body = (message + "\n").encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"content-type: text/plain; charset=utf-8\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: close\r\n\r\n".encode("latin-1")
            + body
        )
        await writer.drain()


async def serve_async(
    fixture: Any,
    bundles: Iterable[AudienceBundle] | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    config: ServingConfig | None = None,
    ready: Callable[[AsgiHttpServer], None] | None = None,
    shutdown: "asyncio.Event | None" = None,
    on_drain: Callable[[NavigationApp], None] | None = None,
) -> None:
    """Stand up the asyncio stack and serve until *shutdown* (or cancel).

    The event-loop twin of :func:`repro.navigation.http.serve`: weaves
    the bundles into an :class:`AudienceServer`, wraps the app in the
    ASGI adapter, binds :class:`AsgiHttpServer` and serves.  *ready* is
    called with the bound server (the CLI prints the ephemeral port from
    it).  When *shutdown* is set — the CLI's SIGTERM handler sets it —
    the server stops accepting, drains in-flight requests, then calls
    *on_drain* with the still-live app (the graceful hook: the CLI
    snapshots sessions there) before the stack unwinds.
    """
    if config is None:
        config = ServingConfig()
    bundles = list(bundles) if bundles is not None else list(DEFAULT_AUDIENCES)
    with AudienceServer(fixture, bundles, config=config) as server:
        app = NavigationApp(server)
        httpd = AsgiHttpServer(AsgiNavigationApp(app), host, port)
        await httpd.start()
        if ready is not None:
            ready(httpd)
        serving = asyncio.ensure_future(httpd.serve_forever())
        waiters = [serving]
        stop = None
        if shutdown is not None:
            stop = asyncio.ensure_future(shutdown.wait())
            waiters.append(stop)
        try:
            await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        finally:
            serving.cancel()
            if stop is not None:
                stop.cancel()
            httpd.close()
            await httpd.drain(timeout=5.0)
            if on_drain is not None:
                on_drain(app)
            await httpd.aclose()
            app.close()
