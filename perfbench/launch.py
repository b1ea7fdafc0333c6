"""Traced-run launcher: the unmodified server with per-layer spans.

Usage::

    PYTHONPATH=src python perfbench/launch.py TRACE_OUT -- serve --asgi --port 0

Imports the serving stack, wraps the public functions each layer is
entered through, then hands the remaining arguments to
``repro.tools.cli.main``.  Nothing under ``src/`` changes: functions are
replaced where they are looked up (class attributes, module globals, and
every ``from ... import`` copy of a module function in ``repro.*``).

A span is ``(name, request id, start ns, end ns, parent, self ns)``.
Spans nest per thread; a span's self time is its duration minus the
durations of its direct children.  The request id is the client's
``X-Bench-Rid`` header, which ties the event-loop span
(``AsgiNavigationApp.__call__``) to the executor-thread span
(``NavigationApp.respond``) of the same request.  Per-request call counts
of the XML and path helpers ride along.  Everything stays in memory and
is written to TRACE_OUT as JSON when the server exits.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

#: Module functions whose calls are counted per request, by counter.
COUNTED = {
    "serialize": ("repro.xmlcore.serializer", "serialize"),
    "build": ("repro.xmlcore.builder", "build"),
    "ncname": ("repro.xmlcore.names", "is_valid_ncname"),
    "relpath": ("posixpath", "relpath"),
}
COUNTERS = tuple(COUNTED)


class Tracer:
    """Span and counter recorder shared by every wrapper in the process."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self.spans: list[tuple] = []
        self.request_counts: list[tuple] = []
        self.tallies = {"cache.dropped": 0}
        self._tally_lock = threading.Lock()
        self._open_tiers: set[int] = set()
        self.live_sessions_peak = 0

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            self._tls.rid = None
            self._tls.counts = [0] * len(COUNTERS)
            return self._tls.stack

    def mark(self, name: str) -> None:
        """A zero-length span: an event counted inside the current request."""
        self._stack()
        now = time.perf_counter_ns()
        self.spans.append((name, self._tls.rid, now, now, None, 0))

    def tally(self, name: str, amount: int) -> None:
        with self._tally_lock:
            self.tallies[name] += amount

    def timed(self, name: str, fn, on_result=None):
        """*fn* wrapped in a span called *name*."""
        tls = self._tls
        spans = self.spans
        clock = time.perf_counter_ns
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += end - start
                spans.append(
                    (
                        name,
                        tls.rid,
                        start,
                        end,
                        parent[0] if parent is not None else None,
                        end - start - frame[1],
                    )
                )
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, index: int, fn):
        """*fn* wrapped to count its calls into the current request."""
        tls = self._tls
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                tls.counts[index] += 1
            except AttributeError:
                stack_of()
                tls.counts[index] += 1
            return fn(*args, **kwargs)

        return wrapper

    def request_root(self, fn):
        """``NavigationApp.respond``: the root span of a request's thread."""
        tls = self._tls
        timed = self.timed("http.respond", fn)
        stack_of = self._stack
        counts_out = self.request_counts

        @functools.wraps(fn)
        def wrapper(app, environ):
            stack_of()
            rid = tls.rid = environ.get("HTTP_X_BENCH_RID")
            tls.counts = counts = [0] * len(COUNTERS)
            try:
                return timed(app, environ)
            finally:
                counts_out.append((rid, *counts))
                tls.rid = None

        return wrapper

    def event_loop_span(self, name: str, fn):
        """An ``async`` ASGI callable timed as a standalone span.

        Coroutines interleave on the loop thread, so these spans take no
        part in the per-thread nesting; the request id pairs them up.
        """
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        async def wrapper(app, scope, receive, send):
            rid = None
            for key, value in scope.get("headers", ()):
                if key == b"x-bench-rid":
                    rid = value.decode("latin-1")
                    break
            start = clock()
            try:
                await fn(app, scope, receive, send)
            finally:
                end = clock()
                spans.append((name, rid, start, end, None, end - start))

        return wrapper

    def session_opened(self, tier) -> None:
        with self._tally_lock:
            self._open_tiers.add(id(tier))
            self.live_sessions_peak = max(
                self.live_sessions_peak, len(self._open_tiers)
            )

    def session_closing(self, tier) -> None:
        with self._tally_lock:
            self._open_tiers.discard(id(tier))

    def dump(self, path: Path) -> None:
        payload = {
            "counters": list(COUNTERS),
            "spans": self.spans,
            "request_counts": self.request_counts,
            "tallies": self.tallies,
            "live_sessions_peak": self.live_sessions_peak,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


def replace_function(module_name: str, attr: str, make) -> None:
    """Swap a module function for ``make(function)`` wherever ``repro.*``
    binds it: in its own module and in every from-import copy."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = make(original)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != module_name and not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def replace_method(cls, attr: str, make) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


class _TimedRenderer:
    """The audience renderer as the serving path sees it, with a span.

    Calls go through the renderer's *current* class attribute, so a
    reconfigure's re-weave is picked up exactly as without tracing.
    """

    def __init__(self, renderer, tracer: Tracer):
        def render_node(node):
            return renderer.render_node(node)

        def render_home():
            return renderer.render_home()

        self.render_node = tracer.timed("core.render", render_node)
        self.render_home = tracer.timed("core.render", render_home)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are taken at."""
    # Every module that from-imports a replaced function is imported
    # first, so that its copy exists when the copies are replaced.
    import posixpath  # noqa: F401
    import repro.core  # noqa: F401
    import repro.navigation  # noqa: F401
    import repro.tools.cli  # noqa: F401
    from repro.aop import DeploymentSet
    from repro.core.navspec import NavigationSpec
    from repro.navigation.asgi import AsgiNavigationApp
    from repro.navigation.cache import PageCache
    from repro.navigation.http import NavigationApp
    from repro.navigation.serving import AudienceServer, SessionTier
    from repro.navigation.session import BreadcrumbTrail
    from repro.web.html import HtmlPage

    timed = tracer.timed

    replace_method(
        AsgiNavigationApp,
        "__call__",
        lambda fn: tracer.event_loop_span("asgi.app", fn),
    )
    replace_method(NavigationApp, "respond", tracer.request_root)
    replace_method(
        BreadcrumbTrail, "record", lambda fn: timed("session.trail_record", fn)
    )
    replace_method(HtmlPage, "skeleton_html", lambda fn: timed("web.skeleton", fn))

    def count_miss(entry) -> None:
        if entry is None:
            tracer.mark("cache.miss")

    replace_method(PageCache, "get", lambda fn: timed("cache.get", fn, count_miss))
    replace_method(PageCache, "put", lambda fn: timed("cache.put", fn))
    replace_method(
        PageCache,
        "drop_stale",
        lambda fn: timed(
            "cache.drop_stale", fn, lambda n: tracer.tally("cache.dropped", n)
        ),
    )
    for attr in ("anchors_for", "home_anchors"):
        replace_method(NavigationSpec, attr, lambda fn: timed("navspec.anchors", fn))
    replace_method(
        AudienceServer,
        "session_tier",
        lambda fn: timed("serving.session_tier", fn, tracer.session_opened),
    )
    replace_method(
        SessionTier, "deploy", lambda fn: timed("serving.session_deploy", fn)
    )

    def wrap_close(fn):
        inner = timed("serving.session_close", fn)

        @functools.wraps(fn)
        def close(tier):
            tracer.session_closing(tier)
            return inner(tier)

        return close

    replace_method(SessionTier, "close", wrap_close)
    replace_method(
        AudienceServer, "reconfigure", lambda fn: timed("serving.reconfigure", fn)
    )
    replace_method(DeploymentSet, "undeploy", lambda fn: timed("aop.tx_undeploy", fn))

    def wrap_renderer(fn):
        proxies: dict[int, _TimedRenderer] = {}

        @functools.wraps(fn)
        def renderer(server, audience):
            real = fn(server, audience)
            proxy = proxies.get(id(real))
            if proxy is None:
                proxy = proxies[id(real)] = _TimedRenderer(real, tracer)
            return proxy

        return renderer

    replace_method(AudienceServer, "renderer", wrap_renderer)

    replace_function(
        "repro.navigation.session",
        "breadcrumb_fragment",
        lambda fn: timed("session.fragment", fn),
    )
    replace_function(
        "repro.web.html", "compose_page", lambda fn: timed("web.compose", fn)
    )
    for index, (module_name, attr) in enumerate(COUNTED.values()):
        replace_function(
            module_name, attr, lambda fn, index=index: tracer.counted(index, fn)
        )


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    tracer = Tracer()
    install(tracer)
    from repro.tools.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
