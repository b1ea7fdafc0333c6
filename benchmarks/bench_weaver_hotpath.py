"""Weaver hot path: the seed → compiled → code-generated trajectory.

The seed weaver re-partitioned advice by kind and re-evaluated every
pointcut's dynamic residue on *every* advised call, and pushed a join point
frame whether or not anything could observe it.  PR 1's compiled weaver
does the partitioning once at deployment time and skips stack bookkeeping
for statically-matched shadows; PR 2 code-generates a specialized closure
per shadow over a pooled join point (``REPRO_AOP_CODEGEN``).  This
harness prices every tier —
using a faithful reproduction of the seed implementation as the baseline —
plus the join point pool itself and the single-scan batch planner, and
writes the numbers to
``BENCH_weaver_hotpath.json`` at the repo root so successive PRs can track
the trajectory (and CI can refuse regressions: see ``check_regression.py``).

Run::

    PYTHONPATH=src python benchmarks/bench_weaver_hotpath.py
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import inspect
import itertools
import json
import os
import platform
import sys
import timeit
from pathlib import Path
from types import FunctionType, ModuleType

from repro.aop import (
    Aspect,
    AdviceKind,
    JoinPointPool,
    WeaverRuntime,
    around,
    before,
    field_get,
    field_set,
    generator,
    proceed,
)
from repro.aop.joinpoint import (
    JoinPoint,
    JoinPointKind,
    ProceedingJoinPoint,
    joinpoint_frame,
)
from repro.aop.weaver import MethodShadow, _scan_method_shadows

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_weaver_hotpath.json"


# -- the seed (pre-refactor) implementation, reproduced as the baseline -------


def _seed_wrap_around(advice, jp, inner):
    def runner(*args, **kwargs):
        pjp = ProceedingJoinPoint(jp, inner)
        pjp.args = args or jp.args
        pjp.kwargs = kwargs or jp.kwargs
        return advice.invoke(pjp)

    return runner


def _seed_advice_chain(advice, jp, proceed):
    befores = [a for a in advice if a.kind is AdviceKind.BEFORE]
    arounds = [a for a in advice if a.kind is AdviceKind.AROUND]
    returnings = [a for a in advice if a.kind is AdviceKind.AFTER_RETURNING]
    throwings = [a for a in advice if a.kind is AdviceKind.AFTER_THROWING]
    finallys = [a for a in advice if a.kind is AdviceKind.AFTER]

    chain = proceed
    for around_advice in reversed(arounds):
        chain = _seed_wrap_around(around_advice, jp, chain)

    for item in befores:
        item.invoke(jp)
    try:
        result = chain(*jp.args, **jp.kwargs)
    except Exception as exc:
        jp.result = exc
        for item in reversed(throwings):
            item.invoke(jp)
        for item in reversed(finallys):
            item.invoke(jp)
        raise
    jp.result = result
    for item in reversed(returnings):
        item.invoke(jp)
    for item in reversed(finallys):
        item.invoke(jp)
    return result


class LegacyWeaver(WeaverRuntime):
    """The seed weaver: per-call partitioning, filtering and frame pushes."""

    @staticmethod
    def _make_method_wrapper(shadow, advice, scope=None):
        original = shadow.original

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            jp = JoinPoint(
                JoinPointKind.METHOD_EXECUTION,
                self,
                type(self),
                shadow.name,
                args,
                kwargs,
            )
            with joinpoint_frame(jp):
                applicable = [a for a in advice if a.pointcut.matches_dynamic(jp)]
                if not applicable:
                    return original(self, *args, **kwargs)

                def proceed(*call_args, **call_kwargs):
                    return original(self, *call_args, **call_kwargs)

                return _seed_advice_chain(applicable, jp, proceed)

        wrapper.__woven__ = True
        wrapper.__woven_original__ = original
        return wrapper


# -- workloads ----------------------------------------------------------------


def fresh_node_class():
    class Node:
        def render(self):
            return 42

    return Node


def fresh_field_node_class():
    class Node:
        def __init__(self):
            self.level = 0

        def render(self):
            return self.level

    return Node


class FieldAspect(Aspect):
    """Static before advice on a field's get and set join points."""

    @before(field_get("Node.level"))
    def on_get(self, jp):
        pass

    @before(field_set("Node.level"))
    def on_set(self, jp):
        pass


class BeforeAspect(Aspect):
    def __init__(self):
        self.count = 0

    @before("execution(Node.render)")
    def note(self, jp):
        self.count += 1


class AroundAspect(Aspect):
    @around("execution(Node.render)")
    def wrap(self, jp):
        return jp.proceed()


class GeneratorAspect(Aspect):
    """Before-shaped generator advice: do the work, then ``yield proceed``.

    The generator analog of :class:`BeforeAspect` (same counting body), so
    the ``call_generator_before_*`` series price exactly what the protocol
    adds over a plain before chain: one generator frame per call plus the
    send/StopIteration drive.
    """

    def __init__(self):
        self.count = 0

    @generator("execution(Node.render)")
    def note(self, jp):
        self.count += 1
        yield proceed


class SecondBeforeAspect(Aspect):
    """A second static before aspect, for stacked-deployment pricing."""

    def __init__(self):
        self.count = 0

    @before("execution(Node.render)")
    def note(self, jp):
        self.count += 1


class TargetedAspect(Aspect):
    """Carries a dynamic residue so both weavers take the filtering path."""

    def __init__(self, node_cls):
        from repro.aop import execution, target

        self._pointcut = execution("Node.render") & target(node_cls)

    def advice(self):
        from repro.aop import Advice

        return [
            Advice(
                kind=AdviceKind.BEFORE,
                pointcut=self._pointcut,
                function=lambda jp: None,
            )
        ]

    def validate(self):
        pass


def time_call(fn, *, repeat=5, number=50_000):
    """Best-of-N per-call time in nanoseconds."""
    best = min(timeit.repeat(fn, repeat=repeat, number=number))
    return best / number * 1e9


@contextlib.contextmanager
def codegen_mode(enabled):
    """Force the wrapper tier for deployments made inside the block."""
    previous = os.environ.get("REPRO_AOP_CODEGEN")
    os.environ["REPRO_AOP_CODEGEN"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_AOP_CODEGEN", None)
        else:
            os.environ["REPRO_AOP_CODEGEN"] = previous


def bench_advised_call(weaver_cls, aspect_factory, *, codegen=False):
    Node = fresh_node_class()
    weaver = weaver_cls()
    aspect = aspect_factory(Node)
    with codegen_mode(codegen):
        handle = weaver.weave(Node, aspect)
    node = Node()
    try:
        return time_call(node.render)
    finally:
        handle.undeploy()


def bench_stacked_advised_call(weaver_cls, *, codegen=False):
    """Two static before aspects stacked on one shadow (two deployments).

    Prices the wrapper-over-wrapper composition the audience scenarios
    lean on: the outer deployment's wrapper proceeds into the inner one.
    """
    Node = fresh_node_class()
    weaver = weaver_cls()
    with codegen_mode(codegen):
        first = weaver.weave(Node, BeforeAspect())
        second = weaver.weave(Node, SecondBeforeAspect())
    node = Node()
    try:
        return time_call(node.render)
    finally:
        second.undeploy()
        first.undeploy()


def _module_func_fixture():
    """A synthetic module with one weavable module-level function."""
    module = ModuleType("benchmod")
    namespace = {"__name__": "benchmod"}
    exec("def render():\n    return 42\n", namespace)
    module.render = namespace["render"]
    return module


class ModuleBeforeAspect(Aspect):
    """Static before advice on a module-level function."""

    @before("execution(benchmod.render)")
    def note(self, jp):
        pass


def bench_module_func_call(*, legacy, codegen=True):
    """Advised module-level function call: weave() vs the seed pattern.

    The seed weaver had no module-function targets at all; its honest
    counterfactual is the wrapper it would have installed — rebind the
    module global to a closure that builds a join point, pushes a frame
    and re-filters/partitions the advice on *every* call (the same
    per-call work ``LegacyWeaver`` does for methods).  The current path
    weaves the module through ``runtime.weave`` and prices the installed
    tier's wrapper.
    """
    module = _module_func_fixture()
    if legacy:
        original = module.render
        advice = ModuleBeforeAspect().advice()

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            jp = JoinPoint(
                JoinPointKind.METHOD_EXECUTION,
                None,
                module,
                "render",
                args,
                kwargs,
            )
            with joinpoint_frame(jp):
                applicable = [a for a in advice if a.pointcut.matches_dynamic(jp)]
                if not applicable:
                    return original(*args, **kwargs)

                def proceed_fn(*call_args, **call_kwargs):
                    return original(*call_args, **call_kwargs)

                return _seed_advice_chain(applicable, jp, proceed_fn)

        module.render = wrapper
        try:
            return time_call(module.render)
        finally:
            module.render = original

    weaver = WeaverRuntime()
    with codegen_mode(codegen):
        handle = weaver.weave(module, ModuleBeforeAspect())
    try:
        return time_call(module.render)
    finally:
        handle.undeploy()


def bench_instance_scoped_call(*, scoped):
    """Instance-scoped dispatch: the scoped chain, or unscoped passthrough.

    Deploys a static before aspect scoped to one instance (codegen tier:
    marker-attribute dispatch with exact-signature forwarding).  With
    ``scoped`` the advised instance is timed — chain cost plus dispatch —
    otherwise a *different* instance of the same class is timed through
    the same wrapper: the near-plain passthrough every unscoped receiver
    pays while any instance-scoped deployment is live on its class.
    """
    Node = fresh_node_class()
    weaver = WeaverRuntime()
    scoped_node, unscoped_node = Node(), Node()
    with codegen_mode(True):
        handle = weaver.weave(Node, BeforeAspect(), instances=[scoped_node])
    node = scoped_node if scoped else unscoped_node
    try:
        return time_call(node.render)
    finally:
        handle.undeploy()


def bench_field_access(*, codegen, write):
    """Advised field get/set: generic descriptor chain vs generated accessors.

    The generic tier allocates a ``read``/``write`` closure and runs the
    compiled chain per access; the codegen tier deploys a generated
    ``_WovenField`` subclass that inlines the advice and the backing
    ``__dict__`` access over a pooled join point.
    """
    Node = fresh_field_node_class()
    weaver = WeaverRuntime()
    with codegen_mode(codegen):
        handle = weaver.weave(Node, FieldAspect(), fields=["level"])
    node = Node()
    if write:

        def one():
            node.level = 1

    else:

        def one():
            return node.level

    try:
        return time_call(one)
    finally:
        handle.undeploy()


def bench_joinpoint_construction(*, pooled):
    """Price one join point per call: pool acquire/release vs. dataclass.

    This is the "lazy join point" rung in isolation — what every generated
    static wrapper saves per call by popping a blank slotted instance off
    the per-shadow free list instead of running the two-level dataclass
    ``__init__``.
    """
    holder = object()
    args = (1, 2)
    kwargs = {"a": 3}
    if pooled:
        pool = JoinPointPool(JoinPointKind.METHOD_EXECUTION, "render")

        def one():
            jp = pool.acquire(holder, args, kwargs)
            pool.release(jp)
            return jp

    else:

        def one():
            return JoinPoint(
                JoinPointKind.METHOD_EXECUTION,
                holder,
                object,
                "render",
                args,
                kwargs,
            )

    return time_call(one, number=100_000)


def bench_serve_page(*, legacy, cached=False):
    """Price one served page: the HTTP request path vs the seed's serving.

    ``legacy`` is the seed's only serving story: one *class-wide* weave of
    the audience's navigation stack (through the faithful seed weaver) and
    a direct render+serialize per request — no instance scopes, no
    sessions, and necessarily one audience per process.  The current path
    is a full :class:`~repro.navigation.NavigationApp` request: WSGI
    routing, session lookup, instance-scope dispatch through the audience
    stack, the render+serialize, then the breadcrumb trail spliced in —
    with the skeleton cache *disabled*, so the series keeps pricing the
    render path as the cache tier evolves.

    ``cached`` prices the same request with the weave-epoch page cache on
    and warm: an epoch read, a cache hit, a fresh trail fragment and the
    skeleton splice, instead of a render.
    """
    import io

    from repro.baselines import museum_fixture
    from repro.core import NavigationAspect, PageRenderer, default_museum_spec

    fixture = museum_fixture()
    node = fixture.painting_node("guitar")
    if legacy:
        weaver = LegacyWeaver()
        handles = [
            weaver.weave(
                PageRenderer,
                NavigationAspect(default_museum_spec(access), fixture),
            )
            for access in ("index", "guided-tour")
        ]
        renderer = PageRenderer(fixture)

        def one():
            return renderer.render_node(node).html()

        try:
            return time_call(one, repeat=3, number=500)
        finally:
            for handle in reversed(handles):
                handle.undeploy()

    from repro.navigation import (
        AudienceBundle,
        AudienceServer,
        NavigationApp,
        ServingConfig,
    )

    bundles = [AudienceBundle("visitor", ("index", "guided-tour"))]
    config = ServingConfig(cache_enabled=cached)
    with codegen_mode(True):
        with AudienceServer(fixture, bundles, config=config) as server:
            app = NavigationApp(server)
            environ = {
                "REQUEST_METHOD": "GET",
                "PATH_INFO": "/visitor/PaintingNode/guitar.html",
                "HTTP_X_REPRO_SESSION": "bench",
                "CONTENT_LENGTH": "0",
                "wsgi.input": io.BytesIO(b""),
            }

            def start_response(status, headers):
                assert status == "200 OK", status

            def one():
                return app(environ, start_response)

            # Open the session — and, when cached, install the skeleton
            # under the live epoch — outside the timed region.
            one()
            try:
                if cached:
                    return time_call(one, repeat=3, number=10_000)
                return time_call(one, repeat=3, number=500)
            finally:
                app.close()


def bench_serve_page_full_trail():
    """A warm cached hit the way a browsing visitor gets it: full trail.

    ``serve_page_cached_ns`` repeats one page, so its trail (which leaves
    the current page out) is always empty.  Here one session first walks
    8 distinct pages, then the timed hits cycle over every page of the
    museum: with more pages in the cycle than the trail holds, each timed
    page shows a full 8-crumb trail, and every skeleton is already cached.
    """
    import io

    from repro.baselines import museum_fixture
    from repro.core import PageRenderer
    from repro.navigation import (
        AudienceBundle,
        AudienceServer,
        NavigationApp,
        ServingConfig,
    )
    from repro.navigation.serving import build_node_map

    fixture = museum_fixture()
    pages = ["index.html", *build_node_map(PageRenderer(fixture))]
    bundles = [AudienceBundle("visitor", ("index", "guided-tour"))]
    limit = ServingConfig().breadcrumb_limit
    assert len(pages) > limit, "the cycle must outgrow the trail"
    with codegen_mode(True):
        with AudienceServer(fixture, bundles, config=ServingConfig()) as server:
            app = NavigationApp(server)
            environs = [
                {
                    "REQUEST_METHOD": "GET",
                    "PATH_INFO": f"/visitor/{page}",
                    "HTTP_X_REPRO_SESSION": "bench",
                    "CONTENT_LENGTH": "0",
                    "wsgi.input": io.BytesIO(b""),
                }
                for page in pages
            ]
            cycle = itertools.cycle(environs)

            def start_response(status, headers):
                assert status == "200 OK", status

            def one():
                return app(next(cycle), start_response)

            # Fill the cache with every page and the trail with the walk.
            for _ in range(len(pages) + limit):
                one()
            (body,) = one()
            assert body.count(b'rel="breadcrumb"') == limit
            try:
                return time_call(one, repeat=3, number=5_000)
            finally:
                app.close()


def bench_site_scaling(*, small=100, large=400, per_painter=20, pages=100):
    """A cache-off request on a *small*-painter and a *large*-painter site.

    Both synthetic museums have contexts of the same size (*per_painter*
    paintings), the large one ``large / small`` times as many of them.
    Each app serves *pages* painting pages spread evenly over its site,
    cycled with the skeleton cache disabled, so every request renders.
    Rounds of one cycle each alternate between the two sites, so a drift
    in machine speed lands on both.  Each side reports its median round:
    the fastest round of one side can fall in a fast spell the other
    side missed, which swung the ratio by ±15% on a shared 2-core host,
    against ±3% for the medians.  Returns ``(small_ns, large_ns)``: a
    render miss does page-sized work, so the two should match.
    """
    import io
    import statistics

    from repro.baselines import synthetic_museum
    from repro.core import PageRenderer
    from repro.navigation import (
        AudienceBundle,
        AudienceServer,
        NavigationApp,
        ServingConfig,
    )
    from repro.navigation.serving import build_node_map

    def environ(page):
        return {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": f"/visitor/{page}",
            "HTTP_X_REPRO_SESSION": "bench",
            "CONTENT_LENGTH": "0",
            "wsgi.input": io.BytesIO(b""),
        }

    bundles = [AudienceBundle("visitor", ("index", "guided-tour"))]
    config = ServingConfig(cache_enabled=False)
    with contextlib.ExitStack() as stack:
        stack.enter_context(codegen_mode(True))
        cycles = []
        for painters in (small, large):
            fixture = synthetic_museum(painters, per_painter)
            server = stack.enter_context(
                AudienceServer(fixture, bundles, config=config)
            )
            app = NavigationApp(server)
            stack.callback(app.close)
            paintings = sorted(
                page
                for page in build_node_map(PageRenderer(fixture))
                if page.startswith("PaintingNode/")
            )
            step = len(paintings) // pages
            environs = [environ(page) for page in paintings[::step][:pages]]
            cycle = itertools.cycle(environs)

            def one(app=app, cycle=cycle):
                status, _, _ = app.respond(next(cycle))
                assert status == "200 OK", status

            for _ in range(pages):  # open the session, warm the memos
                one()
            cycles.append(one)
        times: list[list[float]] = [[], []]
        for _ in range(15):
            for side, one in enumerate(cycles):
                times[side].append(time_call(one, repeat=1, number=pages))
    return statistics.median(times[0]), statistics.median(times[1])


def bench_session_scaling(*, live=10_000, arrivals=2_000):
    """A cached hit beside one live session and beside *live* of them.

    Two apps share one :class:`~repro.navigation.AudienceServer` (one
    woven renderer, one warm cache): the small app serves a single
    session, the big one *live* sessions.  The same hit is timed on both
    in alternating rounds, so a drift in machine speed lands on both
    sides.  Returns ``(hit_one_ns, hit_live_ns, first_page_ns,
    reconfigure_ns)``: *first_page_ns* is a new session's first page on
    the big app (the same hit plus opening the session), and
    *reconfigure_ns* one swap of the audience's stack with every session
    live.
    """
    import io

    from repro.baselines import museum_fixture
    from repro.navigation import (
        AudienceBundle,
        AudienceServer,
        NavigationApp,
        ServingConfig,
    )

    def environ(sid):
        return {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": "/visitor/PaintingNode/guitar.html",
            "HTTP_X_REPRO_SESSION": sid,
            "CONTENT_LENGTH": "0",
            "wsgi.input": io.BytesIO(b""),
        }

    bundles = [AudienceBundle("visitor", ("index", "guided-tour"))]
    config = ServingConfig(max_sessions=live + arrivals + 1)
    with codegen_mode(True):
        with AudienceServer(museum_fixture(), bundles, config=config) as server:
            small, big = NavigationApp(server), NavigationApp(server)
            try:
                for n in range(live):
                    big.respond(environ(f"s{n}"))
                one = environ("bench")
                small.respond(one)
                big.respond(one)
                hits = {small: [], big: []}
                for _ in range(15):
                    for app in (small, big):
                        hits[app].append(
                            time_call(
                                lambda app=app: app.respond(one),
                                repeat=1,
                                number=2_000,
                            )
                        )
                fresh = iter([environ(f"new{n}") for n in range(arrivals)])
                first_page = time_call(
                    lambda: big.respond(next(fresh)), repeat=1, number=arrivals
                )
                stacks = itertools.cycle([("index",), ("index", "guided-tour")])
                reconfigure = time_call(
                    lambda: server.reconfigure("visitor", next(stacks)),
                    repeat=3,
                    number=10,
                )
            finally:
                small.close()
                big.close()
    return min(hits[small]), min(hits[big]), first_page, reconfigure


def bench_serve_async(*, requests=800):
    """Per-request latency through the ASGI front, in-process — p50/p99 in µs.

    Drives the :class:`~repro.navigation.AsgiNavigationApp` callable
    directly on an event loop (no TCP, no HTTP parsing), so the series
    prices exactly what the async front adds over ``respond()``: scope →
    environ translation and the response message plumbing.  The request
    repeats one cached page; every request runs inline on the loop.
    Committed as
    raw microsecond series (not gated by ``check_regression``): absolute
    percentiles are too hardware-dependent to floor, so the script only
    warns above 40 µs.
    """
    import time

    from repro.baselines import museum_fixture
    from repro.navigation import (
        AsgiNavigationApp,
        AudienceBundle,
        AudienceServer,
        NavigationApp,
        ServingConfig,
    )
    from repro.navigation.http import quantile

    fixture = museum_fixture()
    bundles = [AudienceBundle("visitor", ("index", "guided-tour"))]
    with codegen_mode(True):
        with AudienceServer(fixture, bundles, config=ServingConfig()) as server:
            app = NavigationApp(server)
            asgi = AsgiNavigationApp(app)

            async def one():
                scope = {
                    "type": "http",
                    "http_version": "1.1",
                    "method": "GET",
                    "path": "/visitor/PaintingNode/guitar.html",
                    "raw_path": b"/visitor/PaintingNode/guitar.html",
                    "query_string": b"",
                    "headers": [(b"x-repro-session", b"bench")],
                }
                messages = [
                    {"type": "http.request", "body": b"", "more_body": False}
                ]

                async def receive():
                    if messages:
                        return messages.pop(0)
                    return {"type": "http.disconnect"}

                async def send(message):
                    if message["type"] == "http.response.start":
                        assert message["status"] == 200, message["status"]

                await asgi(scope, receive, send)

            async def drive():
                # Warm-up opens the session and fills the page cache, so
                # the timed region prices the steady-state request.
                for _ in range(50):
                    await one()
                samples = []
                for _ in range(requests):
                    started = time.perf_counter()
                    await one()
                    samples.append((time.perf_counter() - started) * 1e6)
                return samples

            try:
                samples = sorted(asyncio.run(drive()))
            finally:
                app.close()
    return quantile(samples, 0.5), quantile(samples, 0.99)


def _legacy_scan_method_shadows(cls):
    """The seed scan: ``dir()`` + ``getattr_static`` per member name."""
    shadows = []
    for name in dir(cls):
        if name.startswith("__"):
            continue
        static = inspect.getattr_static(cls, name)
        if isinstance(static, FunctionType):
            shadows.append(
                MethodShadow(
                    cls=cls,
                    name=name,
                    original=static,
                    inherited=name not in cls.__dict__,
                )
            )
    return tuple(shadows)


def _scan_fixture():
    """A small hierarchy: bases with 14 members, subclasses adding 6 more."""
    classes = []
    for i in range(6):
        namespace = {f"method_{j}": (lambda self, _j=j: _j) for j in range(12)}
        namespace["rate"] = 1.5
        namespace["label"] = f"base{i}"
        base = type(f"ScanBase{i}", (), namespace)
        sub_namespace = {f"extra_{j}": (lambda self, _j=j: _j) for j in range(6)}
        sub = type(f"ScanSub{i}", (base,), sub_namespace)
        classes.extend([base, sub])
    return classes


def bench_shadow_scan(*, legacy):
    """One full scan sweep over the fixture hierarchy, in µs.

    ``legacy`` reproduces the seed scan (one ``dir()`` walk plus one
    ``getattr_static`` MRO search *per member name*); the current scan is
    a single vectorized pass over each MRO ``__dict__``.
    """
    classes = _scan_fixture()
    scan = _legacy_scan_method_shadows if legacy else _scan_method_shadows

    def sweep():
        for cls in classes:
            scan(cls)

    best = min(timeit.repeat(sweep, repeat=5, number=200))
    return best / 200 * 1e6


def _batch_fixture():
    """8 aspects over 16 classes (each aspect matches one class)."""
    classes = []
    aspects = []
    for i in range(8):
        namespace = {f"method_{j}": (lambda self, _j=j: _j) for j in range(12)}
        cls = type(f"Widget{i}", (), namespace)
        classes.append(cls)

        class WidgetAspect(Aspect):
            @before(f"execution(Widget{i}.method_0)")
            def noop(self, jp):
                pass

        aspects.append(WidgetAspect())
    # Pad with advice-free classes the aspects never touch (pure scan cost).
    for i in range(8, 16):
        namespace = {f"method_{j}": (lambda self, _j=j: _j) for j in range(12)}
        classes.append(type(f"Widget{i}", (), namespace))
    return classes, aspects


def bench_deploy_batch(*, mode):
    """Batch-deployment cost under three planning strategies.

    ``rescan``
        the seed behaviour: every deploy rescans every class with the
        seed's ``dir()`` + ``getattr_static`` scan.
    ``indexed``
        PR 1: sequential deploys over the runtime's memoized shadow index.
    ``single_scan``
        PR 2: the batch planner — one scan per class for the whole batch,
        woven classes' scans derived instead of rescanned.

    The two sequential modes deploy through ``_deploy``, the engine with
    no transaction around it, as the seed's per-aspect deploys did; the
    batch runs through one ``transaction()`` with an ``add()`` per aspect.
    """
    import repro.aop.weaver as weaver_mod

    classes, aspects = _batch_fixture()

    def run():
        weaver = WeaverRuntime()
        if mode == "single_scan":
            with weaver.transaction(classes) as tx:
                for aspect in aspects:
                    tx.add(aspect)
        else:
            for aspect in aspects:
                if mode == "rescan":
                    # the seed rescanned every deploy
                    weaver.shadow_index.clear()
                weaver._deploy(aspect, classes)
        weaver.undeploy_all()

    real_scan = weaver_mod._scan_method_shadows
    if mode == "rescan":
        # The seed did not just rescan — it rescanned with the slow
        # per-name scan.  Keep the baseline faithful to it so the ratio
        # still reads "current planner vs seed planner".
        weaver_mod._scan_method_shadows = _legacy_scan_method_shadows
    try:
        best = min(timeit.repeat(run, repeat=3, number=20))
    finally:
        weaver_mod._scan_method_shadows = real_scan
    return best / 20 * 1e6  # µs per batch


def main():
    Node = fresh_node_class()
    node = Node()
    results = {
        "call_plain_ns": time_call(node.render, number=200_000),
        "call_static_before_legacy_ns": bench_advised_call(
            LegacyWeaver, lambda cls: BeforeAspect()
        ),
        "call_static_before_compiled_ns": bench_advised_call(
            WeaverRuntime, lambda cls: BeforeAspect()
        ),
        "call_static_before_codegen_ns": bench_advised_call(
            WeaverRuntime, lambda cls: BeforeAspect(), codegen=True
        ),
        "call_static_around_legacy_ns": bench_advised_call(
            LegacyWeaver, lambda cls: AroundAspect()
        ),
        "call_static_around_compiled_ns": bench_advised_call(
            WeaverRuntime, lambda cls: AroundAspect()
        ),
        "call_static_around_codegen_ns": bench_advised_call(
            WeaverRuntime, lambda cls: AroundAspect(), codegen=True
        ),
        "call_dynamic_target_legacy_ns": bench_advised_call(
            LegacyWeaver, TargetedAspect
        ),
        "call_dynamic_target_compiled_ns": bench_advised_call(
            WeaverRuntime, TargetedAspect
        ),
        "call_dynamic_target_codegen_ns": bench_advised_call(
            WeaverRuntime, TargetedAspect, codegen=True
        ),
        "call_stacked_before_legacy_ns": bench_stacked_advised_call(LegacyWeaver),
        "call_stacked_before_codegen_ns": bench_stacked_advised_call(
            WeaverRuntime, codegen=True
        ),
        "call_generator_before_legacy_ns": bench_advised_call(
            LegacyWeaver, lambda cls: GeneratorAspect()
        ),
        "call_generator_before_compiled_ns": bench_advised_call(
            WeaverRuntime, lambda cls: GeneratorAspect()
        ),
        "call_generator_before_ns": bench_advised_call(
            WeaverRuntime, lambda cls: GeneratorAspect(), codegen=True
        ),
        "call_module_func_before_legacy_ns": bench_module_func_call(legacy=True),
        "call_module_func_before_ns": bench_module_func_call(legacy=False),
        "call_instance_scoped_before_ns": bench_instance_scoped_call(scoped=True),
        "call_unscoped_passthrough_ns": bench_instance_scoped_call(scoped=False),
        "field_get_generic_ns": bench_field_access(codegen=False, write=False),
        "field_get_codegen_ns": bench_field_access(codegen=True, write=False),
        "field_set_generic_ns": bench_field_access(codegen=False, write=True),
        "field_set_codegen_ns": bench_field_access(codegen=True, write=True),
        "serve_page_legacy_ns": bench_serve_page(legacy=True),
        "serve_page_ns": bench_serve_page(legacy=False),
        "serve_page_cached_ns": bench_serve_page(legacy=False, cached=True),
        "serve_page_cached_full_trail_ns": bench_serve_page_full_trail(),
        "joinpoint_dataclass_ns": bench_joinpoint_construction(pooled=False),
        "joinpoint_pooled_ns": bench_joinpoint_construction(pooled=True),
        "shadow_scan_legacy_us": bench_shadow_scan(legacy=True),
        "shadow_scan_us": bench_shadow_scan(legacy=False),
        "deploy_batch_rescan_us": bench_deploy_batch(mode="rescan"),
        "deploy_batch_indexed_us": bench_deploy_batch(mode="indexed"),
        "deploy_batch_single_scan_us": bench_deploy_batch(mode="single_scan"),
    }
    hit_one, hit_live, first_page, reconfigure = bench_session_scaling()
    results["serve_page_cached_1_session_ns"] = hit_one
    results["serve_page_cached_10k_sessions_ns"] = hit_live
    results["serve_first_page_10k_sessions_ns"] = first_page
    # Derived: a new session's first page minus the same hit for a
    # returning one, i.e. what opening the session costs.
    results["session_open_ns"] = first_page - hit_live
    # Informational: sessions hold no weave state, so this is the same
    # swap with one live session or ten thousand.
    results["reconfigure_10k_sessions_us"] = reconfigure / 1e3
    miss_small, miss_large = bench_site_scaling()
    results["serve_page_miss_100_painters_ns"] = miss_small
    results["serve_page_miss_400_painters_ns"] = miss_large
    serve_async_p50, serve_async_p99 = bench_serve_async()
    results["serve_async_p50_us"] = serve_async_p50
    results["serve_async_p99_us"] = serve_async_p99
    speedups = {
        "static_before": results["call_static_before_legacy_ns"]
        / results["call_static_before_compiled_ns"],
        "static_before_codegen": results["call_static_before_legacy_ns"]
        / results["call_static_before_codegen_ns"],
        "static_around": results["call_static_around_legacy_ns"]
        / results["call_static_around_compiled_ns"],
        "static_around_codegen": results["call_static_around_legacy_ns"]
        / results["call_static_around_codegen_ns"],
        "dynamic_target": results["call_dynamic_target_legacy_ns"]
        / results["call_dynamic_target_compiled_ns"],
        "dynamic_target_codegen": results["call_dynamic_target_legacy_ns"]
        / results["call_dynamic_target_codegen_ns"],
        "stacked_before_codegen": results["call_stacked_before_legacy_ns"]
        / results["call_stacked_before_codegen_ns"],
        # Generator advice occupies an around slot; the legacy baseline
        # drives the same send/throw protocol through the seed's per-call
        # chain, so the ratios price deploy-time compilation of the drive
        # loop (and, for codegen, its inlining into the wrapper source).
        "generator_before": results["call_generator_before_legacy_ns"]
        / results["call_generator_before_compiled_ns"],
        "generator_before_codegen": results["call_generator_before_legacy_ns"]
        / results["call_generator_before_ns"],
        "module_func_before_codegen": results["call_module_func_before_legacy_ns"]
        / results["call_module_func_before_ns"],
        # The seed had no instance scoping: getting per-instance advice
        # meant weaving the class, so the class-wide legacy advised call
        # is the honest baseline for the scoped chain.
        "instance_scoped_before": results["call_static_before_legacy_ns"]
        / results["call_instance_scoped_before_ns"],
        # < 1 by design: this series prices the dispatch *overhead* an
        # unscoped instance pays (plain-call time over passthrough time);
        # committing it gates the passthrough against regressions.
        "instance_unscoped_passthrough": results["call_plain_ns"]
        / results["call_unscoped_passthrough_ns"],
        # The field and scan baselines are the *generic/seed* in-process
        # paths (the pre-codegen descriptor chain, the dir()+getattr_static
        # scan), so these ratios self-normalize like the rest.
        "field_get_codegen": results["field_get_generic_ns"]
        / results["field_get_codegen_ns"],
        "field_set_codegen": results["field_set_generic_ns"]
        / results["field_set_codegen_ns"],
        "shadow_scan": results["shadow_scan_legacy_us"] / results["shadow_scan_us"],
        "joinpoint_pool": results["joinpoint_dataclass_ns"]
        / results["joinpoint_pooled_ns"],
        "deploy_batch": results["deploy_batch_rescan_us"]
        / results["deploy_batch_indexed_us"],
        "deploy_batch_single_scan": results["deploy_batch_rescan_us"]
        / results["deploy_batch_single_scan_us"],
        # Both sides render and serialize the same page, so the ratio
        # prices the multi-audience/session machinery per HTTP request.
        # Committed (and therefore gated by check_regression) now that
        # the request path has settled; expect ~1.0 — instance-scoped
        # serving should stay render-dominated, not dispatch-dominated.
        "serve_page": results["serve_page_legacy_ns"] / results["serve_page_ns"],
        # The weave-epoch skeleton cache against the uncached request
        # path on a warm repeat: an epoch read + LRU hit + trail splice
        # instead of a full render+serialize.  Target: >= 50x.
        "serve_page_cached": results["serve_page_ns"]
        / results["serve_page_cached_ns"],
        # The same hit with the full 8-crumb trail a browsing visitor
        # sees, so the trail fragment is priced too.
        "serve_page_cached_full_trail": results["serve_page_ns"]
        / results["serve_page_cached_full_trail_ns"],
        # Flatness, not speed: the hit beside 10,000 live sessions against
        # the same hit beside one.  Sessions are plain data, so this stays
        # ~1.0; the seed-era per-session weave fell below 0.05 here.
        "serve_page_cached_10k_sessions": results["serve_page_cached_1_session_ns"]
        / results["serve_page_cached_10k_sessions_ns"],
        # Flatness again: a render miss on a 100-painter site against the
        # same miss on a 400-painter one (same context size, 4x the
        # contexts).  Membership is indexed, so this stays ~1.0; the
        # whole-site context scan it replaced fell to ~0.3 here.
        "serve_page_miss_site_scaling": results["serve_page_miss_100_painters_ns"]
        / results["serve_page_miss_400_painters_ns"],
    }
    codegen_over_compiled = {
        "static_before": results["call_static_before_compiled_ns"]
        / results["call_static_before_codegen_ns"],
        "static_around": results["call_static_around_compiled_ns"]
        / results["call_static_around_codegen_ns"],
        "dynamic_target": results["call_dynamic_target_compiled_ns"]
        / results["call_dynamic_target_codegen_ns"],
    }
    payload = {
        "benchmark": "weaver_hotpath",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results_ns": {k: round(v, 1) for k, v in results.items()},
        "speedup_vs_seed": {k: round(v, 2) for k, v in speedups.items()},
        "codegen_over_compiled": {
            k: round(v, 2) for k, v in codegen_over_compiled.items()
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    failed = False
    if speedups["static_before"] < 2.0:
        print(
            "WARNING: statically-matched advised calls are "
            f"only {speedups['static_before']:.2f}x the seed weaver",
            file=sys.stderr,
        )
        failed = True
    if codegen_over_compiled["static_before"] < 1.5:
        print(
            "WARNING: codegen static-before is only "
            f"{codegen_over_compiled['static_before']:.2f}x the compiled tier "
            "(target: >= 1.5x)",
            file=sys.stderr,
        )
        failed = True
    for series in ("field_get_codegen", "field_set_codegen"):
        if speedups[series] < 2.0:
            print(
                f"WARNING: {series} is only {speedups[series]:.2f}x the "
                "generic-chain field path (target: >= 2x)",
                file=sys.stderr,
            )
            failed = True
    generator_ratio = (
        results["call_generator_before_ns"] / results["call_static_before_codegen_ns"]
    )
    if generator_ratio > 2.0:
        print(
            "WARNING: a generator-advised static call is "
            f"{generator_ratio:.2f}x the codegen static-before call "
            "(target: <= 2x — the drive loop is inlined, not chained)",
            file=sys.stderr,
        )
        failed = True
    passthrough_ratio = (
        results["call_unscoped_passthrough_ns"] / results["call_plain_ns"]
    )
    if passthrough_ratio > 3.0:
        print(
            "WARNING: unscoped-instance passthrough is "
            f"{passthrough_ratio:.2f}x a plain call (target: <= 3x)",
            file=sys.stderr,
        )
        failed = True
    if speedups["serve_page_cached"] < 50.0:
        print(
            "WARNING: a warm cached page request is only "
            f"{speedups['serve_page_cached']:.1f}x the uncached request "
            "path (target: >= 50x — a hit must cost an epoch read, an LRU "
            "lookup and a trail splice, never a render)",
            file=sys.stderr,
        )
        failed = True
    if results["serve_page_cached_full_trail_ns"] > 25_000:
        print(
            "WARNING: a cached hit with a full 8-crumb trail costs "
            f"{results['serve_page_cached_full_trail_ns'] / 1e3:.1f} us "
            "(target: <= 25 us — the trail fragment is a string emitter, "
            "not a DOM build)",
            file=sys.stderr,
        )
        failed = True
    if results["serve_async_p50_us"] > 40:
        print(
            "WARNING: the in-process ASGI request p50 is "
            f"{results['serve_async_p50_us']:.1f} us (target: <= 40 us — "
            "a cache hit runs on the event loop, without a thread hop)",
            file=sys.stderr,
        )
        failed = True
    if speedups["serve_page_cached_10k_sessions"] < 1 / 1.1:
        print(
            "WARNING: a cached hit beside 10,000 live sessions is "
            f"{1 / speedups['serve_page_cached_10k_sessions']:.2f}x the same "
            "hit beside one (target: <= 1.1x — no per-request cost may grow "
            "with the number of live sessions)",
            file=sys.stderr,
        )
        failed = True
    if speedups["serve_page_miss_site_scaling"] < 1 / 1.2:
        print(
            "WARNING: a render miss on a 400-painter site is "
            f"{1 / speedups['serve_page_miss_site_scaling']:.2f}x the same "
            "miss on a 100-painter site (target: <= 1.2x — a render must "
            "do page-sized work, not scan every context of the site)",
            file=sys.stderr,
        )
        failed = True
    if results["session_open_ns"] > 20_000:
        print(
            "WARNING: opening a session costs "
            f"{results['session_open_ns'] / 1e3:.1f} us (target: <= 20 us)",
            file=sys.stderr,
        )
        failed = True
    if speedups["serve_page"] < 0.67:
        # check_regression gates the committed ratio; this local warning
        # catches an absolute collapse of the request path even when no
        # baseline is at hand.
        print(
            "WARNING: the HTTP request path is "
            f"{1 / speedups['serve_page']:.2f}x the seed serving "
            "path (target: <= 1.5x — scoped dispatch and the sessions "
            "should stay render-dominated)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
