"""The per-generation page cache: keys, invalidation, fragment assembly.

The suite for the serving hot path's skeleton cache: the
:class:`PageCache` LRU itself, keyed on the renderer that rendered each
skeleton, the per-audience generations of :class:`AudienceServer`,
cache hit/miss/bypass behaviour over the HTTP front (including byte
parity between a hit and the miss that installed it), the
``cache_enabled=False`` switch, and — the concurrency bar — N session
threads hammering one page while a mid-flight ``reconfigure`` publishes
a new generation, under both wrapper tiers: nobody ever observes a stale
(pre-reconfigure) skeleton after the swap, and nobody ever sees another
session's breadcrumb fragment.
"""

import io
import threading

import pytest

from repro.aop import WeaverRuntime
from repro.baselines import museum_fixture
from repro.navigation import (
    AudienceBundle,
    AudienceServer,
    CachedSkeleton,
    NavigationApp,
    PageCache,
    ServingConfig,
)
from repro.web import TRAIL_SLOT, compose_page

VISITOR_CURATOR = [
    AudienceBundle("visitor", ("index", "guided-tour")),
    AudienceBundle("curator", ("index",)),
]

GUITAR = "PaintingNode/guitar.html"


@pytest.fixture()
def fixture():
    return museum_fixture()


@pytest.fixture(params=["codegen", "generic"])
def wrapper_tier(request, monkeypatch):
    monkeypatch.setenv(
        "REPRO_AOP_CODEGEN", "1" if request.param == "codegen" else "0"
    )
    return request.param


def call(app, path, *, method="GET", sid=None, body=None, bypass=False):
    payload = body.encode() if isinstance(body, str) else (body or b"")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": str(len(payload)),
        "wsgi.input": io.BytesIO(payload),
    }
    if sid is not None:
        environ["HTTP_X_REPRO_SESSION"] = sid
    if bypass:
        environ["HTTP_X_REPRO_CACHE"] = "bypass"
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = headers

    text = b"".join(app(environ, start_response)).decode("utf-8")
    return int(captured["status"].split()[0]), dict(captured["headers"]), text


def _trail_block(page: str) -> str:
    """The breadcrumbs ``<nav>`` block, or ``""`` when the page has none."""
    start = page.find('class="breadcrumbs"')
    if start < 0:
        return ""
    end = page.find("</nav>", start)
    return page[start : end if end >= 0 else len(page)]


def entry(tag):
    return CachedSkeleton(skeleton=f"<s>{tag}</s>", title=tag, path=f"{tag}.html")


class TestPageCache:
    def test_get_put_and_counters(self):
        cache = PageCache(4)
        first, second = object(), object()
        assert cache.get("a.html", first) is None
        cache.put("a.html", first, entry("a"))
        hit = cache.get("a.html", first)
        assert hit is not None and hit.title == "a"
        # A different renderer is a different key entirely.
        assert cache.get("a.html", second) is None
        assert cache.stats() == {
            "entries": 1,
            "max_entries": 4,
            "hits": 1,
            "misses": 2,
            "evictions": 0,
            "invalidations": 0,
        }

    def test_lru_eviction_prefers_least_recently_used(self):
        cache = PageCache(2)
        cache.put("a.html", 1, entry("a"))
        cache.put("b.html", 1, entry("b"))
        assert cache.get("a.html", 1) is not None  # refresh a
        cache.put("c.html", 1, entry("c"))  # evicts b, not a
        assert cache.get("b.html", 1) is None
        assert cache.get("a.html", 1) is not None
        assert cache.stats()["evictions"] == 1

    def test_drop_stale_reclaims_superseded_epochs(self):
        cache = PageCache(8)
        old, new = object(), object()
        cache.put("a.html", old, entry("a"))
        cache.put("b.html", old, entry("b"))
        cache.put("c.html", new, entry("c"))
        assert cache.drop_stale(new) == 2
        assert len(cache) == 1
        assert cache.get("c.html", new) is not None
        assert cache.stats()["invalidations"] == 2
        # A render that straddled the swap cannot park a retired entry.
        cache.put("a.html", old, entry("a"))
        assert len(cache) == 1

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            PageCache(0)


class TestGenerations:
    def test_reconfigure_bumps_only_the_target_audience(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            visitor = server.renderer("visitor")
            curator = server.renderer("curator")
            assert server.generation("curator") == 1
            server.reconfigure("curator", ("indexed-guided-tour",))
            assert server.generation("curator") == 2
            assert server.renderer("curator") is not curator
            assert server.generation("visitor") == 1
            assert server.renderer("visitor") is visitor

    def test_sessions_leave_the_cache_warm(self, fixture):
        """Opening and evicting sessions never changes an audience's renderer.

        If it did, each arrival would flush the whole audience cache.
        """
        clock = [0.0]
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(
                server,
                ServingConfig(session_idle_timeout=10.0),
                clock=lambda: clock[0],
            )
            visitor_before = server.renderer("visitor")
            for n in range(50):
                clock[0] = float(n)
                assert call(app, f"/visitor/{GUITAR}", sid=f"s{n}")[0] == 200
            assert app.stats()["sessions"]["evicted_total"] > 0
            assert server.renderer("visitor") is visitor_before
            assert server.page_cache("visitor").stats()["hits"] == 49
            app.close()


class TestCachedServing:
    def test_miss_then_hit_with_byte_parity(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server)
            _, h1, first = call(app, f"/visitor/{GUITAR}", sid="a")
            _, h2, second = call(app, f"/visitor/{GUITAR}", sid="a")
            assert h1["X-Repro-Cache"] == "miss"
            assert h2["X-Repro-Cache"] == "hit"
            assert first == second
            assert server.page_cache("visitor").stats()["hits"] == 1
            app.close()

    def test_hit_still_advances_the_session_trail(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server)
            call(app, "/visitor/index.html", sid="a")
            call(app, "/visitor/index.html", sid="b")  # hit for b
            _, h, page = call(app, f"/visitor/{GUITAR}", sid="b")
            # b's trail grew from the cache hit on the home page.
            assert 'rel="breadcrumb"' in page
            assert 'href="../index.html"' in page
            app.close()

    def test_sessions_never_see_each_others_fragments(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server)
            call(app, "/visitor/PaintingNode/guernica.html", sid="a")
            _, _, a_page = call(app, f"/visitor/{GUITAR}", sid="a")
            _, h, b_page = call(app, f"/visitor/{GUITAR}", sid="b")
            assert h["X-Repro-Cache"] == "hit"
            # a's trail names a's history; b's hit carries no trail at
            # all (the skeleton's sibling links don't count — only the
            # breadcrumbs nav is session-variant).
            assert "guernica" in _trail_block(a_page)
            assert 'class="breadcrumbs"' not in b_page
            app.close()

    def test_bypass_header_forces_a_full_render(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server)
            call(app, f"/visitor/{GUITAR}", sid="a")
            _, h, _ = call(app, f"/visitor/{GUITAR}", sid="a", bypass=True)
            assert h["X-Repro-Cache"] == "bypass"
            # The bypass render never touched the cache counters.
            assert server.page_cache("visitor").stats()["hits"] == 0
            app.close()

    def test_every_outcome_serves_identical_bytes(self, fixture):
        """hit, miss, bypass and off assemble a page the same way."""
        walk = ["index.html", "PaintingNode/guernica.html", GUITAR, GUITAR]
        pages = {}
        for enabled in (True, False):
            config = ServingConfig(cache_enabled=enabled)
            with AudienceServer(fixture, VISITOR_CURATOR, config=config) as server:
                app = NavigationApp(server)
                for bypass in (False, True) if enabled else (False,):
                    outcomes, bodies = [], []
                    for page in walk:
                        _, h, body = call(
                            app, f"/visitor/{page}", sid=f"{bypass}", bypass=bypass
                        )
                        outcomes.append(h["X-Repro-Cache"])
                        bodies.append(body)
                    pages[tuple(outcomes)] = bodies
                app.close()
        assert set(pages) == {
            ("miss", "miss", "miss", "hit"),
            ("bypass",) * 4,
            ("off",) * 4,
        }
        first, *rest = pages.values()
        assert all(bodies == first for bodies in rest)
        assert 'class="breadcrumbs"' in first[2]

    def test_spliced_trail_matches_the_woven_breadcrumb_aspect(self, fixture):
        """The served page equals the paper's woven form of the same walk.

        Serving splices the trail; weaving :class:`BreadcrumbAspect` over
        the audience's navigation appends it to the rendered tree.  Both
        must produce the same page.
        """
        from repro.core import NavigationAspect, PageRenderer, default_museum_spec
        from repro.navigation import BreadcrumbAspect

        walk = ["index.html", "PaintingNode/guernica.html", GUITAR]
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server)
            served = [call(app, f"/visitor/{page}", sid="a")[2] for page in walk]
            app.close()

        runtime = WeaverRuntime("woven-trail")
        aspects = [
            NavigationAspect(default_museum_spec(access), fixture)
            for access in ("index", "guided-tour")
        ] + [BreadcrumbAspect()]
        handles = [runtime.weave(PageRenderer, aspect) for aspect in aspects]
        try:
            renderer = PageRenderer(fixture)
            woven = [renderer.render_home()] + [
                renderer.render_node(fixture.painting_node(painting))
                for painting in ("guernica", "guitar")
            ]
        finally:
            for handle in reversed(handles):
                handle.undeploy()
        assert served == [compose_page(*page.skeleton_html()) for page in woven]

    def test_reconfigure_invalidates_exactly_that_audience(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server)
            call(app, f"/visitor/{GUITAR}", sid="a")
            call(app, f"/curator/{GUITAR}", sid="a")
            _, _, before_swap = call(app, f"/curator/{GUITAR}", sid="a")
            server.reconfigure("curator", ("indexed-guided-tour",))
            _, h, after_swap = call(app, f"/curator/{GUITAR}", sid="a")
            assert h["X-Repro-Cache"] == "miss"
            assert 'rel="next"' in after_swap  # the new stack, not a stale page
            assert before_swap != after_swap
            # The visitor's entry survived its neighbour's swap.
            _, h, _ = call(app, f"/visitor/{GUITAR}", sid="a")
            assert h["X-Repro-Cache"] == "hit"
            app.close()

    def test_config_switch_disables_the_tier(self, fixture):
        config = ServingConfig(cache_enabled=False)
        with AudienceServer(fixture, VISITOR_CURATOR, config=config) as server:
            app = NavigationApp(server)
            assert server.page_cache("visitor") is None
            _, h, _ = call(app, f"/visitor/{GUITAR}", sid="a")
            assert h["X-Repro-Cache"] == "off"
            app.close()

    def test_stats_surface_cache_counters_and_generation(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server)
            call(app, f"/visitor/{GUITAR}", sid="a")
            call(app, f"/visitor/{GUITAR}", sid="a")
            visitor = app.stats()["audiences"]["visitor"]
            assert visitor["generation"] == server.generation("visitor") == 1
            assert visitor["cache"]["enabled"] is True
            assert visitor["cache"]["hits"] == 1
            assert visitor["cache"]["misses"] >= 1
            app.close()

    def test_compose_page_splices_the_slot(self):
        skeleton = f"<body><p>x</p>{TRAIL_SLOT}</body>"
        assert (
            compose_page(skeleton, "<nav>trail</nav>")
            == "<body><p>x</p><nav>trail</nav></body>"
        )
        assert compose_page(skeleton, "") == "<body><p>x</p></body>"


class TestConcurrentInvalidation:
    """The satellite bar: a mid-flight reconfigure under request load."""

    def test_no_stale_skeleton_and_no_fragment_bleed(self, fixture, wrapper_tier):
        sessions = [f"user{i}" for i in range(6)]
        own_page = {
            sid: page
            for sid, page in zip(
                sessions,
                (
                    "PaintingNode/guernica.html",
                    "PaintingNode/violin.html",
                    "PaintingNode/memory.html",
                    "PaintingNode/elephants.html",
                    "PaintingNode/harlequin.html",
                    "PaintingNode/guitar.html",
                ),
            )
        }
        own_basename = {
            sid: page.rsplit("/", 1)[1] for sid, page in own_page.items()
        }
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server)
            errors: list[BaseException] = []
            swapped = threading.Event()
            start = threading.Barrier(len(sessions) + 1)

            def browse(sid: str) -> None:
                try:
                    start.wait(timeout=10)
                    for _ in range(20):
                        saw_swap = swapped.is_set()
                        status, _, home = call(app, "/curator/index.html", sid=sid)
                        assert status == 200
                        status, _, page = call(
                            app, f"/curator/{own_page[sid]}", sid=sid
                        )
                        assert status == 200
                        if saw_swap:
                            # The request began after the swap completed:
                            # a stale (pre-reconfigure) skeleton would
                            # miss the tour's next/prev links.
                            assert (
                                'rel="next"' in page or 'rel="prev"' in page
                            ), f"{sid} saw a stale skeleton after reconfigure"
                        # My trail must never name another session's page.
                        trail = _trail_block(home)
                        for other_sid, basename in own_basename.items():
                            if other_sid != sid:
                                assert basename not in trail, (
                                    f"{sid} saw {other_sid}'s fragment"
                                )
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=browse, args=(sid,)) for sid in sessions
            ]
            for thread in threads:
                thread.start()
            start.wait(timeout=10)
            # Mid-flight: give the curator the guided tour while every
            # session is hammering curator pages.
            server.reconfigure("curator", ("indexed-guided-tour",))
            swapped.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors[0]
            app.close()
