"""The live multi-audience serving layer and its URI handling.

Covers the acceptance bar for instance-scoped serving: two audiences with
different access-structure stacks render concurrently from one process
over the shared renderer class (one runtime, one class scan), a
``reconfigure`` of one audience leaves the other's pages byte-identical,
and the lazy provider resolves rooted/explicitly-relative URI spellings
instead of raising.  The threaded smoke test drives both providers from
concurrent threads and asserts navigation never bleeds across audiences.
"""

import threading

import pytest

import repro.aop.weaver as weaver_mod
from repro.baselines import museum_fixture, synthetic_museum
from repro.core import PageRenderer, build_audience_sites, default_museum_spec
from repro.navigation import (
    DEFAULT_AUDIENCES,
    AudienceBundle,
    AudienceServer,
    NavigationApp,
    NavigationError,
    ServingConfig,
    UserAgent,
    normalize_page_uri,
)
from repro.navigation.serving import build_node_map


@pytest.fixture()
def fixture():
    return museum_fixture()


VISITOR_CURATOR = [
    AudienceBundle("visitor", ("index", "guided-tour")),
    AudienceBundle("curator", ("index",)),
]


class TestNormalizePageUri:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("index.html", "index.html"),
            ("/index.html", "index.html"),
            ("//index.html", "index.html"),
            ("./index.html", "index.html"),
            ("./PaintingNode/guitar.html", "PaintingNode/guitar.html"),
            ("/PaintingNode/guitar.html", "PaintingNode/guitar.html"),
            ("PainterNode/../PaintingNode/guitar.html", "PaintingNode/guitar.html"),
            ("", "index.html"),
            ("/", "index.html"),
            (".", "index.html"),
            # Percent-encoded spellings decode before the page-map lookup.
            ("PaintingNode%2Fguitar.html", "PaintingNode/guitar.html"),
            ("/PaintingNode/gu%69tar.html", "PaintingNode/guitar.html"),
            ("%2Findex.html", "index.html"),
            # Windows-style backslashes fold to forward slashes.
            ("PaintingNode\\guitar.html", "PaintingNode/guitar.html"),
            ("\\PaintingNode\\guitar.html", "PaintingNode/guitar.html"),
            ("rooms%5Cr1.html", "rooms/r1.html"),
        ],
    )
    def test_normal_forms(self, raw, expected):
        assert normalize_page_uri(raw) == expected

    @pytest.mark.parametrize(
        "raw",
        [
            "../outside.html",
            "..",
            "../../outside.html",
            "PainterNode/../../outside.html",
            # %2e%2e decodes to ".." — a dressed-up escape must be
            # rejected after decoding, not remapped or passed through.
            "%2e%2e/outside.html",
            "%2e%2e%2foutside.html",
            "..%2Foutside.html",
            "..\\outside.html",
            "%2e%2e%5coutside.html",
            # Rooted escapes: normpath on the rooted form would swallow
            # the ".." ("/../x" -> "/x") and silently remap the page
            # inside the site — the original bypass this guard closes.
            "/../outside.html",
            "/%2e%2e/outside.html",
            "%2F..%2Foutside.html",
        ],
    )
    def test_root_escapes_are_rejected(self, raw):
        with pytest.raises(NavigationError, match="escapes the site root"):
            normalize_page_uri(raw)


class TestLazyProviderUris:
    def test_rooted_and_dot_relative_uris_resolve(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            provider = server.provider("visitor")
            plain = provider.page("PaintingNode/guitar.html")
            rooted = provider.page("/PaintingNode/guitar.html")
            dotted = provider.page("./PaintingNode/guitar.html")
            assert plain.uri == rooted.uri == dotted.uri
            assert plain.anchors == rooted.anchors == dotted.anchors
            assert provider.page("/index.html").uri == "index.html"

    def test_percent_encoded_and_backslash_uris_resolve(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            provider = server.provider("visitor")
            plain = provider.page("PaintingNode/guitar.html")
            encoded = provider.page("PaintingNode%2Fguitar.html")
            backslashed = provider.page("PaintingNode\\guitar.html")
            assert plain.uri == encoded.uri == backslashed.uri
            assert plain.anchors == encoded.anchors == backslashed.anchors

    def test_unknown_pages_still_raise(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            provider = server.provider("curator")
            with pytest.raises(NavigationError):
                provider.page("ghost.html")
            with pytest.raises(NavigationError):
                provider.page("../outside.html")


class TestAudienceServer:
    def test_audiences_serve_concurrently_from_one_runtime(self, fixture):
        reference = build_audience_sites(fixture, VISITOR_CURATOR)
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            assert server.audiences() == ["visitor", "curator"]
            # Interleave the two audiences' requests: every page must
            # equal the audience's materialized reference site.
            for path in reference["visitor"].paths():
                visitor_page = server.provider("visitor").page(path)
                curator_page = server.provider("curator").page(path)
                assert visitor_page.uri == curator_page.uri == path
                ref_v = {
                    (a.label, a.rel)
                    for a in UserAgent(reference["visitor"].provider())
                    .open(path)
                    .anchors
                }
                ref_c = {
                    (a.label, a.rel)
                    for a in UserAgent(reference["curator"].provider())
                    .open(path)
                    .anchors
                }
                assert {(a.label, a.rel) for a in visitor_page.anchors} == ref_v
                assert {(a.label, a.rel) for a in curator_page.anchors} == ref_c
        # The shared class left the server exactly as it entered.
        assert not hasattr(PageRenderer.render_node, "__woven__")

    def test_one_runtime_one_class_scan(self, fixture, monkeypatch):
        """One scan per generation's renderer class; the base is never woven."""
        scans = []
        real_scan = weaver_mod._scan_method_shadows

        def counting_scan(cls):
            scans.append(cls)
            return real_scan(cls)

        monkeypatch.setattr(weaver_mod, "_scan_method_shadows", counting_scan)
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            woven = [type(server.renderer(a)) for a in server.audiences()]
            assert scans == woven
            assert all(issubclass(cls, PageRenderer) for cls in woven)
            assert len(server.runtime.deployments) == 3

    def test_reconfigure_leaves_other_audience_byte_identical(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            visitor = server.renderer("visitor")
            before = [visitor.render_home().html()] + [
                visitor.render_node(node).html()
                for node in visitor.node_inventory()
            ]
            curator_agent = UserAgent(server.provider("curator"))
            assert curator_agent.open("PaintingNode/guitar.html").anchors_with_rel(
                "next"
            ) == []

            server.reconfigure("curator", ("indexed-guided-tour",))

            after = [visitor.render_home().html()] + [
                visitor.render_node(node).html()
                for node in visitor.node_inventory()
            ]
            assert before == after
            page = curator_agent.open("PaintingNode/guitar.html")
            assert len(page.anchors_with_rel("next")) == 1
            assert server.bundle("curator").access_structures == (
                "indexed-guided-tour",
            )

    def test_reconfigure_accepts_bundles_and_validates_names(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            server.reconfigure("visitor", AudienceBundle("visitor", ("index",)))
            assert server.bundle("visitor").access_structures == ("index",)
            with pytest.raises(NavigationError, match="no audience"):
                server.reconfigure("stranger", ("index",))
            with pytest.raises(NavigationError, match="no audience"):
                server.provider("stranger")

    def test_specs_resolved_once_and_shared(self, fixture, monkeypatch):
        import repro.core.navspec as navspec_mod

        calls = []
        real = navspec_mod.default_museum_spec

        def counting(access):
            calls.append(access)
            return real(access)

        monkeypatch.setattr(navspec_mod, "default_museum_spec", counting)
        bundles = [
            AudienceBundle("a", ("index",)),
            AudienceBundle("b", ("index", "guided-tour")),
            AudienceBundle("c", ("index",)),
        ]
        sites = build_audience_sites(fixture, bundles)
        # Each access-structure name resolved exactly once, however many
        # bundles stack it.
        assert sorted(calls) == ["guided-tour", "index"]
        assert set(sites) == {"a", "b", "c"}

    def test_prebuilt_specs_are_honoured(self, fixture):
        spec = default_museum_spec("indexed-guided-tour")
        with AudienceServer(
            fixture,
            [AudienceBundle("power", ("indexed-guided-tour",))],
            specs_by_access={"indexed-guided-tour": spec},
        ) as server:
            agent = UserAgent(server.provider("power"))
            page = agent.open("PaintingNode/guitar.html")
            assert len(page.anchors_with_rel("next")) == 1

    def test_failed_reconfigure_leaves_the_audience_intact(self, fixture):
        """An unknown access-structure name must not strip the audience."""
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            before = sorted(
                (a.label, a.rel)
                for a in server.provider("curator").page("index.html").anchors
            )
            with pytest.raises(ValueError):
                server.reconfigure("curator", ("index", "no-such-structure"))
            assert server.bundle("curator").access_structures == ("index",)
            after = sorted(
                (a.label, a.rel)
                for a in server.provider("curator").page("index.html").anchors
            )
            assert before == after
            assert len(server.deployments("curator")) == 1

    def test_duplicate_bundle_names_are_rejected(self, fixture):
        from repro.core import PageRenderer

        with pytest.raises(NavigationError, match="duplicate audience"):
            AudienceServer(
                fixture,
                [
                    AudienceBundle("visitor", ("index",)),
                    AudienceBundle("visitor", ("guided-tour",)),
                ],
            )
        # The constructor rolled its transaction back.
        assert not hasattr(PageRenderer.render_node, "__woven__")

    def test_closed_server_refuses_service(self, fixture):
        server = AudienceServer(fixture, VISITOR_CURATOR)
        server.close()
        server.close()  # idempotent
        with pytest.raises(NavigationError, match="closed"):
            server.provider("visitor")
        assert not hasattr(PageRenderer.render_node, "__woven__")


class TestConcurrentAudiences:
    def test_threaded_renders_never_bleed_across_audiences(self, fixture):
        """Two audiences render interleaved from threads; navs stay apart."""
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            # Single-threaded reference renders per audience.
            paths = ["index.html", "PaintingNode/guitar.html"]
            expected = {
                audience: {
                    path: sorted(
                        (a.label, a.rel)
                        for a in server.provider(audience).page(path).anchors
                    )
                    for path in paths
                }
                for audience in ("visitor", "curator")
            }
            errors: list[BaseException] = []
            start = threading.Barrier(4)

            def hammer(audience: str) -> None:
                try:
                    provider = server.provider(audience)
                    start.wait()
                    for _ in range(40):
                        for path in paths:
                            got = sorted(
                                (a.label, a.rel)
                                for a in provider.page(path).anchors
                            )
                            assert got == expected[audience][path]
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(audience,))
                for audience in ("visitor", "curator", "visitor", "curator")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []


class TestRenderMissParity:
    """Indexed membership and the memos change no served byte.

    The reference server answers each page by scanning every context of
    the site and computing every href with a fresh ``posixpath.relpath``
    — the unindexed, unmemoised render.  Every page of a synthetic
    museum, for every audience, with the cache off and a walking trail,
    must come out identical.
    """

    AUDIENCES = [
        *DEFAULT_AUDIENCES,
        AudienceBundle("full", ("indexed-guided-tour", "guided-tour")),
    ]

    def serve_all(self, fixture):
        import io

        pages = ["index.html", *build_node_map(PageRenderer(fixture))]
        config = ServingConfig(cache_enabled=False)
        with AudienceServer(fixture, self.AUDIENCES, config=config) as server:
            app = NavigationApp(server)
            try:
                served = []
                for bundle in self.AUDIENCES:
                    for page in pages:
                        environ = {
                            "REQUEST_METHOD": "GET",
                            "PATH_INFO": f"/{bundle.name}/{page}",
                            "HTTP_X_REPRO_SESSION": f"walker-{bundle.name}",
                            "CONTENT_LENGTH": "0",
                            "wsgi.input": io.BytesIO(b""),
                        }
                        served.append((page, app.respond(environ)))
                return served
            finally:
                app.close()

    def test_every_page_matches_the_scanning_reference(self, monkeypatch):
        import posixpath

        import repro.core.aspect as aspect_mod
        from repro.core import NavigationAspect

        fixture = synthetic_museum(9, 4)
        served = self.serve_all(fixture)
        assert all(status == "200 OK" for _, (status, _, _) in served)

        def scan_every_context(aspect, node):
            return aspect.spec.anchors_for(node, aspect.contexts, aspect.fixture.nav)

        monkeypatch.setattr(NavigationAspect, "anchors_for", scan_every_context)
        monkeypatch.setattr(aspect_mod, "_site_relpath", posixpath.relpath)
        reference = self.serve_all(fixture)
        assert len(served) == len(reference)
        for (page, got), (_, want) in zip(served, reference):
            assert got == want, page


class TestReconfigureReleasesOldStacks:
    def test_runtime_and_heap_hold_only_live_aspects(self, fixture):
        import gc

        from repro.core import NavigationAspect

        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            runtime = server.runtime
            stacks = [("index",), ("index", "guided-tour"), ("guided-tour",)]
            for round_ in range(12):
                server.reconfigure("visitor", stacks[round_ % 3])
                server.reconfigure("curator", stacks[(round_ + 1) % 3])
            assert len(runtime._deployments) == len(runtime.deployments)
            live = {id(d.aspect) for d in runtime.deployments}
            gc.collect()
            reachable = {
                id(obj)
                for obj in gc.get_objects()
                if isinstance(obj, NavigationAspect) and obj.fixture is fixture
            }
            assert reachable == live


class TestGenerationSwap:
    """A reconfigure publishes a whole new stack; nothing is torn."""

    STACKS = {
        "visitor": (("index", "guided-tour"), ("index",)),
        "curator": (("index",), ("indexed-guided-tour",)),
    }
    PAGES = [None, "guitar", "guernica", "violin"]

    def skeletons(self, renderer, fixture):
        return tuple(
            (
                renderer.render_home()
                if painting is None
                else renderer.render_node(fixture.painting_node(painting))
            ).skeleton_html()[0]
            for painting in self.PAGES
        )

    def test_threaded_renders_see_whole_stacks_across_reconfigures(self, fixture):
        import io
        import sys
        import time

        reference = {}
        for audience, stacks in self.STACKS.items():
            for stack in stacks:
                bundles = [AudienceBundle(audience, stack)]
                with AudienceServer(fixture, bundles) as solo:
                    reference[audience, stack] = self.skeletons(
                        solo.renderer(audience), fixture
                    )
        allowed = {
            audience: {reference[audience, stack] for stack in stacks}
            for audience, stacks in self.STACKS.items()
        }
        bundles = [AudienceBundle(a, s[0]) for a, s in self.STACKS.items()]
        errors: list[BaseException] = []
        torn: list[str] = []
        stop = threading.Event()
        with AudienceServer(fixture, bundles) as server:
            app = NavigationApp(server)

            def render(audience: str) -> None:
                n = 0
                try:
                    while not stop.is_set():
                        got = self.skeletons(server.renderer(audience), fixture)
                        if got not in allowed[audience]:
                            torn.append(audience)
                        n += 1
                        status, _, _ = app.respond(
                            {
                                "REQUEST_METHOD": "GET",
                                "PATH_INFO": f"/{audience}/index.html",
                                "HTTP_X_REPRO_SESSION": f"{audience}-{n % 4}",
                                "wsgi.input": io.BytesIO(b""),
                            }
                        )
                        assert status == "200 OK", status
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=render, args=(audience,))
                for audience in self.STACKS
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 1.5
                turn = 0
                while time.monotonic() < deadline:
                    for audience, stacks in self.STACKS.items():
                        server.reconfigure(audience, stacks[(turn + 1) % 2])
                    turn += 1
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
                sys.setswitchinterval(interval)
            app.close()
            assert not errors, errors[0]
            assert torn == []
            # Every cached skeleton was rendered by the current generation.
            for audience in self.STACKS:
                current = server.renderer(audience)
                stack = server.bundle(audience).access_structures
                expected = reference[audience, stack]
                cache = server.page_cache(audience)
                for (uri, renderer), entry in cache._entries.items():
                    assert renderer is current
                    assert uri == "index.html" and entry.skeleton == expected[0]

    def test_reconfigures_leave_the_base_class_and_no_old_generation(self, fixture):
        import gc

        gc.collect()
        base_dict = dict(vars(PageRenderer))
        before = len(PageRenderer.__subclasses__())
        bundles = [AudienceBundle(a, s[0]) for a, s in self.STACKS.items()]
        with AudienceServer(fixture, bundles) as server:
            for turn in range(500):
                for audience, stacks in self.STACKS.items():
                    if turn % 2 == 0 or audience == "visitor":
                        server.reconfigure(audience, stacks[(turn + 1) % 2])
                server.provider("visitor").page("index.html")
            gc.collect()
            assert len(PageRenderer.__subclasses__()) == before + 2
            stacked = sum(
                len(server.bundle(a).access_structures) for a in server.audiences()
            )
            assert len(server.runtime.deployments) == stacked
            assert server.generation("visitor") == 501
            assert dict(vars(PageRenderer)) == base_dict
        assert dict(vars(PageRenderer)) == base_dict
