"""Tests for the navigation aspect and weaving orchestration (Figure 6)."""

import pytest

from repro.baselines import museum_fixture, synthetic_museum
from repro.core import (
    NavigationAspect,
    NavigationWeaver,
    PageRenderer,
    build_plain_site,
    build_woven_site,
    build_woven_site_stacked,
    default_museum_spec,
)
from repro.navigation import UserAgent


@pytest.fixture()
def fixture():
    return museum_fixture()


class TestWovenSite:
    def test_navigation_confined_to_nav_blocks(self, fixture):
        site = build_woven_site(fixture, default_museum_spec("index"))
        for page in site.pages():
            for a in page.tree.findall("a"):
                enclosing = [
                    anc.name.local
                    for anc in a.ancestors()
                    if hasattr(anc, "name")
                ]
                assert "nav" in enclosing, f"anchor outside <nav> in {page.path}"

    def test_no_dangling_links(self, fixture):
        site = build_woven_site(fixture, default_museum_spec("indexed-guided-tour"))
        assert site.check_links() == []

    def test_content_identical_to_plain_build(self, fixture):
        """Weaving adds navigation and changes nothing else."""
        from repro.xmlcore import serialize

        plain = build_plain_site(fixture)
        woven = build_woven_site(fixture, default_museum_spec("index"))
        assert plain.paths() == woven.paths()
        for path in plain.paths():
            plain_content = plain.page(path).content_region()
            woven_content = woven.page(path).content_region()
            assert serialize(plain_content) == serialize(woven_content), path

    def test_renderer_class_restored_after_build(self, fixture):
        build_woven_site(fixture, default_museum_spec("index"))
        assert not hasattr(PageRenderer.render_node, "__woven__")
        # And a fresh build is navigation-free again.
        assert sum(len(p.anchors()) for p in build_plain_site(fixture).pages()) == 0

    def test_stacked_specs_layer_their_navigation(self, fixture):
        stacked = build_woven_site_stacked(
            fixture,
            [default_museum_spec("index"), default_museum_spec("guided-tour")],
        )
        single = build_woven_site(fixture, default_museum_spec("index"))
        assert stacked.page("index.html").html().count("<nav") == 2
        assert single.page("index.html").html().count("<nav") == 1
        # The batch deployment unwound completely.
        assert not hasattr(PageRenderer.render_node, "__woven__")

    def test_browsing_the_woven_site(self, fixture):
        site = build_woven_site(fixture, default_museum_spec("indexed-guided-tour"))
        agent = UserAgent(site.provider())
        agent.open("index.html")
        agent.click("Pablo Picasso")
        agent.click("Guitar")
        assert agent.follow_rel("next").uri == "PaintingNode/guernica.html"

    def test_change_request_alters_only_navigation(self, fixture):
        from repro.xmlcore import serialize

        before = build_woven_site(fixture, default_museum_spec("index"))
        after = build_woven_site(fixture, default_museum_spec("indexed-guided-tour"))
        for path in before.paths():
            assert serialize(before.page(path).content_region()) == serialize(
                after.page(path).content_region()
            )


class TestNavigationAspect:
    def test_counts_advised_pages(self, fixture):
        from repro.aop import WeaverRuntime

        aspect = NavigationAspect(default_museum_spec("index"), fixture)
        weaver = WeaverRuntime()
        deployment = weaver.weave([PageRenderer], aspect).deployments[0]
        try:
            PageRenderer(fixture).build_site()
        finally:
            weaver.undeploy(deployment)
        assert aspect.pages_advised == 14

    def test_contexts_materialized_once_per_aspect(self, fixture):
        aspect = NavigationAspect(default_museum_spec("index"), fixture)
        assert set(aspect.contexts) == {
            "by-painter:picasso",
            "by-painter:braque",
            "by-painter:dali",
            "by-painter:miro",
        }


class TestNavigationWeaver:
    def test_context_manager_deploys_and_restores(self, fixture):
        with NavigationWeaver(fixture, default_museum_spec("index")) as weaver:
            site = weaver.build_site()
            assert sum(len(p.anchors()) for p in site.pages()) > 0
        assert sum(len(p.anchors()) for p in build_plain_site(fixture).pages()) == 0

    def test_reconfigure_swaps_navigation_live(self, fixture):
        weaver = NavigationWeaver(fixture, default_museum_spec("index"))
        with weaver:
            before = weaver.build_site()
            weaver.reconfigure(default_museum_spec("indexed-guided-tour"))
            after = weaver.build_site()
        rels_before = {a.rel for p in before.pages() for a in p.anchors()}
        rels_after = {a.rel for p in after.pages() for a in p.anchors()}
        assert "next" not in rels_before
        assert "next" in rels_after

    def test_aspect_property_requires_deployment(self, fixture):
        weaver = NavigationWeaver(fixture, default_museum_spec("index"))
        with pytest.raises(RuntimeError):
            weaver.aspect


class TestLazyWovenProvider:
    def test_pages_render_on_demand_through_the_aspect(self, fixture):
        with NavigationWeaver(fixture, default_museum_spec("index")) as weaver:
            agent = UserAgent(weaver.provider())
            agent.open("index.html")
            page = agent.click("Pablo Picasso")
            assert page.uri == "PainterNode/picasso.html"
            assert {a.label for a in page.anchors} >= {"Guitar", "Guernica"}

    def test_reconfigure_changes_pages_rendered_afterwards(self, fixture):
        weaver = NavigationWeaver(fixture, default_museum_spec("index"))
        with weaver:
            agent = UserAgent(weaver.provider())
            before = agent.open("PaintingNode/guitar.html")
            assert before.anchors_with_rel("next") == []
            weaver.reconfigure(default_museum_spec("indexed-guided-tour"))
            after = agent.open("PaintingNode/guitar.html")
            assert len(after.anchors_with_rel("next")) == 1

    def test_missing_page(self, fixture):
        from repro.navigation import NavigationError

        with NavigationWeaver(fixture, default_museum_spec("index")) as weaver:
            provider = weaver.provider()
            with pytest.raises(NavigationError):
                provider.page("ghost.html")


class TestFailureInjection:
    def test_advice_exception_propagates_with_context(self, fixture):
        """A broken navigation spec must fail loudly, not render silently."""
        from repro.aop import WeaverRuntime

        broken = default_museum_spec("index")
        broken.expose("PaintingNode", "no_such_link_class")
        aspect = NavigationAspect(broken, fixture)
        weaver = WeaverRuntime()
        deployment = weaver.weave([PageRenderer], aspect).deployments[0]
        try:
            with pytest.raises(Exception) as info:
                PageRenderer(fixture).build_site()
            assert "no_such_link_class" in str(info.value)
        finally:
            weaver.undeploy(deployment)

    def test_renderer_restored_even_when_build_raises(self, fixture):
        broken = default_museum_spec("index")
        broken.expose("PaintingNode", "no_such_link_class")
        with pytest.raises(Exception):
            build_woven_site(fixture, broken)
        # The try/finally in build_woven_site must have undeployed.
        assert not hasattr(PageRenderer.render_node, "__woven__")
        assert sum(len(p.anchors()) for p in build_plain_site(fixture).pages()) == 0


class TestAudienceSites:
    def test_each_audience_gets_its_stack(self, fixture):
        from repro.core import build_audience_sites
        from repro.navigation import DEFAULT_AUDIENCES, AudienceBundle

        sites = build_audience_sites(fixture, DEFAULT_AUDIENCES)
        assert set(sites) == {"visitor", "curator", "tour-only"}
        # One <nav> block per stacked access structure.
        assert sites["visitor"].page("index.html").html().count("<nav") == 2
        assert sites["curator"].page("index.html").html().count("<nav") == 1
        # Every audience's runtime unwound: the renderer is clean.
        assert not hasattr(PageRenderer.render_node, "__woven__")
        # And bundles must name at least one structure.
        with pytest.raises(ValueError, match="stacks no structures"):
            AudienceBundle("empty", ())

    def test_prebuilt_specs_are_reused(self, fixture):
        from repro.core import build_audience_sites
        from repro.navigation import AudienceBundle

        spec = default_museum_spec("indexed-guided-tour")
        sites = build_audience_sites(
            fixture,
            [AudienceBundle("power-user", ("indexed-guided-tour",))],
            specs_by_access={"indexed-guided-tour": spec},
        )
        page = sites["power-user"].page("PaintingNode/guitar.html").html()
        assert 'rel="next"' in page


class TestHoldingContextIndex:
    """The aspect asks the spec about a node's holding contexts only."""

    @pytest.mark.parametrize("site", ["default", "synthetic-7x3"])
    @pytest.mark.parametrize(
        "families",
        [
            {"by-painter": "index"},
            {"by-painter": "guided-tour"},
            {"by-painter": "indexed-guided-tour"},
            {"by-painter": "guided-tour", "by-movement": "indexed-guided-tour"},
        ],
        ids=lambda families: "+".join(f"{f}={k}" for f, k in families.items()),
    )
    def test_anchors_match_a_scan_of_every_context(self, site, families):
        fixture = museum_fixture() if site == "default" else synthetic_museum(7, 3)
        spec = default_museum_spec()
        for family, kind in families.items():
            spec.set_access(family, kind, label_attribute="title")
        aspect = NavigationAspect(spec, fixture)
        nodes = PageRenderer(fixture).node_inventory()
        assert nodes
        for node in nodes:
            expected = spec.anchors_for(node, aspect.contexts, fixture.nav)
            assert aspect.anchors_for(node) == expected, node
