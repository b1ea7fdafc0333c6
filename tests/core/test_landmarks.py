"""Tests for the landmark aspect: two navigation aspects, composed."""

import pytest

from repro.aop import WeaverRuntime
from repro.baselines import museum_fixture
from repro.core import (
    LandmarkAspect,
    LandmarkSpec,
    NavigationAspect,
    PageRenderer,
    build_plain_site,
    default_museum_landmarks,
    default_museum_spec,
)


@pytest.fixture()
def fixture():
    return museum_fixture()


def build_with(fixture, *aspects):
    weaver = WeaverRuntime()
    for aspect in aspects:
        weaver.weave(PageRenderer, aspect)
    try:
        return PageRenderer(fixture).build_site()
    finally:
        weaver.undeploy_all()


class TestLandmarkSpec:
    def test_text_round_trip(self):
        spec = LandmarkSpec().add("Home", "index.html").add("Map", "map.html")
        assert LandmarkSpec.from_text(spec.to_text()).to_text() == spec.to_text()

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError):
            LandmarkSpec.from_text("landmark Home -> index.html")
        with pytest.raises(ValueError):
            LandmarkSpec.from_text("[landmarks]\nhome index.html")


class TestLandmarkAspectAlone:
    def test_every_page_gets_the_landmark(self, fixture):
        site = build_with(fixture, LandmarkAspect(default_museum_landmarks()))
        for page in site.pages():
            if page.path == "index.html":
                continue  # the landmark points here; self-link suppressed
            labels = [a.label for a in page.anchors()]
            assert labels == ["Museum home"], page.path

    def test_self_link_suppressed_on_target(self, fixture):
        site = build_with(fixture, LandmarkAspect(default_museum_landmarks()))
        assert site.page("index.html").anchors() == []

    def test_landmark_hrefs_are_relative(self, fixture):
        site = build_with(fixture, LandmarkAspect(default_museum_landmarks()))
        (anchor,) = site.page("PaintingNode/guitar.html").anchors()
        assert anchor.href == "../index.html"
        assert site.check_links() == []


class TestComposition:
    def test_both_aspects_contribute(self, fixture):
        site = build_with(
            fixture,
            NavigationAspect(default_museum_spec("index"), fixture),
            LandmarkAspect(default_museum_landmarks()),
        )
        rels = {a.rel for a in site.page("PaintingNode/guitar.html").anchors()}
        assert {"entry", "link", "landmark"} <= rels

    def test_deploy_order_does_not_lose_anchors(self, fixture):
        one = build_with(
            fixture,
            NavigationAspect(default_museum_spec("index"), fixture),
            LandmarkAspect(default_museum_landmarks()),
        )
        other = build_with(
            fixture,
            LandmarkAspect(default_museum_landmarks()),
            NavigationAspect(default_museum_spec("index"), fixture),
        )
        page_one = {
            (a.label, a.rel) for a in one.page("PaintingNode/guitar.html").anchors()
        }
        page_other = {
            (a.label, a.rel) for a in other.page("PaintingNode/guitar.html").anchors()
        }
        assert page_one == page_other

    def test_each_aspect_separately_removable(self, fixture):
        landmarks_only = build_with(fixture, LandmarkAspect(default_museum_landmarks()))
        rels = {
            a.rel for a in landmarks_only.page("PaintingNode/guitar.html").anchors()
        }
        assert rels == {"landmark"}
        plain = build_plain_site(fixture)
        assert sum(len(p.anchors()) for p in plain.pages()) == 0

    def test_landmark_rail_is_marked(self, fixture):
        site = build_with(fixture, LandmarkAspect(default_museum_landmarks()))
        page = site.page("PaintingNode/guitar.html")
        (nav,) = page.tree.findall("nav")
        assert nav.get("class") == "landmarks"

    def test_decoration_counter(self, fixture):
        aspect = LandmarkAspect(default_museum_landmarks())
        build_with(fixture, aspect)
        assert aspect.pages_decorated == 13  # all but the self-linked home
