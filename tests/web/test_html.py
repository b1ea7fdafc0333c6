"""Tests for the HTML page model."""

import pytest

from repro.hypermedia.access import Anchor
from repro.web import (
    TRAIL_NAV_CLASS,
    TRAIL_SLOT,
    HtmlPage,
    anchor_element,
    anchor_list,
    compose_page,
    heading,
    nav_block,
    page_skeleton,
    paragraph,
)
from repro.xmlcore import parse_element, serialize, text


class TestPageConstruction:
    def test_skeleton_has_title_and_body(self):
        html, body = page_skeleton("Guitar")
        body.append(heading(1, "Guitar"))
        page = HtmlPage("painting/guitar.html", html)
        assert page.title == "Guitar"
        assert page.tree.find("h1").text_content() == "Guitar"

    def test_anchor_element_shape(self):
        el = anchor_element(Anchor("Guernica", "guernica.html", "entry"))
        assert serialize(el) == '<a href="guernica.html" rel="entry">Guernica</a>'

    def test_anchor_list(self):
        ul = anchor_list([Anchor("A", "a.html"), Anchor("B", "b.html")])
        assert len(ul.findall("li")) == 2

    def test_page_anchors_extraction(self):
        html, body = page_skeleton("T")
        body.append(anchor_element(Anchor("Next", "n.html", "next")))
        body.append(paragraph("plain text"))
        page = HtmlPage("x.html", html)
        (found,) = page.anchors()
        assert (found.label, found.href, found.rel) == ("Next", "n.html", "next")

    def test_html_round_trips_through_parser(self):
        html, body = page_skeleton("Round & Trip")
        body.append(paragraph("a < b"))
        page = HtmlPage("x.html", html)
        reparsed = parse_element(page.html())
        assert reparsed.find("title").text_content() == "Round & Trip"
        assert reparsed.find("p").text_content() == "a < b"


class TestNavBlock:
    def test_groups_entries_and_steps(self):
        nav = nav_block(
            [
                Anchor("A", "a.html", "entry"),
                Anchor("Previous", "p.html", "prev"),
                Anchor("Next", "n.html", "next"),
            ]
        )
        assert len(nav.findall("ul")) == 1
        assert len(nav.findall("p")) == 2

    def test_empty_nav_is_empty_element(self):
        assert serialize(nav_block([])) == "<nav/>"


_BLOCKS = [
    ([Anchor("A & B", "a.html", "entry"), Anchor("Next", "n.html", "next")], None),
    ([Anchor("Me", "../me.html", "breadcrumb")], TRAIL_NAV_CLASS),
    ([Anchor("Home", "../index.html", "landmark")], "landmarks"),
]


class TestNavEmission:
    """A page writes its nav blocks where the DOM ``<nav>`` s would be."""

    @staticmethod
    def content(loose_text):
        html, body = page_skeleton("T")
        body.append(paragraph("content"))
        if loose_text:
            body.append(text(loose_text))  # mixed content: no re-indent
        return html, body

    @pytest.mark.parametrize("indent", ["  ", "\t", None])
    @pytest.mark.parametrize("loose_text", ["", "loose"])
    def test_html_is_the_serialized_dom_form(self, indent, loose_text):
        page = HtmlPage("x.html", self.content(loose_text)[0])
        dom, dom_body = self.content(loose_text)
        for anchors, css_class in _BLOCKS:
            page.add_nav(anchors, css_class)
            nav = nav_block(anchors)
            if css_class is not None:
                nav.set("class", css_class)
            dom_body.append(nav)
        assert page.html(indent=indent) == serialize(dom, indent=indent)
        assert page.tree.findall("nav") == []

    def test_skeleton_lifts_the_trail_where_it_sits(self):
        page = HtmlPage("x.html", self.content("")[0])
        for anchors, css_class in _BLOCKS:
            page.add_nav(anchors, css_class)
        skeleton, fragment = page.skeleton_html(indent=None)
        assert fragment.startswith(f'<nav class="{TRAIL_NAV_CLASS}">')
        assert skeleton.count(TRAIL_SLOT) == 1 and "Me</a>" not in skeleton
        assert compose_page(skeleton, fragment) == page.html(indent=None)

    def test_a_page_without_a_trail_keeps_the_slot_last(self):
        page = HtmlPage("x.html", self.content("")[0])
        page.add_nav(*_BLOCKS[0])
        skeleton, fragment = page.skeleton_html()
        assert fragment == ""
        assert skeleton.endswith(f"</nav>\n    {TRAIL_SLOT}\n  </body>\n</html>")

    def test_a_page_without_a_body_takes_no_nav(self):
        page = HtmlPage("x.html", paragraph("bare"))
        page.add_nav(*_BLOCKS[0])
        assert page.navs == []
        assert page.html() == "<p>bare</p>"


class TestContentRegion:
    def test_nav_blocks_stripped(self):
        html, body = page_skeleton("T")
        body.append(paragraph("content"))
        page = HtmlPage("x.html", html)
        page.add_nav([Anchor("A", "a.html", "entry")])
        region = page.content_region()
        assert region.findall("nav") == []
        assert region.text_content() == "content"
        assert "<nav>" in page.html()

    def test_original_tree_not_mutated(self):
        html, body = page_skeleton("T")
        page = HtmlPage("x.html", html)
        page.add_nav([Anchor("A", "a.html", "entry")])
        before = page.html()
        page.content_region().append(paragraph("more"))
        assert page.html() == before
