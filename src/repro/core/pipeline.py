"""The XLink pipeline: data + links + presentation → the browsable site.

Section 6 of the paper, end to end:

1. :func:`export_museum_space` writes the three kinds of artifact into a
   :class:`~repro.xlink.UriSpace` — data documents (Figures 7–8), the
   linkbase (Figure 9) and, conceptually, the stylesheet below.
2. :class:`XLinkSiteBuilder` plays the XLink-aware browser the paper could
   not have: it transforms each data document with the presentation
   stylesheet and materializes the linkbase's traversals as the page's
   nav block.

Because pages are *derived*, the change request (index → indexed guided
tour) regenerates only ``links.xml``; the rebuilt pages change precisely
where the navigation differs.
"""

from __future__ import annotations

import posixpath

from repro.baselines.museum_data import MuseumFixture
from repro.hypermedia import Anchor
from repro.web import (
    HtmlPage,
    StaticSite,
    Stylesheet,
    heading,
    image,
    page_skeleton,
)
from repro.xlink import Linkbase, Locator, Show, UriSpace
from repro.xmlcore import build, serialize

from .navspec import NavigationSpec
from .xlink_io import (
    export_data_documents,
    export_linkbase,
    rel_for_arcrole,
)

LINKBASE_URI = "links.xml"
HOME_DATA_URI = "home.xml"


def export_museum_space(
    fixture: MuseumFixture, spec: NavigationSpec
) -> UriSpace:
    """Write data documents and the linkbase into a fresh URI space."""
    space = UriSpace()
    for uri, document in export_data_documents(fixture).items():
        space.add(uri, document)
    space.add(HOME_DATA_URI, "<home><title>The Museum</title></home>")
    space.add(LINKBASE_URI, export_linkbase(fixture, spec))
    return space


def museum_stylesheet() -> Stylesheet:
    """The presentation artifact: data XML → content-only XHTML body."""
    sheet = Stylesheet()

    @sheet.template("painting")
    def painting(ctx, el):
        title = ctx.value_of(el, "title/text()")
        body = build(
            "div",
            {"class": "painting"},
            heading(1, title),
            image(f"images/{el.get('id')}.jpg", title),
        )
        details = build("dl", {})
        for field in ("year", "movement"):
            value = ctx.value_of(el, f"{field}/text()")
            if value:
                details.subelement("dt", text=field)
                details.subelement("dd", text=value)
        if details.children:
            body.append(details)
        return body

    @sheet.template("painter")
    def painter(ctx, el):
        return build(
            "div",
            {"class": "painter"},
            heading(1, ctx.value_of(el, "name/text()")),
        )

    @sheet.template("home")
    def home(ctx, el):
        return build(
            "div",
            {"class": "home"},
            heading(1, ctx.value_of(el, "title/text()")),
            build("p", {}, "Welcome to the museum."),
        )

    return sheet


def page_path_for(data_uri: str) -> str:
    """Map a data document URI to its page path (``picasso.xml`` → ``picasso.html``)."""
    stem, _, _ = data_uri.rpartition(".")
    return f"{stem or data_uri}.html"


class XLinkSiteBuilder:
    """Builds the site a linkbase-aware browser would show."""

    def __init__(
        self,
        space: UriSpace,
        *,
        linkbase_uri: str = LINKBASE_URI,
        stylesheet: Stylesheet | None = None,
    ):
        self._space = space
        self._linkbase_uri = linkbase_uri
        self._stylesheet = stylesheet or museum_stylesheet()

    def build(self) -> StaticSite:
        site = StaticSite()
        linkbase = Linkbase.from_document(
            self._linkbase_uri, self._space.document(self._linkbase_uri)
        )
        graph = linkbase.graph()
        for uri in self._space.uris():
            if uri == self._linkbase_uri:
                continue
            site.add(self._render_page(uri, graph))
        return site

    def _render_page(self, data_uri: str, graph) -> HtmlPage:
        document = self._space.document(data_uri)
        content = self._stylesheet.transform_to_element(document)
        title_el = content.find("h1")
        title = title_el.text_content() if title_el is not None else data_uri
        path = "index.html" if data_uri == HOME_DATA_URI else page_path_for(data_uri)
        html, body = page_skeleton(title)
        body.append(content)
        for aside in self._embeds_from_graph(data_uri, graph):
            body.append(aside)
        page = HtmlPage(path, html)
        anchors = self._anchors_from_graph(data_uri, path, graph)
        if anchors:
            page.add_nav(anchors)
        return page

    def _embeds_from_graph(self, data_uri: str, graph) -> list:
        """Transclusions: arcs with ``xlink:show="embed"`` (XLink §5.6.1).

        The paper's missing browser would have embedded the ending
        resource at the traversal point; we render it as an ``<aside>``
        with the target's transformed content (one level deep — embedded
        documents do not process their own links, avoiding cycles).
        """
        asides = []
        seen: set[str] = set()
        for traversal in graph.outgoing(data_uri):
            if traversal.start is traversal.end:
                continue
            if traversal.arc.show is not Show.EMBED:
                continue
            end = traversal.end
            if not isinstance(end, Locator) or end.href.uri in seen:
                continue
            seen.add(end.href.uri)
            target_doc = self._space.document(end.href.uri)
            embedded = self._stylesheet.transform_to_element(target_doc)
            aside = build("aside", {"class": "embedded", "data-source": end.href.uri})
            aside.append(embedded)
            asides.append(aside)
        return asides

    def _anchors_from_graph(
        self, data_uri: str, page_path: str, graph
    ) -> list[Anchor]:
        anchors: list[Anchor] = []
        seen: set[tuple[str, str, str]] = set()
        directory = posixpath.dirname(page_path)
        for traversal in graph.outgoing(data_uri):
            if traversal.start is traversal.end:
                continue  # an index arc's self pair
            if traversal.arc.show is Show.EMBED:
                continue  # rendered as a transclusion, not an anchor
            end = traversal.end
            if not isinstance(end, Locator):
                continue
            end_page = (
                "index.html"
                if end.href.uri == HOME_DATA_URI
                else page_path_for(end.href.uri)
            )
            href = posixpath.relpath(end_page, directory or ".")
            rel = rel_for_arcrole(traversal.arc.arcrole)
            label = (
                traversal.arc.title
                if rel in ("next", "prev") and traversal.arc.title
                else (end.title or end_page)
            )
            key = (label, href, rel)
            if key not in seen:
                seen.add(key)
                anchors.append(Anchor(label, href, rel))
        return anchors


def build_xlink_site(fixture: MuseumFixture, spec: NavigationSpec) -> StaticSite:
    """Export the three artifacts and build the site from them."""
    space = export_museum_space(fixture, spec)
    return XLinkSiteBuilder(space).build()


def linkbase_text(fixture: MuseumFixture, spec: NavigationSpec) -> str:
    """The serialized ``links.xml`` (for diffs and the examples)."""
    return serialize(export_linkbase(fixture, spec), indent="  ", xml_declaration=True)
