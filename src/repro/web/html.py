"""A small HTML document model on top of the XML substrate.

A page is its content as a well-formed XHTML tree
(:class:`repro.xmlcore.Element`) plus its navigation as data: the nav
blocks (:class:`NavBlock`) that aspects and pipelines record on it.  The tree
never holds navigation, so the same parser, serializer and differ work on
data documents and page content alike; :meth:`HtmlPage.html` writes the
blocks after the body's content with :func:`nav_html`, in the one
canonical shape ``<nav><ul><li><a href rel>``.  :func:`nav_block` and its
helpers build the same markup as DOM, the reference :func:`nav_html` is
pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.hypermedia.access import Anchor
from repro.xmlcore import (
    Element,
    Text,
    build,
    comment,
    escape_attribute,
    escape_text,
    serialize,
)

#: Class attribute marking the per-session breadcrumb trail ``<nav>`` — the
#: only session-variant region of a rendered page (everything else is
#: deterministic for a fixed audience, page and deployment state).
TRAIL_NAV_CLASS = "breadcrumbs"

#: The placeholder a skeleton carries where the trail block goes.
#: :func:`compose_page` splices a per-request fragment over it.
TRAIL_SLOT = "<!--repro:trail-->"

#: Anchor rels written as a step (one ``<p>`` each) after the entry list.
_STEP_RELS = ("prev", "next")


@dataclass(frozen=True)
class NavBlock:
    """One navigation region of a page: its anchors and ``class``."""

    anchors: tuple[Anchor, ...]
    css_class: str | None = None


def _document_order(anchors: Iterable[Anchor]) -> tuple[list[Anchor], list[Anchor]]:
    """``(entries, steps)``: a nav block lists entries first, then steps."""
    entries: list[Anchor] = []
    steps: list[Anchor] = []
    for anchor in anchors:
        (steps if anchor.rel in _STEP_RELS else entries).append(anchor)
    return entries, steps


def page_skeleton(title: str) -> tuple[Element, Element]:
    """An ``<html>`` scaffold; returns ``(html, body)``."""
    body = build("body", {})
    html = build(
        "html",
        {},
        build("head", {}, build("title", {}, title)),
        body,
    )
    return html, body


def heading(level: int, text: str) -> Element:
    return build(f"h{level}", {}, text)


def paragraph(*children: Element | str) -> Element:
    return build("p", {}, *children)


def image(src: str, alt: str) -> Element:
    return build("img", {"src": src, "alt": alt})


def anchor_element(anchor: Anchor) -> Element:
    """Render an :class:`~repro.hypermedia.access.Anchor` as ``<a>``."""
    return build("a", {"href": anchor.href, "rel": anchor.rel}, anchor.label)


def anchor_list(anchors: list[Anchor]) -> Element:
    """A ``<ul>`` of anchors — the index listings of Figures 3–4."""
    items = [build("li", {}, anchor_element(a)) for a in anchors]
    return build("ul", {}, *items)


def nav_block(anchors: list[Anchor]) -> Element:
    """The navigation region of a page as DOM: one ``<nav>`` with all anchors.

    Entries form a ``<ul>``; each ``prev``/``next`` step follows in a
    ``<p>``.  The reference form :func:`nav_html` is pinned to: pages
    record their navigation as :class:`NavBlock` data and never build it.
    """
    children: list[Element] = []
    steps = [a for a in anchors if a.rel in ("prev", "next")]
    entries = [a for a in anchors if a not in steps]
    if entries:
        children.append(anchor_list(entries))
    for step in steps:
        children.append(paragraph(anchor_element(step)))
    return build("nav", {}, *children)


def _anchor_html(anchor: Anchor) -> str:
    return (
        f'<a href="{escape_attribute(anchor.href)}" '
        f'rel="{escape_attribute(anchor.rel)}">{escape_text(anchor.label)}</a>'
    )


def nav_html(block: NavBlock, indent: str | None = None, depth: int = 0) -> str:
    """*block* as markup: ``serialize`` of its :func:`nav_block` at *depth*.

    Byte for byte what the serializer writes for that ``<nav>`` (with
    ``class`` set when the block has one) as a child at *depth* under
    *indent* (``None``: compact), but written straight from the anchors:
    a page's navigation is never built as DOM.
    """
    tag = "<nav"
    if block.css_class is not None:
        tag += f' class="{escape_attribute(block.css_class)}"'
    if not block.anchors:
        return tag + "/>"
    if indent is None:
        pad = pad1 = pad2 = pad3 = ""
    else:
        pad = "\n" + indent * depth
        pad1 = pad + indent
        pad2 = pad1 + indent
        pad3 = pad2 + indent
    entries, steps = _document_order(block.anchors)
    parts = [tag, ">"]
    if entries:
        parts.append(pad1 + "<ul>")
        for anchor in entries:
            parts.append(f"{pad2}<li>{pad3}{_anchor_html(anchor)}{pad2}</li>")
        parts.append(pad1 + "</ul>")
    for anchor in steps:
        parts.append(f"{pad1}<p>{pad2}{_anchor_html(anchor)}{pad1}</p>")
    parts.append(pad + "</nav>")
    return "".join(parts)


def compose_page(skeleton: str, fragment: str) -> str:
    """Splice a per-request trail *fragment* into a cached *skeleton*.

    The inverse of :meth:`HtmlPage.skeleton_html`: the skeleton's
    :data:`TRAIL_SLOT` is replaced by the fragment (or removed when the
    request has no trail to show).  Plain string surgery; together with
    :func:`~repro.navigation.session.breadcrumb_fragment`, which writes
    the fragment as a string, it is all the markup a cache hit produces.
    """
    return skeleton.replace(TRAIL_SLOT, fragment, 1)


@dataclass(frozen=True)
class HtmlPage:
    """One built page: a site-relative path, its content and its navigation.

    ``tree`` is the XHTML content and nothing else; ``navs`` are the nav
    blocks recorded by :meth:`add_nav`, in order.  :meth:`html` writes
    them after the content of ``<body>``.
    """

    path: str
    tree: Element
    navs: list[NavBlock] = field(default_factory=list, hash=False)

    @property
    def title(self) -> str:
        title_el = self.tree.find("title")
        return title_el.text_content() if title_el is not None else ""

    def add_nav(self, anchors: Iterable[Anchor], css_class: str | None = None) -> None:
        """Record a nav block, written after the blocks recorded so far.

        A page with no ``<body>`` has nowhere to show one, and takes none.
        """
        if self.tree.find("body") is not None:
            self.navs.append(NavBlock(tuple(anchors), css_class))

    def html(self, *, indent: str | None = "  ") -> str:
        if not self.navs:
            # Nothing to write in the slot, whose pad would be left behind.
            return serialize(self.tree, indent=indent)
        return self._write(indent, lift_trail=False)[0]

    def anchors(self) -> list[Anchor]:
        """All anchors in the page, in document order."""
        found = [
            Anchor(
                label=a.text_content(),
                href=a.get("href") or "",
                rel=a.get("rel") or "link",
            )
            for a in self.tree.findall("a")
        ]
        for block in self.navs:
            entries, steps = _document_order(block.anchors)
            found += entries
            found += steps
        return found

    def skeleton_html(self, *, indent: str | None = "  ") -> tuple[str, str]:
        """Serialize this page split into ``(skeleton, trail_fragment)``.

        The skeleton is the full page with the session-variant trail
        block (the first ``class="breadcrumbs"`` block, if any) written as
        :data:`TRAIL_SLOT` — at the end of ``<body>`` when the page
        carries no trail, so a cached skeleton always has a splice point.
        The fragment is the trail block written compactly (``""`` when
        absent).  ``compose_page(skeleton, fragment)`` reassembles the
        page.
        """
        return self._write(indent, lift_trail=True)

    def _write(self, indent: str | None, *, lift_trail: bool) -> tuple[str, str]:
        """The page with its nav blocks after the body's content.

        The tree is serialized once, with a slot comment as the last child
        of ``<body>``; the slot is then replaced by the blocks, joined by
        the pad the serializer puts between body children.  With
        *lift_trail*, the trail block stays a :data:`TRAIL_SLOT` and comes
        back as the fragment.
        """
        body = self.tree.find("body")
        if body is None:
            return serialize(self.tree, indent=indent), ""
        depth = 1
        node = body
        while node is not self.tree:
            node = node.parent
            depth += 1
        fragment = ""
        blocks = []
        slot_pending = lift_trail
        for block in self.navs:
            if slot_pending and block.css_class == TRAIL_NAV_CLASS:
                slot_pending = False
                fragment = nav_html(block)
                blocks.append(TRAIL_SLOT)
            else:
                blocks.append(nav_html(block, indent, depth))
        if slot_pending:
            blocks.append(TRAIL_SLOT)
        slot = comment("repro:trail")
        body.append(slot)
        try:
            text = serialize(self.tree, indent=indent)
        finally:
            body.remove(slot)
        pad = ""
        # Mixed content is never re-indented (see the serializer).
        if indent is not None and not any(
            isinstance(child, Text) and child.value.strip() for child in body.children
        ):
            pad = "\n" + indent * depth
        head, _, tail = text.rpartition(TRAIL_SLOT)
        return head + pad.join(blocks) + tail, fragment

    def content_region(self) -> Element | None:
        """A copy of the page body: its content, without navigation."""
        body = self.tree.find("body")
        if body is None:
            return None
        from repro.xmlcore import deep_copy

        return deep_copy(body)
