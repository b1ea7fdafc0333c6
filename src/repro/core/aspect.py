"""The navigation aspect: the paper's Figure 6, executable.

Questions 3 and 4 of §5 — *where are the join points?* and *how do we
compose?* — answered concretely:

- **Join points**: the execution of the base renderer's ``render_node``
  and ``render_home`` methods (:class:`repro.core.renderer.PageRenderer`).
- **Composition**: ``around`` advice lets the base program produce its
  content-only page, then records one nav block on it, computed from the
  separately-specified :class:`~repro.core.navspec.NavigationSpec`.  The
  block is data beside the content tree
  (:meth:`~repro.web.html.HtmlPage.add_nav`); the page writes it as a
  ``<nav>`` after the content when it is serialized.

The base program never changes; deploying a different aspect instance
(with a different spec) re-skins the whole site's navigation.
"""

from __future__ import annotations

import functools
import posixpath

from repro.aop import Aspect, around
from repro.baselines.museum_data import MuseumFixture
from repro.hypermedia import Anchor, NavigationalContext, Node
from repro.web import HtmlPage

from .navspec import NavigationSpec


class NavigationAspect(Aspect):
    """Weaves navigation into content-only pages.

    One instance carries one :class:`NavigationSpec` plus the contexts it
    materializes; advice bodies consult only those — the page content is
    whatever the base renderer produced, left untouched, and the anchors
    go beside it as one nav block.  A node page asks the spec about
    the contexts holding that node only, found through a node → contexts
    index, so a render costs the same on a site of any size.
    """

    def __init__(self, spec: NavigationSpec, fixture: MuseumFixture):
        self.spec = spec
        self.fixture = fixture
        self.contexts: dict[str, NavigationalContext] = spec.build_contexts(fixture)
        # Node → the contexts holding it, in the order of ``contexts``.
        self._holding: dict[Node, dict[str, NavigationalContext]] = {}
        for name, context in self.contexts.items():
            for member in context.members:
                self._holding.setdefault(member, {})[name] = context
        #: Join point observations, useful for tests and the experiments.
        self.pages_advised: int = 0

    @around("execution(PageRenderer.render_node)")
    def weave_node_navigation(self, jp) -> HtmlPage:
        """Inject the spec's anchors into every rendered node page."""
        page: HtmlPage = jp.proceed()
        (node,) = jp.args
        return self._with_nav(page, self.anchors_for(node))

    @around("execution(PageRenderer.render_home)")
    def weave_home_navigation(self, jp) -> HtmlPage:
        """Inject the home page's entry indexes."""
        page: HtmlPage = jp.proceed()
        return self._with_nav(page, self.spec.home_anchors(self.fixture))

    def anchors_for(self, node: Node) -> list[Anchor]:
        """The spec's anchors for *node*'s page, from its holding contexts.

        Equal to ``spec.anchors_for(node, self.contexts, nav)``: contexts
        not holding *node* contribute nothing there either.
        """
        holding = self._holding.get(node, {})
        return self.spec.anchors_for(node, holding, self.fixture.nav)

    def _with_nav(self, page: HtmlPage, anchors) -> HtmlPage:
        self.pages_advised += 1
        if anchors:
            page.add_nav(_relativize(anchors, page.path))
        return page


@functools.lru_cache(maxsize=8192)
def _site_relpath(path: str, directory: str) -> str:
    """The href of site path *path* from a page in site *directory*.

    Pure despite ``relpath`` reading the working directory: both
    arguments are site-relative, so the cwd cancels out.  Bounded, since a
    site has as many keys as (target, page directory) pairs: ~4.2k on a
    2,100-page museum, so the whole key space of such a site fits.
    """
    return posixpath.relpath(path, directory)


def _relativize(anchors, page_path: str):
    """Rewrite absolute site paths into hrefs relative to *page_path*.

    Node URIs are site-absolute (``PaintingNode/guitar.html``); pages live
    in subdirectories, so anchors need ``../`` prefixes to resolve.
    """
    directory = posixpath.dirname(page_path) or "."
    out = []
    for anchor in anchors:
        href = anchor.href
        if not href.startswith(("http://", "https://", "#")):
            href = _site_relpath(href, directory)
        out.append(Anchor(anchor.label, href, anchor.rel))
    return out
