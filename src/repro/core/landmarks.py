"""Landmarks: a second navigation aspect, composing with the first.

HDM (the methodology the paper credits as the pioneer) has a *landmark*
primitive: destinations reachable from everywhere — the "Museum home" link
of every page.  Implementing landmarks as their *own* aspect demonstrates
the compositionality the paper wants from AOP: two independently-written
navigation concerns woven into the same join points, ordered by aspect
precedence, each separately removable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aop import Aspect, around
from repro.hypermedia import Anchor
from repro.web import HtmlPage

from .aspect import _relativize


@dataclass
class LandmarkSpec:
    """The landmark artifact: label → site-absolute target path."""

    landmarks: list[Anchor] = field(default_factory=list)

    def add(self, label: str, href: str) -> "LandmarkSpec":
        self.landmarks.append(Anchor(label, href, "landmark"))
        return self

    def to_text(self) -> str:
        lines = ["[landmarks]"]
        for anchor in self.landmarks:
            lines.append(f"landmark {anchor.label} -> {anchor.href}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LandmarkSpec":
        spec = cls()
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines or lines[0] != "[landmarks]":
            raise ValueError("landmark spec must start with '[landmarks]'")
        for line in lines[1:]:
            if not line.startswith("landmark "):
                raise ValueError(f"unrecognized landmark line: {line!r}")
            label, arrow, href = line[len("landmark "):].partition("->")
            if not arrow:
                raise ValueError(f"malformed landmark line: {line!r}")
            spec.add(label.strip(), href.strip())
        return spec


class LandmarkAspect(Aspect):
    """Adds the landmark rail to every rendered page.

    Runs *after* (inside) the navigation aspect by default (``order = 10``)
    so the landmark nav block (``class="landmarks"``) lands before context
    navigation in the page — deploy order still composes either way.
    """

    order = 10

    def __init__(self, spec: LandmarkSpec):
        self.spec = spec
        self.pages_decorated = 0

    @around(
        "execution(PageRenderer.render_node) || execution(PageRenderer.render_home)"
    )
    def add_landmarks(self, jp) -> HtmlPage:
        page: HtmlPage = jp.proceed()
        anchors = [
            a for a in self.spec.landmarks
            # A landmark pointing at the page itself is noise.
            if a.href != page.path
        ]
        if not anchors:
            return page
        self.pages_decorated += 1
        page.add_nav(_relativize(anchors, page.path), "landmarks")
        return page


def default_museum_landmarks() -> LandmarkSpec:
    """The museum's landmarks: home from everywhere."""
    return LandmarkSpec().add("Museum home", "index.html")
