"""Web layer: HTML pages, XSL-lite stylesheets, static sites, change diffs.

Pages are well-formed XHTML over :mod:`repro.xmlcore`; sites serve the
:class:`repro.navigation.UserAgent`; the differ measures the paper's
"arduous and tedious" change costs.
"""

from .diff import ChangeImpact, FileDelta, diff_builds, unified_diff
from .errors import SiteError, StylesheetError, WebError
from .html import (
    TRAIL_NAV_CLASS,
    TRAIL_SLOT,
    HtmlPage,
    NavBlock,
    anchor_element,
    anchor_list,
    compose_page,
    heading,
    image,
    nav_block,
    nav_html,
    page_skeleton,
    paragraph,
)
from .site import SiteProvider, StaticSite
from .stylesheet import Stylesheet, TemplateRule, TransformContext

__all__ = [
    "ChangeImpact",
    "FileDelta",
    "HtmlPage",
    "NavBlock",
    "TRAIL_NAV_CLASS",
    "TRAIL_SLOT",
    "SiteError",
    "SiteProvider",
    "StaticSite",
    "Stylesheet",
    "StylesheetError",
    "TemplateRule",
    "TransformContext",
    "WebError",
    "anchor_element",
    "anchor_list",
    "compose_page",
    "diff_builds",
    "heading",
    "image",
    "nav_block",
    "nav_html",
    "page_skeleton",
    "paragraph",
    "unified_diff",
]
