"""The response oracle and the summary statistics the benchmark reports.

:class:`TrailModel` is the generator's own model of one session's
breadcrumb trail: the last ``limit`` distinct pages, a revisit moves to
the end, and the page being served is left out of what it displays.
:func:`check_page` compares a served page with that model (exact crumb
list, hrefs relative to the page) and with the audience's stack (one
``<nav>`` per stacked access structure; tour ``rel="next"``/``"prev"``
steps only on painting pages of a stack holding the guided tour).
"""

from __future__ import annotations

import functools
import math
import posixpath
import re

TRAIL_LIMIT = 8

_TITLE = re.compile(r"<title>(.*?)</title>", re.S)
_TRAIL = re.compile(r'<nav class="breadcrumbs"><ul>(.*?)</ul></nav>', re.S)
_CRUMB = re.compile(r'<li><a href="([^"]*)" rel="breadcrumb">(.*?)</a></li>', re.S)

#: The two stacks the visitor is reconfigured between, and each
#: audience's stack when the server starts.
TOUR_STACK = ("index", "guided-tour")
INDEX_STACK = ("index",)
STACKS = {"visitor": TOUR_STACK, "curator": INDEX_STACK}


class TrailModel:
    """What one session's breadcrumb trail must hold (oldest first)."""

    def __init__(self, limit: int = TRAIL_LIMIT):
        self.limit = limit
        self.entries: list[tuple[str, str]] = []

    def record(self, path: str, title: str) -> list[tuple[str, str]]:
        """Visit *path*; return the crumbs its page must display."""
        shown = [entry for entry in self.entries if entry[0] != path]
        self.entries = (shown + [(path, title)])[-self.limit :]
        return shown


@functools.lru_cache(maxsize=65536)
def _relative(target: str, directory: str) -> str:
    return posixpath.relpath(target, directory)


def expected_crumbs(shown: list[tuple[str, str]], path: str) -> list[tuple[str, str]]:
    """``(href, label)`` pairs of the trail ``<nav>`` on the page at *path*."""
    directory = posixpath.dirname(path) or "."
    return [(_relative(crumb, directory), title) for crumb, title in shown]


def served_crumbs(text: str) -> list[tuple[str, str]]:
    match = _TRAIL.search(text)
    return _CRUMB.findall(match.group(1)) if match else []


def stack_signature(text: str) -> tuple[int, bool]:
    """``(audience <nav> blocks, has a tour step)`` of a served page."""
    steps = 'rel="next"' in text or 'rel="prev"' in text
    return text.count("<nav>"), steps


def stack_problem(
    signature: tuple[int, bool], stack: tuple[str, ...], page: str
) -> str | None:
    """Why *signature* does not fit *stack* on *page* (``None`` if it does)."""
    navs, steps = signature
    want_steps = "guided-tour" in stack and page.startswith("PaintingNode/")
    if navs != len(stack):
        return f"{navs} nav blocks for stack {'+'.join(stack)}"
    if steps != want_steps:
        return f"tour steps {'present' if steps else 'missing'} on {page}"
    return None


def check_page(
    text: str, path: str, model: TrailModel
) -> tuple[str | None, tuple[int, bool]]:
    """Advance *model* by the page at *path*; return (problem, signature).

    The crumb list is checked here; the stack check needs the stack the
    page was served under, which the caller decides.
    """
    match = _TITLE.search(text)
    if match is None:
        return f"{path} has no <title>", stack_signature(text)
    want = expected_crumbs(model.record(path, match.group(1)), path)
    got = served_crumbs(text)
    problem = None
    if got != want:
        problem = f"trail on {path}: served {got!r}, model {want!r}"
    return problem, stack_signature(text)


def median(values: list[float]) -> float | None:
    """The median, or ``None`` for no samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def kept_percentile(values: list[float], q: float, beyond: int = 10) -> float | None:
    """The *q*-percentile (nearest rank), or ``None`` when too few samples.

    A percentile is kept only when at least *beyond* samples lie above its
    rank; below that it says more about one outlier than about the tail.
    """
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < beyond:
        return None
    return sorted(values)[rank - 1]
