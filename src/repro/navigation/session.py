"""Navigation sessions: position, context, and context-dependent movement.

This is the executable form of the paper's §2 example: *where Next goes
depends on how you got here*.  A session tracks both the current node and
the current navigational context; ``next()`` asks the context, so Guitar →
Next yields another Picasso in the by-painter context and another cubist
painting in the by-movement context.

The per-user half of that example lives here too: a
:class:`BreadcrumbTrail` of the pages one user visited.  Woven in process
it is :class:`BreadcrumbAspect`; served over HTTP it is plain session
data whose :func:`breadcrumb_fragment` is spliced into the audience's
page (see :mod:`repro.navigation.http`), so two users browsing the same
audience from one live process each see only their own footsteps.
"""

from __future__ import annotations

import functools
import json
import posixpath
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.aop import Aspect, around
from repro.hypermedia.access import Anchor
from repro.hypermedia.context import NavigationalContext
from repro.hypermedia.nodes import Node
from repro.hypermedia.schema import NavigationalSchema
from repro.web.html import TRAIL_NAV_CLASS
from repro.xmlcore.serializer import escape_attribute, escape_text

from .errors import NavigationError
from .history import History


@dataclass(frozen=True)
class Position:
    """One history entry: a node seen within a context (or none)."""

    node: Node
    context: NavigationalContext | None = None

    def describe(self) -> str:
        where = f" in {self.context.name}" if self.context is not None else ""
        return f"{self.node.node_class.name}:{self.node.node_id}{where}"


class NavigationSession:
    """A user's walk through the navigation space."""

    def __init__(self, schema: NavigationalSchema | None = None):
        self._schema = schema
        self._history: History[Position] = History()

    # -- state ------------------------------------------------------------

    @property
    def position(self) -> Position:
        return self._history.current

    @property
    def current_node(self) -> Node:
        return self._history.current.node

    @property
    def current_context(self) -> NavigationalContext | None:
        return self._history.current.context

    @property
    def history(self) -> History[Position]:
        return self._history

    # -- movement ------------------------------------------------------------

    def visit(self, node: Node, context: NavigationalContext | None = None) -> Position:
        """Jump to *node*, optionally entering a context.

        When a context is given the node must belong to it — arriving "in"
        a context you are not a member of is meaningless.
        """
        if context is not None and node not in context:
            raise NavigationError(
                f"{node!r} is not a member of context {context.name!r}"
            )
        position = Position(node, context)
        self._history.visit(position)
        return position

    def enter_context(
        self, context: NavigationalContext, at: Node | None = None
    ) -> Position:
        """Enter a context at *at* (default: its first member)."""
        if at is None:
            if not context.members:
                raise NavigationError(f"context {context.name!r} is empty")
            at = context.members[0]
        return self.visit(at, context)

    def next(self) -> Position:
        """Move to the next member of the current context."""
        context = self._require_context("next")
        following = context.next_after(self.current_node)
        if following is None:
            raise NavigationError(
                f"no next node after {self.current_node.node_id!r} "
                f"in context {context.name!r}"
            )
        return self.visit(following, context)

    def previous(self) -> Position:
        """Move to the previous member of the current context."""
        context = self._require_context("previous")
        preceding = context.previous_before(self.current_node)
        if preceding is None:
            raise NavigationError(
                f"no previous node before {self.current_node.node_id!r} "
                f"in context {context.name!r}"
            )
        return self.visit(preceding, context)

    def follow(self, link_class_name: str, *, to: str | None = None) -> Position:
        """Traverse a schema link class from the current node.

        Leaving through a link abandons the current context (you moved to a
        different information space).  With multiple targets, *to* selects
        by node id; otherwise a unique target is required.
        """
        if self._schema is None:
            raise NavigationError("session has no navigational schema to follow")
        link_class = self._schema.link_class(link_class_name)
        links = link_class.resolve(self.current_node)
        if to is not None:
            links = [link for link in links if link.target.node_id == to]
        if not links:
            raise NavigationError(
                f"no {link_class_name!r} link from {self.current_node.node_id!r}"
                + (f" to {to!r}" if to is not None else "")
            )
        if len(links) > 1:
            choices = ", ".join(link.target.node_id for link in links)
            raise NavigationError(
                f"{link_class_name!r} from {self.current_node.node_id!r} is "
                f"ambiguous; pick one of: {choices}"
            )
        return self.visit(links[0].target, None)

    def back(self) -> Position:
        """Go back in history (restores both node and context)."""
        return self._history.back()

    def forward(self) -> Position:
        """Go forward in history."""
        return self._history.forward()

    def _require_context(self, operation: str) -> NavigationalContext:
        context = self.current_context
        if context is None:
            raise NavigationError(
                f"{operation}() needs a current context; visit a node "
                "through a context first (the paper's point: movement "
                "depends on how you arrived)"
            )
        return context

    def trail(self) -> list[str]:
        """Human-readable history, oldest first."""
        return [position.describe() for position in self._history.trail()]


class BreadcrumbTrail:
    """A bounded, per-user trail of rendered pages (oldest first).

    Revisiting a page moves it to the end instead of duplicating it; the
    trail keeps at most *limit* entries, dropping the oldest.  Mutations
    are serialized on an internal lock: renders are lock-free and
    concurrent in the serving layer, so one session fetching pages in
    parallel must not lose trail entries to a read-rebuild-replace race.
    """

    def __init__(self, limit: int = 8):
        if limit < 1:
            raise ValueError("breadcrumb trail limit must be >= 1")
        self._limit = limit
        self._lock = threading.Lock()
        self._entries: list[tuple[str, str]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[tuple[str, str]]:
        """``(path, title)`` pairs, oldest first."""
        with self._lock:
            return list(self._entries)

    def paths(self) -> list[str]:
        return [path for path, _ in self.entries()]

    def record(self, path: str, title: str) -> list[tuple[str, str]]:
        """Atomically push ``(path, title)``; returns the *prior* crumbs.

        The returned entries exclude *path* itself — exactly the trail a
        page being rendered should display (where you were, not where you
        are).  One lock hold covers read-and-push, so two concurrent
        renders from the same session cannot overwrite each other.
        """
        with self._lock:
            crumbs = [e for e in self._entries if e[0] != path]
            self._entries = crumbs + [(path, title)]
            if len(self._entries) > self._limit:
                del self._entries[: len(self._entries) - self._limit]
            return crumbs

    def push(self, path: str, title: str) -> None:
        self.record(path, title)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def restore(self, entries: "Iterable[tuple[str, str]]") -> None:
        """Atomically replace the trail with *entries* (oldest first).

        The restore half of session portability: a
        :class:`SessionRecord`'s trail snapshot becomes this trail's
        exact state, so the next rendered page shows the same crumbs it
        would have on the worker the session left.  Entries beyond the
        trail's limit drop from the *old* end, matching what
        :meth:`record` would have converged to.
        """
        replacement = [(str(path), str(title)) for path, title in entries]
        if len(replacement) > self._limit:
            replacement = replacement[len(replacement) - self._limit :]
        with self._lock:
            self._entries = replacement


def breadcrumb_nav(crumbs: "list[tuple[str, str]]", path: str):
    """The trail ``<nav>`` for a page at *path*, given prior *crumbs*.

    ``None`` when there is nothing to show (first visit).  The DOM form:
    :class:`BreadcrumbAspect` appends it into the rendered tree.  The
    serving layer emits the same block as a string with
    :func:`breadcrumb_fragment`; a byte-parity property test pins the two
    together, with this builder as the reference.
    """
    if not crumbs:
        return None
    from repro.web import TRAIL_NAV_CLASS, anchor_list
    from repro.xmlcore import build

    directory = posixpath.dirname(path)
    anchors = [
        Anchor(
            label=title,
            href=posixpath.relpath(crumb_path, directory or "."),
            rel="breadcrumb",
        )
        for crumb_path, title in crumbs
    ]
    return build("nav", {"class": TRAIL_NAV_CLASS}, anchor_list(anchors))


@functools.lru_cache(maxsize=4096)
def _crumb_href(crumb_path: str, directory: str) -> str:
    """The escaped ``href`` of a crumb seen from a page in *directory*.

    Pure despite ``relpath`` reading the working directory: both
    arguments are site-relative, so the cwd cancels out.  Bounded, since
    a large site has as many keys as (page, directory) pairs.
    """
    return escape_attribute(posixpath.relpath(crumb_path, directory))


def breadcrumb_fragment(crumbs: "list[tuple[str, str]]", path: str) -> str:
    """The trail block for a page at *path* as markup (``""`` when empty).

    Byte for byte ``serialize(breadcrumb_nav(crumbs, path))``, written
    straight from the crumbs with the serializer's own escapes: this runs
    on every served page, and the DOM round trip cost more than the rest
    of a cache hit.  It is exactly the fragment
    :meth:`~repro.web.html.HtmlPage.skeleton_html` lifts out of a rendered
    page, so skeleton-plus-fragment assembly produces the same bytes
    whether the fragment came from a live render or from the session's
    trail.
    """
    if not crumbs:
        return ""
    directory = posixpath.dirname(path) or "."
    items = "".join(
        f'<li><a href="{_crumb_href(crumb_path, directory)}" '
        f'rel="breadcrumb">{escape_text(title)}</a></li>'
        for crumb_path, title in crumbs
    )
    return f'<nav class="{TRAIL_NAV_CLASS}"><ul>{items}</ul></nav>'


class BreadcrumbAspect(Aspect):
    """Weaves one user's breadcrumb trail into the pages they render.

    A *session* navigation concern: where :class:`NavigationAspect` is
    per-audience (what the site offers), the breadcrumb trail is per-user
    (where *you* have been).  This is the woven form, for in-process
    rendering; the HTTP front keeps the same trail as session data and
    splices :func:`breadcrumb_fragment` into the audience's page instead,
    which produces the same bytes without weaving anything per session.

    The trail block is a ``<nav class="breadcrumbs">`` appended after the
    page content (and after whatever audience navigation wrapped it),
    listing the *previously* visited pages with hrefs relativized to the
    rendered page's path.
    """

    def __init__(self, *, limit: int = 8, trail: BreadcrumbTrail | None = None):
        self.trail = trail if trail is not None else BreadcrumbTrail(limit)
        self._count_lock = threading.Lock()
        #: Join point observations, useful for tests and /-/stats.
        self.pages_advised: int = 0

    @around("execution(PageRenderer.render_node)")
    def trail_node(self, jp):
        return self._stamp(jp.proceed())

    @around("execution(PageRenderer.render_home)")
    def trail_home(self, jp):
        return self._stamp(jp.proceed())

    def _stamp(self, page):
        # Renders run lock-free and concurrent; the counter must not lose
        # increments to an interleaved read-modify-write.
        with self._count_lock:
            self.pages_advised += 1
        crumbs = self.trail.record(page.path, page.title or page.path)
        nav = breadcrumb_nav(crumbs, page.path)
        if nav is None:
            return page
        body = page.tree.find("body")
        if body is None:
            return page
        body.append(nav)
        return page


@dataclass(frozen=True)
class SessionRecord:
    """A serializable snapshot of one serving session — plain data only.

    The portable form of a session's state: its id, audience, breadcrumb
    trail and bookkeeping counters, with no object graph attached.  A
    worker snapshots its live sessions into records (on ``SIGTERM`` drain
    or via ``GET /-/sessions``), hands them across a process boundary as
    JSON, and the receiving worker restores each into a fresh
    :class:`~repro.navigation.serving.SessionTier` — the trail picks up
    byte-for-byte where it left off, which is what lets the cluster
    front rebalance sessions across workers and survive worker restarts.

    ``last_seen`` is the *snapshotting* process's clock
    (``time.monotonic``-based, so meaningless across processes); restore
    stamps the session with the restoring app's own clock and keeps this
    value purely informational.
    """

    sid: str
    audience: str
    #: ``(path, title)`` crumbs, oldest first — the trail's exact state.
    trail: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    #: Last-seen clock reading on the worker that snapshotted the session.
    last_seen: float = 0.0
    #: Pages served to the session before the snapshot (restored so the
    #: cluster's request totals survive a rebalance).
    requests: int = 0

    def __post_init__(self) -> None:
        if not self.sid:
            raise ValueError("session record needs a non-empty sid")
        if not self.audience:
            raise ValueError("session record needs a non-empty audience")
        normalized = tuple(
            (str(path), str(title)) for path, title in self.trail
        )
        object.__setattr__(self, "trail", normalized)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready mapping (lists for the trail pairs)."""
        return {
            "sid": self.sid,
            "audience": self.audience,
            "trail": [[path, title] for path, title in self.trail],
            "last_seen": self.last_seen,
            "requests": self.requests,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionRecord":
        """Rebuild a record from :meth:`to_dict`'s shape (validated)."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"session record must be a mapping, not {payload!r}")
        try:
            sid = payload["sid"]
            audience = payload["audience"]
        except KeyError as exc:
            raise ValueError(f"session record is missing {exc.args[0]!r}") from None
        trail_raw = payload.get("trail", [])
        if not isinstance(trail_raw, (list, tuple)):
            raise ValueError(f"session record trail must be a list: {trail_raw!r}")
        trail = []
        for entry in trail_raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(
                    f"trail entries are (path, title) pairs, not {entry!r}"
                )
            trail.append((str(entry[0]), str(entry[1])))
        return cls(
            sid=str(sid),
            audience=str(audience),
            trail=tuple(trail),
            last_seen=float(payload.get("last_seen", 0.0)),
            requests=int(payload.get("requests", 0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SessionRecord":
        return cls.from_dict(json.loads(text))
