"""Ergonomic tree construction.

The examples and the site builder create a lot of small documents; writing
them as nested :func:`build` calls keeps the shape of the markup visible in
the Python source:

    tree = build(
        "painting",
        {"id": "guitar"},
        build("title", {}, "Guitar"),
        build("year", {}, "1913"),
    )

:class:`ElementMaker` offers the attribute-access style used by lxml's
E-factory, bound to an optional namespace:

    E = ElementMaker(namespace=XLINK_NAMESPACE)
    E.locator({"href": "picasso.xml"})
"""

from __future__ import annotations

from .dom import Comment, Element, Node, ProcessingInstruction, Text, _check_orphan
from .names import QName


def build(
    name: str | QName,
    attributes: dict[str | QName, str] | None = None,
    *children: Node | str,
    namespaces: dict[str | None, str] | None = None,
) -> Element:
    """Create an element with attributes and children in one expression.

    When *namespaces* declares a default namespace, a plain string *name*
    is placed in it — matching what re-parsing the serialized form yields.
    """
    if (
        isinstance(name, str)
        and not name.startswith("{")
        and namespaces
        and namespaces.get(None)
    ):
        name = QName(namespaces[None], name)
    element = Element(name, attributes, namespaces=namespaces or {})
    # The element is fresh: it has no ancestors a child could be, so
    # adoption skips the cycle walk of ``append``.
    adopted = element._children
    for child in children:
        if isinstance(child, str):
            child = Text(child)
        else:
            _check_orphan(child)
        child.parent = element
        adopted.append(child)
    return element


def text(value: str) -> Text:
    """Create a text node."""
    return Text(value)


def comment(value: str) -> Comment:
    """Create a comment node."""
    return Comment(value)


def pi(target: str, data: str = "") -> ProcessingInstruction:
    """Create a processing instruction."""
    return ProcessingInstruction(target, data)


class ElementMaker:
    """Factory whose attribute access mints elements in a fixed namespace."""

    def __init__(self, namespace: str | None = None, prefix: str | None = None):
        self._namespace = namespace
        self._prefix = prefix

    def __call__(
        self,
        name: str,
        attributes: dict[str | QName, str] | None = None,
        *children: Node | str,
    ) -> Element:
        element = Element(QName(self._namespace, name), attributes, prefix=self._prefix)
        if self._namespace is not None:
            element.namespaces.setdefault(self._prefix, self._namespace)
        for child in children:
            element.append(Text(child) if isinstance(child, str) else child)
        return element

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)

        def make(
            attributes: dict[str | QName, str] | None = None, *children: Node | str
        ) -> Element:
            return self(name, attributes, *children)

        return make
