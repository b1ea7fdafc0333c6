"""Serialize a DOM back to XML text.

The serializer is the other half of the round-trip property the test suite
leans on: ``parse(serialize(tree))`` must reproduce the same infoset.  It
re-emits recorded prefixes and namespace declarations when they are still
consistent, and synthesizes declarations (``ns0``, ``ns1``, ...) when a
programmatically built tree uses a namespace nobody declared.
"""

from __future__ import annotations

from .dom import (
    CData,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)
from .errors import XmlTreeError
from .names import XML_NAMESPACE, QName


def escape_text(value: str) -> str:
    """Escape character data (also protects the ``]]>`` pitfall)."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted serialization."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
    )


class Serializer:
    """Configurable writer; use :func:`serialize` for the common case."""

    def __init__(self, *, indent: str | None = None, xml_declaration: bool = False):
        self._indent = indent
        self._xml_declaration = xml_declaration

    def serialize(self, node: Node) -> str:
        parts: list[str] = []
        if isinstance(node, Document):
            if self._xml_declaration:
                decl = f'<?xml version="1.0" encoding="{node.encoding}"'
                if node.standalone is not None:
                    decl += f' standalone="{"yes" if node.standalone else "no"}"'
                parts.append(decl + "?>")
                if self._indent is not None:
                    parts.append("\n")
            for index, child in enumerate(node.children):
                self._write(child, parts, {"xml": XML_NAMESPACE}, 0)
                if self._indent is not None and index < len(node.children) - 1:
                    parts.append("\n")
        else:
            self._write(node, parts, {"xml": XML_NAMESPACE}, 0)
        return "".join(parts)

    # -- dispatch --------------------------------------------------------

    def _write(
        self,
        node: Node,
        parts: list[str],
        in_scope: dict[str | None, str],
        depth: int,
    ) -> None:
        if isinstance(node, Element):
            self._write_element(node, parts, in_scope, depth)
        elif isinstance(node, CData):
            if "]]>" in node.value:
                raise XmlTreeError("CDATA content may not contain ']]>'")
            parts.append(f"<![CDATA[{node.value}]]>")
        elif isinstance(node, Text):
            parts.append(escape_text(node.value))
        elif isinstance(node, Comment):
            if "--" in node.value:
                raise XmlTreeError("comment content may not contain '--'")
            parts.append(f"<!--{node.value}-->")
        elif isinstance(node, ProcessingInstruction):
            data = f" {node.data}" if node.data else ""
            parts.append(f"<?{node.target}{data}?>")
        else:
            raise XmlTreeError(f"cannot serialize node of type {type(node).__name__}")

    # -- elements ---------------------------------------------------------

    def _write_element(
        self,
        element: Element,
        parts: list[str],
        in_scope: dict[str | None, str],
        depth: int,
    ) -> None:
        attrs = None
        if (
            not element.namespaces
            and element.name.namespace is None
            and not in_scope.get(None)
        ):
            attrs = _plain_attributes(element)
        if attrs is None:
            tag, attrs, scope = self._qualify(element, in_scope)
        else:
            # Namespace-free markup outside any default namespace (inside
            # one, the tag needs xmlns=""): the general branch would
            # declare and prefix nothing, so the scope passes down as is.
            tag, scope = element.name.local, in_scope

        children = element.children
        pad = "" if self._indent is None else "\n" + self._indent * (depth + 1)
        closing_pad = "" if self._indent is None else "\n" + self._indent * depth

        if not children:
            parts.append(f"<{tag}{attrs}/>")
            return
        parts.append(f"<{tag}{attrs}>")
        # Mixed content (any non-whitespace text child) is never re-indented,
        # because inserting whitespace would change the text.
        mixed = any(
            isinstance(child, Text) and (child.value.strip() or len(children) == 1)
            for child in children
        )
        for child in children:
            if self._indent is not None and not mixed:
                if isinstance(child, Text) and not child.value.strip():
                    continue
                parts.append(pad)
            self._write(child, parts, scope, depth + 1)
        if self._indent is not None and not mixed:
            parts.append(closing_pad)
        parts.append(f"</{tag}>")

    def _qualify(
        self, element: Element, in_scope: dict[str | None, str]
    ) -> tuple[str, str, dict[str | None, str]]:
        """``(tag, attributes, scope)`` with every namespace resolved.

        The attribute text carries the declarations this element must
        make first; the scope is what its children see.
        """
        scope = dict(in_scope)
        declarations: dict[str | None, str] = {}
        for prefix, uri in element.namespaces.items():
            if scope.get(prefix) != uri:
                declarations[prefix] = uri
                scope[prefix] = uri

        def prefix_for(name: QName, *, is_attribute: bool) -> str | None:
            if name.namespace is None:
                return None
            if name.namespace == XML_NAMESPACE:
                return "xml"
            candidates = [p for p, u in scope.items() if u == name.namespace]
            if is_attribute:
                # Attributes cannot use the default namespace.
                candidates = [p for p in candidates if p is not None]
            if candidates:
                preferred = element.prefix if not is_attribute else None
                if preferred in candidates:
                    return preferred
                return sorted(candidates, key=lambda p: (p is None, p))[0]
            # Nothing in scope: synthesize a declaration.
            counter = 0
            while f"ns{counter}" in scope:
                counter += 1
            prefix = f"ns{counter}"
            declarations[prefix] = name.namespace
            scope[prefix] = name.namespace
            return prefix

        tag_prefix = prefix_for(element.name, is_attribute=False)
        tag = f"{tag_prefix}:{element.name.local}" if tag_prefix else element.name.local
        # An unprefixed tag in no namespace must not sit inside a default
        # namespace declaration, or re-parsing would change its meaning.
        if tag_prefix is None and element.name.namespace is None and scope.get(None):
            declarations[None] = ""
            scope[None] = ""

        # Resolve every attribute prefix *before* writing declarations, since
        # resolution may synthesize new declarations.
        written_attrs: list[tuple[str, str]] = []
        for name, value in element.attributes.items():
            attr_prefix = prefix_for(name, is_attribute=True)
            written = f"{attr_prefix}:{name.local}" if attr_prefix else name.local
            written_attrs.append((written, value))

        attr_parts: list[str] = []
        for prefix in sorted(declarations, key=lambda p: (p is not None, p or "")):
            uri = declarations[prefix]
            if prefix is None:
                attr_parts.append(f' xmlns="{escape_attribute(uri)}"')
            else:
                attr_parts.append(f' xmlns:{prefix}="{escape_attribute(uri)}"')
        for written, value in written_attrs:
            attr_parts.append(f' {written}="{escape_attribute(value)}"')
        return tag, "".join(attr_parts), scope


def _plain_attributes(element: Element) -> str | None:
    """The attribute text, or ``None`` if any attribute has a namespace."""
    written = []
    for name, value in element._attributes.items():
        if name.namespace is not None:
            return None
        written.append(f' {name.local}="{escape_attribute(value)}"')
    return "".join(written)


def serialize(
    node: Node, *, indent: str | None = None, xml_declaration: bool = False
) -> str:
    """Serialize a node (or document) to a string."""
    return Serializer(indent=indent, xml_declaration=xml_declaration).serialize(node)


def write_file(path: str, node: Node, *, indent: str | None = "  ") -> None:
    """Serialize *node* with an XML declaration into the file at *path*."""
    text = serialize(node, indent=indent, xml_declaration=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
