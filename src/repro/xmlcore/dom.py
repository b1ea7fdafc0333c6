"""A small, namespace-aware document object model.

The DOM is the infoset shared by every layer above: the XLink processor
reads attributes off :class:`Element`, the XPointer evaluator walks child
lists, the stylesheet engine pattern-matches on names, and the site builder
diffs serialized trees.  It is deliberately plain — nodes are ordinary
mutable objects with parent pointers — because the paper's pipelines
(data + links + presentation → woven page) are tree transformations, not
streaming ones.
"""

from __future__ import annotations

from typing import Iterator

from .errors import XmlTreeError
from .names import XML_NAMESPACE, QName, is_valid_name, qname


class Node:
    """Base class of every tree participant.

    A node has at most one parent; the parent owns the child list.  All
    structural mutation goes through the parent element/document so the two
    sides of the relationship can never disagree.
    """

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Node | None = None

    # -- tree walking -------------------------------------------------

    def ancestors(self) -> Iterator["Node"]:
        """Yield parent, grandparent, ... up to and including the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """Return the outermost ancestor (self if detached)."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def document(self) -> "Document | None":
        """Return the owning :class:`Document`, or None if detached."""
        top = self.root()
        return top if isinstance(top, Document) else None

    def detach(self) -> "Node":
        """Remove this node from its parent and return it."""
        if self.parent is None:
            raise XmlTreeError("node has no parent to detach from")
        parent = self.parent
        assert isinstance(parent, _Container)
        parent._children.remove(self)
        self.parent = None
        return self


class _Container(Node):
    """Shared child-list behaviour of :class:`Document` and :class:`Element`."""

    __slots__ = ("_children",)

    def __init__(self) -> None:
        super().__init__()
        self._children: list[Node] = []

    @property
    def children(self) -> tuple[Node, ...]:
        """An immutable snapshot of the child list."""
        return tuple(self._children)

    def _check_insertable(self, node: Node) -> None:
        _check_orphan(node)
        if node is self or any(anc is node for anc in self.ancestors()):
            raise XmlTreeError("insertion would create a cycle")

    def append(self, node: Node) -> Node:
        """Append *node* as the last child and return it."""
        self._check_insertable(node)
        self._children.append(node)
        node.parent = self
        return node

    def insert(self, index: int, node: Node) -> Node:
        """Insert *node* at *index* in the child list and return it."""
        self._check_insertable(node)
        self._children.insert(index, node)
        node.parent = self
        return node

    def remove(self, node: Node) -> Node:
        """Remove the given child and return it."""
        if node.parent is not self:
            raise XmlTreeError("node is not a child of this container")
        return node.detach()

    def clear_children(self) -> None:
        """Detach all children."""
        for child in list(self._children):
            child.detach()

    # -- element-oriented traversal ------------------------------------

    def child_elements(self) -> list["Element"]:
        """The children that are elements, in document order."""
        return [c for c in self._children if isinstance(c, Element)]

    def iter(self, name: str | QName | None = None) -> Iterator["Element"]:
        """Yield descendant elements in document order, optionally filtered.

        *name* may be a local name (matches regardless of namespace), Clark
        notation, or a :class:`QName` (matches the expanded name exactly).
        """
        want = _as_matcher(name)
        # One child-list iterator per open level (``iter`` is the builtin
        # here): pre-order without a nested generator per element.
        stack = [iter(self._children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, Element):
                    if want(child):
                        yield child
                    stack.append(iter(child._children))
                    break
            else:
                stack.pop()

    def find(self, name: str | QName | None = None) -> "Element | None":
        """First matching descendant element, or None."""
        return next(self.iter(name), None)

    def findall(self, name: str | QName | None = None) -> list["Element"]:
        """All matching descendant elements in document order."""
        return list(self.iter(name))

    def text_content(self) -> str:
        """Concatenated character data of all descendant text/CDATA nodes."""
        parts: list[str] = []
        for child in self._children:
            if isinstance(child, Text):
                parts.append(child.value)
            elif isinstance(child, _Container):
                parts.append(child.text_content())
        return "".join(parts)


def _check_orphan(node: Node) -> None:
    """Refuse a document or an attached node as a new child."""
    if isinstance(node, Document):
        raise XmlTreeError("a document cannot be a child node")
    if node.parent is not None:
        raise XmlTreeError("node already has a parent; detach it first")


def _as_matcher(name: str | QName | None):
    if name is None:
        return lambda el: True
    if isinstance(name, str) and not name.startswith("{"):
        return lambda el: el.name.local == name
    want = qname(name) if isinstance(name, str) else name
    return lambda el: el.name == want


class Document(_Container):
    """The root container: one document element plus comments and PIs."""

    __slots__ = ("encoding", "standalone")

    def __init__(self, encoding: str = "UTF-8", standalone: bool | None = None):
        super().__init__()
        self.encoding = encoding
        self.standalone = standalone

    @property
    def root_element(self) -> "Element":
        """The single document element.

        Raises :class:`XmlTreeError` when the document is still empty,
        because downstream processors (XLink, stylesheets) cannot do
        anything useful with a rootless document.
        """
        for child in self._children:
            if isinstance(child, Element):
                return child
        raise XmlTreeError("document has no root element")

    def append(self, node: Node) -> Node:
        if isinstance(node, Element) and self.child_elements():
            raise XmlTreeError("document already has a root element")
        if isinstance(node, Text) and node.value.strip():
            raise XmlTreeError("character data is not allowed at document level")
        return super().append(node)

    def element_by_id(self, value: str) -> "Element | None":
        """Find the element whose ID attribute equals *value*.

        Without a DTD we treat ``xml:id`` and plain ``id`` as ID attributes,
        the same heuristic XPointer processors applied to DTD-less documents.
        """
        for el in self.iter():
            if el.get_id() == value:
                return el
        return None


class Element(_Container):
    """An element: expanded name, attributes, namespace declarations, children."""

    __slots__ = ("name", "prefix", "_attributes", "namespaces")

    def __init__(
        self,
        name: str | QName,
        attributes: dict[str | QName, str] | None = None,
        *,
        prefix: str | None = None,
        namespaces: dict[str | None, str] | None = None,
    ):
        super().__init__()
        self.name = qname(name) if isinstance(name, str) else name
        #: The prefix this element was written with (serialization fidelity).
        self.prefix = prefix
        #: Namespace declarations made *on this element* (prefix → URI;
        #: the None key is the default namespace).
        self.namespaces: dict[str | None, str] = dict(namespaces or {})
        self._attributes: dict[QName, str] = {}
        for key, value in (attributes or {}).items():
            self.set(key, value)

    # -- attributes -----------------------------------------------------

    @property
    def attributes(self) -> dict[QName, str]:
        """A copy of the attribute map (expanded name → value)."""
        return dict(self._attributes)

    def get(self, name: str | QName, default: str | None = None) -> str | None:
        """Attribute value by local name, Clark notation, or QName."""
        key = self._attr_key(name)
        if key is not None:
            return self._attributes[key]
        return default

    def set(self, name: str | QName, value: str) -> None:
        """Set an attribute; *name* as local name, Clark notation, or QName."""
        key = qname(name) if isinstance(name, str) else name
        self._attributes[key] = str(value)

    def delete(self, name: str | QName) -> None:
        """Remove an attribute if present."""
        key = self._attr_key(name)
        if key is not None:
            del self._attributes[key]

    def has(self, name: str | QName) -> bool:
        """True if the attribute exists."""
        return self._attr_key(name) is not None

    def _attr_key(self, name: str | QName) -> QName | None:
        if isinstance(name, QName):
            return name if name in self._attributes else None
        if name.startswith("{"):
            want = QName.from_clark(name)
            return want if want in self._attributes else None
        # Local-name lookup: prefer the no-namespace attribute, else any
        # namespace-qualified attribute with that local part.
        plain = QName(None, name) if is_valid_name(name) and ":" not in name else None
        if plain is not None and plain in self._attributes:
            return plain
        for key in self._attributes:
            if key.local == name:
                return key
        return None

    def get_id(self) -> str | None:
        """The element's ID under the xml:id / bare-id heuristic."""
        xml_id = self.get(QName(XML_NAMESPACE, "id"))
        if xml_id is not None:
            return xml_id
        return self.get(QName(None, "id"))

    # -- namespace scope --------------------------------------------------

    def namespace_for_prefix(self, prefix: str | None) -> str | None:
        """Resolve *prefix* against the in-scope declarations."""
        if prefix == "xml":
            return XML_NAMESPACE
        node: Node | None = self
        while node is not None:
            if isinstance(node, Element) and prefix in node.namespaces:
                # An empty value is the xmlns="" undeclaration: no namespace.
                return node.namespaces[prefix] or None
            node = node.parent
        return None

    def prefix_for_namespace(self, uri: str) -> str | None:
        """Find an in-scope prefix bound to *uri* (None = default namespace)."""
        if uri == XML_NAMESPACE:
            return "xml"
        node: Node | None = self
        seen: set[str | None] = set()
        while node is not None:
            if isinstance(node, Element):
                for pfx, bound in node.namespaces.items():
                    if pfx in seen:
                        continue
                    seen.add(pfx)
                    if bound == uri:
                        return pfx
            node = node.parent
        return None

    # -- convenience construction ------------------------------------------

    def subelement(
        self,
        name: str | QName,
        attributes: dict[str | QName, str] | None = None,
        text: str | None = None,
    ) -> "Element":
        """Create, append and return a child element (optionally with text)."""
        child = Element(name, attributes)
        self.append(child)
        if text is not None:
            child.append(Text(text))
        return child

    def add_text(self, value: str) -> "Text":
        """Append a text node and return it."""
        node = Text(value)
        self.append(node)
        return node

    def element_index(self) -> int:
        """1-based position of this element among its element siblings.

        This is the ordinal XPointer child sequences count by.
        """
        if self.parent is None or not isinstance(self.parent, _Container):
            return 1
        position = 0
        for sibling in self.parent._children:
            if isinstance(sibling, Element):
                position += 1
                if sibling is self:
                    return position
        raise XmlTreeError("element not found among parent's children")

    def __repr__(self) -> str:
        return (
            f"<Element {self.name.clark()} attrs={len(self._attributes)} "
            f"children={len(self._children)}>"
        )


class Text(Node):
    """Character data."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def __repr__(self) -> str:
        return f"<Text {self.value!r}>"


class CData(Text):
    """A CDATA section; behaves as text but serializes as ``<![CDATA[...]]>``."""

    __slots__ = ()


class Comment(Node):
    """An XML comment."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def __repr__(self) -> str:
        return f"<Comment {self.value!r}>"


class ProcessingInstruction(Node):
    """A processing instruction, e.g. ``<?xml-stylesheet ...?>``."""

    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str = ""):
        super().__init__()
        self.target = target
        self.data = data

    def __repr__(self) -> str:
        return f"<PI {self.target} {self.data!r}>"


def ensure_document(node: Document | Element) -> Document:
    """Wrap a bare element in a document (no-op for documents)."""
    if isinstance(node, Document):
        return node
    doc = Document()
    doc.append(node)
    return doc


def iter_tree(node: Node) -> Iterator[Node]:
    """Depth-first pre-order walk over *node* and all its descendants."""
    yield node
    if isinstance(node, _Container):
        for child in node.children:
            yield from iter_tree(child)


def deep_copy(node: Node) -> Node:
    """Structural copy of a node and its subtree (detached)."""
    if isinstance(node, Document):
        doc = Document(encoding=node.encoding, standalone=node.standalone)
        for child in node.children:
            doc.append(deep_copy(child))
        return doc
    if isinstance(node, Element):
        clone = Element(
            node.name,
            prefix=node.prefix,
            namespaces=dict(node.namespaces),
        )
        for key, value in node.attributes.items():
            clone.set(key, value)
        for child in node.children:
            clone.append(deep_copy(child))
        return clone
    if isinstance(node, CData):
        return CData(node.value)
    if isinstance(node, Text):
        return Text(node.value)
    if isinstance(node, Comment):
        return Comment(node.value)
    if isinstance(node, ProcessingInstruction):
        return ProcessingInstruction(node.target, node.data)
    raise XmlTreeError(f"cannot copy node of type {type(node).__name__}")
