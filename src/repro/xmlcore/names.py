"""XML names, qualified names and namespace constants.

Implements the practically relevant subset of *Namespaces in XML 1.0*: name
validity checks, prefix/local-part splitting, and the reserved ``xml`` /
``xmlns`` bindings.  Expanded names are modelled by :class:`QName`, an
immutable ``(namespace, local)`` pair that compares by value so it can key
dictionaries in the XLink and weaving layers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

#: Namespace URI permanently bound to the ``xml`` prefix.
XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"
#: Namespace URI permanently bound to the ``xmlns`` prefix.
XMLNS_NAMESPACE = "http://www.w3.org/2000/xmlns/"
#: The XLink namespace, used pervasively by :mod:`repro.xlink`.
XLINK_NAMESPACE = "http://www.w3.org/1999/xlink"

_NAME_START_EXTRA = "_"
_NAME_EXTRA = "_-.·"


def is_name_start_char(ch: str) -> bool:
    """Return True if *ch* may begin an XML name.

    We accept the ASCII productions plus any non-ASCII letter, which covers
    every document this library produces or consumes (the full Unicode
    ranges of the spec add only exotic combining blocks).
    """
    return ch.isalpha() or ch in _NAME_START_EXTRA or ord(ch) > 0x7F


def is_name_char(ch: str) -> bool:
    """Return True if *ch* may appear after the first character of a name."""
    return is_name_start_char(ch) or ch.isdigit() or ch in _NAME_EXTRA


def is_valid_name(name: str) -> bool:
    """Check the XML ``Name`` production (used for tag and attribute names).

    Colons are permitted here (the Name production allows them); NCName
    validity is the stricter check namespace processing applies.
    """
    if not name:
        return False
    if not (is_name_start_char(name[0]) or name[0] == ":"):
        return False
    return all(is_name_char(ch) or ch == ":" for ch in name[1:])


def is_valid_ncname(name: str) -> bool:
    """Check the ``NCName`` production: a Name with no colon."""
    return is_valid_name(name) and ":" not in name


def split_qname(name: str) -> tuple[str | None, str]:
    """Split ``prefix:local`` into ``(prefix, local)``; prefix is None if absent.

    Raises :class:`ValueError` for names that are not lexically valid QNames
    (empty parts or more than one colon), because silently accepting them
    would let malformed linkbases round-trip undetected.
    """
    if name.count(":") > 1:
        raise ValueError(f"not a valid QName (multiple colons): {name!r}")
    if ":" not in name:
        if not is_valid_ncname(name):
            raise ValueError(f"not a valid NCName: {name!r}")
        return None, name
    prefix, local = name.split(":")
    if not is_valid_ncname(prefix) or not is_valid_ncname(local):
        raise ValueError(f"not a valid QName: {name!r}")
    return prefix, local


@dataclass(frozen=True, slots=True)
class QName:
    """An expanded name: namespace URI (or None) plus local part.

    ``QName(None, "painting")`` is a name in no namespace;
    ``QName(XLINK_NAMESPACE, "href")`` is the familiar ``xlink:href``.
    """

    namespace: str | None
    local: str

    def __post_init__(self) -> None:
        if not is_valid_ncname(self.local):
            raise ValueError(f"invalid local name: {self.local!r}")
        if self.namespace is not None and not self.namespace:
            raise ValueError("namespace must be None or a non-empty URI")

    def clark(self) -> str:
        """Render in Clark notation, ``{uri}local``, the canonical text form."""
        if self.namespace is None:
            return self.local
        return f"{{{self.namespace}}}{self.local}"

    @classmethod
    def from_clark(cls, text: str) -> "QName":
        """Parse Clark notation produced by :meth:`clark`."""
        if text.startswith("{"):
            uri, _, local = text[1:].partition("}")
            if not uri or not local:
                raise ValueError(f"malformed Clark name: {text!r}")
            return cls(uri, local)
        return cls(None, text)

    def __str__(self) -> str:
        return self.clark()


def qname(name: str, namespace: str | None = None) -> QName:
    """Convenience constructor accepting either Clark notation or a local name."""
    if name.startswith("{"):
        return QName.from_clark(name)
    if namespace is None:
        return _local_qname(name)
    return QName(namespace, name)


@functools.lru_cache(maxsize=1024)
def _local_qname(name: str) -> QName:
    """The (frozen, shareable) no-namespace :class:`QName` for *name*.

    Every element and attribute built from a plain string name comes
    through here, so each name is validated once rather than on every
    ``build``.  An invalid name raises on every call: ``lru_cache`` never
    stores an exception.
    """
    return QName(None, name)
