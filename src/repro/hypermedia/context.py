"""Navigational contexts: OOHDM's structuring of the navigation space.

A navigational context is "a set of nodes, links, context classes and
other navigational contexts ... that can be traversed following a
particular order".  It is what makes the paper's §2 museum example work:
*Guitar* reached through its **author** sits in the ``by-painter:picasso``
context, so *Next* is another Picasso; reached through its **movement**
it sits in ``by-movement:cubism`` and *Next* is another cubist work.

:class:`ContextFamily` generates one context per partition value
(per painter, per movement); :class:`NavigationalContext` is one ordered
member set with an access structure attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .access import AccessStructure, Anchor, Index
from .errors import NavigationError
from .instances import Entity, InstanceStore
from .nodes import Node, NodeClass


@dataclass
class NavigationalContext:
    """An ordered set of nodes traversable under one access structure.

    ``members`` is fixed after construction: duplicates are dropped (the
    first occurrence keeps its place) and membership and position are
    answered from a map built in the same pass, so mutating the list
    afterwards would leave the two disagreeing.
    """

    name: str
    members: list[Node]
    access_structure: AccessStructure

    def __post_init__(self) -> None:
        positions: dict[Node, int] = {}
        for member in self.members:
            positions.setdefault(member, len(positions))
        self._positions = positions
        self.members = list(positions)

    # -- membership and order ------------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node: Node) -> bool:
        return node in self._positions

    def position(self, node: Node) -> int:
        """0-based position of *node* in the context order."""
        try:
            return self._positions[node]
        except KeyError:
            raise NavigationError(f"{node!r} is not in context {self.name!r}") from None

    def next_after(self, node: Node) -> Node | None:
        """The member after *node*, or None at the end (non-circular)."""
        position = self.position(node)
        if position + 1 < len(self.members):
            return self.members[position + 1]
        if getattr(self.access_structure, "circular", False) and self.members:
            return self.members[0]
        return None

    def previous_before(self, node: Node) -> Node | None:
        """The member before *node*, or None at the start (non-circular)."""
        position = self.position(node)
        if position > 0:
            return self.members[position - 1]
        if getattr(self.access_structure, "circular", False) and self.members:
            return self.members[-1]
        return None

    # -- anchors --------------------------------------------------------------

    def anchors_on(self, node: Node) -> list[Anchor]:
        """Anchors the context's access structure puts on a member page."""
        return self.access_structure.anchors_on(node, self.members)

    def entry_anchors(self) -> list[Anchor]:
        """Anchors of the context's entry page (e.g. the index listing)."""
        return self.access_structure.entries(self.members)


@dataclass
class ContextFamily:
    """A parameterized set of contexts: one per partition value.

    ``partition`` maps the store to ``{value: [entities]}`` — e.g. all
    paintings grouped by painter.  ``order_key`` sorts each context's
    members; the default preserves partition order.
    """

    name: str
    node_class: NodeClass
    partition: Callable[[InstanceStore], dict[str, list[Entity]]]
    access_structure_factory: Callable[[str], AccessStructure] = field(
        default=lambda name: Index(name=name)
    )
    order_key: Callable[[Entity], object] | None = None

    def contexts(self, store: InstanceStore) -> dict[str, NavigationalContext]:
        """Build every context in the family from current instance data."""
        result: dict[str, NavigationalContext] = {}
        for value, entities in self.partition(store).items():
            if self.order_key is not None:
                entities = sorted(entities, key=self.order_key)
            members = [self.node_class.instantiate(e, store) for e in entities]
            context_name = f"{self.name}:{value}"
            result[context_name] = NavigationalContext(
                name=context_name,
                members=members,
                access_structure=self.access_structure_factory(context_name),
            )
        return result

    def context_for(
        self, store: InstanceStore, value: str
    ) -> NavigationalContext:
        """The single context for one partition value."""
        contexts = self.contexts(store)
        name = f"{self.name}:{value}"
        if name not in contexts:
            raise NavigationError(
                f"no context {name!r} (family {self.name!r} has: "
                f"{', '.join(sorted(contexts)) or 'none'})"
            )
        return contexts[name]


def group_by_relationship(
    node_source_class: str, relationship: str
) -> Callable[[InstanceStore], dict[str, list[Entity]]]:
    """Partition helper: group targets of *relationship* by source entity.

    ``group_by_relationship("Painter", "paints")`` yields
    ``{painter_id: [paintings...]}`` — the paper's by-author context family.
    """

    def partition(store: InstanceStore) -> dict[str, list[Entity]]:
        groups: dict[str, list[Entity]] = {}
        for source in store.all(node_source_class):
            targets = store.related(source, relationship)
            if targets:
                groups[source.entity_id] = targets
        return groups

    return partition


def group_by_attribute(
    class_name: str, attribute: str
) -> Callable[[InstanceStore], dict[str, list[Entity]]]:
    """Partition helper: group a class's entities by an attribute value."""

    def partition(store: InstanceStore) -> dict[str, list[Entity]]:
        groups: dict[str, list[Entity]] = {}
        for entity in store.all(class_name):
            value = entity.get(attribute)
            if value is not None:
                groups.setdefault(str(value), []).append(entity)
        return groups

    return partition
