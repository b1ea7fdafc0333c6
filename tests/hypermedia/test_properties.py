"""Property-based tests for the instance store and navigational contexts."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import museum_fixture
from repro.hypermedia import (
    ConceptualSchema,
    GuidedTour,
    InstanceStore,
    NavigationalContext,
    NavigationError,
)

ids = st.text(string.ascii_lowercase, min_size=1, max_size=6)


def museum_like_schema() -> ConceptualSchema:
    schema = ConceptualSchema()
    schema.add_class("A", [("name", str)])
    schema.add_class("B", [("name", str)])
    schema.add_relationship("ab", "A", "B", inverse="ba")
    return schema


@st.composite
def stores(draw):
    schema = museum_like_schema()
    store = InstanceStore(schema)
    a_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    b_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    for a in a_ids:
        store.create("A", a)
    for b in b_ids:
        store.create("B", b)
    n_links = draw(st.integers(0, 12))
    for __ in range(n_links):
        a = draw(st.sampled_from(a_ids))
        b = draw(st.sampled_from(b_ids))
        store.relate(store.get("A", a), "ab", store.get("B", b))
    return store


@settings(max_examples=150, deadline=None)
@given(stores())
def test_inverse_relationship_is_symmetric(store):
    for a in store.all("A"):
        for b in store.related(a, "ab"):
            assert a in store.related(b, "ba")
    for b in store.all("B"):
        for a in store.related(b, "ba"):
            assert b in store.related(a, "ab")


@settings(max_examples=150, deadline=None)
@given(stores())
def test_related_yields_correct_classes_only(store):
    for a in store.all("A"):
        assert all(e.cls.name == "B" for e in store.related(a, "ab"))


@settings(max_examples=150, deadline=None)
@given(stores())
def test_relate_is_idempotent_under_repetition(store):
    for a in store.all("A"):
        targets_before = store.related(a, "ab")
        for b in targets_before:
            store.relate(a, "ab", b)  # repeat every existing link
        assert store.related(a, "ab") == targets_before


@settings(max_examples=150, deadline=None)
@given(stores())
def test_link_targets_are_unique_and_ordered(store):
    for a in store.all("A"):
        targets = store.related(a, "ab")
        assert len(targets) == len(set(targets))


# -- context membership: the position map against a linear scan -------------

_MUSEUM = museum_fixture()
_PAINTING_IDS = sorted(e.entity_id for e in _MUSEUM.store.all("Painting"))


def _fresh_node(painting_id):
    """A new Node object each call: equal members, never identical ones."""
    return _MUSEUM.painting_node(painting_id)


def _reference_members(members):
    unique = []
    for member in members:
        if all(member != kept for kept in unique):
            unique.append(member)
    return unique


def _reference_step(unique, node, step, circular):
    position = next((i for i, m in enumerate(unique) if m == node), None)
    if position is None:
        return "raises"
    target = position + step
    if 0 <= target < len(unique):
        return unique[target]
    return unique[target % len(unique)] if circular else None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(_PAINTING_IDS), max_size=12),
    st.sampled_from(_PAINTING_IDS),
    st.booleans(),
)
def test_context_membership_matches_a_linear_scan(member_ids, probe_id, circular):
    members = [_fresh_node(pid) for pid in member_ids]
    context = NavigationalContext(
        "generated", members, GuidedTour(name="generated", circular=circular)
    )
    unique = _reference_members(members)
    assert context.members == unique
    assert all(a is b for a, b in zip(context.members, unique))
    probe = _fresh_node(probe_id)
    assert (probe in context) == any(m == probe for m in unique)
    for step, method in ((1, context.next_after), (-1, context.previous_before)):
        expected = _reference_step(unique, probe, step, circular)
        if expected == "raises":
            with pytest.raises(NavigationError):
                method(probe)
        else:
            assert method(probe) == expected
    if probe in context:
        assert unique[context.position(probe)] == probe
    else:
        with pytest.raises(NavigationError):
            context.position(probe)
