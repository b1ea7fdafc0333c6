"""Tests for navigation sessions: the context-dependent semantics of §2."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import museum_fixture
from repro.navigation import (
    BreadcrumbTrail,
    NavigationError,
    NavigationSession,
    SessionRecord,
)
from repro.navigation.session import breadcrumb_fragment, breadcrumb_nav
from repro.xmlcore import serialize


@pytest.fixture()
def fixture():
    return museum_fixture()


@pytest.fixture()
def contexts(fixture):
    return fixture.contexts()


class TestVisiting:
    def test_visit_without_context(self, fixture):
        session = NavigationSession(fixture.nav)
        position = session.visit(fixture.painting_node("guitar"))
        assert position.context is None
        assert session.current_node.node_id == "guitar"

    def test_visit_with_context_requires_membership(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        with pytest.raises(NavigationError):
            session.visit(
                fixture.painting_node("memory"), contexts["by-painter:picasso"]
            )

    def test_enter_context_defaults_to_first_member(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.enter_context(contexts["by-painter:picasso"])
        assert session.current_node.node_id == "avignon"


class TestContextDependentMovement:
    def test_next_depends_on_arrival_context(self, fixture, contexts):
        """The museum story: Guitar's Next differs by how you arrived."""
        guitar = fixture.painting_node("guitar")

        via_author = NavigationSession(fixture.nav)
        via_author.visit(guitar, contexts["by-painter:picasso"])
        assert via_author.next().node.node_id == "guernica"

        via_movement = NavigationSession(fixture.nav)
        via_movement.visit(guitar, contexts["by-movement:cubism"])
        assert via_movement.next().node.node_id == "clarinet"

    def test_next_stays_in_context(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"), contexts["by-painter:picasso"])
        session.next()
        assert session.current_context.name == "by-painter:picasso"

    def test_previous(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"), contexts["by-painter:picasso"])
        assert session.previous().node.node_id == "avignon"

    def test_next_at_end_raises(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guernica"), contexts["by-painter:picasso"])
        with pytest.raises(NavigationError):
            session.next()

    def test_next_without_context_raises(self, fixture):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"))
        with pytest.raises(NavigationError) as info:
            session.next()
        assert "context" in str(info.value)


class TestFollowingLinks:
    def test_follow_unique_link(self, fixture):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"))
        position = session.follow("painted_by")
        assert position.node.node_id == "picasso"
        assert position.context is None  # leaving a context

    def test_follow_ambiguous_link_requires_choice(self, fixture):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painter_node("picasso"))
        with pytest.raises(NavigationError) as info:
            session.follow("paints")
        assert "guernica" in str(info.value)

    def test_follow_with_target_selection(self, fixture):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painter_node("picasso"))
        assert session.follow("paints", to="guitar").node.node_id == "guitar"

    def test_follow_missing_link_raises(self, fixture):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painter_node("picasso"))
        with pytest.raises(NavigationError):
            session.follow("paints", to="memory")  # Dali's, not Picasso's

    def test_follow_drops_context(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"), contexts["by-painter:picasso"])
        session.follow("painted_by")
        assert session.current_context is None

    def test_follow_without_schema_raises(self, fixture):
        session = NavigationSession()  # no schema
        session.visit(fixture.painting_node("guitar"))
        with pytest.raises(NavigationError):
            session.follow("painted_by")


class TestHistoryIntegration:
    def test_back_restores_node_and_context(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"), contexts["by-painter:picasso"])
        session.next()
        position = session.back()
        assert position.node.node_id == "guitar"
        assert position.context.name == "by-painter:picasso"
        # next() works again from the restored context.
        assert session.next().node.node_id == "guernica"

    def test_trail_describes_walk(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"), contexts["by-painter:picasso"])
        session.next()
        trail = session.trail()
        assert len(trail) == 2
        assert "guitar" in trail[0] and "by-painter:picasso" in trail[0]


class TestSessionRecord:
    """The portable snapshot: plain data, strict validation, JSON-stable."""

    def test_json_round_trip_is_exact(self):
        record = SessionRecord(
            sid="alice",
            audience="visitor",
            trail=(("a.html", "A"), ("b.html", "B")),
            last_seen=12.5,
            requests=3,
        )
        assert SessionRecord.from_json(record.to_json()) == record

    def test_trail_normalizes_to_string_pairs(self):
        record = SessionRecord(
            sid="s", audience="visitor", trail=[["a.html", "A"]]
        )
        assert record.trail == (("a.html", "A"),)

    def test_empty_identity_is_rejected(self):
        with pytest.raises(ValueError):
            SessionRecord(sid="", audience="visitor")
        with pytest.raises(ValueError):
            SessionRecord(sid="s", audience="")

    def test_from_dict_validates_shape(self):
        with pytest.raises(ValueError, match="mapping"):
            SessionRecord.from_dict(["not", "a", "mapping"])
        with pytest.raises(ValueError, match="audience"):
            SessionRecord.from_dict({"sid": "s"})
        with pytest.raises(ValueError, match="pairs"):
            SessionRecord.from_dict(
                {"sid": "s", "audience": "visitor", "trail": [["lonely"]]}
            )

    def test_bookkeeping_defaults_are_optional_in_payloads(self):
        record = SessionRecord.from_dict({"sid": "s", "audience": "visitor"})
        assert record.trail == ()
        assert record.last_seen == 0.0
        assert record.requests == 0


class TestTrailRestore:
    def test_restore_replaces_the_trail_exactly(self):
        trail = BreadcrumbTrail(8)
        trail.push("old.html", "Old")
        trail.restore([("a.html", "A"), ("b.html", "B")])
        assert trail.entries() == [("a.html", "A"), ("b.html", "B")]

    def test_restore_truncates_from_the_old_end(self):
        trail = BreadcrumbTrail(2)
        trail.restore([("a", "A"), ("b", "B"), ("c", "C")])
        # Same convergence record() would reach: the oldest entries drop.
        assert trail.paths() == ["b", "c"]

    def test_round_trip_through_a_record_is_lossless(self):
        source = BreadcrumbTrail(8)
        for path in ("a", "b", "c"):
            source.push(path, path.upper())
        record = SessionRecord(
            sid="s", audience="visitor", trail=tuple(source.entries())
        )
        target = BreadcrumbTrail(8)
        target.restore(SessionRecord.from_json(record.to_json()).trail)
        assert target.entries() == source.entries()


# Segment names include the characters an href attribute must escape.
_names = st.sampled_from(["a", "rooms", "PaintingNode", "x&y", 'q"t', "<b>", "é"])
# A "name/.." pair cancels itself, so paths carry ``..`` segments without
# ever climbing out of the site root (site paths never do).
_segments = st.one_of(_names, _names.map(lambda name: f"{name}/.."))
_site_paths = st.builds(
    lambda dirs, leaf: "/".join([*dirs, f"{leaf}.html"]),
    st.lists(_segments, max_size=3),
    _names,
)
_titles = st.one_of(
    st.text(max_size=12),
    st.text(alphabet=list("<>&\"'\t\n\r é漢🙂"), max_size=12),
)


class TestBreadcrumbFragment:
    """The serving fragment is the DOM trail block, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(
        crumbs=st.lists(st.tuples(_site_paths, _titles), min_size=1, max_size=8),
        path=_site_paths,
    )
    def test_matches_the_serialized_dom_form(self, crumbs, path):
        assert breadcrumb_fragment(crumbs, path) == serialize(
            breadcrumb_nav(crumbs, path)
        )

    def test_covers_root_same_directory_and_empty_title_shapes(self):
        crumbs = [
            ("index.html", ""),
            ("rooms/r1.html", "Room <1>"),
            ("rooms/deep/r2.html", "R & 2"),
        ]
        for path in ("index.html", "rooms/r3.html", "rooms/deep/x/../r4.html"):
            assert breadcrumb_fragment(crumbs, path) == serialize(
                breadcrumb_nav(crumbs, path)
            )
        fragment = breadcrumb_fragment(crumbs, "rooms/r3.html")
        assert '<a href="../index.html" rel="breadcrumb"></a>' in fragment
        assert '<a href="r1.html" rel="breadcrumb">Room &lt;1&gt;</a>' in fragment

    @given(path=_site_paths)
    def test_no_crumbs_is_no_fragment(self, path):
        assert breadcrumb_nav([], path) is None
        assert breadcrumb_fragment([], path) == ""
