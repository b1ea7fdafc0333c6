"""The HTTP serving front and its sessions.

Covers the acceptance bar for serving: routing over
:class:`NavigationApp` (audiences, pages, management endpoints), cookie /
header session identity, sessions as plain data (one instance scope per
audience, nothing woven per session), idle-timeout eviction in last-seen
order, live ``reconfigure`` through the management surface, and — the
concurrency suite — N threads with one session each interleaved with a
mid-flight reconfigure, asserting per-session breadcrumb isolation.
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.aop import codegen
from repro.baselines import museum_fixture
from repro.core import PageRenderer
from repro.navigation import (
    AudienceBundle,
    AudienceServer,
    BreadcrumbTrail,
    NavigationApp,
    NavigationError,
    ServingConfig,
    SessionRecord,
)
from repro.navigation.http import SESSION_COOKIE, make_wsgi_server

VISITOR_CURATOR = [
    AudienceBundle("visitor", ("index", "guided-tour")),
    AudienceBundle("curator", ("index",)),
]

GUITAR = "PaintingNode/guitar.html"


@pytest.fixture()
def fixture():
    return museum_fixture()


@pytest.fixture()
def served(fixture):
    with AudienceServer(fixture, VISITOR_CURATOR) as server:
        app = NavigationApp(server)
        try:
            yield server, app
        finally:
            app.close()


def call(
    app, path, *, method="GET", sid=None, cookie=None, body=None, bypass=False
):
    """Drive the WSGI callable directly; returns (status, headers, text)."""
    payload = body.encode() if isinstance(body, str) else (body or b"")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": str(len(payload)),
        "wsgi.input": io.BytesIO(payload),
    }
    if sid is not None:
        environ["HTTP_X_REPRO_SESSION"] = sid
    if cookie is not None:
        environ["HTTP_COOKIE"] = cookie
    if bypass:
        environ["HTTP_X_REPRO_CACHE"] = "bypass"
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = headers

    chunks = app(environ, start_response)
    text = b"".join(chunks).decode("utf-8")
    return int(captured["status"].split()[0]), dict(captured["headers"]), text


class TestRouting:
    def test_front_door_lists_audiences(self, served):
        _, app = served
        status, headers, text = call(app, "/")
        assert status == 200
        assert "/visitor/index.html" in text and "/curator/index.html" in text
        assert headers["Content-Type"].startswith("text/html")

    def test_audiences_render_their_own_stacks(self, served):
        _, app = served
        status, _, visitor = call(app, f"/visitor/{GUITAR}", sid="a")
        assert status == 200 and 'rel="next"' in visitor
        status, _, curator = call(app, f"/curator/{GUITAR}", sid="b")
        assert status == 200 and 'rel="next"' not in curator

    def test_bare_and_rooted_audience_paths_serve_home(self, served):
        _, app = served
        for path in ("/visitor", "/visitor/", "/visitor/index.html"):
            status, _, text = call(app, path, sid="a")
            assert status == 200 and "<title>The Museum</title>" in text

    def test_percent_encoded_page_paths_resolve(self, served):
        _, app = served
        status, _, text = call(app, "/visitor/PaintingNode%2Fguitar.html", sid="a")
        assert status == 200 and "Guitar" in text

    def test_unknown_audience_and_page_404(self, served):
        _, app = served
        assert call(app, "/stranger/index.html")[0] == 404
        assert call(app, "/visitor/ghost.html", sid="a")[0] == 404
        assert call(app, "/-/ghost")[0] == 404

    def test_wrong_methods_get_405_with_allow(self, served):
        _, app = served
        status, headers, _ = call(app, "/visitor/index.html", method="POST", sid="a")
        assert status == 405 and headers["Allow"] == "GET"
        assert call(app, "/-/stats", method="POST")[0] == 405
        status, headers, _ = call(app, "/-/reconfigure/visitor", method="GET")
        assert status == 405 and headers["Allow"] == "POST"

    def test_unknown_audience_404s_before_method_check(self, served):
        """405 asserts the resource exists; a missing audience never does."""
        _, app = served
        assert call(app, "/stranger/index.html", method="POST")[0] == 404
        assert call(app, "/stranger/index.html", method="DELETE")[0] == 404


class TestSessions:
    def test_cookie_minted_once_and_honoured(self, served):
        _, app = served
        status, headers, _ = call(app, "/visitor/index.html")
        assert status == 200
        cookie = headers["Set-Cookie"]
        assert cookie.startswith(f"{SESSION_COOKIE}=")
        sid = cookie.split(";")[0].split("=", 1)[1]
        status, headers, _ = call(
            app, f"/visitor/{GUITAR}", cookie=f"{SESSION_COOKIE}={sid}"
        )
        assert status == 200 and "Set-Cookie" not in headers
        assert len(app.sessions()) == 1

    def test_sessions_get_private_breadcrumb_trails(self, served):
        _, app = served
        call(app, "/visitor/index.html", sid="alice")
        _, _, alice = call(app, f"/visitor/{GUITAR}", sid="alice")
        _, _, bob = call(app, f"/visitor/{GUITAR}", sid="bob")
        assert "breadcrumbs" in alice  # alice was at home first
        assert "breadcrumbs" not in bob  # bob's first page has no trail
        # The audience's shared renderer never carries anyone's trail.
        server, _ = served
        base = server.renderer("visitor")
        node = server.fixture.painting_node("guitar")
        assert "breadcrumbs" not in base.render_node(node).html()

    def test_one_cookie_spans_audiences_with_separate_scopes(self, served):
        _, app = served
        call(app, "/visitor/index.html", sid="alice")
        call(app, "/curator/index.html", sid="alice")
        sessions = app.sessions()
        assert {s.audience for s in sessions} == {"visitor", "curator"}
        assert len({id(s.trail) for s in sessions}) == 2

    def test_sessions_weave_nothing(self, served):
        server, app = served
        before = server.runtime.stats()
        for sid in ("alice", "bob", "carol"):
            call(app, "/visitor/index.html", sid=sid, bypass=True)
        after = server.runtime.stats()
        # One scope per audience holding its one renderer, whatever the
        # number of sessions; no deployment or join point pool added.
        assert len(server.scope("visitor")) == 1
        assert after["scopes"] == {"count": len(VISITOR_CURATOR), "instances": 2}
        for key in ("deployments", "woven_sites", "weave_epoch"):
            assert after[key] == before[key]
        assert after["pools"]["count"] == before["pools"]["count"]


class TestSessionCosts:
    def test_404s_do_not_open_sessions(self, served):
        """A request that will 404 must not open a session."""
        _, app = served
        assert call(app, "/visitor/ghost.html", sid="nobody")[0] == 404
        assert call(app, "/visitor/rooms%2Fnope.html")[0] == 404
        assert app.sessions() == []

    def test_session_cap_refuses_with_503(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server, ServingConfig(max_sessions=2))
            assert call(app, "/visitor/index.html", sid="a")[0] == 200
            assert call(app, "/visitor/index.html", sid="b")[0] == 200
            status, _, text = call(app, "/visitor/index.html", sid="c")
            assert status == 503 and "cap" in text
            # Existing sessions keep being served at the cap.
            assert call(app, "/visitor/index.html", sid="a")[0] == 200
            assert len(app.sessions()) == 2
            app.close()

    def test_thousands_of_sessions_leave_every_render_path_intact(self, served):
        """Past the old ~1000-session ``RecursionError`` ceiling."""
        server, app = served
        deployments = len(server.runtime.deployments)
        for n in range(1500):
            assert call(app, "/visitor/index.html", sid=f"s{n}")[0] == 200
        status, headers, text = call(app, f"/visitor/{GUITAR}", sid="s7", bypass=True)
        assert status == 200 and headers["X-Repro-Cache"] == "bypass"
        assert 'rel="breadcrumb"' in text and 'rel="next"' in text
        assert len(app.sessions()) == 1500
        assert len(server.runtime.deployments) == deployments

    def test_cap_admits_again_after_idle_eviction(self, fixture):
        clock = [0.0]
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(
                server,
                ServingConfig(max_sessions=1, session_idle_timeout=100.0),
                clock=lambda: clock[0],
            )
            assert call(app, "/visitor/index.html", sid="a")[0] == 200
            assert call(app, "/visitor/index.html", sid="b")[0] == 503
            clock[0] = 200.0  # a went idle; b takes the slot
            assert call(app, "/visitor/index.html", sid="b")[0] == 200
            app.close()


class TestEviction:
    def test_idle_sessions_are_evicted_and_marker_state_released(self, fixture):
        clock = [0.0]

        def markers():
            return {name for name in vars(PageRenderer) if "_aop_scope_" in name}

        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(
                server,
                ServingConfig(session_idle_timeout=100.0),
                clock=lambda: clock[0],
            )
            audience_markers = markers()
            call(app, f"/visitor/{GUITAR}", sid="alice")
            clock[0] = 60.0
            call(app, f"/visitor/{GUITAR}", sid="bob")
            # A session stamps no marker state of its own.
            assert markers() == audience_markers
            clock[0] = 101.0
            assert app.evict_idle() == 1
            assert [s.sid for s in app.sessions()] == ["bob"]
            clock[0] = 161.0
            assert app.evict_idle() == 1
            assert app.sessions() == []
            assert markers() == audience_markers
            assert len(server.scope("visitor")) == 1
            app.close()

    def test_eviction_follows_last_seen_order(self, fixture):
        clock = [0.0]
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(
                server,
                ServingConfig(session_idle_timeout=10.0),
                clock=lambda: clock[0],
            )
            for t, sid in enumerate(("a", "b", "c")):
                clock[0] = float(t)
                call(app, "/visitor/index.html", sid=sid)
            clock[0] = 5.0
            call(app, "/visitor/index.html", sid="a")  # a is young again
            clock[0] = 12.5
            assert app.evict_idle() == 2  # b (seen at 1) and c (at 2)
            assert [s.sid for s in app.sessions()] == ["a"]
            app.close()

    def test_requests_evict_opportunistically_and_reopen_fresh(self, fixture):
        clock = [0.0]
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(
                server,
                ServingConfig(session_idle_timeout=100.0),
                clock=lambda: clock[0],
            )
            call(app, "/visitor/index.html", sid="alice")
            call(app, f"/visitor/{GUITAR}", sid="alice")
            clock[0] = 500.0
            # Alice comes back long after the timeout: her old scope was
            # evicted in passing and the new session starts trail-less.
            _, _, text = call(app, f"/visitor/{GUITAR}", sid="alice")
            assert "breadcrumbs" not in text
            stats = app.stats()
            assert stats["sessions"]["evicted_total"] == 1
            assert stats["sessions"]["active"] == 1
            # The served-request total is monotonic across evictions: two
            # requests from the evicted session plus one from the fresh one.
            assert stats["sessions"]["requests"] == 3
            app.close()


class TestManagementSurface:
    def test_stats_reports_scopes_sessions_and_pools(self, served):
        _, app = served
        call(app, f"/visitor/{GUITAR}", sid="alice")
        status, headers, text = call(app, "/-/stats")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        stats = json.loads(text)
        assert stats["audiences"]["visitor"]["access_structures"] == [
            "index",
            "guided-tour",
        ]
        assert stats["audiences"]["visitor"]["scope_instances"] == 1
        assert stats["sessions"]["active"] == 1
        assert stats["sessions"]["by_audience"] == {"visitor": 1}
        runtime = stats["runtime"]
        assert runtime["instance_scoped"] == runtime["deployments"]
        # Pool counters ride the generated wrappers; the generic tier
        # reports the aggregate keys with no per-shadow pools behind them.
        if codegen.codegen_enabled():
            assert runtime["pools"]["count"] >= 1
        else:
            assert runtime["pools"]["count"] >= 0
        assert runtime["scopes"] == {"count": 2, "instances": 2}

    def test_reconfigure_changes_only_the_target_audience(self, served):
        _, app = served
        call(app, "/visitor/index.html", sid="alice")
        status, _, text = call(
            app, "/-/reconfigure/curator", method="POST", body="indexed-guided-tour"
        )
        assert status == 200
        assert json.loads(text)["access_structures"] == ["indexed-guided-tour"]
        _, _, curator = call(app, f"/curator/{GUITAR}", sid="bob")
        assert 'rel="next"' in curator
        # Visitor stack — and alice's live trail — are untouched.
        _, _, visitor = call(app, f"/visitor/{GUITAR}", sid="alice")
        assert 'rel="next"' in visitor and "breadcrumbs" in visitor

    def test_reconfigure_keeps_session_trails_above_audience_nav(self, served):
        """Live sessions keep the documented stacking across reconfigures.

        Session aspects deploy above the audience tier, so the breadcrumb
        block renders *after* the audience's navigation.  A reconfigure of
        the session's own audience re-weaves both tiers; the order must
        not invert for existing sessions (nor differ from fresh ones).
        """
        _, app = served
        call(app, "/visitor/index.html", sid="alice")

        def block_order(html):
            return html.index("<nav>") < html.index('<nav class="breadcrumbs"')

        _, _, before = call(app, f"/visitor/{GUITAR}", sid="alice")
        assert block_order(before)
        call(
            app,
            "/-/reconfigure/visitor",
            method="POST",
            body="index,guided-tour",
        )
        _, _, after = call(app, f"/visitor/{GUITAR}", sid="alice")
        assert block_order(after), "reconfigure moved the trail above the nav"
        # A session opened after the reconfigure renders the same order.
        call(app, "/visitor/index.html", sid="carol")
        _, _, fresh = call(app, f"/visitor/{GUITAR}", sid="carol")
        assert block_order(fresh)

    def test_reconfigure_restacks_only_the_target_audiences_sessions(
        self, served, monkeypatch
    ):
        """A reconfigure weaves the new stack and nothing per session.

        Sessions hold no weave state, so the target audience's sessions
        see the new stack through the shared renderer and the work does
        not grow with the number of live sessions.
        """
        server, app = served
        for n in range(20):
            call(app, "/visitor/index.html", sid=f"v{n}")
            call(app, "/curator/index.html", sid=f"c{n}")
        _, _, visitor_before = call(app, f"/visitor/{GUITAR}", sid="v0")
        added = []
        real_add = server._tx.add

        def counting_add(aspect, *args, **kwargs):
            added.append(type(aspect).__name__)
            return real_add(aspect, *args, **kwargs)

        monkeypatch.setattr(server._tx, "add", counting_add)
        server.reconfigure("curator", ("indexed-guided-tour",))
        assert added == ["NavigationAspect"]
        _, _, curator = call(app, f"/curator/{GUITAR}", sid="c0")
        assert 'rel="next"' in curator
        call(app, "/visitor/index.html", sid="v0")
        _, _, visitor_after = call(app, f"/visitor/{GUITAR}", sid="v0")
        assert visitor_after == visitor_before

    def test_reconfigure_accepts_json_bodies(self, served):
        _, app = served
        status, _, _ = call(
            app,
            "/-/reconfigure/curator",
            method="POST",
            body=json.dumps({"access_structures": ["guided-tour"]}),
        )
        assert status == 200
        _, _, curator = call(app, f"/curator/{GUITAR}", sid="bob")
        assert 'rel="next"' in curator

    def test_bad_reconfigure_requests_leave_the_stack_intact(self, served):
        server, app = served
        assert call(app, "/-/reconfigure/stranger", method="POST", body="index")[
            0
        ] == 404
        assert call(app, "/-/reconfigure/curator", method="POST", body="")[0] == 400
        status, _, _ = call(
            app, "/-/reconfigure/curator", method="POST", body="no-such-structure"
        )
        assert status == 400
        assert server.bundle("curator").access_structures == ("index",)
        assert call(app, f"/curator/{GUITAR}", sid="bob")[0] == 200


class TestSessionScopeConcurrency:
    """The satellite suite: N session threads, a reconfigure mid-flight."""

    def test_threaded_sessions_stay_isolated_across_reconfigure(self, fixture):
        paintings = [
            "PaintingNode/guitar.html",
            "PaintingNode/guernica.html",
            "PaintingNode/violin.html",
            "PaintingNode/memory.html",
            "PaintingNode/elephants.html",
            "PaintingNode/harlequin.html",
        ]
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server)
            errors: list[BaseException] = []
            start = threading.Barrier(len(paintings) + 1)

            def browse(index: int, own_page: str) -> None:
                sid = f"user{index}"
                audience = "visitor" if index % 2 == 0 else "curator"
                try:
                    start.wait()
                    for _ in range(25):
                        status, _, _ = call(app, f"/{audience}/index.html", sid=sid)
                        assert status == 200
                        status, _, _ = call(app, f"/{audience}/{own_page}", sid=sid)
                        assert status == 200
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=browse, args=(i, page))
                for i, page in enumerate(paintings)
            ]
            for thread in threads:
                thread.start()
            start.wait()
            # Mid-flight: swap the curator stack while every session is
            # hammering its audience.
            call(
                app,
                "/-/reconfigure/curator",
                method="POST",
                body="indexed-guided-tour",
            )
            for thread in threads:
                thread.join()
            assert errors == []

            # Per-session breadcrumb isolation: each trail only ever saw
            # its own session's pages — never another session's painting.
            sessions = {s.sid: s for s in app.sessions()}
            assert len(sessions) == len(paintings)
            for i, own_page in enumerate(paintings):
                trail = sessions[f"user{i}"].trail.paths()
                others = set(paintings) - {own_page}
                assert not (set(trail) & others), (i, trail)
                assert set(trail) <= {"index.html", own_page}

            # Quiesced: the reconfigure took effect for curator sessions
            # without touching visitor ones.
            _, _, curator = call(app, "/curator/PaintingNode/guitar.html", sid="user1")
            assert 'rel="next"' in curator
            _, _, visitor = call(app, "/visitor/PaintingNode/guitar.html", sid="user0")
            assert 'rel="next"' in visitor and "breadcrumbs" in visitor

            # Evict everyone: the weave is exactly the audiences' stacks.
            app.close()
            assert app.sessions() == []
            assert len(server.runtime.deployments) == 3
            assert len(server.scope("visitor")) == 1
            assert len(server.scope("curator")) == 1
        assert not hasattr(PageRenderer.render_node, "__woven__")


class TestOverRealSockets:
    def test_threaded_wsgi_server_serves_concurrent_sessions(self, fixture):
        with AudienceServer(fixture, VISITOR_CURATOR) as server:
            app = NavigationApp(server)
            httpd = make_wsgi_server(app)
            port = httpd.server_address[1]
            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            base = f"http://127.0.0.1:{port}"

            def get(path, sid):
                request = urllib.request.Request(base + path)
                request.add_header("X-Repro-Session", sid)
                with urllib.request.urlopen(request) as response:
                    return response.status, response.read().decode("utf-8")

            try:
                status, visitor = get(f"/visitor/{GUITAR}", "alice")
                assert status == 200 and 'rel="next"' in visitor
                status, curator = get(f"/curator/{GUITAR}", "bob")
                assert status == 200 and 'rel="next"' not in curator
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    get("/visitor/ghost.html", "alice")
                assert excinfo.value.code == 404
                excinfo.value.close()  # the error still holds the open response
            finally:
                httpd.shutdown()
                httpd.server_close()
                app.close()
        assert not hasattr(PageRenderer.render_node, "__woven__")


class TestBreadcrumbTrail:
    def test_trail_bounds_and_deduplicates(self):
        trail = BreadcrumbTrail(3)
        for path in ("a", "b", "c", "b", "d"):
            trail.push(path, path.upper())
        # "b" moved to the end on revisit; the bound evicted "a".
        assert trail.paths() == ["c", "b", "d"]
        assert trail.entries()[-1] == ("d", "D")
        trail.clear()
        assert len(trail) == 0

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            BreadcrumbTrail(0)

    def test_record_returns_prior_crumbs_atomically(self):
        trail = BreadcrumbTrail(4)
        assert trail.record("a", "A") == []
        assert trail.record("b", "B") == [("a", "A")]
        # Revisiting excludes the page itself from its own crumbs.
        assert trail.record("a", "A") == [("b", "B")]
        assert trail.paths() == ["b", "a"]

    def test_concurrent_records_lose_no_entries(self):
        trail = BreadcrumbTrail(64)
        start = threading.Barrier(4)

        def hammer(prefix):
            start.wait()
            for n in range(8):
                trail.record(f"{prefix}{n}", prefix)

        threads = [
            threading.Thread(target=hammer, args=(p,)) for p in "wxyz"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every distinct page survived the interleaving.
        assert len(trail) == 32


WALK = ["index.html", f"{GUITAR}", "PaintingNode/guernica.html"]


def fresh_app(fixture, config=None):
    """A second live stack, as another worker process would build it."""
    server = AudienceServer(fixture, VISITOR_CURATOR, config=config)
    return server, NavigationApp(server)


class TestSessionPortability:
    """SessionRecord round-trips: snapshot on one app, restore on another.

    The cluster acceptance bar in miniature: a session moved across
    workers must render its next page byte-for-byte as it would have on
    the worker it left — including after the receiving worker
    reconfigured the audience's stack.
    """

    def walk(self, app, sid):
        for page in WALK:
            assert call(app, f"/visitor/{page}", sid=sid)[0] == 200

    def test_snapshot_captures_live_trails(self, served):
        _, app = served
        self.walk(app, "alice")
        (record,) = app.snapshot_sessions()
        assert record.sid == "alice" and record.audience == "visitor"
        assert record.requests == len(WALK)
        assert [path for path, _ in record.trail] == [
            "index.html",
            "PaintingNode/guitar.html",
            "PaintingNode/guernica.html",
        ]

    def test_restored_session_renders_byte_identical_pages(self, served, fixture):
        server_a, app_a = served
        self.walk(app_a, "alice")
        (record,) = app_a.snapshot_sessions()
        server_b, app_b = fresh_app(fixture)
        try:
            # Ship the record as JSON, exactly as the cluster front does.
            app_b.restore_session(
                type(record).from_json(record.to_json())
            )
            status_a, _, page_a = call(
                app_a, "/visitor/PaintingNode/harlequin.html", sid="alice"
            )
            status_b, _, page_b = call(
                app_b, "/visitor/PaintingNode/harlequin.html", sid="alice"
            )
            assert status_a == status_b == 200
            assert page_a == page_b
            assert 'class="breadcrumbs"' in page_b
        finally:
            app_b.close()
            server_b.close()

    def test_restore_after_reconfigure_matches_native_sessions(
        self, served, fixture
    ):
        """Restoring into a re-woven stack keeps the trail byte-for-byte.

        The receiving worker may have reconfigured the audience since the
        snapshot was taken; the restored session must render exactly like
        a session that had walked the same pages natively on that worker.
        """
        _, app_a = served
        self.walk(app_a, "alice")
        (record,) = app_a.snapshot_sessions()
        server_b, app_b = fresh_app(fixture)
        try:
            server_b.reconfigure("visitor", ("indexed-guided-tour",))
            app_b.restore_session(record)
            self.walk(app_b, "native")
            _, _, restored = call(
                app_b, "/visitor/PaintingNode/harlequin.html", sid="alice"
            )
            _, _, native = call(
                app_b, "/visitor/PaintingNode/harlequin.html", sid="native"
            )
            assert restored == native
            assert 'class="breadcrumbs"' in restored
        finally:
            app_b.close()
            server_b.close()

    def test_restore_into_a_live_session_replaces_its_trail(self, served):
        _, app = served
        self.walk(app, "alice")
        (record,) = app.snapshot_sessions()
        # Alice keeps browsing; a (stale) restore rewinds her trail.
        call(app, "/visitor/PaintingNode/memory.html", sid="alice")
        app.restore_session(record)
        (after,) = app.snapshot_sessions()
        assert after.trail == record.trail
        assert len(app.sessions()) == 1

    def test_restore_validates_audience_and_capacity(self, served, fixture):
        from repro.navigation.http import SessionCapacityError

        _, app = served
        with pytest.raises(NavigationError):
            app.restore_session(
                SessionRecord(sid="ghost", audience="stranger")
            )
        server_b, app_b = fresh_app(
            fixture, config=ServingConfig(max_sessions=1)
        )
        try:
            call(app_b, "/visitor/index.html", sid="resident")
            with pytest.raises(SessionCapacityError):
                app_b.restore_session(
                    SessionRecord(sid="migrant", audience="visitor")
                )
        finally:
            app_b.close()
            server_b.close()

    def test_sessions_endpoint_publishes_records(self, served):
        _, app = served
        self.walk(app, "alice")
        status, headers, text = call(app, "/-/sessions")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        (payload,) = json.loads(text)["sessions"]
        record = SessionRecord.from_dict(payload)
        assert record == app.snapshot_sessions()[0]

    def test_restore_endpoint_round_trips_the_sessions_payload(
        self, served, fixture
    ):
        _, app_a = served
        self.walk(app_a, "alice")
        call(app_a, "/curator/index.html", sid="bob")
        _, _, snapshot = call(app_a, "/-/sessions")
        server_b, app_b = fresh_app(fixture)
        try:
            status, _, text = call(
                app_b, "/-/sessions/restore", method="POST", body=snapshot
            )
            assert status == 200
            result = json.loads(text)
            assert sorted(result["restored"]) == ["alice", "bob"]
            assert result["errors"] == []
            assert app_b.snapshot_sessions()[0].trail
        finally:
            app_b.close()
            server_b.close()

    def test_restore_endpoint_is_per_record_best_effort(self, served):
        _, app = served
        body = json.dumps(
            {
                "sessions": [
                    {"sid": "ok", "audience": "visitor"},
                    {"sid": "lost", "audience": "stranger"},
                ]
            }
        )
        status, _, text = call(
            app, "/-/sessions/restore", method="POST", body=body
        )
        assert status == 200
        result = json.loads(text)
        assert result["restored"] == ["ok"]
        assert result["errors"][0]["sid"] == "lost"
        assert "stranger" in result["errors"][0]["error"]

    def test_restore_endpoint_rejects_malformed_bodies(self, served):
        _, app = served
        assert call(app, "/-/sessions/restore", method="POST")[0] == 400
        assert (
            call(
                app, "/-/sessions/restore", method="POST", body="not json"
            )[0]
            == 400
        )
        assert (
            call(
                app,
                "/-/sessions/restore",
                method="POST",
                body=json.dumps({"sessions": [{"sid": "s"}]}),
            )[0]
            == 400
        )
        assert call(app, "/-/sessions/restore", method="GET")[0] == 405


class TestLatencyStats:
    def test_stats_publish_per_audience_request_latency(self, served):
        _, app = served
        for _ in range(3):
            call(app, f"/visitor/{GUITAR}", sid="alice")
        call(app, f"/curator/{GUITAR}", sid="bob")
        stats = json.loads(call(app, "/-/stats")[2])
        visitor = stats["audiences"]["visitor"]
        assert visitor["requests"] == 3
        assert visitor["latency"]["window"] == 3
        assert visitor["latency"]["p50_us"] > 0
        assert visitor["latency"]["p99_us"] >= visitor["latency"]["p50_us"]
        assert stats["audiences"]["curator"]["requests"] == 1

    def test_latency_window_is_bounded_but_count_is_lifetime(self):
        from repro.navigation.http import LatencyWindow

        window = LatencyWindow(size=4)
        for n in range(10):
            window.record(float(n))
        summary = window.summary()
        assert summary["count"] == 10
        assert summary["window"] == 4
        # Only the last four samples (6..9) survive in the window.
        assert summary["p50_us"] == 7.0
        assert summary["p99_us"] == 9.0

    def test_quantiles_of_an_empty_window_are_zero(self):
        from repro.navigation.http import LatencyWindow, quantile

        assert quantile([], 0.5) == 0.0
        summary = LatencyWindow().summary()
        assert summary == {
            "count": 0,
            "window": 0,
            "p50_us": 0.0,
            "p99_us": 0.0,
        }
