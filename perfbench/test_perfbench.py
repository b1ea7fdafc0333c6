"""Tests of the benchmark's own parts (not collected by the repo's suite).

Run with::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

from launch import Tracer  # noqa: E402
from layers import per_layer  # noqa: E402
from loadgen import (  # noqa: E402
    LATE_S,
    Lane,
    Workload,
    check_deferred_stacks,
    lag_and_latency,
)
from oracle import (  # noqa: E402
    INDEX_STACK,
    TOUR_STACK,
    TrailModel,
    expected_crumbs,
    kept_percentile,
    served_crumbs,
    stack_problem,
)


def test_trail_model_matches_breadcrumb_trail():
    from repro.navigation.session import BreadcrumbTrail

    rng = random.Random(7)
    pages = [f"PaintingNode/p{k}.html" for k in range(12)] + ["index.html"]
    for limit in (1, 3, 8):
        model, trail = TrailModel(limit), BreadcrumbTrail(limit)
        for step in range(500):
            page = rng.choice(pages)
            title = f"Title {page}"
            assert model.record(page, title) == trail.record(page, title), step
            assert model.entries == trail.entries()


def test_expected_crumbs_parse_from_the_served_fragment():
    from repro.navigation.session import breadcrumb_fragment

    shown = [
        ("PaintingNode/guitar.html", "Guitar"),
        ("index.html", "The Museum"),
        ("PainterNode/miro.html", "Joan Miro & Co <1>"),
    ]
    from repro.xmlcore import escape_text

    for path in ("PainterNode/dali.html", "index.html"):
        page = f"<body>{breadcrumb_fragment(shown, path)}</body>"
        escaped = [(p, escape_text(t)) for p, t in shown]
        assert served_crumbs(page) == expected_crumbs(escaped, path)
    assert served_crumbs("<body></body>") == []


def test_stack_problem():
    painting, painter = "PaintingNode/guitar.html", "PainterNode/dali.html"
    assert stack_problem((2, True), TOUR_STACK, painting) is None
    assert stack_problem((2, False), TOUR_STACK, painter) is None
    assert stack_problem((1, False), INDEX_STACK, painting) is None
    assert stack_problem((2, False), TOUR_STACK, painting) is not None
    assert stack_problem((1, True), INDEX_STACK, painting) is not None
    assert stack_problem((2, True), INDEX_STACK, painting) is not None


def test_percentile_is_kept_only_with_ten_samples_beyond():
    values = list(range(1, 1001))
    assert kept_percentile(values, 0.99) == 990
    assert kept_percentile(values[:999], 0.99) is None
    assert kept_percentile(list(range(1, 101)), 0.5) == 50
    assert kept_percentile(list(range(1, 20)), 0.5, beyond=10) is None
    assert kept_percentile([], 0.5) is None


def test_lag_and_latency_split_generator_and_server_delay():
    # Sent on time to a free connection: all of it is the server's.
    lag, latency = lag_and_latency(due=1.0, free_at=0.5, sent=1.0, received=1.3)
    assert lag == 0.0 and latency == pytest.approx(0.3)
    # The connection was busy until 1.2: the wait is charged to the
    # request, and sending at once after it is no lag.
    lag, latency = lag_and_latency(due=1.0, free_at=1.2, sent=1.2, received=1.5)
    assert lag == 0.0 and latency == pytest.approx(0.5)
    # The generator overslept by 0.1 with the connection free: that is
    # lag, and it is not charged to the server.
    lag, latency = lag_and_latency(due=1.0, free_at=0.5, sent=1.1, received=1.4)
    assert lag == pytest.approx(0.1) and latency == pytest.approx(0.3)


class _StubLane(Lane):
    """A lane whose exchanges take a fixed time and never touch a socket."""

    service = 0.004

    def page(self, visitor, page, expect=None):
        sent = time.perf_counter()
        time.sleep(self.service)
        self.seq += 1
        return f"0.{self.seq}", sent, time.perf_counter()


def test_open_loop_charges_queueing_not_generator_lag():
    workload = Workload("t", 0, 0, 600.0, sessions=4, rate=1.0)
    lane = _StubLane(0, 2, workload, ["index.html", "a.html"], seed=1)
    # Three requests due at once: the second and third queue behind the
    # first on the one connection, so their latencies grow by a service
    # time each while the generator itself is never late.
    stats = lane.open_loop([(0.0, None), (0.0, None), (0.0, None)], time.perf_counter())
    low = _StubLane.service * 1e6
    assert [round(v / low) for v in stats.page_us] == [1, 2, 3]
    assert max(stats.lag_us) < LATE_S * 1e6
    assert stats.late == 0 and stats.pages == 3


def test_deferred_stack_check():
    painting = "PaintingNode/guitar.html"
    tour, index, bare = (2, True), (1, False), (0, False)

    class Fake:
        def __init__(self, deferred, reconfigures):
            self.deferred, self.reconfigures = deferred, reconfigures

    reconfigures = [(1.0, 1.1, INDEX_STACK), (2.0, 2.1, TOUR_STACK)]
    good = [
        (0.5, 0.6, tour, painting),  # before any reconfigure
        (1.05, 1.2, bare, painting),  # in flight with the first: counted
        (1.5, 1.6, index, painting),  # after the first ack
        (2.5, 2.6, tour, painting),  # after the second ack
    ]
    assert check_deferred_stacks([Fake(good, reconfigures)]) == ([], 1)
    stale = good[:2] + [(1.5, 1.6, tour, painting)] + good[3:]
    problems, _ = check_deferred_stacks([Fake(stale, reconfigures)])
    assert any("visitor" in p for p in problems)
    assert any("never checked" in p for p in problems)


def test_tracer_self_times_add_up_to_the_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    timed_leaf = tracer.timed("leaf", leaf)

    def middle():
        timed_leaf()
        timed_leaf()

    timed_middle = tracer.timed("middle", middle)

    class App:
        def respond(self, environ):
            timed_middle()
            time.sleep(0.001)
            return "200 OK", [], b""

    App.respond = tracer.request_root(App.respond)
    App().respond({"HTTP_X_BENCH_RID": "0.1"})
    spans = {span[0]: span for span in tracer.spans}
    assert set(spans) == {"leaf", "middle", "http.respond"}
    assert spans["leaf"][4] == "middle" and spans["middle"][4] == "http.respond"
    root = spans["http.respond"]
    total_self = sum(span[5] for span in tracer.spans)
    assert total_self == root[3] - root[2]
    assert all(span[1] == "0.1" for span in tracer.spans)


def test_per_layer_split_from_a_synthetic_trace():
    us = 1000
    spans = [
        ("asgi.app", "0.1", 0, 500 * us, None, 500 * us),
        ("http.respond", "0.1", 100 * us, 400 * us, None, 100 * us),
        ("cache.get", "0.1", 110 * us, 120 * us, "http.respond", 10 * us),
        ("session.fragment", "0.1", 120 * us, 310 * us, "http.respond", 190 * us),
    ]
    trace = {
        "spans": spans,
        "counters": ["serialize", "build", "ncname", "relpath"],
        "request_counts": [("0.1", 1, 9, 20, 7)],
        "tallies": {"cache.dropped": 0},
        "live_sessions_peak": 3,
    }
    exchanges = [("0.1", 0.0, 600e-6)]
    metrics, problems = per_layer(trace, exchanges, {"runtime": {"deployments": 5}})
    assert problems == []
    assert metrics["http.respond_us"] == pytest.approx(300)
    assert metrics["asgi.hop_us"] == pytest.approx(200)
    assert metrics["net.outside_us"] == pytest.approx(100)
    assert metrics["session.fragment_us"] == pytest.approx(190)
    assert metrics["cache.hit_ratio"] == 1.0
    assert metrics["xmlcore.build_calls_per_req"] == 9
    assert metrics["aop.live_deployments"] == 5
