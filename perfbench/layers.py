"""Per-layer metrics from a traced run's spans (see ``launch.py``).

Layer times under ``NavigationApp.respond`` are *self* times averaged
over the open loop's page requests (total time in the layer divided by
the number of pages), so they add up: the sum check compares their sum
with ``http.respond_us``.  ``asgi.hop_us`` is the event-loop span minus
``respond`` and ``net.outside_us`` the client's send-to-receive time minus
the event-loop span, per request.  Event costs (session open and close,
reconfigure, transactional undeploy) are means per call over every
request of the run.
"""

from __future__ import annotations

from collections import Counter, defaultdict

#: Metric name -> span whose self time (per page request) it reports.
SELF_TIME_LAYERS = {
    "http.respond_self_us": "http.respond",
    "session.trail_record_us": "session.trail_record",
    "session.fragment_us": "session.fragment",
    "web.compose_us": "web.compose",
    "web.skeleton_us": "web.skeleton",
    "cache.get_us": "cache.get",
    "core.render_self_us": "core.render",
    "navspec.anchors_us": "navspec.anchors",
}

#: Metric name -> counter (as named in the trace) averaged per page request.
COUNT_LAYERS = {
    "xmlcore.serialize_calls_per_req": "serialize",
    "xmlcore.build_calls_per_req": "build",
    "xmlcore.ncname_checks_per_req": "ncname",
    "posixpath.relpath_calls_per_req": "relpath",
}

#: Tolerance of the sum check: layer self times vs. ``http.respond_us``.
SUM_TOLERANCE = 0.10


def _mean_ms(durations: list[int]) -> float:
    return sum(durations) / len(durations) / 1e6 if durations else 0.0


def per_layer(
    trace: dict, exchanges: list[tuple[str, float, float]], runtime_stats: dict
) -> tuple[dict[str, float], list[str]]:
    """``(metrics, problems)`` for the traced run.

    *exchanges* are the open loop's page requests as the client saw them
    (``rid, sent, received``); *runtime_stats* is ``/-/stats`` at the end.
    """
    by_rid: dict[str, list] = defaultdict(list)
    durations: dict[str, list[int]] = defaultdict(list)
    for span in trace["spans"]:
        name, rid, start, end = span[0], span[1], span[2], span[3]
        if rid is None:
            continue  # shutdown work, outside any request
        by_rid[rid].append(span)
        durations[name].append(end - start)

    self_ns: Counter = Counter()
    calls: Counter = Counter()
    respond_ns = app_ns = hop_ns = outside_ns = render_ns = 0
    pages = 0
    for rid, sent, received in exchanges:
        spans = by_rid.get(rid)
        if not spans:
            continue
        app = respond = None
        for name, _, start, end, _, own in spans:
            if name == "asgi.app":
                app = end - start
                continue
            self_ns[name] += own
            calls[name] += 1
            if name == "http.respond":
                respond = end - start
            elif name == "core.render":
                render_ns += end - start
        if app is None or respond is None:
            continue
        pages += 1
        app_ns += app
        respond_ns += respond
        hop_ns += app - respond
        outside_ns += (received - sent) * 1e9 - app
    problems = []
    if pages < len(exchanges):
        problems.append(f"{len(exchanges) - pages} page requests left no spans")
    pages = max(pages, 1)

    def per_page_us(ns: float) -> float:
        return ns / pages / 1e3

    metrics = {
        "asgi.app_us": per_page_us(app_ns),
        "asgi.hop_us": per_page_us(hop_ns),
        "net.outside_us": per_page_us(outside_ns),
        "http.respond_us": per_page_us(respond_ns),
        "core.render_us": per_page_us(render_ns),
    }
    for metric, span in SELF_TIME_LAYERS.items():
        metrics[metric] = per_page_us(self_ns[span])
    gets = calls["cache.get"]
    metrics["cache.hit_ratio"] = 1.0 - calls["cache.miss"] / gets if gets else 0.0
    metrics["cache.invalidations"] = float(trace["tallies"]["cache.dropped"])

    page_rids = {rid for rid, _, _ in exchanges}
    names = trace["counters"]
    totals = Counter()
    for rid, *counts in trace["request_counts"]:
        if rid in page_rids:
            totals.update(dict(zip(names, counts)))
    for metric, counter in COUNT_LAYERS.items():
        metrics[metric] = totals[counter] / pages

    opens = durations["serving.session_tier"]
    deploys = durations["serving.session_deploy"]
    metrics["serving.session_open_us"] = (
        (sum(opens) + sum(deploys)) / len(opens) / 1e3 if opens else 0.0
    )
    closes = durations["serving.session_close"]
    metrics["serving.session_close_us"] = (
        sum(closes) / len(closes) / 1e3 if closes else 0.0
    )
    metrics["serving.live_sessions_peak"] = float(trace["live_sessions_peak"])
    metrics["serving.reconfigure_ms"] = _mean_ms(durations["serving.reconfigure"])
    metrics["aop.tx_undeploy_ms"] = _mean_ms(durations["aop.tx_undeploy"])
    metrics["aop.live_deployments"] = float(runtime_stats["runtime"]["deployments"])

    layer_sum = sum(self_ns.values())
    share = abs(layer_sum - respond_ns) / respond_ns if respond_ns else 1.0
    if share > SUM_TOLERANCE:
        problems.append(
            f"layer self times sum to {per_page_us(layer_sum):.1f} us, "
            f"respond is {metrics['http.respond_us']:.1f} us"
        )
    return metrics, problems
