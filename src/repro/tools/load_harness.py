"""Cluster load harness: hundreds of sessions, live failover, zero bleed.

The CI gate for the serving cluster.  Where :mod:`~repro.tools.\
serve_smoke` proves the single-process HTTP front correct, this harness
proves the *cluster* story at load:

1. **Storm** — N workers (real ``repro.tools serve`` child processes)
   behind the consistent-hashing :class:`~repro.navigation.cluster.\
ClusterFront` on a real TCP port; hundreds of concurrent sessions
   (spread over both audiences and a bounded thread pool) each walk
   their own page plan.  Gates: error rate exactly 0, every session's
   breadcrumb trail names only its own pages (zero cross-session bleed),
   and tour markup appears only on visitor pages (zero cross-audience
   bleed).  Per-request wall latency is recorded and reported as
   p50/p99.
2. **Failover** — one worker is retired mid-run (``SIGTERM``; its
   sessions snapshot into portable records and restore into their new
   ring owners).  Every migrated session then fetches one more page:
   it must answer 200 from a *different* worker with the pre-migration
   trail intact.
3. **Graceful single-process leg** — a plain ``serve --snapshot`` child
   is driven, ``SIGTERM``-ed (must exit 0 with the session records on
   disk), and the snapshot is restored into a fresh child whose next
   response must carry the original trail — the restart-survival
   contract, end to end through the CLI.

4. **Soak** (``--soak N``, instead of phases 1–3) — one ``serve --asgi``
   child holds N live sessions (20,000 in CI).  One wave walks every
   session's plan (home, then its painting); :data:`SOAK_REVISITS` more
   waves walk the same plans again, so no trail grows.  Gates: zero
   errors and zero bleed, every session stays live, the weave
   (deployments, woven sites, scopes, join point pools) stays exactly as
   it was after a dozen warm-up sessions, and the server's RSS plateaus:
   it may not grow by more than :data:`SOAK_RSS_GROWTH` from the first
   revisit wave to the last.

Run under both wrapper tiers in CI::

    REPRO_AOP_CODEGEN=1 python -m repro.tools.load_harness --sessions 200
    REPRO_AOP_CODEGEN=0 python -m repro.tools.load_harness --sessions 200
    python -m repro.tools.load_harness --soak 20000

Exit status 0 on success; failures print the offending evidence and
exit 1.  ``--json`` emits the measured summary for tooling.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time

PAINTINGS = [
    "PaintingNode/guitar.html",
    "PaintingNode/guernica.html",
    "PaintingNode/violin.html",
    "PaintingNode/memory.html",
    "PaintingNode/elephants.html",
    "PaintingNode/avignon.html",
]

#: The soak's RSS plateau bound: growth from the first revisit wave to the
#: last, as a share of the first.  A revisit walks the pages a session
#: already holds, so its trail keeps its length and nothing should grow.
SOAK_RSS_GROWTH = 0.05

#: Waves after the soak's opening wave; the plateau is judged across them.
SOAK_REVISITS = 2

_BREADCRUMBS = re.compile(r'<nav class="breadcrumbs">(.*?)</nav>', re.DOTALL)
_BANNER = re.compile(r"http://([\d.]+):(\d+)/")


class LoadFailure(AssertionError):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise LoadFailure(message)


def breadcrumb_basenames(html: str) -> list[str]:
    block = _BREADCRUMBS.search(html)
    if block is None:
        return []
    return [
        href.rsplit("/", 1)[-1]
        for href in re.findall(r'href="([^"]+)"', block.group(1))
    ]


class SessionPlan:
    """One session's identity and walk: an audience, a home, one painting."""

    def __init__(self, index: int):
        self.sid = f"load-{index}"
        self.audience = "visitor" if index % 2 == 0 else "curator"
        self.painting = PAINTINGS[index % len(PAINTINGS)]
        self.own_basenames = {"index.html", self.painting.rsplit("/", 1)[-1]}

    def pages(self) -> list[str]:
        return [
            f"/{self.audience}/index.html",
            f"/{self.audience}/{self.painting}",
        ]


class Results:
    """Thread-safe tally of latencies, errors, and bleed evidence."""

    def __init__(self):
        self._lock = threading.Lock()
        self.latencies_us: list[float] = []
        self.errors: list[str] = []
        self.requests = 0

    def record(self, elapsed_us: float) -> None:
        with self._lock:
            self.requests += 1
            self.latencies_us.append(elapsed_us)

    def fail(self, message: str) -> None:
        with self._lock:
            self.errors.append(message)

    def summary(self) -> dict:
        from repro.navigation.http import quantile

        ordered = sorted(self.latencies_us)
        return {
            "requests": self.requests,
            "errors": len(self.errors),
            "p50_us": round(quantile(ordered, 0.50), 1),
            "p99_us": round(quantile(ordered, 0.99), 1),
        }


class Client:
    """A keep-alive HTTP client per worker thread."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    def get(self, path: str, sid: str) -> tuple[int, dict, str]:
        for attempt in (1, 2):
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self._host, self._port, timeout=self._timeout
                )
            try:
                self._connection.request(
                    "GET", path, headers={"X-Repro-Session": sid}
                )
                response = self._connection.getresponse()
                body = response.read().decode("utf-8")
                return (
                    response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    body,
                )
            except (OSError, http.client.HTTPException):
                # A retired worker may have raced this keep-alive socket;
                # one reconnect is legitimate, a second failure is real.
                self.close()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def _drive_session(client: Client, plan: SessionPlan, results: Results) -> None:
    for path in plan.pages():
        started = time.perf_counter()
        status, _, body = client.get(path, plan.sid)
        results.record((time.perf_counter() - started) * 1e6)
        if status != 200:
            results.fail(f"{plan.sid}: {path} returned {status}")
            return
        # The guided tour marks painting pages (edge pages carry one of
        # next/prev); home pages are tour-free for every audience.
        if "PaintingNode" in path:
            has_tour = 'rel="next"' in body or 'rel="prev"' in body
            if has_tour != (plan.audience == "visitor"):
                results.fail(f"{plan.sid}: audience bleed on {path}")
        foreign = [
            crumb
            for crumb in breadcrumb_basenames(body)
            if crumb not in plan.own_basenames
        ]
        if foreign:
            results.fail(f"{plan.sid}: session bleed — trail names {foreign}")


def _storm(
    address: tuple[str, int],
    plans: list[SessionPlan],
    results: Results,
    threads: int,
) -> None:
    queue: list[SessionPlan] = list(plans)
    lock = threading.Lock()

    def worker() -> None:
        client = Client(*address)
        try:
            while True:
                with lock:
                    if not queue:
                        return
                    plan = queue.pop()
                _drive_session(client, plan, results)
        except BaseException as exc:  # noqa: BLE001 - tallied, not raised
            results.fail(f"storm worker crashed: {exc!r}")
        finally:
            client.close()

    pool = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=300)
    hung = [thread for thread in pool if thread.is_alive()]
    _check(not hung, f"{len(hung)} storm thread(s) hung")


class _FrontHost:
    """The cluster front on a background event-loop thread."""

    def __init__(self, front):
        from repro.navigation.asgi import AsgiHttpServer

        self._ready = threading.Event()
        self.loop = asyncio.new_event_loop()
        self.server = AsgiHttpServer(front)
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self.address = self.server.address
        self._ready.set()
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    def __enter__(self) -> "_FrontHost":
        self._thread.start()
        _check(self._ready.wait(10), "cluster front never came up")
        return self

    def __exit__(self, *exc) -> None:
        try:
            future = asyncio.run_coroutine_threadsafe(
                self.server.aclose(), self.loop
            )
            future.result(timeout=10)
        except RuntimeError:
            pass
        try:
            self.loop.call_soon_threadsafe(self.loop.stop)
        except RuntimeError:
            pass
        self._thread.join(timeout=10)


def run_cluster_phases(options: argparse.Namespace) -> dict:
    """Phases 1–2: the storm and the mid-run failover."""
    from repro.navigation.cluster import ClusterFront, WorkerPool

    plans = [SessionPlan(n) for n in range(options.sessions)]
    results = Results()
    pool = WorkerPool(options.workers, asgi_workers=options.asgi_workers)
    with pool:
        front = ClusterFront(pool)
        with _FrontHost(front) as host:
            print(
                f"load-harness: {options.workers} workers "
                f"({', '.join(pool.names())}) behind "
                f"http://{host.address[0]}:{host.address[1]}/, "
                f"{len(plans)} sessions, {options.threads} client threads",
                flush=True,
            )
            _storm(host.address, plans, results, options.threads)
            _check(
                not results.errors,
                f"storm: {len(results.errors)} error(s); first: "
                f"{results.errors[0] if results.errors else ''}",
            )

            # The cluster must actually hold every session concurrently.
            client = Client(*host.address)
            status, _, text = client.get("/-/stats", "load-admin")
            _check(status == 200, f"/-/stats returned {status}")
            stats = json.loads(text)
            live = stats["cluster"]["sessions"]
            _check(
                live >= options.sessions,
                f"only {live} live sessions, wanted >= {options.sessions}",
            )
            per_worker = {
                name: w.get("sessions", {}).get("active", 0)
                for name, w in stats["workers"].items()
            }
            _check(
                sum(1 for count in per_worker.values() if count > 0) >= 2,
                f"sessions not sharded across workers: {per_worker}",
            )

            # -- failover: retire one worker under live sessions ------------
            victim = pool.names()[0]
            migrants = [
                plan
                for plan in plans
                if pool.owner_of(plan.sid).name == victim
            ]
            _check(migrants, f"no sessions hashed onto {victim}")
            migrated = pool.retire_worker(victim)
            _check(
                migrated >= len(migrants),
                f"retired {victim}: migrated {migrated} records for "
                f"{len(migrants)} sessions",
            )
            print(
                f"load-harness: retired {victim}, migrated {migrated} "
                f"session record(s) covering {len(migrants)} stormed "
                "sessions",
                flush=True,
            )
            failover = Results()
            for plan in migrants:
                started = time.perf_counter()
                status, headers, body = client.get(
                    plan.pages()[-1], plan.sid
                )
                failover.record((time.perf_counter() - started) * 1e6)
                if status != 200:
                    failover.fail(f"{plan.sid}: post-retire {status}")
                    continue
                if headers.get("x-repro-worker") == victim:
                    failover.fail(f"{plan.sid}: still routed to {victim}")
                crumbs = breadcrumb_basenames(body)
                if "index.html" not in crumbs:
                    failover.fail(
                        f"{plan.sid}: trail lost in migration ({crumbs})"
                    )
                foreign = [
                    crumb
                    for crumb in crumbs
                    if crumb not in plan.own_basenames
                ]
                if foreign:
                    failover.fail(
                        f"{plan.sid}: post-migration bleed {foreign}"
                    )
            client.close()
            _check(
                not failover.errors,
                f"failover: {len(failover.errors)} error(s); first: "
                f"{failover.errors[0] if failover.errors else ''}",
            )
            summary = results.summary()
            summary["failover"] = failover.summary()
            summary["sessions"] = options.sessions
            summary["migrated"] = migrated
            return summary


def _spawn_serve(extra: list[str]) -> tuple[subprocess.Popen, str]:
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.tools", "serve", "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert child.stdout is not None
    holder: dict[str, str] = {}
    stdout = child.stdout

    def read() -> None:
        holder["line"] = stdout.readline()

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=30)
    banner = holder.get("line", "")
    match = _BANNER.search(banner)
    if match is None:
        child.kill()
        _, stderr = child.communicate(timeout=10)
        raise LoadFailure(f"no serving banner (got {banner!r})\n{stderr}")
    return child, f"http://{match.group(1)}:{match.group(2)}"


def _url_get(base: str, path: str, sid: str) -> tuple[int, str]:
    import urllib.request

    request = urllib.request.Request(
        base + path, headers={"X-Repro-Session": sid}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def run_sigterm_leg(tmp_snapshot: str) -> None:
    """Phase 3: the single-process graceful-shutdown/restart contract."""
    child, base = _spawn_serve(["--snapshot", tmp_snapshot])
    try:
        for path in ("/visitor/index.html", f"/visitor/{PAINTINGS[0]}"):
            status, _ = _url_get(base, path, "phoenix")
            _check(status == 200, f"{path} returned {status}")
    finally:
        child.send_signal(signal.SIGTERM)
    try:
        _, stderr = child.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        child.kill()
        raise LoadFailure("child ignored SIGTERM") from None
    _check(
        child.returncode == 0,
        f"SIGTERM exit status {child.returncode}\n{stderr}",
    )
    _check("Traceback" not in stderr, f"traceback on shutdown:\n{stderr}")
    with open(tmp_snapshot, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    sids = [record["sid"] for record in snapshot["sessions"]]
    _check(
        sids == ["phoenix"],
        f"snapshot holds {sids}, wanted the one live session",
    )
    trail = [path for path, _ in snapshot["sessions"][0]["trail"]]
    _check(
        trail == ["index.html", PAINTINGS[0]],
        f"snapshot trail is {trail}",
    )

    # Restore into a fresh process: the next page must carry the trail.
    child, base = _spawn_serve([])
    try:
        import urllib.request

        request = urllib.request.Request(
            base + "/-/sessions/restore",
            data=json.dumps(snapshot).encode("utf-8"),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            restored = json.loads(response.read())
        _check(
            restored["restored"] == ["phoenix"] and not restored["errors"],
            f"restore answered {restored}",
        )
        status, body = _url_get(base, f"/visitor/{PAINTINGS[1]}", "phoenix")
        _check(status == 200, f"post-restore page returned {status}")
        crumbs = breadcrumb_basenames(body)
        _check(
            crumbs == ["index.html", "guitar.html"],
            f"restored trail renders {crumbs}",
        )
    finally:
        child.send_signal(signal.SIGTERM)
        child.communicate(timeout=20)
    _check(child.returncode == 0, f"restart child exited {child.returncode}")
    print("load-harness: SIGTERM leg passed (snapshot -> restart -> trail)")


def _rss_kib(pid: int) -> int | None:
    """*pid*'s resident set size (``VmRSS``) in KiB; ``None`` off Linux."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _soak_state(client: Client, pid: int) -> dict:
    """The server's session count, weave footprint and RSS, right now."""
    status, _, text = client.get("/-/stats", "soak-admin")
    _check(status == 200, f"/-/stats returned {status}")
    stats = json.loads(text)
    runtime = stats["runtime"]
    return {
        "sessions": stats["sessions"]["active"],
        "weave": {
            "deployments": runtime["deployments"],
            "woven_sites": runtime["woven_sites"],
            "scopes": runtime["scopes"],
            "pools": runtime["pools"]["count"],
        },
        "free_joinpoints": runtime["pools"]["free_joinpoints"],
        "rss_kib": _rss_kib(pid),
    }


def run_soak(sessions: int) -> dict:
    """Phase 4: hold *sessions* live sessions and gate on a plateau.

    The server runs with its default session cap and idle timeout, which
    must admit every session and outlast the run.  Two client threads
    drive it: with the server, that keeps two cores busy.
    """
    plans = [SessionPlan(n) for n in range(sessions)]
    # The first dozen plans visit every page any plan visits: they fill
    # the page cache, and the weave they leave is the baseline.
    warm = plans[: 2 * len(PAINTINGS)]
    child, base = _spawn_serve(["--asgi"])
    try:
        host, port = base.removeprefix("http://").rsplit(":", 1)
        address = (host, int(port))
        client = Client(*address)
        results = Results()
        _storm(address, warm, results, 2)
        _check(not results.errors, f"soak warm-up: {results.errors[:1]}")
        baseline = _soak_state(client, child.pid)
        rows = []
        for wave in range(1 + SOAK_REVISITS):
            results = Results()
            started = time.perf_counter()
            _storm(address, plans, results, 2)
            seconds = time.perf_counter() - started
            state = _soak_state(client, child.pid)
            _check(
                not results.errors,
                f"soak wave {wave}: {len(results.errors)} error(s); first: "
                f"{results.errors[0] if results.errors else ''}",
            )
            _check(
                state["sessions"] == sessions,
                f"soak wave {wave}: {state['sessions']} live sessions, "
                f"wanted {sessions}",
            )
            _check(
                state["weave"] == baseline["weave"],
                f"soak wave {wave}: the weave grew with the sessions: "
                f"{baseline['weave']} -> {state['weave']}",
            )
            rss = state["rss_kib"]
            rows.append(
                results.summary()
                | {
                    "wave": wave,
                    "seconds": round(seconds, 2),
                    "rss_mib": round(rss / 1024, 1) if rss is not None else None,
                    "free_joinpoints": state["free_joinpoints"],
                }
            )
            print(f"load-harness: soak {rows[-1]}", flush=True)
        client.close()
    finally:
        child.send_signal(signal.SIGTERM)
        try:
            child.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate(timeout=10)
    _check(child.returncode == 0, f"soak server exited {child.returncode}")

    summary = {"sessions": sessions, "waves": rows}
    if baseline["rss_kib"] is not None:
        first, last = rows[1]["rss_mib"], rows[-1]["rss_mib"]
        growth = (last - first) / first
        summary["rss_growth_share"] = round(growth, 4)
        summary["rss_per_session_bytes"] = round(
            (rows[0]["rss_mib"] * 1024 - baseline["rss_kib"]) * 1024 / sessions
        )
        _check(
            growth <= SOAK_RSS_GROWTH,
            f"soak: RSS grew {growth:.1%} over the revisit waves "
            f"({first} -> {last} MiB; limit {SOAK_RSS_GROWTH:.0%})",
        )
    free = [row["free_joinpoints"] for row in rows]
    _check(
        max(free[1:], default=0) <= free[0],
        f"soak: join point pools kept growing after the first wave: {free}",
    )
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sessions", type=int, default=240, help="concurrent sessions"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="cluster worker processes"
    )
    parser.add_argument(
        "--threads", type=int, default=24, help="client thread pool size"
    )
    parser.add_argument(
        "--asgi-workers",
        action="store_true",
        help="spawn the workers under the asyncio front too",
    )
    parser.add_argument(
        "--skip-sigterm-leg",
        action="store_true",
        help="run only the cluster storm/failover phases",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    parser.add_argument(
        "--soak",
        type=int,
        default=0,
        metavar="N",
        help="instead of the cluster phases, hold N live sessions in one "
        "server and gate on a memory and weave plateau",
    )
    options = parser.parse_args(argv)
    if options.soak:
        try:
            summary = run_soak(options.soak)
        except LoadFailure as failure:
            print(f"load-harness FAILED: {failure}", file=sys.stderr)
            return 1
        if options.json:
            print(json.dumps(summary, indent=2))
        print(
            f"load-harness soak passed: {options.soak} live sessions, "
            f"{1 + SOAK_REVISITS} waves, weave unchanged, RSS growth "
            f"{summary.get('rss_growth_share', 'n/a')} over the revisits"
        )
        return 0
    if options.sessions < options.workers:
        raise SystemExit("load-harness: need at least one session per worker")
    try:
        summary = run_cluster_phases(options)
        if not options.skip_sigterm_leg:
            import tempfile

            with tempfile.NamedTemporaryFile(
                suffix=".json", delete=False
            ) as handle:
                snapshot_path = handle.name
            run_sigterm_leg(snapshot_path)
    except LoadFailure as failure:
        print(f"load-harness FAILED: {failure}", file=sys.stderr)
        return 1
    if options.json:
        print(json.dumps(summary, indent=2))
    print(
        f"load-harness passed: {summary['sessions']} sessions over "
        f"{options.workers} workers, {summary['requests']} requests, "
        f"0 errors, p50 {summary['p50_us']:.0f}us / "
        f"p99 {summary['p99_us']:.0f}us, {summary['migrated']} sessions "
        "migrated on failover with trails intact"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
