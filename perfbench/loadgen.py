"""Workloads, traffic lanes and the measurement phases of one run.

Traffic is split over *lanes*: one keep-alive connection each, driven by
its own thread and its own seeded random stream.  Every session is pinned
to one lane and one audience, so a session's requests reach the server in
the order the stream made them, whatever the timing; the same seed gives
the same requests, the same trails and the same pages.

A lane runs the phases ``run.py`` strings together: the warm-up (open
the sessions, fill their trails, warm the page cache), **open-loop**
segments at the workload's fixed offered rate (each request timed from
the moment it was due), **closed-loop** segments with every lane busy
(the capacity figure), and the sequential probes (new one-page sessions,
reconfigures).
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field

from client import Connection, get_request, post_request
from oracle import (
    INDEX_STACK,
    STACKS,
    TOUR_STACK,
    TrailModel,
    check_page,
    stack_problem,
)

AUDIENCES = ("visitor", "curator")

#: The open-loop event of a newly arriving session's first page.
ARRIVAL = "arrival"

#: A send is *late* when it left this long after it was due while its
#: connection was free; a run with more than MAX_LATE_SHARE late sends
#: measured the generator, not the server, and is rejected.
LATE_S = 0.005
MAX_LATE_SHARE = 0.10

#: Pages each session walks during warm-up (more than the trail holds).
WARM_STEPS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: Synthetic museum size; 0 serves the paper's default museum.
    painters: int
    paintings: int
    session_ttl: float
    #: Returning sessions, half per audience, split over the lanes.
    sessions: int
    #: Offered page requests per second in the open loop.
    rate: float
    #: Share of page requests made by a newly arriving session.
    arrival_share: float = 0.0
    #: Seconds between operator reconfigure POSTs (0: none).
    reconfigure_every: float = 0.0
    #: Fetch every page of every audience once before measuring.
    warm_cache: bool = False

    def server_argv(self) -> list[str]:
        site = []
        if self.painters:
            site = ["--painters", str(self.painters)]
            site += ["--paintings", str(self.paintings)]
        return [
            *site,
            "serve",
            "--asgi",
            "--port",
            "0",
            "--audiences",
            ",".join(AUDIENCES),
            "--session-ttl",
            f"{self.session_ttl:g}",
        ]


def lag_and_latency(
    due: float, free_at: float, sent: float, received: float
) -> tuple[float, float]:
    """``(generator lag, request latency)`` of one open-loop request.

    The lag is how late the generator sent once the request was due and
    its connection was free (*free_at*: the previous response arrived).
    The latency runs from when the request was due to its response, less
    that lag: waiting for a busy connection is charged to the server, the
    generator's own lateness is not (it is reported as lag instead).
    """
    lag = sent - max(due, free_at)
    return lag, received - due - lag


class Visitor:
    """One session as the generator models it."""

    __slots__ = ("audience", "sid", "model", "page")

    def __init__(self, audience: str):
        self.audience = audience
        #: Given by the server on the session's first page.
        self.sid: str | None = None
        self.model = TrailModel()
        self.page: str | None = None


@dataclass
class LaneStats:
    """What one lane measured in one phase."""

    page_us: list[float] = field(default_factory=list)
    first_us: list[float] = field(default_factory=list)
    lag_us: list[float] = field(default_factory=list)
    late: int = 0
    pages: int = 0
    cpu_s: float = 0.0
    #: ``(rid, sent, received)`` of every page request, perf_counter seconds.
    exchanges: list[tuple[str, float, float]] = field(default_factory=list)


class Lane:
    """One connection's share of the traffic, run by one thread."""

    def __init__(
        self, index: int, lanes: int, workload: Workload, pages: list[str], seed: int
    ):
        self.index = index
        self.workload = workload
        self.pages = pages
        self.paintings = [p for p in pages if p.startswith("PaintingNode/")]
        self.rng = random.Random(f"{seed}:{index}")
        self.slots = [
            Visitor(AUDIENCES[k % 2]) for k in range(workload.sessions // lanes)
        ]
        #: Slots still to visit in this round; every returning session is
        #: visited once per round, so none idles anywhere near the TTL.
        self.round: list[int] = []
        self.conn: Connection | None = None
        self.seq = 0
        #: ``seq`` of the open loop's last request (traced/untraced compare).
        self.open_last_seq = 0
        self.attempted = 0
        self.reconfigure_posts = 0
        self.failures: list[str] = []
        #: Body digest of every page the open loop fetched, by request order.
        self.digests: dict[int, int] = {}
        #: ``(sent, received, signature, page)`` of visitor pages whose
        #: stack depends on when an operator reconfigure landed.
        self.deferred: list[tuple] = []
        #: ``(sent, acknowledged, stack)`` of every reconfigure POST.
        self.reconfigures: list[tuple[float, float, tuple[str, ...]]] = []
        self.error: BaseException | None = None

    # -- one exchange ---------------------------------------------------------

    def _rid(self) -> str:
        self.seq += 1
        return f"{self.index}.{self.seq}"

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def page(
        self, visitor: Visitor, page: str, expect: tuple[str, ...] | None = None
    ) -> tuple[str, float, float]:
        """Fetch *page* for *visitor* and check it.

        *expect* is the stack the page must show; by default the
        audience's own, except that visitor pages of a reconfiguring
        workload are checked afterwards by :func:`check_deferred_stacks`.
        Returns ``(rid, sent, received)``.
        """
        rid = self._rid()
        headers = {"X-Bench-Rid": rid}
        if visitor.sid is not None:
            headers["X-Repro-Session"] = visitor.sid
        raw = get_request(f"/{visitor.audience}/{page}", headers)
        self.attempted += 1
        sent = time.perf_counter()
        response = self.conn.exchange(raw)
        received = time.perf_counter()
        if response.status != 200:
            self.fail(f"{rid} {page}: status {response.status}")
            return rid, sent, received
        sid = response.headers.get("x-repro-session")
        if visitor.sid is None:
            visitor.sid = sid
        if not sid or sid != visitor.sid:
            self.fail(f"{rid} {page}: session {sid!r}, expected {visitor.sid!r}")
        if response.headers.get("x-repro-audience") != visitor.audience:
            self.fail(f"{rid} {page}: wrong audience header")
        text = response.body.decode("utf-8")
        problem, signature = check_page(text, page, visitor.model)
        visitor.page = page
        deferred = (
            expect is None
            and visitor.audience == "visitor"
            and bool(self.workload.reconfigure_every)
        )
        if deferred:
            self.deferred.append((sent, received, signature, page))
        else:
            self.digests[self.seq] = hash(response.body)
            if problem is None:
                problem = stack_problem(
                    signature, expect or STACKS[visitor.audience], page
                )
        if problem is not None:
            self.fail(f"{rid} {problem}")
        return rid, sent, received

    def reconfigure(
        self, stack: tuple[str, ...], *, record: bool = True
    ) -> tuple[float, float]:
        """POST a visitor reconfigure; *record* it for the deferred check."""
        rid = self._rid()
        raw = post_request(
            "/-/reconfigure/visitor", ",".join(stack), {"X-Bench-Rid": rid}
        )
        self.attempted += 1
        self.reconfigure_posts += 1
        sent = time.perf_counter()
        response = self.conn.exchange(raw)
        received = time.perf_counter()
        if (
            response.status != 200
            or json.loads(response.body)["access_structures"] != list(stack)
        ):
            self.fail(f"{rid} reconfigure to {stack}: status {response.status}")
        if record:
            self.reconfigures.append((sent, received, stack))
        return sent, received

    # -- the traffic mix ----------------------------------------------------------

    def next_page(self, arrival: bool = False) -> tuple[Visitor, str]:
        """The next page request: ``(visitor, page)``.

        A returning session is taken in turn from a shuffled round of the
        lane's sessions and moves to a page other than its current one.
        An *arrival* is a new session that takes a random session's
        place; the one it replaces goes idle and is evicted at the TTL.
        """
        rng = self.rng
        if arrival:
            slot = rng.randrange(len(self.slots))
            visitor = Visitor(self.slots[slot].audience)
            self.slots[slot] = visitor
            self.round = [k for k in self.round if k != slot]
            return visitor, rng.choice(self.pages)
        if not self.round:
            self.round = list(range(len(self.slots)))
            rng.shuffle(self.round)
        visitor = self.slots[self.round.pop()]
        page = rng.choice(self.pages)
        while page == visitor.page:
            page = rng.choice(self.pages)
        return visitor, page

    # -- phases ---------------------------------------------------------------

    def warm_cache(self) -> None:
        """Fetch every page of every audience once (fills the page cache).

        The pages are walked by existing sessions, so warming opens no
        session (and leaves none to be evicted later).
        """
        for audience in AUDIENCES:
            walker = next(v for v in self.slots if v.audience == audience)
            for page in self.pages:
                self.page(walker, page)

    def warm_sessions(self) -> None:
        """Open this lane's sessions and fill their trails.

        Like every session, they arrive without a session id.
        """
        for visitor in self.slots:
            for _ in range(WARM_STEPS):
                page = self.rng.choice(self.pages)
                while page == visitor.page:
                    page = self.rng.choice(self.pages)
                self.page(visitor, page)

    def open_loop(self, events: list[tuple[float, object]], start: float) -> LaneStats:
        """Send each event at ``start + offset``; time it from then."""
        stats = LaneStats()
        cpu0 = time.thread_time()
        free_at = start
        for offset, event in events:
            due = start + offset
            pace(due)
            if event is None or event is ARRIVAL:
                arrival = event is ARRIVAL
                visitor, page = self.next_page(arrival)
                rid, sent, received = self.page(visitor, page)
                stats.exchanges.append((rid, sent, received))
                stats.pages += 1
            else:
                sent, received = self.reconfigure(event)
            lag, latency = lag_and_latency(due, free_at, sent, received)
            if event is None or event is ARRIVAL:
                (stats.first_us if arrival else stats.page_us).append(latency * 1e6)
            stats.lag_us.append(lag * 1e6)
            stats.late += lag > LATE_S
            free_at = received
        stats.cpu_s = time.thread_time() - cpu0
        return stats

    def closed_loop(self, deadline: float, reconfigures: list[tuple[float, object]]):
        """Back-to-back requests until *deadline*; reconfigures when due.

        Returning sessions only: arrivals would make the number of
        sessions opened, and so the server's state, depend on its speed.
        """
        stats = LaneStats()
        pending = list(reconfigures)
        while time.perf_counter() < deadline:
            if pending and time.perf_counter() >= pending[0][0]:
                self.reconfigure(pending.pop(0)[1])
                continue
            visitor, page = self.next_page()
            self.page(visitor, page)
            stats.pages += 1
        return stats

    def probe_reconfigures(
        self,
        rng: random.Random,
        count: int,
        current: tuple[str, ...],
        spacing: float,
    ) -> list[float]:
        """*count* sequential reconfigures, each checked by a visitor page.

        Alternates the visitor stack away from *current* and back, so an
        even *count* leaves it as it found it (and as the operator's
        reconfigures, which the deferred check follows, last set it).
        Each starts *spacing* seconds after the one before.
        """
        other = INDEX_STACK if current == TOUR_STACK else TOUR_STACK
        latencies = []
        checker = next(v for v in self.slots if v.audience == "visitor")
        start = time.perf_counter()
        for k in range(count):
            pace(start + k * spacing)
            stack = other if k % 2 == 0 else current
            sent, received = self.reconfigure(stack, record=False)
            latencies.append((received - sent) * 1e3)
            page = rng.choice(self.paintings)
            while page == checker.page:
                page = rng.choice(self.paintings)
            self.page(checker, page, expect=stack)
        return latencies

    def probe_first_pages(
        self, rng: random.Random, count: int, spacing: float
    ) -> list[float]:
        """First-page latencies of *count* new one-page sessions, in turn.

        Each starts *spacing* seconds after the one before.
        """
        latencies = []
        start = time.perf_counter()
        for k in range(count):
            pace(start + k * spacing)
            visitor = Visitor(AUDIENCES[k % 2])
            _, sent, received = self.page(visitor, rng.choice(self.pages))
            latencies.append((received - sent) * 1e6)
        return latencies


def pace(due: float) -> None:
    """Sleep until *due* (a ``perf_counter`` time), if it is still ahead."""
    wait = due - time.perf_counter()
    if wait > 0:
        time.sleep(wait)


def poisson_offsets(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Arrival times of a Poisson process at *rate* over *duration*."""
    offsets, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return offsets
        offsets.append(t)


def schedule(
    workload: Workload, lanes: int, seed: str, duration: float, posted: int = 0
) -> list[list[tuple[float, object]]]:
    """Per-lane ``(offset, event)`` lists for an open-loop segment.

    ``None`` is a returning session's page, :data:`ARRIVAL` a new
    session's first page, a tuple a reconfigure to that stack.  Returning
    pages arrive as a Poisson process, split evenly over the lanes; new
    sessions and reconfigures come at fixed periods, taking turns over
    the lanes, so every segment opens and evicts the same number of
    sessions.  *posted* reconfigures were sent before.
    """
    rng = random.Random(f"{seed}:schedule")
    share = workload.arrival_share
    returning = workload.rate * (1 - share) / lanes
    per_lane: list[list[tuple[float, object]]] = [
        [(t, None) for t in poisson_offsets(rng, returning, duration)]
        for _ in range(lanes)
    ]
    if share:
        period = 1 / (workload.rate * share)
        for k in range(int(duration / period)):
            per_lane[k % lanes].append((period * (k + 0.5), ARRIVAL))
    plan = reconfigure_plan(workload, lanes, duration, posted)
    for events, reconfigures in zip(per_lane, plan):
        events.extend(reconfigures)
        events.sort(key=lambda event: event[0])
    return per_lane


def reconfigure_plan(
    workload: Workload, lanes: int, duration: float, first: int = 0
) -> list[list[tuple[float, tuple[str, ...]]]]:
    """Per-lane ``(offset, stack)`` operator reconfigures over *duration*.

    One every ``reconfigure_every`` seconds, taking turns over the lanes
    and alternating the visitor stack; *first* continues the alternation
    of an earlier phase.
    """
    plan: list[list[tuple[float, tuple[str, ...]]]] = [[] for _ in range(lanes)]
    if not workload.reconfigure_every:
        return plan
    period = workload.reconfigure_every
    for k in range(int(duration / period)):
        n = first + k
        stack = INDEX_STACK if n % 2 == 0 else TOUR_STACK
        plan[n % lanes].append((period * (k + 0.5), stack))
    return plan


def check_deferred_stacks(lanes: list[Lane]) -> tuple[list[str], int]:
    """Stack check of visitor pages of a workload with an operator.

    A page sent after a reconfigure was acknowledged, with no other one
    in flight, must show that stack; each reconfigure but the last must
    be checked by such a page before the next one is sent.  Pages in
    flight while a reconfigure was are not checked (the server renders
    without a lock while the stack is swapped); they are counted when
    they show neither the stack before nor the one after.  Returns
    ``(problems, in-flight pages showing neither stack)``.
    """
    reconfigures = sorted(
        (r for lane in lanes for r in lane.reconfigures), key=lambda r: r[0]
    )
    pages = sorted((p for lane in lanes for p in lane.deferred), key=lambda p: p[0])
    problems, mixed = [], 0
    verified = [False] * len(reconfigures)
    for sent, received, signature, page in pages:
        settled, stack, in_flight = -1, TOUR_STACK, []
        for k, (r_sent, r_ack, r_stack) in enumerate(reconfigures):
            if r_ack < sent:
                settled, stack = k, r_stack
            elif r_sent < received:
                in_flight.append(r_stack)
        if in_flight:
            mixed += all(stack_problem(signature, s, page) for s in [stack, *in_flight])
            continue
        problem = stack_problem(signature, stack, page)
        if problem is not None:
            problems.append(f"visitor {page} at {sent:.6f}: {problem}")
        elif settled >= 0:
            verified[settled] = True
    for k, ok in enumerate(verified[:-1]):
        if not ok:
            problems.append(f"reconfigure {k} was never checked by a visitor page")
    return problems, mixed


def run_lanes(lanes: list[Lane], work, timeout: float) -> list:
    """Run ``work(lane)`` on one thread per lane; results in lane order."""
    results: list = [None] * len(lanes)

    def target(k: int) -> None:
        try:
            results[k] = work(lanes[k])
        except BaseException as exc:  # recorded and re-raised by the caller
            lanes[k].error = exc

    threads = [
        threading.Thread(target=target, args=(k,), daemon=True)
        for k in range(len(lanes))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        if thread.is_alive():
            raise TimeoutError("a traffic lane did not finish in time")
    for lane in lanes:
        if lane.error is not None:
            raise RuntimeError(f"lane {lane.index} failed") from lane.error
    return results
