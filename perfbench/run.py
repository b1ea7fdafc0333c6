"""Serving benchmark: real sockets, the ASGI front, one workload per run.

Usage::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

Boots ``python -m repro.tools ... serve --asgi --port 0`` from ``src/`` as
a child process, drives it over loopback with two keep-alive connections
and checks every response against the generator's own model.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
the same traffic twice, untraced and then under ``perfbench/launch.py``,
and prints the per-layer split plus the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A response the oracle rejects makes the
command exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from client import Connection, Server, get_request  # noqa: E402
from layers import per_layer  # noqa: E402
from loadgen import (  # noqa: E402
    LATE_S,
    MAX_LATE_SHARE,
    Lane,
    Workload,
    check_deferred_stacks,
    reconfigure_plan,
    run_lanes,
    schedule,
)
from oracle import TOUR_STACK, kept_percentile, median  # noqa: E402

#: Keep-alive connections to the server: at most one per core.
LANES = max(1, min(2, os.cpu_count() or 1))

#: Rounds per run; each has an open-loop and a closed-loop segment and
#: the probes.  An untraced run boots the server ROUNDS + 1 times, and
#: ``setup_s`` is the median.
ROUNDS = 8

#: Shares of ``--seconds`` spent in the open loop, the closed loop and
#: the probes (the extra boots and the warm-up take the rest).
OPEN_SHARE = 0.45
CLOSED_SHARE = 0.3
PROBE_SHARE = 0.2

#: Probe samples per round: reconfigures on every workload (sequential,
#: so one operation is timed alone), first pages where no session
#: arrives on its own.  They are spaced evenly over the round's probe
#: window: the machine's speed swings within a second, and a burst of
#: back-to-back probes would sample it at one moment only.
FIRST_PAGES_PER_ROUND = 8
RECONFIGURES_PER_ROUND = 8

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="browse",
            painters=0,
            paintings=0,
            session_ttl=3.0,
            sessions=64,
            rate=200.0,
            arrival_share=0.02,
            warm_cache=True,
        ),
        Workload(
            name="render-miss",
            painters=100,
            paintings=20,
            session_ttl=600.0,
            sessions=32,
            rate=25.0,
        ),
        Workload(
            name="reconfigure-churn",
            painters=0,
            paintings=0,
            # Short enough that the probes' one-page sessions are evicted
            # within a round: every reconfigure re-stacks each live visitor
            # session, so letting them pile up would make reconfigures and
            # pages slower round after round.
            session_ttl=3.0,
            sessions=64,
            rate=150.0,
            reconfigure_every=1.0,
            warm_cache=True,
        ),
    )
}


def site_pages(workload: Workload) -> list[str]:
    """Every page URI the workload's site serves, home first."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.baselines import museum_fixture, synthetic_museum
    from repro.core import PageRenderer

    if workload.painters:
        fixture = synthetic_museum(workload.painters, workload.paintings)
    else:
        fixture = museum_fixture()
    nodes = PageRenderer(fixture).node_inventory()
    return ["index.html"] + [node.uri for node in nodes]


class Run:
    """One server lifetime driven through every phase."""

    def __init__(self, workload: Workload, seed: int, seconds: float, pages: list[str]):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.lanes = [Lane(k, LANES, workload, pages, seed) for k in range(LANES)]
        self.setups: list[float] = []
        self.trace: dict | None = None
        self.problems: list[str] = []

    def execute(self, *, traced: bool, time_setup: bool, run_dir: Path) -> None:
        """Boot the server, drive every round, stop it.

        With *time_setup*, a second server is also booted once per round,
        between the loops, to time set-up across the run.
        """
        self.argv = self.workload.server_argv()
        trace_out = run_dir / f"trace-{os.getpid()}.json" if traced else None
        server = Server(ROOT, self.argv, trace_out=trace_out)
        self.server_command = " ".join(server.command[1:])
        server.start()
        self.setups.append(server.setup_s)
        try:
            self._drive(server, boot_each_round=time_setup)
        finally:
            for lane in self.lanes:
                if lane.conn is not None:
                    lane.conn.close()
            server.stop()
        if trace_out is not None:
            self.trace = json.loads(trace_out.read_text())
            trace_out.unlink()

    def _boot_once(self) -> None:
        server = Server(ROOT, self.argv)
        try:
            server.start()
        finally:
            server.stop()
        self.setups.append(server.setup_s)

    def _drive(self, server: Server, *, boot_each_round: bool) -> None:
        workload, lanes = self.workload, self.lanes
        for lane in lanes:
            lane.conn = Connection(server.port)
        run_lanes(lanes, Lane.warm_sessions, timeout=150)
        probe = lanes[0]
        if workload.warm_cache:
            probe.warm_cache()

        # Each round: an open-loop segment, a closed-loop segment, then
        # the probes.  Spreading every kind of sample over the whole run
        # averages out the machine's second-to-second speed changes.
        open_s = OPEN_SHARE * self.seconds / ROUNDS
        closed_s = CLOSED_SHARE * self.seconds / ROUNDS
        first_pages = 0 if workload.arrival_share else FIRST_PAGES_PER_ROUND
        spacing = (
            PROBE_SHARE * self.seconds / ROUNDS / (first_pages + RECONFIGURES_PER_ROUND)
        )
        rng = random.Random(f"{self.seed}:probe")
        self.open, self.first_probe, self.reconfigure_probe = [], [], []
        self.closed_pages, self.closed_s = 0, 0.0
        for round_ in range(ROUNDS):
            posted = sum(len(lane.reconfigures) for lane in lanes)
            events = schedule(
                workload, len(lanes), f"{self.seed}:{round_}", open_s, posted
            )
            start = time.perf_counter() + 0.02
            self.open += run_lanes(
                lanes,
                lambda lane: lane.open_loop(events[lane.index], start),
                60 + 3 * open_s,
            )
            if round_ == 0:
                for lane in lanes:
                    lane.open_last_seq = lane.seq

            posted = sum(len(lane.reconfigures) for lane in lanes)
            plan = reconfigure_plan(workload, len(lanes), closed_s, first=posted)
            started = time.perf_counter()
            closed = run_lanes(
                lanes,
                lambda lane: lane.closed_loop(
                    started + closed_s,
                    [(started + offset, stack) for offset, stack in plan[lane.index]],
                ),
                60 + closed_s,
            )
            self.closed_s += time.perf_counter() - started
            self.closed_pages += sum(stats.pages for stats in closed)

            if boot_each_round:
                self._boot_once()
            if first_pages:
                if workload.warm_cache:
                    probe.warm_cache()
                self.first_probe += probe.probe_first_pages(rng, first_pages, spacing)
            current = max(
                (r for lane in lanes for r in lane.reconfigures),
                key=lambda r: r[1],
                default=(0.0, 0.0, TOUR_STACK),
            )[2]
            self.reconfigure_probe += probe.probe_reconfigures(
                rng, RECONFIGURES_PER_ROUND, current, spacing
            )
            if workload.warm_cache:
                probe.warm_cache()

        self.stats = json.loads(probe.conn.exchange(get_request("/-/stats")).body)
        self.rss_mb = server.peak_rss_mb()
        problems, self.mid_swap_pages = check_deferred_stacks(lanes)
        self.problems.extend(problems)
        pages_sent = sum(lane.attempted - lane.reconfigure_posts for lane in lanes)
        served = self.stats["sessions"]["requests"]
        if served != pages_sent:
            self.problems.append(
                f"server counted {served} pages, client sent {pages_sent}"
            )

    # -- results ------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(lane.attempted for lane in self.lanes)

    def failures(self) -> list[str]:
        return [f for lane in self.lanes for f in lane.failures] + self.problems

    def open_values(self, attr: str) -> list[float]:
        return [value for stats in self.open for value in getattr(stats, attr)]

    def exchanges(self) -> list[tuple[str, float, float]]:
        return [x for stats in self.open for x in stats.exchanges]

    def end_to_end(self) -> dict[str, float | None]:
        page_us = self.open_values("page_us")
        first_us = self.open_values("first_us") or self.first_probe
        return {
            "setup_s": median(self.setups),
            "page_p50_us": median(page_us),
            "page_p99_us": kept_percentile(page_us, 0.99),
            "first_page_p50_us": median(first_us),
            "capacity_rps": self.closed_pages / self.closed_s,
            "reconfigure_p50_ms": median(self.reconfigure_probe),
            "failed_share": len(self.failures()) / self.attempted,
            "server_rss_mb": self.rss_mb,
        }

    def generator(self) -> dict[str, float]:
        lags = self.open_values("lag_us")
        sends = len(lags)
        late = sum(stats.late for stats in self.open)
        cpu = sum(stats.cpu_s for stats in self.open)
        return {
            "bench.client_us": cpu / sends * 1e6,
            "bench.generator_lag_p99_us": kept_percentile(lags, 0.99) or max(lags),
            "late_share": late / sends,
            "sends": sends,
        }

    def validity(self) -> list[str]:
        generator = self.generator()
        if generator["late_share"] > MAX_LATE_SHARE:
            return [
                f"{generator['late_share']:.1%} of sends left more than "
                f"{LATE_S * 1e3:g} ms late (limit {MAX_LATE_SHARE:.0%})"
            ]
        return []

    def samples(self) -> dict[str, int]:
        return {
            "pages": len(self.open_values("page_us")),
            "first_pages": len(self.open_values("first_us") or self.first_probe),
            "reconfigures": len(self.reconfigure_probe),
            "setups": len(self.setups),
        }


UNITS = {
    "setup_s": "s",
    "page_p50_us": "us",
    "page_p99_us": "us",
    "first_page_p50_us": "us",
    "capacity_rps": "1/s",
    "reconfigure_p50_ms": "ms",
    "failed_share": "share",
    "server_rss_mb": "MiB",
}

#: Printed with the others but left out of the JSON result: the p99 does
#: not repeat within any useful bound (it is set by a few stalls), the
#: reconfigure time swings with the machine's speed by more than the
#: largest bound (ten runs on one 2-core host spread by 0.29 of their
#: median), and ``failed_share`` is 0 on every correct run.
PRINTED_ONLY = ("page_p99_us", "reconfigure_p50_ms", "failed_share")


def layer_unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_share", "share")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith("_ratio") else "count"


def byte_identity(untraced: Run, traced: Run) -> list[str]:
    """Pages of the warm-up and open loop must match byte for byte."""
    problems = []
    for plain, woven in zip(untraced.lanes, traced.lanes):
        limit = min(plain.open_last_seq, woven.open_last_seq)
        keys = [k for k in plain.digests if k <= limit]
        differing = [k for k in keys if woven.digests.get(k) != plain.digests[k]]
        if differing or not keys:
            problems.append(
                f"lane {plain.index}: {len(differing)} of {len(keys)} traced "
                "pages differ from the untraced run"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pages = site_pages(workload)
    run_dir = ROOT / ".perfbench-run"
    run_dir.mkdir(exist_ok=True)
    # The generator keeps every sample; a cyclic collection over them
    # would stall it mid-run, and it makes no reference cycles.
    gc.collect()
    gc.freeze()
    gc.disable()

    if args.trace:
        seconds = args.seconds / 2
        untraced = Run(workload, args.seed, seconds, pages)
        untraced.execute(traced=False, time_setup=False, run_dir=run_dir)
        traced = Run(workload, args.seed, seconds, pages)
        traced.execute(traced=True, time_setup=False, run_dir=run_dir)
        runs = [untraced, traced]
        metrics, problems = per_layer(traced.trace, traced.exchanges(), traced.stats)
        generator = traced.generator()
        metrics["bench.client_us"] = generator["bench.client_us"]
        metrics["bench.generator_lag_p99_us"] = generator["bench.generator_lag_p99_us"]
        metrics["trace.overhead_share"] = (
            median(traced.open_values("page_us"))
            / median(untraced.open_values("page_us"))
            - 1.0
        )
        problems += byte_identity(untraced, traced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        run = Run(workload, args.seed, args.seconds, pages)
        run.execute(traced=False, time_setup=True, run_dir=run_dir)
        runs = [run]
        metrics = run.end_to_end()
        problems = []
        units = dict(UNITS)
        for name, value in metrics.items():
            if value is None and name not in PRINTED_ONLY:
                problems.append(f"{name}: too few samples")

    for run in runs:
        problems += run.validity()
    failures = [f for run in runs for f in run.failures()]
    attempted = sum(run.attempted for run in runs)
    failed = len(failures)

    for message in (failures + problems)[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:18} {name:34} {value!s:>22} {units[name]}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "connections": LANES,
        "server": runs[-1].server_command,
        "samples": runs[-1].samples(),
        "generator": runs[-1].generator(),
        "mid_swap_pages": runs[-1].mid_swap_pages,
        "failed_share": failed / attempted,
    }
    print("run " + json.dumps(record))
    for name in PRINTED_ONLY:
        metrics.pop(name, None)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
