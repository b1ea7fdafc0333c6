"""Profile the advised-call hot path, tier by tier.

Where ``bench_weaver_hotpath.py`` prices each wrapper tier as a single
number, this harness answers *where the nanoseconds go*: it deploys the
same observation-only aspect through both tiers (compiled wrappers and
generated wrappers), times the advised call, and runs the call loop under
``cProfile`` so the per-function breakdown of each tier's dispatch is
visible side by side.  The summary table is the per-tier ns breakdown;
the per-tier profile tables attribute the overhead to advice bodies and
pool operations.

Run::

    PYTHONPATH=src python benchmarks/profile_hotpath.py

``--smoke`` (used by CI's bench job) runs a few hundred calls per tier,
asserts every expected tier actually engaged, prints only the summary
table, and exits non-zero if any tier fell back to another one.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import os
import pstats
import sys
import timeit
from pathlib import Path

from repro.aop import Aspect, WeaverRuntime, before
from repro.metrics import format_table


class ObservationAspect(Aspect):
    """The same observation-only shape every tier accepts."""

    def __init__(self):
        self.count = 0

    @before("execution(Node.render)")
    def note(self, jp):
        self.count += 1


def fresh_node_class():
    class Node:
        def render(self):
            return 42

    return Node


# Tier name -> (REPRO_AOP_CODEGEN, the woven-site tier it must install).
_TIERS = {
    "compiled": ("0", "generic"),
    "codegen": ("1", "codegen"),
}


@contextlib.contextmanager
def tier_env(tier):
    saved = os.environ.get("REPRO_AOP_CODEGEN")
    os.environ["REPRO_AOP_CODEGEN"] = _TIERS[tier][0]
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_AOP_CODEGEN", None)
        else:
            os.environ["REPRO_AOP_CODEGEN"] = saved


def time_call(fn, *, number):
    best = min(timeit.repeat(fn, repeat=5, number=number))
    return best / number * 1e9


def profile_rows(profiler, *, top):
    """The hottest ``top`` functions as ``(function, ncalls, ms, ns/call)``."""
    stats = pstats.Stats(profiler)
    entries = []
    for (filename, lineno, funcname), row in stats.stats.items():
        ncalls, _, tottime, _, _ = row
        if not ncalls:
            continue
        where = "~" if filename == "~" else Path(filename).name
        label = f"{where}:{lineno}({funcname})" if lineno else f"{where}({funcname})"
        entries.append((tottime, ncalls, label))
    entries.sort(reverse=True)
    return [
        (label, ncalls, f"{tottime * 1e3:.2f}", f"{tottime / ncalls * 1e9:.0f}")
        for tottime, ncalls, label in entries[:top]
    ]


def run_tier(tier, *, calls, top):
    """Deploy through one tier; return (ns_per_call, engaged, profile rows)."""
    Node = fresh_node_class()
    weaver = WeaverRuntime()
    aspect = ObservationAspect()
    with tier_env(tier):
        handle = weaver.weave(Node, aspect)
    node = Node()
    engaged = [site.tier for site in weaver.woven_sites()] == [_TIERS[tier][1]]
    try:
        ns = time_call(node.render, number=calls)
        render = node.render
        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(calls):
            render()
        profiler.disable()
        return ns, engaged, profile_rows(profiler, top=top)
    finally:
        handle.undeploy()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--calls",
        type=int,
        default=50_000,
        help="advised calls per tier, for both timing and profiling",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=12,
        help="profile rows to print per tier",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI mode: a few hundred calls per tier, summary table only, "
            "non-zero exit if a tier fell back"
        ),
    )
    options = parser.parse_args(argv)
    calls = 400 if options.smoke else options.calls

    Node = fresh_node_class()
    plain_ns = time_call(Node().render, number=calls)

    summary = [("plain", f"{plain_ns:.1f}", "—", "1.00x", "—")]
    profiles = []
    fallbacks = []
    for tier in _TIERS:
        ns, engaged, rows = run_tier(tier, calls=calls, top=options.top)
        if not engaged:
            fallbacks.append(tier)
        summary.append(
            (
                tier,
                f"{ns:.1f}",
                f"{ns - plain_ns:.1f}",
                f"{ns / plain_ns:.2f}x",
                "yes" if engaged else "FELL BACK",
            )
        )
        profiles.append((tier, rows))

    print(
        format_table(
            ["tier", "ns/call", "overhead ns", "vs plain", "engaged"],
            summary,
            title=f"Advised observation-only call by tier ({calls} calls)",
        )
    )
    if not options.smoke:
        for tier, rows in profiles:
            print()
            print(
                format_table(
                    ["function", "ncalls", "total ms", "ns/call"],
                    rows,
                    title=f"cProfile: {tier} tier",
                )
            )
    if fallbacks:
        print(
            "profile_hotpath FAILED: tier(s) did not engage: "
            + ", ".join(fallbacks),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
