#!/usr/bin/env python3
"""Regenerate every figure and table of the paper in one run.

This is the human-readable companion to the pytest-benchmark harness: it
prints the artifacts (Figures 3–4, 7–9), the derived tables (change
impact, scattering) and the scaling series the per-figure benches time.
EXPERIMENTS.md records this output as paper-vs-measured.

Run:  python benchmarks/run_experiments.py
"""

import time

from repro.baselines import TangledMuseumSite, museum_fixture, synthetic_museum
from repro.core import (
    build_plain_site,
    build_woven_site,
    build_xlink_site,
    default_museum_spec,
    export_museum_space,
    linkbase_text,
)
from repro.metrics import all_impacts, format_table, measure_scattering
from repro.web import diff_builds, unified_diff
from repro.xmlcore import serialize


def clock(fn, repeat=3):
    best = float("inf")
    result = None
    for __ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def section(title):
    print()
    print("#" * 70)
    print(f"# {title}")
    print("#" * 70)


def main() -> None:
    fixture = museum_fixture()

    # ---------------------------------------------------------------- F3/F4
    section("F3/F4 - Figures 3-4: the tangled Guitar page, before and after")
    before = {
        p.path: p.html for p in TangledMuseumSite(fixture, "index").build().values()
    }
    after = {
        p.path: p.html
        for p in TangledMuseumSite(fixture, "indexed-guided-tour").build().values()
    }
    print("\nFigure 3 (painting/guitar.html, Index):\n")
    print(before["painting/guitar.html"])
    print("\nFigure 4 delta (the two bold lines), per page:\n")
    print(unified_diff(before, after, "painting/guitar.html", context=0))
    impact = diff_builds(before, after)
    print(f"\ntangled change impact: {impact.summary()}")

    # ---------------------------------------------------------------- F7-F9
    section("F7-F9 - Figures 7-9: picasso.xml / avignon.xml / links.xml")
    space = export_museum_space(fixture, default_museum_spec("index"))
    print("\npicasso.xml:\n")
    print(serialize(space.document("picasso.xml"), indent="  "))
    print("\navignon.xml:\n")
    print(serialize(space.document("avignon.xml"), indent="  "))
    links = linkbase_text(fixture, default_museum_spec("index"))
    print(f"\nlinks.xml: {len(links.splitlines())} lines; first 16:\n")
    print("\n".join(links.splitlines()[:16]))

    # ------------------------------------------------------------------- T-C
    section("T-C - Change impact: Index -> Indexed Guided Tour, three ways")
    rows = [impact.row() for impact in all_impacts(fixture)]
    print()
    print(
        format_table(
            [
                "approach",
                "authored files",
                "authored lines",
                "built files",
                "built lines",
            ],
            rows,
        )
    )
    print("\nscaling the museum (tangled grows, separated stays O(1)):\n")
    scaling_rows = []
    for paintings in (5, 20, 50):
        big = synthetic_museum(4, paintings)
        impacts = {i.approach: i for i in all_impacts(big)}
        scaling_rows.append(
            (
                f"4x{paintings}",
                impacts["tangled"].authored.files_touched,
                impacts["xlink"].authored.files_touched,
                impacts["aspect"].authored.lines_changed,
            )
        )
    print(
        format_table(
            ["museum", "tangled files", "xlink files", "aspect lines"],
            scaling_rows,
        )
    )

    # ------------------------------------------------------------------- T-S
    section("T-S - Scattering of the navigation concern")
    tangled_report = measure_scattering(before)
    space_text = {
        uri: serialize(space.document(uri), indent="  ") for uri in space.uris()
    }
    xlink_report = measure_scattering(space_text)
    aspect_report = measure_scattering(
        {"navigation.spec": default_museum_spec("index").to_text()}
    )
    print()
    print(
        format_table(
            ["architecture", "files", "CDC", "tangled", "ratio", "nav LOC", "share"],
            [
                tangled_report.row("tangled pages"),
                xlink_report.row("xlink artifacts"),
                aspect_report.row("aspect artifacts"),
            ],
        )
    )
    print(
        f"\npure-navigation artifacts (xlink): {xlink_report.navigation_only_files()}"
    )

    # ------------------------------------------------------------------- F6
    section("F6 - Figure 6: build-time cost of the separation")
    plain_t, plain = clock(lambda: build_plain_site(fixture))
    woven_t, woven = clock(
        lambda: build_woven_site(fixture, default_museum_spec("index"))
    )
    xlink_t, xlink = clock(
        lambda: build_xlink_site(fixture, default_museum_spec("index"))
    )
    tangled_t, __ = clock(lambda: TangledMuseumSite(fixture, "index").build())
    print()
    print(
        format_table(
            ["build", "pages", "best time (ms)", "vs tangled", "vs plain base"],
            [
                ("tangled", 14, f"{tangled_t * 1e3:.1f}", "1.00x", "-"),
                ("plain (base only)", len(plain), f"{plain_t * 1e3:.1f}",
                 f"{plain_t / tangled_t:.2f}x", "1.00x"),
                ("woven (aspect)", len(woven), f"{woven_t * 1e3:.1f}",
                 f"{woven_t / tangled_t:.2f}x", f"{woven_t / plain_t:.2f}x"),
                ("xlink pipeline", len(xlink), f"{xlink_t * 1e3:.1f}",
                 f"{xlink_t / tangled_t:.2f}x", f"{xlink_t / plain_t:.2f}x"),
            ],
        )
    )
    print(
        "\n(the tangled generator concatenates strings while the separated"
        "\nbuilds construct and serialize DOM trees - 'vs plain base' is the"
        "\nseparation mechanism's own cost)"
    )

    # ------------------------------------------------------------------- F1
    section("F1 - Figure 1: the weaving mechanism's overhead")
    from repro.aop import Aspect, WeaverRuntime, before as before_advice

    class Probe:
        def step(self):
            return sum(range(25))

    class Noop(Aspect):
        @before_advice("execution(Probe.step)")
        def observe(self, jp):
            pass

    probe = Probe()
    base_t, __ = clock(lambda: [probe.step() for __ in range(10_000)])
    handle = WeaverRuntime().weave(Probe, Noop())
    woven_call_t, __ = clock(lambda: [probe.step() for __ in range(10_000)])
    handle.undeploy()
    print(
        f"\n10k calls: plain {base_t * 1e3:.1f} ms, "
        f"advised {woven_call_t * 1e3:.1f} ms "
        f"({woven_call_t / base_t:.1f}x constant-factor overhead)"
    )

    # ------------------------------------------------------------------- F2
    section("F2 - Figure 2: access-structure scaling (anchors per page)")
    from repro.core import NavigationSpec
    from repro.hypermedia import GuidedTour, Index

    rows = []
    for n in (10, 100, 1000):
        big = synthetic_museum(1, n)
        spec = NavigationSpec().set_access(
            "by-painter", "index", label_attribute="title"
        )
        (context,) = spec.build_contexts(big).values()
        middle = context.members[n // 2]
        index_anchors = Index(name="x", label_attribute="title").anchors_on(
            middle, context.members
        )
        tour_anchors = GuidedTour(name="x").anchors_on(middle, context.members)
        rows.append((n, len(index_anchors), len(tour_anchors)))
    print()
    print(
        format_table(
            ["context size", "Index anchors O(n)", "GuidedTour anchors O(1)"], rows
        )
    )

    print("\nDone.  See EXPERIMENTS.md for the paper-vs-measured record.")


if __name__ == "__main__":
    main()
