"""Fail CI when the weaver hot-path trajectory moves backwards.

Compares a freshly-run ``BENCH_weaver_hotpath.json`` against the committed
baseline: every ``speedup_vs_seed`` entry of the baseline must still exist
and must not fall more than the tolerance below its committed value.
Speedups are ratios against the in-process legacy reproduction, so they
self-normalize across runner hardware — a noisy CI box slows both sides.

Usage::

    python benchmarks/check_regression.py \
        --baseline /tmp/bench-baseline.json --current BENCH_weaver_hotpath.json

The tolerance defaults to 0.15 (15%) and can be overridden with the
``BENCH_REGRESSION_TOLERANCE`` environment variable or ``--tolerance``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_CURRENT = Path(__file__).resolve().parent.parent / "BENCH_weaver_hotpath.json"


def _minor_version(payload: dict) -> str:
    return ".".join(payload.get("python", "").split(".")[:2])


def check(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Human-readable failure messages (empty when the gate passes).

    Only series committed in the *baseline* are gated: a series that is
    present in the current run but absent from the baseline is a freshly
    added benchmark (this PR introduced it), and must never fail the gate
    — it has no committed floor yet.  :func:`new_series` reports them so
    the CI log shows what starts being gated once the run is committed.
    """
    failures = []
    baseline_speedups = baseline.get("speedup_vs_seed", {})
    current_speedups = current.get("speedup_vs_seed", {})
    for key, committed in sorted(baseline_speedups.items()):
        measured = current_speedups.get(key)
        if measured is None:
            failures.append(f"{key}: series disappeared from the benchmark")
            continue
        floor = committed * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{key}: {measured:.2f}x vs committed {committed:.2f}x "
                f"(floor {floor:.2f}x at {tolerance:.0%} tolerance)"
            )
    return failures


def new_series(baseline: dict, current: dict) -> list[str]:
    """Series present in the current run but not in the baseline (ungated)."""
    return sorted(
        set(current.get("speedup_vs_seed", {}))
        - set(baseline.get("speedup_vs_seed", {}))
    )


def delta_rows(baseline: dict, current: dict) -> list[tuple[str, str, str, str, str]]:
    """Per-series ``(series, committed, current, delta, gated)`` rows.

    Covers every ``speedup_vs_seed`` series (these gate; higher is better)
    and every raw ``results_ns`` series (informational; lower is better,
    so the delta sign is the raw relative change — a positive ns delta
    reads as "slower").  Series missing on either side show ``—`` and a
    ``new``/``gone`` delta, so a freshly added benchmark is *reported*
    before it ever gates — the path the request-path ``serve_page``
    series took before it was committed to ``speedup_vs_seed``.
    """
    rows: list[tuple[str, str, str, str, str]] = []
    for section, gated in (("speedup_vs_seed", "yes"), ("results_ns", "no")):
        committed_map = baseline.get(section, {})
        measured_map = current.get(section, {})
        unit = "x" if section == "speedup_vs_seed" else ""
        for name in sorted(set(committed_map) | set(measured_map)):
            committed = committed_map.get(name)
            measured = measured_map.get(name)
            gating = gated if committed is not None else "not yet"
            if committed is None:
                delta = "new"
            elif measured is None:
                delta = "gone"
            elif committed == 0:
                delta = "n/a"
            else:
                delta = f"{(measured - committed) / committed:+.1%}"
            rows.append(
                (
                    f"{section}.{name}",
                    "—" if committed is None else f"{committed:g}{unit}",
                    "—" if measured is None else f"{measured:g}{unit}",
                    delta,
                    gating,
                )
            )
    return rows


_HEADERS = ("series", "committed", "current", "delta", "gated")


def format_delta_table(rows: list[tuple[str, str, str, str, str]]) -> str:
    """The delta rows as an aligned plain-text table.

    Written here rather than with the package's table helper: the gate
    reads two JSON files and runs from a bare checkout.
    """
    table = [_HEADERS, *rows]
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    ]
    lines.insert(1, "-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def format_delta_markdown(rows: list[tuple[str, str, str, str, str]]) -> str:
    """The delta rows as a GitHub job-summary markdown table."""
    lines = [
        "### Weaver hot-path deltas vs committed baseline",
        "",
        "Speedup series gate (higher is better); raw ns series are "
        "informational (positive delta = slower).",
        "",
        "| " + " | ".join(_HEADERS) + " |",
        "| " + " | ".join(["---"] * len(_HEADERS)) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--current", default=DEFAULT_CURRENT, type=Path)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_REGRESSION_TOLERANCE", "0.15")),
        help="allowed fractional drop below the committed speedup (default 0.15)",
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help=(
            "append the per-series delta table as markdown to this file "
            "(defaults to $GITHUB_STEP_SUMMARY when set — the CI job summary)"
        ),
    )
    options = parser.parse_args(argv)

    baseline = json.loads(options.baseline.read_text())
    current = json.loads(options.current.read_text())
    rows = delta_rows(baseline, current)
    print(format_delta_table(rows))
    summary_path = options.summary
    if summary_path is None and os.environ.get("GITHUB_STEP_SUMMARY"):
        summary_path = Path(os.environ["GITHUB_STEP_SUMMARY"])
    if summary_path is not None:
        with summary_path.open("a") as handle:
            handle.write(format_delta_markdown(rows))
    base_python, current_python = _minor_version(baseline), _minor_version(current)
    if base_python != current_python:
        # Speedup ratios self-normalize across hardware, not across
        # interpreters: a CPython release can shift the seed and the
        # optimized path asymmetrically.  Gating across versions would
        # turn such shifts into permanent false failures, so refuse the
        # comparison instead of reporting a bogus verdict either way.
        print(
            "benchmark regression gate SKIPPED: baseline recorded on "
            f"python {base_python or '?'}, current run is "
            f"{current_python or '?'} — re-record the baseline on the "
            "gate's interpreter to compare",
            file=sys.stderr,
        )
        return 0
    failures = check(baseline, current, options.tolerance)
    if failures:
        print("benchmark regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    added = new_series(baseline, current)
    if added:
        print(
            "note: new series not gated this run (no committed floor yet): "
            + ", ".join(added)
        )
    names = ", ".join(sorted(baseline.get("speedup_vs_seed", {})))
    print(f"benchmark regression gate passed ({names})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
