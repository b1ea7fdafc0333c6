"""The benchmark regression gate's comparison rules."""

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).resolve().parent.parent.parent
    / "benchmarks"
    / "check_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(python="3.11.7", **speedups):
    return {"python": python, "speedup_vs_seed": speedups}


class TestCheck:
    def test_passes_when_series_hold(self, gate):
        baseline = payload(static_before=3.0)
        current = payload(static_before=2.9)
        assert gate.check(baseline, current, 0.15) == []

    def test_fails_on_a_real_drop(self, gate):
        baseline = payload(static_before=3.0)
        current = payload(static_before=2.0)
        (failure,) = gate.check(baseline, current, 0.15)
        assert "static_before" in failure

    def test_fails_when_a_series_disappears(self, gate):
        baseline = payload(static_before=3.0, field_get_codegen=2.5)
        current = payload(static_before=3.0)
        (failure,) = gate.check(baseline, current, 0.15)
        assert "field_get_codegen" in failure and "disappeared" in failure

    def test_newly_added_series_never_fail(self, gate):
        """Present-in-new, absent-in-baseline must not trip the gate."""
        baseline = payload(static_before=3.0)
        current = payload(static_before=3.0, field_get_codegen=0.01)
        assert gate.check(baseline, current, 0.15) == []
        assert gate.new_series(baseline, current) == ["field_get_codegen"]

    def test_tolerance_is_a_fraction_of_committed(self, gate):
        baseline = payload(deploy_batch=2.0)
        barely_ok = payload(deploy_batch=2.0 * 0.86)
        too_low = payload(deploy_batch=2.0 * 0.84)
        assert gate.check(baseline, barely_ok, 0.15) == []
        assert gate.check(baseline, too_low, 0.15) != []


class TestMain:
    def test_cross_interpreter_comparison_is_skipped(self, gate, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        baseline_path.write_text(json.dumps(payload(python="3.10.2", x=3.0)))
        current_path.write_text(json.dumps(payload(python="3.11.7", x=0.1)))
        assert (
            gate.main(
                ["--baseline", str(baseline_path), "--current", str(current_path)]
            )
            == 0
        )
        assert "SKIPPED" in capsys.readouterr().err

    def test_main_reports_new_series(self, gate, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        baseline_path.write_text(json.dumps(payload(x=3.0)))
        current_path.write_text(json.dumps(payload(x=3.0, brand_new=9.9)))
        assert (
            gate.main(
                ["--baseline", str(baseline_path), "--current", str(current_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "brand_new" in out and "not gated" in out

    def test_main_fails_on_regression(self, gate, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        baseline_path.write_text(json.dumps(payload(x=3.0)))
        current_path.write_text(json.dumps(payload(x=1.0)))
        assert (
            gate.main(
                ["--baseline", str(baseline_path), "--current", str(current_path)]
            )
            == 1
        )
        assert "FAILED" in capsys.readouterr().err


class TestDeltaTable:
    def test_rows_cover_speedups_and_raw_results(self, gate):
        baseline = {
            "speedup_vs_seed": {"static_before": 3.0},
            "results_ns": {"call_plain_ns": 24.0},
        }
        current = {
            "speedup_vs_seed": {"static_before": 2.7},
            "results_ns": {"call_plain_ns": 30.0, "serve_page_ns": 150000.0},
        }
        rows = {row[0]: row for row in gate.delta_rows(baseline, current)}
        speedup = rows["speedup_vs_seed.static_before"]
        assert speedup[1] == "3x" and speedup[2] == "2.7x"
        assert speedup[3] == "-10.0%" and speedup[4] == "yes"
        raw = rows["results_ns.call_plain_ns"]
        assert raw[3] == "+25.0%" and raw[4] == "no"
        # A freshly added series is reported, never gated.
        new = rows["results_ns.serve_page_ns"]
        assert new[1] == "—" and new[3] == "new" and new[4] == "not yet"

    def test_disappeared_series_show_gone(self, gate):
        baseline = {"speedup_vs_seed": {"old": 2.0}, "results_ns": {}}
        current = {"speedup_vs_seed": {}, "results_ns": {}}
        (row,) = gate.delta_rows(baseline, current)
        assert row[0] == "speedup_vs_seed.old" and row[3] == "gone"

    def test_plain_and_markdown_renderings(self, gate):
        rows = gate.delta_rows(
            {"speedup_vs_seed": {"x": 2.0}},
            {"speedup_vs_seed": {"x": 2.1}},
        )
        text = gate.format_delta_table(rows)
        assert text.splitlines()[0].startswith("series")
        assert "speedup_vs_seed.x" in text and "+5.0%" in text
        markdown = gate.format_delta_markdown(rows)
        assert markdown.startswith("### Weaver hot-path deltas")
        assert "| speedup_vs_seed.x | 2x | 2.1x | +5.0% | yes |" in markdown

    def test_main_prints_table_and_writes_summary(self, gate, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        summary_path = tmp_path / "summary.md"
        baseline_path.write_text(json.dumps(payload(x=3.0)))
        current_path.write_text(json.dumps(payload(x=3.0, fresh=5.0)))
        assert (
            gate.main(
                [
                    "--baseline",
                    str(baseline_path),
                    "--current",
                    str(current_path),
                    "--summary",
                    str(summary_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup_vs_seed.x" in out
        summary = summary_path.read_text()
        assert "| speedup_vs_seed.fresh | — | 5x | new | not yet |" in summary

    def test_summary_defaults_to_github_env(self, gate, tmp_path, monkeypatch):
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        summary_path = tmp_path / "gh_summary.md"
        summary_path.write_text("existing\n")
        baseline_path.write_text(json.dumps(payload(x=3.0)))
        current_path.write_text(json.dumps(payload(x=3.0)))
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary_path))
        assert (
            gate.main(
                ["--baseline", str(baseline_path), "--current", str(current_path)]
            )
            == 0
        )
        summary = summary_path.read_text()
        assert summary.startswith("existing\n")  # appended, not clobbered
        assert "speedup_vs_seed.x" in summary
