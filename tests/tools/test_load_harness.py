"""The load harness's soak mode against a real ``serve --asgi`` child."""

from repro.tools import load_harness


def test_soak_holds_every_session_with_a_flat_footprint():
    summary = load_harness.run_soak(300)
    waves = summary["waves"]
    assert summary["sessions"] == 300
    assert [row["requests"] for row in waves] == [600, 600, 600]  # home + painting
    assert [row["errors"] for row in waves] == [0, 0, 0]
    if "rss_growth_share" in summary:
        assert summary["rss_growth_share"] <= load_harness.SOAK_RSS_GROWTH
