"""Rendering tests for every experiment result type.

The benchmark harness relies on ``render()`` never raising on any
plausible data shape; these tests cover the renderers with synthetic
result objects (no platform runs needed).
"""

from __future__ import annotations

from repro.analysis.experiments import (
    Fig8Result,
    Fig12Result,
    Fig13Result,
    Fig16Result,
    OverheadResult,
    SweepResult,
)


class TestFig8Render:
    def test_rows_rendered(self):
        result = Fig8Result(
            rows=[("Vanilla", 550.0, 5.0, 15.0, 40.0, 1350.0)]
        )
        text = result.render()
        assert "Vanilla" in text
        assert "60.0" in text  # read + compute + fixed


class TestSweepRenders:
    def test_fig12(self):
        text = Fig12Result(cold_starts={"KA-5": 10, "Medes": 5}).render()
        assert "KA-5" in text and "Medes" in text

    def test_fig13(self):
        text = Fig13Result(cold_starts={"Emulated Catalyzer": 9}).render()
        assert "Catalyzer" in text

    def test_sweep_with_extras_and_metrics(self):
        result = SweepResult(
            title="t",
            parameter="p",
            cold_starts={"a": 1, "b": 2},
            extras={"a": "note"},
            metrics={"a": 0.5},
        )
        text = result.render()
        assert "note" in text
        assert "b" in text

    def test_fig16(self):
        result = Fig16Result(
            cold_starts={"5": 10},
            slowdowns={"5": [1.0, 2.0, 3.0]},
            restore_ms={"5": 80.0},
            savings_mb={"5": 27.0},
        )
        text = result.render()
        assert "80" in text
        assert "27.0" in text


class TestOverheadRender:
    def test_render(self):
        result = OverheadResult(
            dedup_duration_ms={"Vanilla": 1300.0},
            lookup_ms={"Vanilla": 300.0},
            registry_bytes=200_000,
            registry_digests=9_000,
            agent_metadata_share=0.06,
        )
        text = result.render()
        assert "Vanilla" in text
        assert "9000" in text
        assert "6.0%" in text
