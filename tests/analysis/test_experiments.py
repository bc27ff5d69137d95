"""Smoke tests for the experiment drivers (tiny durations).

Each driver must run end-to-end and render; the full-scale shapes are
the claims in ``benchmarks/claims.py`` (Fig 7's run in
``test_claims.py``, every claim in CI's scorecard job).
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.platform.config import ClusterConfig

TINY = 3.0  # minutes

SMALL_CONFIG = ClusterConfig(
    nodes=2, node_memory_mb=512.0, content_scale=1.0 / 256.0, seed=1
)


class TestWorkloadBuilders:
    def test_full_workload(self):
        suite, trace = experiments.full_workload(duration_min=TINY)
        assert len(trace) > 0
        assert set(trace.functions()) <= set(suite.names())

    def test_representative_workload(self):
        suite, trace = experiments.representative_workload(duration_min=TINY)
        base_names = {name.split("~")[0] for name in suite.names()}
        assert base_names == {"LinAlg", "FeatureGen", "ModelTrain"}


class TestDrivers:
    def test_fig7(self):
        result = experiments.run_fig7(duration_min=TINY, config=SMALL_CONFIG)
        text = result.render()
        assert "Fig 7a" in text
        assert "cold starts per function" in text

    def test_fig8(self):
        result = experiments.run_fig8(content_scale=1.0 / 256.0)
        text = result.render()
        assert "Fig 8" in text
        for fn, cold, read, compute, fixed, dedup_total in result.rows:
            assert read + compute + fixed < cold  # dedup start beats cold

    def test_fig9(self):
        result = experiments.run_fig9(duration_min=TINY, config=SMALL_CONFIG)
        text = result.render()
        assert "Fig 9a" in text
        assert 0.0 <= result.cross_function_share <= 1.0
        assert result.same_function_share + result.cross_function_share == pytest.approx(
            1.0
        )

    def test_pressure(self):
        result = experiments.run_pressure(
            duration_min=TINY, pool_mb=(1024.0, 512.0), nodes=2
        )
        assert len(result.comparisons) == 2
        assert "Fig 10a" in result.render()

    def test_fig12(self):
        result = experiments.run_fig12(
            duration_min=TINY, keep_alive_minutes=(5, 10), config=SMALL_CONFIG
        )
        assert set(result.cold_starts) == {"KA-5", "KA-10", "Medes"}

    def test_fig13(self):
        result = experiments.run_fig13(duration_min=TINY, config=SMALL_CONFIG)
        assert set(result.cold_starts) == {
            "Emulated Catalyzer",
            "Emulated Catalyzer + Medes",
        }

    def test_fig14(self):
        result = experiments.run_fig14(
            duration_min=TINY, chunk_sizes=(64,), config=SMALL_CONFIG
        )
        assert "64B" in result.cold_starts

    def test_fig15(self):
        result = experiments.run_fig15(
            duration_min=TINY, keep_dedup_minutes=(5,), config=SMALL_CONFIG
        )
        assert "No Dedup" in result.cold_starts

    def test_fig16(self):
        result = experiments.run_fig16(
            duration_min=TINY, cardinalities=(5,), config=SMALL_CONFIG
        )
        assert "5" in result.cold_starts
        assert "Fig 16" in result.render()

    def test_overheads(self):
        result = experiments.run_overheads(duration_min=TINY, config=SMALL_CONFIG)
        text = result.render()
        assert "registry" in text
        assert result.registry_digests >= 0
        assert 0.0 <= result.agent_metadata_share <= 1.0
