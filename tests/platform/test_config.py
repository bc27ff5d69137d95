"""Tests for cluster configuration."""

from __future__ import annotations

import pytest

from repro._util import MIB
from repro.platform.config import (
    CATALYZER_FIXED_MS,
    CATALYZER_MS_PER_MB,
    ClusterConfig,
    ColdStartMode,
)


class TestValidation:
    def test_defaults_valid(self):
        config = ClusterConfig()
        assert config.nodes > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes": 0},
            {"node_memory_mb": 0},
            {"content_scale": 0.0},
            {"content_scale": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)


class TestCapacities:
    def test_node_capacity(self):
        config = ClusterConfig(nodes=3, node_memory_mb=2048)
        assert config.node_capacity_bytes == 2048 * MIB
        assert config.cluster_capacity_bytes == 3 * 2048 * MIB


class TestColdStartModes:
    def test_standard_uses_profile(self, linalg_profile):
        config = ClusterConfig()
        assert config.cold_start_ms(linalg_profile) == linalg_profile.cold_start_ms

    def test_catalyzer_restore_model(self, linalg_profile):
        config = ClusterConfig(cold_start_mode=ColdStartMode.CATALYZER)
        expected = CATALYZER_FIXED_MS + CATALYZER_MS_PER_MB * linalg_profile.memory_mb
        assert config.cold_start_ms(linalg_profile) == expected

    def test_catalyzer_faster_than_standard(self, suite):
        config = ClusterConfig(cold_start_mode=ColdStartMode.CATALYZER)
        for profile in suite:
            assert config.cold_start_ms(profile) < profile.cold_start_ms
