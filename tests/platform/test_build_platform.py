"""Tests for platform construction and naming."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.controller.baselines import AdaptiveKeepAlivePolicy, FixedKeepAlivePolicy
from repro.core.policy import MedesPolicy
from repro.platform.config import ClusterConfig, ColdStartMode
from repro.platform.platform import PlatformKind, build_platform
from repro.workload.functionbench import FunctionBenchSuite


@pytest.fixture(scope="module")
def small_config():
    return ClusterConfig(nodes=2, node_memory_mb=256.0, content_scale=1 / 256)


@pytest.fixture(scope="module")
def tiny_suite():
    return FunctionBenchSuite.subset(["Vanilla"])


class TestBuildPlatform:
    def test_medes_wiring(self, small_config, tiny_suite):
        platform = build_platform(PlatformKind.MEDES, small_config, tiny_suite)
        assert platform.name == "medes"
        assert isinstance(platform.controller.policy, MedesPolicy)
        # Medes platforms carry per-function estimators.
        assert set(platform.controller.stats) == {"Vanilla"}
        assert len(platform.nodes) == 2
        assert len(platform.agents) == 2

    def test_fixed_wiring(self, small_config, tiny_suite):
        platform = build_platform(
            PlatformKind.FIXED_KEEP_ALIVE, small_config, tiny_suite,
            fixed_keep_alive_ms=300_000.0,
        )
        assert platform.name == "fixed-ka-5min"
        assert isinstance(platform.controller.policy, FixedKeepAlivePolicy)
        assert platform.controller.stats == {}

    def test_adaptive_wiring(self, small_config, tiny_suite):
        platform = build_platform(
            PlatformKind.ADAPTIVE_KEEP_ALIVE, small_config, tiny_suite
        )
        assert platform.name == "adaptive-ka"
        assert isinstance(platform.controller.policy, AdaptiveKeepAlivePolicy)

    def test_catalyzer_flag_changes_name_and_mode(self, small_config, tiny_suite):
        """``cold_start_mode`` alone selects Catalyzer; it names the
        platform of every kind."""
        catalyzer = replace(small_config, cold_start_mode=ColdStartMode.CATALYZER)
        for kind in PlatformKind:
            platform = build_platform(kind, catalyzer, tiny_suite)
            assert platform.name.endswith("+catalyzer")
            assert platform.config.cold_start_mode is ColdStartMode.CATALYZER
            standard = build_platform(kind, small_config, tiny_suite)
            assert platform.name == standard.name + "+catalyzer"

    def test_catalyzer_does_not_mutate_input_config(self, small_config, tiny_suite):
        catalyzer = replace(small_config, cold_start_mode=ColdStartMode.CATALYZER)
        snapshot = replace(catalyzer)
        build_platform(PlatformKind.MEDES, catalyzer, tiny_suite)
        assert catalyzer == snapshot
        assert small_config.cold_start_mode is ColdStartMode.STANDARD

    def test_agents_share_registry_and_store(self, small_config, tiny_suite):
        platform = build_platform(PlatformKind.MEDES, small_config, tiny_suite)
        registries = {id(agent.registry) for agent in platform.agents.values()}
        stores = {id(agent.store) for agent in platform.agents.values()}
        assert registries == {id(platform.registry)}
        assert stores == {id(platform.store)}

    def test_node_capacity_from_config(self, small_config, tiny_suite):
        platform = build_platform(PlatformKind.MEDES, small_config, tiny_suite)
        for node in platform.nodes:
            assert node.capacity_bytes == small_config.node_capacity_bytes
