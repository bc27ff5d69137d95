"""Tests for the sharded fingerprint registry (Section 4.3)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.registry import (
    FingerprintRegistry,
    PageRef,
    ShardedFingerprintRegistry,
)
from repro.memory.fingerprint import PageFingerprint
from tests.core.test_registry_kernel import as_lists, choice_columns


def fp(*digests: int) -> PageFingerprint:
    return PageFingerprint(digests=tuple(digests), offsets=tuple(range(len(digests))))


def ref(checkpoint=1, node=0, page=0) -> PageRef:
    return PageRef(checkpoint_id=checkpoint, node_id=node, page_index=page)


class TestApiEquivalence:
    """Sharding must not change any lookup outcome."""

    def _populated(self, registry):
        registry.register_page(ref(checkpoint=1, page=0), fp(1, 2, 3, 4, 5))
        registry.register_page(ref(checkpoint=1, page=1), fp(4, 5, 6, 7, 8))
        registry.register_page(ref(checkpoint=2, node=3, page=0), fp(2, 3, 9, 10, 11))
        return registry

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_choose_base_page_matches_single(self, n_shards):
        single = self._populated(FingerprintRegistry())
        sharded = self._populated(ShardedFingerprintRegistry(n_shards))
        for query in (fp(1, 2, 3), fp(4, 5), fp(9, 10, 11, 12), fp(99)):
            assert sharded.choose_base_page(query, 0) == single.choose_base_page(query, 0)
            assert sharded.lookup(query) == single.lookup(query)

    @pytest.mark.parametrize("n_shards", [2, 5])
    def test_deregister_matches_single(self, n_shards):
        single = self._populated(FingerprintRegistry())
        sharded = self._populated(ShardedFingerprintRegistry(n_shards))
        assert sharded.deregister_checkpoint(1) == single.deregister_checkpoint(1)
        query = fp(1, 2, 3, 4, 5)
        assert sharded.lookup(query) == single.lookup(query)

    def test_digest_count_matches(self):
        single = self._populated(FingerprintRegistry())
        sharded = self._populated(ShardedFingerprintRegistry(4))
        assert sharded.digest_count == single.digest_count

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_batch_apis_match_per_page(self, n_shards):
        queries = [fp(1, 2, 3), fp(4, 5), fp(9, 10, 11, 12), fp(99)]
        for make in (FingerprintRegistry, lambda: ShardedFingerprintRegistry(n_shards)):
            per_page = self._populated(make())
            batched = self._populated(make())
            expected = [per_page.choose_base_page(q, 0) for q in queries]
            assert as_lists(batched.choose_base_pages(queries, 0)) == choice_columns(expected)
            assert batched.stats == per_page.stats

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_page_level_stats_match_single(self, n_shards):
        """Regression: the sharded registry used to sum page-level stats
        across shards, multiplying pages_registered and page_lookups by
        the number of shards a fingerprint's digests landed on."""
        single = self._populated(FingerprintRegistry())
        sharded = self._populated(ShardedFingerprintRegistry(n_shards))
        for registry in (single, sharded):
            registry.choose_base_page(fp(1, 2, 3), 0)
            registry.choose_base_page(fp(9, 10, 11, 12), 3)
            registry.choose_base_page(fp(99, 100), 0)  # miss
        assert sharded.stats.pages_registered == single.stats.pages_registered
        assert sharded.stats.page_lookups == single.stats.page_lookups
        assert sharded.stats.hits == single.stats.hits
        assert sharded.stats.hit_rate == single.stats.hit_rate


class TestShardingProperties:
    def test_digests_partitioned(self):
        sharded = ShardedFingerprintRegistry(4)
        sharded.register_page(ref(), fp(0, 1, 2, 3, 4, 5, 6, 7))
        for shard_index, shard in enumerate(sharded.shards):
            for digest in shard.domain_digests(""):
                assert digest % 4 == shard_index

    def test_load_roughly_balanced(self):
        from repro._util import stable_seed

        sharded = ShardedFingerprintRegistry(4)
        for page in range(50):
            digests = tuple(stable_seed("digest", page, i) for i in range(5))
            sharded.register_page(ref(page=page), fp(*digests))
        assert sharded.load_imbalance() < 1.5

    def test_stats_aggregate(self):
        sharded = ShardedFingerprintRegistry(3)
        sharded.register_page(ref(), fp(1, 2, 3))
        sharded.lookup(fp(1, 2))
        stats = sharded.stats
        assert stats.digests_registered == 3
        assert stats.digest_lookups == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedFingerprintRegistry(0)

    def test_empty_imbalance_is_one(self):
        assert ShardedFingerprintRegistry(4).load_imbalance() == 1.0


class TestPlatformIntegration:
    def test_sharded_platform_run_matches_shapes(self, small_suite):
        """A sharded-controller Medes run completes and dedups."""
        from repro.platform.config import ClusterConfig
        from repro.platform.platform import PlatformKind, build_platform
        from repro.workload.trace import Trace

        config = ClusterConfig(
            nodes=2,
            node_memory_mb=512.0,
            content_scale=1.0 / 256.0,
            registry_shards=4,
            verify_restores=True,
        )
        trace = Trace.from_arrivals(
            [(0.0, "Vanilla"), (1.0, "Vanilla"), (120_000.0, "Vanilla")]
        )
        platform = build_platform(PlatformKind.MEDES, config, small_suite)
        report = platform.run(trace)
        assert all(r.completion_ms is not None for r in report.metrics.requests.values())
        assert isinstance(platform.registry, ShardedFingerprintRegistry)

    def test_replay_imports_no_masked_arrays(self):
        """A sharded replay, its drain-time recount included, leaves
        ``numpy.ma`` unimported: importing it costs 10-24 ms, and plain
        ``np.unique`` reaches it through ``np.ma.is_masked``."""
        script = textwrap.dedent(
            """
            import sys
            from repro.core.policy import MedesPolicyConfig
            from repro.platform.config import ClusterConfig
            from repro.platform.platform import PlatformKind, build_platform
            from repro.workload.functionbench import FunctionBenchSuite
            from repro.workload.trace import Trace

            config = ClusterConfig(
                nodes=2, node_memory_mb=256.0, content_scale=1.0 / 256.0, registry_shards=4
            )
            trace = Trace.from_arrivals(
                [(t, "Vanilla") for t in (0.0, 1.0, 2.0, 26_000.0, 60_000.0)]
            )
            suite = FunctionBenchSuite.subset(["Vanilla"])
            medes = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)
            platform = build_platform(PlatformKind.MEDES, config, suite, medes=medes)
            platform.run(trace)
            assert platform.registry.stats.digest_lookups > 0
            print("numpy.ma" in sys.modules)
            """
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert done.stdout.split() == ["False"]
