"""Medes core: dedup/restore ops, fingerprint registry, base management, policy."""

from repro.core.agent import (
    DedupAgent,
    DedupOutcome,
    DedupPageTable,
    DedupStats,
    DedupTimings,
    PageKind,
    RestoreOutcome,
    RestoreTimings,
)
from repro.core.basemgr import BASE_THRESHOLD, BaseSandboxManager
from repro.core.costs import CostModel
from repro.core.optimizer import (
    FunctionModel,
    Objective,
    Solution,
    max_dedup_for_latency,
    max_dedup_for_rate,
    mean_startup_ms,
    memory_usage,
    min_dedup_for_memory,
    solve,
)
from repro.core.policy import (
    ClusterView,
    Decision,
    FunctionStats,
    LifecyclePolicy,
    MedesPolicy,
    MedesPolicyConfig,
)
from repro.core.registry import (
    FingerprintRegistry,
    PageRef,
    RegistryStats,
    ShardedFingerprintRegistry,
)

__all__ = [
    "BASE_THRESHOLD",
    "BaseSandboxManager",
    "ClusterView",
    "CostModel",
    "Decision",
    "DedupAgent",
    "DedupOutcome",
    "DedupPageTable",
    "DedupStats",
    "DedupTimings",
    "FingerprintRegistry",
    "FunctionModel",
    "FunctionStats",
    "LifecyclePolicy",
    "MedesPolicy",
    "MedesPolicyConfig",
    "Objective",
    "PageKind",
    "PageRef",
    "RegistryStats",
    "ShardedFingerprintRegistry",
    "RestoreOutcome",
    "RestoreTimings",
    "Solution",
    "max_dedup_for_latency",
    "max_dedup_for_rate",
    "mean_startup_ms",
    "memory_usage",
    "min_dedup_for_memory",
    "solve",
]
