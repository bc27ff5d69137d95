"""Deterministic fault injection and recovery (DESIGN.md §11).

The package is the chaos layer of the reproduction: a seeded, clock-driven
:class:`~repro.faults.injector.FaultInjector` that crashes nodes, drops
registry shards and degrades links mid-run, plus the retry/backoff machinery
(:class:`~repro.faults.retry.TransientFaults`) that makes base-page fetches
and registry RPCs resilient to per-op transient failures.  Everything hangs
off ``ClusterConfig.faults``; the default, an empty ``FaultsConfig()``,
injects nothing and leaves healthy runs unchanged.
"""

from repro.faults.health import FaultDomainHealth, FaultRuntime, RegistryUnavailable
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryExhausted, RetryOutcome, TransientFaults
from repro.faults.schedule import (
    FaultSchedule,
    FaultsConfig,
    LinkDegradation,
    LinkPartition,
    NodeCrash,
    ShardOutage,
)

__all__ = [
    "FaultDomainHealth",
    "FaultInjector",
    "FaultRuntime",
    "FaultSchedule",
    "FaultsConfig",
    "LinkDegradation",
    "LinkPartition",
    "NodeCrash",
    "RegistryUnavailable",
    "RetryExhausted",
    "RetryOutcome",
    "ShardOutage",
    "TransientFaults",
]
