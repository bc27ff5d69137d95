"""Platform assembly: wire the substrates together and run a trace.

:func:`build_platform` constructs a ready-to-run platform for any of the
evaluated systems — Medes, the fixed and adaptive keep-alive baselines,
and the emulated-Catalyzer variants — and :meth:`Platform.run` replays a
trace against it, returning a :class:`RunReport`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial

from repro._util import stable_seed
from repro.controller.baselines import AdaptiveKeepAlivePolicy, FixedKeepAlivePolicy
from repro.controller.controller import ClusterController
from repro.core.agent import DedupAgent
from repro.core.basemgr import BaseSandboxManager
from repro.core.policy import FunctionStats, LifecyclePolicy, MedesPolicy, MedesPolicyConfig
from repro.core.registry import FingerprintRegistry, ShardedFingerprintRegistry
from repro.faults.health import FaultDomainHealth, FaultRuntime
from repro.faults.injector import FaultInjector
from repro.faults.retry import TransientFaults
from repro.platform.config import ClusterConfig, ColdStartMode
from repro.platform.metrics import RunMetrics
from repro.sandbox.checkpoint import CheckpointStore
from repro.sandbox.node import Node
from repro.sim.engine import Simulator
from repro.sim.network import RdmaFabric
from repro.storage.prefetch import WorkingSetRecorder
from repro.storage.store import TieredCheckpointStore
from repro.storage.tiers import StorageTier
from repro.templates.catalog import TemplateCatalog
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

#: Quiet time after the last arrival before a run is considered drained.
RUN_TAIL_MS = 60_000.0


class PlatformKind(enum.Enum):
    """The systems the evaluation compares."""

    MEDES = "medes"
    FIXED_KEEP_ALIVE = "fixed-keep-alive"
    ADAPTIVE_KEEP_ALIVE = "adaptive-keep-alive"


@dataclass(frozen=True)
class RunReport:
    """Result of replaying one trace on one platform."""

    platform_name: str
    config: ClusterConfig
    metrics: RunMetrics
    duration_ms: float

    def summary(self) -> str:
        """A terse human-readable digest of the run."""
        metrics = self.metrics
        counts = metrics.start_counts()
        total = sum(counts.values())
        lines = [
            f"platform: {self.platform_name}",
            f"requests completed: {total}",
            "starts: "
            + ", ".join(f"{t.value}={counts[t]}" for t in sorted(counts, key=lambda t: t.value)),
            f"p50 e2e: {metrics.e2e_percentile(50):.0f} ms, "
            f"p99.9 e2e: {metrics.e2e_percentile(99.9):.0f} ms",
            f"mean cluster memory: {metrics.mean_memory_bytes() / 2**20:.0f} MB",
            f"sandboxes created: {metrics.sandboxes_created}, "
            f"evictions: {metrics.evictions}, dedup ops: {len(metrics.dedup_ops)}",
        ]
        return "\n".join(lines)


class Platform:
    """A fully-wired serverless platform ready to replay traces."""

    def __init__(
        self,
        *,
        name: str,
        config: ClusterConfig,
        suite: FunctionBenchSuite,
        policy: LifecyclePolicy,
        stats: dict[str, FunctionStats] | None = None,
    ):
        self.name = name
        self.config = config
        self.suite = suite
        self.sim = Simulator()
        self.metrics = RunMetrics(platform_name=name)
        self.fabric = RdmaFabric(config.rdma)
        if config.registry_shards > 1:
            self.registry = ShardedFingerprintRegistry(
                config.registry_shards,
                config.fingerprint,
                max_refs_per_digest=config.max_refs_per_digest,
            )
        else:
            self.registry = FingerprintRegistry(
                config.fingerprint, max_refs_per_digest=config.max_refs_per_digest
            )
        if config.checkpoint_tiering:
            self.store: CheckpointStore = TieredCheckpointStore(
                config.storage, nodes=config.nodes
            )
            self.recorder = (
                WorkingSetRecorder() if config.storage.prefetch else None
            )
        else:
            self.store = CheckpointStore()
            self.recorder = None
        self.basemgr = BaseSandboxManager(self.store, threshold=config.base_threshold)
        if config.faults is not None:
            self.faults: FaultRuntime | None = FaultRuntime(
                config=config.faults,
                health=FaultDomainHealth(
                    nodes=config.nodes, shards=config.registry_shards
                ),
                transients=TransientFaults(
                    config.faults.rpc_failure_prob,
                    config.faults.retry,
                    seed=stable_seed("transient-rpc", config.seed, config.faults.seed),
                ),
            )
        else:
            self.faults = None
        self.templates: TemplateCatalog | None = (
            TemplateCatalog(
                config.templates,
                config.storage,
                content_scale=config.content_scale,
            )
            if config.template_sharing
            else None
        )
        self.nodes = [
            Node(
                node_id=i,
                capacity_bytes=config.node_capacity_bytes,
                verify_accounting=config.verify_accounting,
            )
            for i in range(config.nodes)
        ]
        self.agents = {
            node.node_id: DedupAgent(
                node.node_id,
                registry=self.registry,
                store=self.store,
                fabric=self.fabric,
                costs=config.costs,
                content_scale=config.content_scale,
                fingerprint_config=config.fingerprint,
                recorder=self.recorder,
                overlap_costs=config.parallel if config.parallel_data_plane else None,
                transients=self.faults.transients if self.faults is not None else None,
                templates=self.templates,
            )
            for node in self.nodes
        }
        self.controller = ClusterController(
            sim=self.sim,
            config=config,
            suite=suite,
            policy=policy,
            metrics=self.metrics,
            nodes=self.nodes,
            agents=self.agents,
            registry=self.registry,
            store=self.store,
            basemgr=self.basemgr,
            stats=stats,
            faults=self.faults,
            templates=self.templates,
        )
        self.injector: FaultInjector | None = (
            FaultInjector(
                sim=self.sim,
                config=config,
                runtime=self.faults,
                fabric=self.fabric,
                registry=self.registry,
                controller=self.controller,
                store=self.store,
                metrics=self.metrics,
            )
            if self.faults is not None
            else None
        )

    def cluster_snapshot(self) -> dict:
        """A point-in-time view of the cluster for observability.

        Returns per-node sandbox states, checkpoint pins and memory
        usage — what an operator dashboard would poll.  Read-only.
        """
        nodes = [
            {
                "node_id": node.node_id,
                "used_bytes": node.used_bytes(),
                "capacity_bytes": node.capacity_bytes,
                "sandboxes": [
                    {
                        "id": sandbox.sandbox_id,
                        "function": sandbox.function,
                        "state": sandbox.state.value,
                        "is_base": sandbox.is_base,
                        "memory_bytes": sandbox.memory_bytes(),
                    }
                    for sandbox in node.sandboxes.values()
                ],
                "checkpoints": [
                    {
                        "id": checkpoint.checkpoint_id,
                        "function": checkpoint.function,
                        "refcount": checkpoint.refcount,
                        "memory_bytes": checkpoint.memory_bytes(),
                    }
                    for checkpoint in node.checkpoints.values()
                ],
            }
            for node in self.nodes
        ]
        return {
            "time_ms": self.sim.now,
            "platform": self.name,
            "nodes": nodes,
            "registry_digests": self.registry.digest_count,
            "registry_bytes": self.registry.memory_bytes(),
        }

    def _sample_memory(self) -> None:
        warm, dedup, total = self.controller.sandbox_census()
        # append_row: the sampler runs on every tick of cluster-scale
        # replays; skip the per-sample object construction.
        self.metrics.memory_timeline.append_row(
            self.sim.now, self.controller.used_bytes(), warm, dedup, total
        )
        if isinstance(self.store, TieredCheckpointStore):
            occupancy = self.store.tier_used_bytes()
            self.metrics.tier_timeline.append_row(
                self.sim.now,
                occupancy[StorageTier.REMOTE_DRAM],
                occupancy[StorageTier.LOCAL_SSD],
                self.controller.cold_parked_tables,
            )
        if self.templates is not None:
            self.metrics.template_timeline.append_row(
                self.sim.now,
                self.templates.pool.used_bytes,
                self.templates.replica_bytes(),
                len(self.templates),
                self.templates.live_deltas,
            )

    def _inject_arrivals(self, trace: Trace) -> None:
        """Schedule the trace's arrivals on the simulator.

        Only ``config.arrival_chunk`` upcoming arrivals sit on the heap
        at once (``Simulator.schedule_stream``); the controller seeds
        the execution-time draws of each chunk's requests in one batch
        as they are scheduled.
        """
        requests = trace.requests
        submit = self.controller.submit
        prime = self.controller.prime_exec_times
        self.sim.schedule_stream(
            [request.arrival_ms for request in requests],
            lambda i: partial(submit, requests[i]),
            chunk_size=self.config.arrival_chunk,
            on_chunk=lambda start, stop: prime(requests[start:stop]),
        )

    def run(self, trace: Trace, *, tail_ms: float = RUN_TAIL_MS) -> RunReport:
        """Replay ``trace`` to completion and collect metrics.

        The simulation runs until every request has completed and a tail
        of quiet time has elapsed (so background dedup ops finish), but
        lifecycle timers beyond that point are not waited for.
        """
        if self.injector is not None:
            self.injector.arm()
        self._inject_arrivals(trace)
        sampler = self.sim.every(
            self.config.memory_sample_interval_ms, self._sample_memory
        )

        end = trace.duration_ms + tail_ms
        self.sim.run_until(end)
        # The trace (plus its quiet tail) is over: stop the sampler so
        # drain-guard extensions below don't append quiet-period samples
        # that drag down mean_memory_bytes.
        sampler.cancel()
        # Let any in-flight requests (queued under pressure) drain.  The
        # outstanding counter is maintained by RunMetrics, so each
        # guard check is O(1) instead of a rescan of every request
        # record.
        guard = 0
        while self.metrics.outstanding_requests > 0:
            end += RUN_TAIL_MS
            guard += 1
            self.sim.run_until(end)
            if guard > 10_000:
                raise RuntimeError("run did not drain; requests stuck in queue")
        if self.recorder is not None:
            self.metrics.prefetch_recordings = self.recorder.recordings
            self.metrics.prefetched_restores = self.recorder.prefetched_restores
            self.metrics.prefetch_hit_pages = self.recorder.hit_pages
            self.metrics.prefetch_miss_pages = self.recorder.miss_pages
        agents = self.agents.values()
        self.metrics.base_page_cache_hits = sum(a.base_page_cache.hits for a in agents)
        self.metrics.base_page_cache_misses = sum(
            a.base_page_cache.misses for a in agents
        )
        self.metrics.anchor_index_cache_hits = sum(
            a.anchor_index_cache.hits for a in agents
        )
        self.metrics.anchor_index_cache_misses = sum(
            a.anchor_index_cache.misses for a in agents
        )
        if self.faults is not None:
            transients = self.faults.transients
            self.metrics.rpc_retries = transients.retried_attempts
            self.metrics.retry_backoff_ms = transients.charged_backoff_ms
            self.metrics.rpc_exhausted_ops = transients.exhausted_ops
        return RunReport(
            platform_name=self.name,
            config=self.config,
            metrics=self.metrics,
            duration_ms=self.sim.now,
        )


def build_platform(
    kind: PlatformKind,
    config: ClusterConfig,
    suite: FunctionBenchSuite,
    *,
    medes: MedesPolicyConfig | None = None,
    fixed_keep_alive_ms: float = 600_000.0,
    catalyzer: bool = False,
) -> Platform:
    """Construct one of the evaluated platforms.

    Args:
        kind: Which system to build.
        config: Cluster configuration (shared across compared systems).
        suite: The function profiles the trace will reference.
        medes: Medes policy knobs (P1/P2 objective, periods); defaults
            to the latency objective with the paper's settings.
        fixed_keep_alive_ms: Keep-alive window of the fixed baseline.
        catalyzer: Emulate Catalyzer's template restore for cold starts
            (Section 7.6) on top of the chosen platform.
    """
    if catalyzer:
        config = replace(config, cold_start_mode=ColdStartMode.CATALYZER)
    if kind is PlatformKind.MEDES:
        policy_config = medes or MedesPolicyConfig()
        stats = {
            profile.name: FunctionStats(profile=profile, prior_dedup_start_ms=150.0)
            for profile in suite
        }
        policy = MedesPolicy(
            policy_config, warm_start_ms=config.costs.warm_start_ms, stats=stats
        )
        name = "medes+catalyzer" if catalyzer else "medes"
        return Platform(name=name, config=config, suite=suite, policy=policy, stats=stats)
    if kind is PlatformKind.FIXED_KEEP_ALIVE:
        policy = FixedKeepAlivePolicy(fixed_keep_alive_ms)
        name = f"{policy.name}+catalyzer" if catalyzer else policy.name
        return Platform(name=name, config=config, suite=suite, policy=policy)
    if kind is PlatformKind.ADAPTIVE_KEEP_ALIVE:
        policy = AdaptiveKeepAlivePolicy()
        name = f"{policy.name}+catalyzer" if catalyzer else policy.name
        return Platform(name=name, config=config, suite=suite, policy=policy)
    raise AssertionError(f"unhandled platform kind {kind}")
