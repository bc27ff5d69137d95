"""Platform assembly: wire the substrates together and run a trace.

:func:`build_platform` constructs a ready-to-run platform for any of the
evaluated systems — Medes, the fixed and adaptive keep-alive baselines,
and the emulated-Catalyzer variants — and :meth:`Platform.run` replays a
trace against it, returning a :class:`RunReport`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

from repro._util import stable_seed
from repro.controller.baselines import AdaptiveKeepAlivePolicy, FixedKeepAlivePolicy
from repro.controller.controller import ClusterController
from repro.core.agent import DedupAgent
from repro.core.basemgr import BaseSandboxManager
from repro.core.costs import COSTS
from repro.core.policy import FunctionStats, LifecyclePolicy, MedesPolicy, MedesPolicyConfig
from repro.core.registry import FingerprintRegistry, ShardedFingerprintRegistry
from repro.faults.health import FaultDomainHealth, FaultRuntime
from repro.faults.injector import FaultInjector
from repro.faults.retry import TransientFaults
from repro.invariants import check, liveness
from repro.platform.config import ClusterConfig, ColdStartMode
from repro.platform.metrics import RunMetrics
from repro.sandbox.checkpoint import CheckpointStore
from repro.sandbox.node import Node
from repro.sim.engine import Simulator
from repro.sim.network import RdmaFabric
from repro.storage.prefetch import WorkingSetRecorder
from repro.storage.store import TieredCheckpointStore
from repro.templates.catalog import TemplateCatalog
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

#: Quiet time after the last arrival before a run is considered drained.
RUN_TAIL_MS = 60_000.0
#: Period of the cluster memory sampler (Fig 2 and Fig 9 timelines).
MEMORY_SAMPLE_INTERVAL_MS = 10_000.0
#: Arrivals whose labels and execution-time draws are prepared at once
#: (the window of ``Simulator.schedule_stream``); any size replays
#: bit-identically.
ARRIVAL_CHUNK = 4096


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
        self.fabric = RdmaFabric()
        if config.registry_shards > 1:
            self.registry = ShardedFingerprintRegistry(
                config.registry_shards, config.fingerprint
            )
        else:
            self.registry = FingerprintRegistry(config.fingerprint)
        # Tiering and template sharing both park tables on node SSD,
        # whose accounts the tiered store keeps.
        if config.checkpoint_tiering or config.template_sharing:
            self.store: CheckpointStore = TieredCheckpointStore(
                config.storage, nodes=config.nodes
            )
        else:
            self.store = CheckpointStore()
        self.recorder = (
            WorkingSetRecorder()
            if config.checkpoint_tiering and config.storage.prefetch
            else None
        )
        self.basemgr = BaseSandboxManager(self.store)
        self.faults = FaultRuntime(
            config=config.faults,
            health=FaultDomainHealth(),
            transients=TransientFaults(
                config.faults.rpc_failure_prob,
                seed=stable_seed("transient-rpc", config.seed, config.faults.seed),
            ),
        )
        self.templates: TemplateCatalog | None = (
            TemplateCatalog(config.templates, content_scale=config.content_scale)
            if config.template_sharing
            else None
        )
        self.nodes = [
            Node(node_id=i, capacity_bytes=config.node_capacity_bytes)
            for i in range(config.nodes)
        ]
        self.agents = {
            node.node_id: DedupAgent(
                node.node_id,
                registry=self.registry,
                store=self.store,
                fabric=self.fabric,
                costs=COSTS,
                content_scale=config.content_scale,
                fingerprint_config=config.fingerprint,
                recorder=self.recorder,
                tiering=config.checkpoint_tiering,
                stage_overlap=config.parallel_data_plane,
                transients=self.faults.transients,
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
        self.injector = FaultInjector(
            sim=self.sim,
            config=config,
            runtime=self.faults,
            fabric=self.fabric,
            registry=self.registry,
            controller=self.controller,
            store=self.store,
            metrics=self.metrics,
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

    def _inject_arrivals(self, trace: Trace) -> None:
        """Schedule the trace's arrivals on the simulator.

        The whole trace is one cursor on the heap
        (``Simulator.schedule_stream``).  Each ``ARRIVAL_CHUNK`` window's
        labels are decoded from the trace's columns in one pass, and the
        controller seeds the window's execution-time draws in one batch;
        an arrival is then a call ``submit(request_id, function, tenant)``.
        """
        submit = self.controller.submit
        prime = self.controller.prime_exec_times
        chunk: list = [0, [], []]  # first row, its functions, its tenants

        def on_chunk(start: int, stop: int) -> None:
            functions, tenants = trace.labels(start, stop)
            chunk[:] = start, functions, tenants
            prime(range(start, stop), functions)

        def arrival(i: int) -> partial:
            start, functions, tenants = chunk
            return partial(submit, i, functions[i - start], tenants[i - start])

        self.sim.schedule_stream(
            trace.arrival_ms,
            arrival,
            chunk_size=ARRIVAL_CHUNK,
            on_chunk=on_chunk,
        )

    def run(self, trace: Trace, *, tail_ms: float = RUN_TAIL_MS) -> RunReport:
        """Replay ``trace`` to completion and collect metrics.

        The simulation runs until every request has completed and a tail
        of quiet time has elapsed (so background dedup ops finish), but
        lifecycle timers beyond that point are not waited for.  The
        drained state is then recounted by :func:`repro.invariants.check`,
        which raises ``AccountingError`` on the first broken invariant; a
        run that never drains raises a ``liveness`` one.
        """
        self.injector.arm()
        self._inject_arrivals(trace)
        sampler = self.sim.every(MEMORY_SAMPLE_INTERVAL_MS, self._sample_memory)

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
                raise liveness(self)
        check(self)
        if self.recorder is not None:
            self.metrics.prefetched_restores = self.recorder.prefetched_restores
            self.metrics.prefetch_hit_pages = self.recorder.hit_pages
            self.metrics.prefetch_miss_pages = self.recorder.miss_pages
        # Every agent shares the store's caches: count each hit once.
        pages, anchors = self.store.page_cache, self.store.anchor_cache
        self.metrics.base_page_cache_hits = pages.hits
        self.metrics.base_page_cache_misses = pages.misses
        self.metrics.anchor_index_cache_hits = anchors.hits
        self.metrics.anchor_index_cache_misses = anchors.misses
        self.metrics.rpc_retries = self.faults.transients.retried_attempts
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
) -> Platform:
    """Construct one of the evaluated platforms.

    Args:
        kind: Which system to build.
        config: Cluster configuration (shared across compared systems).
        suite: The function profiles the trace will reference.
        medes: Medes policy knobs (P1/P2 objective, periods); defaults
            to the latency objective with the paper's settings.
        fixed_keep_alive_ms: Keep-alive window of the fixed baseline.

    A ``config.cold_start_mode`` of ``CATALYZER`` (Section 7.6) appends
    ``+catalyzer`` to the platform's name.
    """
    suffix = "+catalyzer" if config.cold_start_mode is ColdStartMode.CATALYZER else ""
    if kind is PlatformKind.MEDES:
        policy_config = medes or MedesPolicyConfig()
        stats = {
            profile.name: FunctionStats(profile=profile, prior_dedup_start_ms=150.0)
            for profile in suite
        }
        policy = MedesPolicy(
            policy_config, warm_start_ms=COSTS.warm_start_ms, stats=stats
        )
        return Platform(
            name="medes" + suffix, config=config, suite=suite, policy=policy, stats=stats
        )
    if kind is PlatformKind.FIXED_KEEP_ALIVE:
        policy = FixedKeepAlivePolicy(fixed_keep_alive_ms)
        return Platform(name=policy.name + suffix, config=config, suite=suite, policy=policy)
    if kind is PlatformKind.ADAPTIVE_KEEP_ALIVE:
        policy = AdaptiveKeepAlivePolicy()
        return Platform(name=policy.name + suffix, config=config, suite=suite, policy=policy)
    raise AssertionError(f"unhandled platform kind {kind}")
