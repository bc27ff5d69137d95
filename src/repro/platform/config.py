"""Cluster and experiment configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro._util import MIB, PAGE_SIZE
from repro.core.costs import CostModel
from repro.faults.schedule import FaultsConfig
from repro.memory.fingerprint import FingerprintConfig
from repro.parallel.config import ParallelConfig
from repro.sandbox.node import EvictionOrder
from repro.sim.network import RdmaConfig
from repro.storage.tiers import StorageConfig
from repro.templates.catalog import TemplateConfig
from repro.tenancy.domains import TenantConfig
from repro.workload.functionbench import FunctionProfile


class ColdStartMode(enum.Enum):
    """How cold starts are served."""

    STANDARD = "standard"
    """Full environment initialization (today's platforms)."""

    CATALYZER = "catalyzer"
    """Emulated Catalyzer (Section 7.6): every cold start is replaced by
    a restore from an in-memory sandbox template snapshot."""


#: Emulated Catalyzer snapshot-restore cost model: fixed resume cost plus
#: a per-MB page-load component.
CATALYZER_FIXED_MS = 100.0
CATALYZER_MS_PER_MB = 1.0


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster (paper Section 7.1).

    The defaults mirror the testbed where it matters to behaviour: the
    paper runs 19 worker nodes with a *software-defined* 2 GB/node memory
    limit so the cluster is oversubscribed; experiments in this
    reproduction default to a smaller cluster with the same
    per-node limit and scale node counts per experiment.
    """

    nodes: int = 4
    node_memory_mb: float = 2048.0
    content_scale: float = 1.0 / 64.0
    page_size: int = PAGE_SIZE
    aslr: bool = False
    seed: int = 0
    rdma: RdmaConfig = field(default_factory=RdmaConfig)
    costs: CostModel = field(default_factory=CostModel)
    fingerprint: FingerprintConfig = field(default_factory=FingerprintConfig)
    base_threshold: int = 40
    base_savings_threshold: float = 0.45
    """Demarcate a function's first base sandbox only when a trial dedup
    against the existing (cross-function) bases saves less than this
    fraction — the paper's own measurement that ~67% of deduped pages
    match a *different* function makes per-function bases often
    unnecessary, and base checkpoints are expensive pinned state."""
    max_refs_per_digest: int = 8
    registry_shards: int = 1
    """Shards of the controller fingerprint registry (Section 4.3); 1
    reproduces the paper's single-controller experiments."""
    eviction_order: EvictionOrder = EvictionOrder.LRU
    enable_dedup_abort: bool = True
    """Abort an in-flight dedup op to serve an arriving request warm
    (cheaper than a cold start); off reproduces a stricter reading of
    the paper, where DEDUPING sandboxes are simply unavailable."""
    cold_start_mode: ColdStartMode = ColdStartMode.STANDARD
    memory_sample_interval_ms: float = 10_000.0
    verify_restores: bool = False
    """Verify every restored image checksum (slow; tests enable it)."""
    verify_accounting: bool = False
    """Debug: assert every node's cached used-bytes counter against the
    recomputed per-resident sum on every read (slow; tests enable it)."""
    arrival_chunk: int = 4096
    """Resident window of arrival injection: how many upcoming trace
    arrivals are scheduled on the event heap at once, through
    :meth:`~repro.sim.engine.Simulator.schedule_stream`, keeping
    resident arrival state O(chunk) instead of O(trace).  Any chunk
    size replays bit-identically (the stream reserves the whole trace's
    event sequence numbers up front); one chunk of the whole trace is
    eager pre-scheduling."""
    checkpoint_tiering: bool = False
    """Tiered checkpoint storage (DESIGN.md §9): under pressure, demote
    base checkpoints to remote DRAM / local SSD and park expired dedup
    patch tables on SSD instead of purging; restores prefetch recorded
    working sets.  Off (the default) reproduces the Medes paper's
    DRAM-only behaviour bit-identically."""
    storage: StorageConfig = field(default_factory=StorageConfig)
    """Capacities and device timings of the non-DRAM tiers (only read
    when ``checkpoint_tiering`` is on)."""
    parallel_data_plane: bool = False
    """Charge dedup/restore ops with the parallel data plane's
    stage-overlap timing model (DESIGN.md §10): compute stages divide
    across ``parallel.workers``, registry round-trips are batched, and
    the post-checkpoint stages software-pipeline over page batches.
    Off (the default) reproduces the serial stage-sum accounting
    bit-identically."""
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    """Shape of the parallel data plane (only read when
    ``parallel_data_plane`` is on)."""
    template_sharing: bool = False
    """Forkable template checkpoints (DESIGN.md §14): factor shared
    RUNTIME/LIBRARY regions into cross-function template segments in a
    remote-DRAM pool and park idle sandboxes as per-function deltas, so
    a restore is template fork + delta apply — the TEMPLATE start type
    between WARM and DEDUP.  Off (the default) reproduces the dedup-only
    behaviour bit-identically."""
    templates: TemplateConfig = field(default_factory=TemplateConfig)
    """Shape of the template subsystem (only read when
    ``template_sharing`` is on)."""
    dedup_domains: TenantConfig = field(default_factory=TenantConfig)
    """Tenant-scoped dedup isolation domains (DESIGN.md §15): requests
    carry a ``tenant`` label, and every sharing point — fingerprint
    registry, replica index, base selection, template catalog — is
    partitioned so state never crosses a domain boundary.  The default
    (``DedupDomainMode.OFF``) maps every tenant to the single global
    domain and is pinned bit-identical to the pre-tenancy platform by
    the equivalence tests."""
    faults: FaultsConfig | None = None
    """Fault injection and recovery (DESIGN.md §11): a seeded
    :class:`~repro.faults.schedule.FaultSchedule` of node crashes,
    registry-shard outages and link faults, plus per-op transient RPC
    failures with retry/backoff.  ``None`` (the default) disables the
    fault layer entirely and is pinned bit-identical to a build without
    it; an empty ``FaultsConfig()`` enables the layer but injects
    nothing — also bit-identical, by the equivalence tests.  All fault
    randomness is seeded (``seed`` + ``faults.seed``), so a faulted run
    reproduces bit-for-bit."""

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ValueError("need at least one node")
        if self.node_memory_mb <= 0:
            raise ValueError("node_memory_mb must be positive")
        if not 0 < self.content_scale <= 1:
            raise ValueError("content_scale must be in (0, 1]")
        if self.base_threshold <= 0:
            raise ValueError("base_threshold must be positive")
        if self.registry_shards <= 0:
            raise ValueError("registry_shards must be positive")
        if self.arrival_chunk <= 0:
            raise ValueError("arrival_chunk must be positive")

    @property
    def node_capacity_bytes(self) -> int:
        return int(self.node_memory_mb * MIB)

    @property
    def cluster_capacity_bytes(self) -> int:
        return self.nodes * self.node_capacity_bytes

    def cold_start_ms(self, profile: FunctionProfile) -> float:
        """Cost of a cold start under the configured mode."""
        if self.cold_start_mode is ColdStartMode.CATALYZER:
            return CATALYZER_FIXED_MS + CATALYZER_MS_PER_MB * profile.memory_mb
        return profile.cold_start_ms
