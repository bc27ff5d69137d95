"""Run metrics: request records, start counters, memory timeline.

Every platform run produces a :class:`RunMetrics` with one record per
request (start type, queueing, startup and end-to-end latency), dedup-op
and restore-op records, a sampled cluster-memory timeline, and sandbox
population counts — everything the evaluation's tables and figures are
derived from.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from repro._util import percentile


class StartType(enum.Enum):
    """How a request's sandbox was obtained."""

    COLD = "cold"
    WARM = "warm"
    DEDUP = "dedup"
    TEMPLATE = "template"
    """Forked from a shared runtime/library template plus a per-function
    delta (DESIGN.md §14) — between WARM and DEDUP on the start ladder."""


#: Integer codes for the array-backed completion timeline (a request
#: that never started — crash-displaced and re-queued records mid-run —
#: carries ``None`` and is coded ``-1``).
START_CODES: dict[StartType | None, int] = {
    None: -1,
    StartType.COLD: 0,
    StartType.WARM: 1,
    StartType.DEDUP: 2,
    StartType.TEMPLATE: 3,
}


@dataclass(slots=True)
class RequestRecord:
    """Lifecycle of one request through the platform.

    Slotted: cluster-scale replays keep millions of these resident."""

    request_id: int
    function: str
    arrival_ms: float
    start_type: StartType | None = None
    queued_ms: float = 0.0
    startup_ms: float = 0.0
    exec_ms: float = 0.0
    completion_ms: float | None = None
    retry_penalty_ms: float = 0.0
    """Latency of *failed* fallback attempts (exhausted retries against
    an earlier dispatch candidate) charged into ``startup_ms`` when the
    request finally starts.  Zero unless the fault layer is active."""

    @property
    def e2e_ms(self) -> float:
        """End-to-end latency (arrival to completion)."""
        if self.completion_ms is None:
            raise RuntimeError(f"request {self.request_id} not completed")
        return self.completion_ms - self.arrival_ms

    @property
    def slowdown(self) -> float:
        """E2E latency normalized by pure execution time."""
        if self.exec_ms <= 0:
            return 1.0
        return self.e2e_ms / self.exec_ms


@dataclass(frozen=True)
class DedupOpRecord:
    """One dedup op (background) for overhead reporting (§7.7)."""

    function: str
    sandbox_id: int
    started_ms: float
    duration_ms: float
    lookup_ms: float
    savings_fraction: float
    retained_full_bytes: int
    same_function_pages: int
    cross_function_pages: int
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency charged to the op (faults)."""
    retries: int = 0


@dataclass(frozen=True)
class BaseOpRecord:
    """One base demarcation: checkpoint capture + registry registration.

    Both phases were previously uncharged (``CostModel.register_ms`` was
    dead code), understating the §7.7 overhead of creating a base.
    """

    function: str
    sandbox_id: int
    started_ms: float
    checkpoint_ms: float
    register_ms: float

    @property
    def total_ms(self) -> float:
        return self.checkpoint_ms + self.register_ms


@dataclass(frozen=True)
class RestoreOpRecord:
    """One restore op (dedup start) with the Figure-8 phase breakdown.

    The tiering fields keep their zero defaults when checkpoint tiering
    is off, so untieried records — and whole ``RunMetrics`` — compare
    equal to the pre-tiering code's.
    """

    function: str
    sandbox_id: int
    started_ms: float
    base_read_ms: float
    compute_ms: float
    restore_ms: float
    prefetched: bool = False
    """Base reads were issued as one recorded-working-set prefetch
    overlapping patch application (DESIGN.md §9)."""
    miss_read_ms: float = 0.0
    """Serial demand-miss read of pages the recording lacked."""
    prefetch_hit_pages: int = 0
    prefetch_miss_pages: int = 0
    promote_ms: float = 0.0
    """Charged tier promotions (parked table read-back, checkpoint
    promotion) serialized before the restore proper."""
    overlap_workers: int = 0
    """Parallel-data-plane workers the compute phase divided across
    (0 = serial accounting; mirrors ``RestoreTimings.overlap``)."""
    overlap_batches: int = 0
    """Page batches the op software-pipelined over (0 = serial)."""
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency charged to the op (faults)."""
    retries: int = 0

    @property
    def total_ms(self) -> float:
        compute_ms = self.compute_ms
        if self.overlap_workers:
            compute_ms /= self.overlap_workers
        if self.prefetched:
            fetch = max(self.base_read_ms, compute_ms) + self.miss_read_ms
        elif self.overlap_batches > 1:
            ramp = (self.base_read_ms + compute_ms) / self.overlap_batches
            steady = (
                max(self.base_read_ms, compute_ms)
                * (self.overlap_batches - 1)
                / self.overlap_batches
            )
            fetch = ramp + steady + self.miss_read_ms
        else:
            fetch = self.base_read_ms + compute_ms
        return fetch + self.restore_ms + self.promote_ms + self.retry_ms


@dataclass(frozen=True)
class TemplateOpRecord:
    """One templatize op: shared-segment publish + delta construction.

    The template analogue of :class:`DedupOpRecord` — an idle sandbox is
    parked as a per-function delta against the catalog's shared
    runtime/library segments instead of a patch table against a base.
    """

    function: str
    sandbox_id: int
    started_ms: float
    duration_ms: float
    publish_ms: float
    """Remote-DRAM pool write for segments this op created (0 when every
    segment was already published by an earlier templatize)."""
    segments_created: int
    segments_shared: int
    """Segments reused from the catalog (the cross-function hit count)."""
    published_bytes: int
    savings_fraction: float
    retained_full_bytes: int


@dataclass(frozen=True)
class TemplateForkRecord:
    """One template fork (TEMPLATE start): promote + delta apply."""

    function: str
    sandbox_id: int
    started_ms: float
    promote_ms: float
    """Charged remote-DRAM → node-DRAM promotion of segments forked on
    this node for the first time (0 once replicas are warm)."""
    apply_ms: float
    restore_ms: float
    promoted_bytes: int
    patched_pages: int
    unique_pages: int
    zero_pages: int
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency charged to the op (faults)."""
    retries: int = 0
    cow_shared_bytes: int = 0
    """Clean template pages the forked sandbox maps copy-on-write from
    the node's replicas — discounted from its warm DRAM charge."""

    @property
    def total_ms(self) -> float:
        return self.promote_ms + self.apply_ms + self.restore_ms + self.retry_ms


@dataclass(frozen=True, slots=True)
class TemplateSample:
    """Template catalog occupancy at one sampling instant."""

    time_ms: float
    pool_used_bytes: int
    """Remote-DRAM template pool occupancy (authoritative copies)."""
    replica_bytes: int
    """Node-DRAM template replicas across the cluster (fork caches)."""
    segments: int
    live_deltas: int
    """Parked sandboxes currently holding a template delta table."""


@dataclass(frozen=True, slots=True)
class CompletionSample:
    """One completed request, array-backed for vectorized percentiles.

    Appended by :meth:`RunMetrics.on_completion`; ``start_code`` is the
    :data:`START_CODES` integer so per-start-type latency percentiles are
    one numpy mask instead of a scan over millions of records.
    """

    time_ms: float
    start_code: int
    queued_ms: float
    startup_ms: float
    e2e_ms: float


@dataclass(frozen=True, slots=True)
class MemorySample:
    """Cluster memory usage at one sampling instant."""

    time_ms: float
    used_bytes: int
    warm_count: int
    dedup_count: int
    total_sandboxes: int


@dataclass(frozen=True)
class TierOpRecord:
    """One charged tier move (demotion or promotion), tiering only."""

    time_ms: float
    kind: str
    """"demote" or "promote"."""
    subject: str
    """"checkpoint" or "table"."""
    tier: str
    """Destination tier value (e.g. "local-ssd")."""
    nbytes: int
    cost_ms: float


@dataclass(frozen=True, slots=True)
class TierSample:
    """Occupancy of the non-DRAM tiers at one sampling instant."""

    time_ms: float
    remote_dram_bytes: int
    ssd_bytes: int
    cold_tables: int
    """Dedup sandboxes whose patch table is parked on SSD."""


class ColumnTimeline:
    """A growable numpy column store behind a list-of-samples API.

    Cluster-scale replays sample the memory/tier timelines millions of
    times; one Python object per sample does not survive that.  Samples
    are stored as per-field numpy columns (float64 for ``float`` fields,
    int64 for ``int`` fields) with amortized-doubling growth, while the
    exterior API stays the familiar list of frozen sample dataclasses:
    ``append`` takes a sample object, iteration/indexing yield sample
    objects, and equality works against both other timelines and plain
    lists of samples — so existing tests and reports are unchanged.

    Vectorized readers use :meth:`column` to get a numpy view of one
    field across every sample without materializing any objects.
    """

    __slots__ = ("_sample_type", "_names", "_columns", "_size")

    def __init__(self, sample_type: type, samples: Iterator | None = None):
        self._sample_type = sample_type
        self._names: tuple[str, ...] = ()
        self._columns: list[np.ndarray] = []
        for spec in fields(sample_type):
            dtype = np.float64 if spec.type in ("float", float) else np.int64
            self._names += (spec.name,)
            self._columns.append(np.empty(0, dtype=dtype))
        self._size = 0
        for sample in samples or ():
            self.append(sample)

    def _grow(self, needed: int) -> None:
        capacity = max(64, 2 * needed)
        for index, column in enumerate(self._columns):
            grown = np.empty(capacity, dtype=column.dtype)
            grown[: self._size] = column[: self._size]
            self._columns[index] = grown

    def append(self, sample) -> None:
        """Append one sample object (dataclass of the store's type)."""
        self.append_row(*(getattr(sample, name) for name in self._names))

    def append_row(self, *values) -> None:
        """Fast path: append one sample from positional field values."""
        size = self._size
        if size >= len(self._columns[0]):
            self._grow(size + 1)
        for column, value in zip(self._columns, values):
            column[size] = value
        self._size = size + 1

    def column(self, name: str) -> np.ndarray:
        """Numpy view of one field across all samples (no copies)."""
        return self._columns[self._names.index(name)][: self._size]

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        sample_type = self._sample_type
        columns = [column[: self._size].tolist() for column in self._columns]
        for row in zip(*columns):
            yield sample_type(*row)

    def __getitem__(self, index: int):
        if not -self._size <= index < self._size:
            raise IndexError(f"sample index {index} out of range ({self._size})")
        if index < 0:
            index += self._size
        return self._sample_type(
            *(column[index].item() for column in self._columns)
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnTimeline):
            return (
                self._sample_type is other._sample_type
                and self._size == other._size
                and all(
                    np.array_equal(a[: self._size], b[: other._size])
                    for a, b in zip(self._columns, other._columns)
                )
            )
        if isinstance(other, (list, tuple)):
            return len(other) == self._size and all(
                ours == theirs for ours, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"ColumnTimeline({self._sample_type.__name__}, n={self._size})"


@dataclass(frozen=True)
class FaultEventRecord:
    """One injected fault or heal, as it fired (DESIGN.md §11)."""

    time_ms: float
    kind: str
    """"node-crash", "node-restored", "shard-down", "shard-restored",
    "link-degraded", "link-partitioned" or "link-restored"."""
    domain: str
    """Failure domain label, e.g. "node:2", "shard:0", "link:1"."""


#: Pairing of fault kinds to their heal kinds, for MTTR computation.
_HEAL_KIND = {
    "node-crash": "node-restored",
    "shard-down": "shard-restored",
    "link-degraded": "link-restored",
    "link-partitioned": "link-restored",
}


@dataclass(frozen=True)
class AvailabilitySample:
    """Cluster availability right after a fault event took effect."""

    time_ms: float
    nodes_up: int
    shards_up: int
    degraded_links: int


@dataclass
class RunMetrics:
    """Everything measured during one platform run."""

    platform_name: str
    requests: dict[int, RequestRecord] = field(default_factory=dict)
    dedup_ops: list[DedupOpRecord] = field(default_factory=list)
    restore_ops: list[RestoreOpRecord] = field(default_factory=list)
    base_ops: list[BaseOpRecord] = field(default_factory=list)
    memory_timeline: ColumnTimeline = field(
        default_factory=lambda: ColumnTimeline(MemorySample)
    )
    """Sampled cluster memory usage, array-backed (list-of-sample API)."""
    evictions: int = 0
    eviction_candidates_scanned: int = 0
    """Eviction candidates ranked across all placement decisions — the
    tripwire for quadratic scan thrash on permanently full clusters."""
    prewarm_spawns: int = 0
    sandboxes_created: int = 0
    bases_created: int = 0
    tier_ops: list[TierOpRecord] = field(default_factory=list)
    """Charged demotions/promotions (empty unless checkpoint tiering)."""
    tier_timeline: ColumnTimeline = field(
        default_factory=lambda: ColumnTimeline(TierSample)
    )
    """Sampled non-DRAM tier occupancy (empty unless checkpoint tiering)."""
    checkpoint_demotions: int = 0
    checkpoint_promotions: int = 0
    table_demotions: int = 0
    """Dedup patch tables parked on SSD instead of purged ("dedup-cold")."""
    table_promotions: int = 0
    """Parked tables read back for a restore."""
    prefetch_recordings: int = 0
    """Restore working sets recorded (first restores of a key)."""
    prefetched_restores: int = 0
    """Restores whose base reads were issued as one recorded prefetch."""
    prefetch_hit_pages: int = 0
    prefetch_miss_pages: int = 0
    base_page_cache_hits: int = 0
    """Decoded-base-page LRU hits summed over every agent (dedup and
    restore ops re-read the same hot base pages constantly; this is the
    visibility counter for how often the fetch was served locally)."""
    base_page_cache_misses: int = 0
    anchor_index_cache_hits: int = 0
    """Prebuilt anchor-index LRU hits summed over every agent."""
    anchor_index_cache_misses: int = 0
    outstanding_requests: int = 0
    """Arrived-but-not-completed requests, maintained by
    :meth:`on_arrival`/:meth:`on_completion` so the platform's drain
    loop is an O(1) counter check instead of a scan of every record."""
    fault_events: list[FaultEventRecord] = field(default_factory=list)
    """Injected faults and heals, in firing order (empty without faults)."""
    availability_timeline: list[AvailabilitySample] = field(default_factory=list)
    """Availability after each fault event (empty without faults)."""
    rpc_retries: int = 0
    """Failed transient-RPC attempts that were retried (fault layer)."""
    retry_backoff_ms: float = 0.0
    """Total timeout + backoff latency charged to retried ops."""
    rpc_exhausted_ops: int = 0
    """Ops whose every retry attempt failed (fell down the ladder)."""
    restore_replica_fallbacks: int = 0
    """Dedup sandboxes re-homed onto byte-identical replica base pages
    after their original base died."""
    cross_domain_replica_skips: int = 0
    """Rehome candidates rejected by the controller's defensive dedup-
    domain check (DESIGN.md §15).  Always 0 when the partitioned replica
    index is healthy — a nonzero count means the structural isolation
    was bypassed and the second enforcement point caught it."""
    restore_cold_fallbacks: int = 0
    """Dispatches that fell through failed dedup candidates to a cold
    start."""
    dedup_deferrals: int = 0
    """Dedup ops skipped or abandoned because the registry was
    unavailable (warm-only degradation)."""
    requests_rescheduled: int = 0
    """In-flight requests whose node crashed and that were re-dispatched."""
    crash_purged_sandboxes: int = 0
    """Sandboxes lost to node crashes (crash purge, not eviction)."""
    crash_reconciled_refs: int = 0
    """Orphaned base refcounts released or re-homed during crash
    reconciliation."""
    shard_rebuilds: int = 0
    shard_rebuild_ms: float = 0.0
    """Charged time rebuilding lost registry shards from surviving
    agents' base checkpoints."""
    completion_timeline: ColumnTimeline = field(
        default_factory=lambda: ColumnTimeline(CompletionSample)
    )
    """Array-backed per-completion latencies, fed by :meth:`on_completion`
    (the vectorized reader behind :meth:`latency_percentile`)."""
    template_ops: list[TemplateOpRecord] = field(default_factory=list)
    """Templatize ops (empty unless template sharing is on)."""
    template_forks: list[TemplateForkRecord] = field(default_factory=list)
    """Template fork restores (empty unless template sharing is on)."""
    template_timeline: ColumnTimeline = field(
        default_factory=lambda: ColumnTimeline(TemplateSample)
    )
    """Sampled template catalog occupancy (empty unless template sharing)."""
    template_segments_created: int = 0
    """Distinct (content, size) template segments published to the pool."""
    template_segments_shared: int = 0
    """Segment reuses across templatize ops — each is a whole shared
    region that needed no publish because another function (or an earlier
    sandbox) already put it in the pool."""
    template_promotions: int = 0
    """Charged pool → node-DRAM segment promotions (first fork per node)."""
    template_promote_bytes: int = 0
    template_replica_evictions: int = 0
    """Node-DRAM template replicas dropped under placement pressure (the
    pool copy survives, so this never loses content)."""
    template_fork_fallbacks: int = 0
    """Dispatches where a template fork failed (transient faults) and the
    request fell through to the dedup/cold rungs."""
    template_pool_rejections: int = 0
    """Templatize attempts refused because the remote-DRAM pool was full
    (the sandbox fell back to the dedup path)."""
    template_evict_parks: int = 0
    """Warm eviction victims parked as template deltas instead of purged
    (park-before-purge): their next start is a fork, not a cold start."""
    template_delta_spills: int = 0
    """Parked deltas demoted to node-local SSD ("template-cold")
    instead of purged: node DRAM frees fully, the sandbox stays
    fork-restorable at the charged SSD-read cost.  Node-local, like
    §9's dedup-cold tables — only shared template *segments* get
    remote-DRAM durability; a spilled delta dies with its node."""
    template_delta_spill_bytes: int = 0
    """SSD bytes written by those spills (node-local, never crosses the
    fabric)."""
    template_delta_unspill_bytes: int = 0
    """SSD bytes read back by forks of spilled sandboxes (the charged
    leg on the start path)."""

    # -------------------------------------------------------------- record

    def on_arrival(self, request_id: int, function: str, now: float) -> RequestRecord:
        record = RequestRecord(request_id=request_id, function=function, arrival_ms=now)
        self.requests[request_id] = record
        self.outstanding_requests += 1
        return record

    def on_completion(self, record: RequestRecord, now: float) -> None:
        """Mark ``record`` complete and retire it from the outstanding count."""
        if record.completion_ms is not None:
            raise RuntimeError(f"request {record.request_id} completed twice")
        record.completion_ms = now
        self.outstanding_requests -= 1
        self.completion_timeline.append_row(
            now,
            START_CODES[record.start_type],
            record.queued_ms,
            record.startup_ms,
            now - record.arrival_ms,
        )

    def completed_records(self) -> list[RequestRecord]:
        return [r for r in self.requests.values() if r.completion_ms is not None]

    # ------------------------------------------------------------- derive

    def start_counts(self, function: str | None = None) -> Counter[StartType]:
        counts: Counter[StartType] = Counter()
        for record in self.completed_records():
            if record.start_type is None:
                # Completed without ever dispatching (e.g. displaced by a
                # node crash and re-queued): there is no start to count,
                # and a None key would poison every ``Counter[StartType]``
                # consumer downstream (report sorting crashes on it).
                continue
            if function is None or record.function == function:
                counts[record.start_type] += 1
        return counts

    def cold_starts(self, function: str | None = None) -> int:
        return self.start_counts(function)[StartType.COLD]

    def cold_starts_by_function(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for record in self.completed_records():
            if record.start_type is StartType.COLD:
                counts[record.function] += 1
        return dict(counts)

    def e2e_percentile(self, pct: float, function: str | None = None) -> float:
        values = [
            r.e2e_ms
            for r in self.completed_records()
            if function is None or r.function == function
        ]
        return percentile(values, pct)

    def startup_percentile(self, pct: float, function: str | None = None) -> float:
        values = [
            r.startup_ms
            for r in self.completed_records()
            if function is None or r.function == function
        ]
        return percentile(values, pct)

    def latency_percentile(
        self,
        pct: float,
        *,
        start_type: StartType | None = None,
        metric: str = "e2e",
    ) -> float:
        """Latency percentile over completed requests, vectorized.

        Reads the array-backed completion timeline instead of scanning
        request records; ``start_type`` restricts to one rung of the
        start ladder (``None`` keeps every completed request, matching
        :meth:`e2e_percentile`).  ``metric`` selects ``"e2e"``,
        ``"startup"`` or ``"queued"``.  Returns ``nan`` when no request
        of that start type completed.
        """
        if metric not in ("e2e", "startup", "queued"):
            raise ValueError(f"unknown latency metric {metric!r}")
        values = self.completion_timeline.column(f"{metric}_ms")
        if start_type is not None:
            codes = self.completion_timeline.column("start_code")
            values = values[codes == START_CODES[start_type]]
        return percentile(values, pct)

    def mean_memory_bytes(self) -> float:
        timeline = self.memory_timeline
        if not timeline:
            return 0.0
        # Exact int64 sum, matching the former Python big-int sum/len.
        return int(timeline.column("used_bytes").sum()) / len(timeline)

    def median_memory_bytes(self) -> float:
        return percentile(self.memory_timeline.column("used_bytes"), 50)

    def memory_percentile(self, pct: float) -> float:
        """Percentile of sampled cluster memory usage (vectorized)."""
        return percentile(self.memory_timeline.column("used_bytes"), pct)

    def mean_sandbox_count(self) -> float:
        timeline = self.memory_timeline
        if not timeline:
            return 0.0
        return int(timeline.column("total_sandboxes").sum()) / len(timeline)

    def dedup_share(self) -> float:
        """Fraction of created sandboxes that were ever deduplicated."""
        if self.sandboxes_created == 0:
            return 0.0
        deduped = len({op.sandbox_id for op in self.dedup_ops})
        return deduped / self.sandboxes_created

    def mttr_ms(self) -> float:
        """Mean time-to-recovery over healed fault events (0.0 if none).

        Pairs each fault with its heal per failure domain; faults never
        healed within the run are excluded.  For shard outages the heal
        event fires only after the charged rebuild, so MTTR includes
        rebuild time.  When several unhealed faults on one domain map to
        the same heal kind (e.g. ``link-degraded`` then
        ``link-partitioned``, both healed by ``link-restored``), recovery
        is measured from the *earliest* open fault — a later fault on an
        already-faulty domain must not shrink the outage.
        """
        open_faults: dict[tuple[str, str], float] = {}
        durations: list[float] = []
        for event in self.fault_events:
            heal_kind = _HEAL_KIND.get(event.kind)
            if heal_kind is not None:
                open_faults.setdefault((heal_kind, event.domain), event.time_ms)
            else:
                started = open_faults.pop((event.kind, event.domain), None)
                if started is not None:
                    durations.append(event.time_ms - started)
        if not durations:
            return 0.0
        return sum(durations) / len(durations)

    def functions(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for record in self.requests.values():
            seen.setdefault(record.function, None)
        return tuple(seen)


def improvement_factors(
    baseline: RunMetrics,
    improved: RunMetrics,
    function: str | None = None,
) -> list[float]:
    """Per-request e2e ratios baseline/improved (Figure 7a's CDF).

    Requests are paired by id — both runs must have replayed the same
    trace.  A factor above 1 means ``improved`` was faster.
    """
    factors: list[float] = []
    for request_id, base_record in baseline.requests.items():
        other = improved.requests.get(request_id)
        if other is None or base_record.completion_ms is None or other.completion_ms is None:
            continue
        if function is not None and base_record.function != function:
            continue
        if other.e2e_ms <= 0:
            continue
        factors.append(base_record.e2e_ms / other.e2e_ms)
    return factors
