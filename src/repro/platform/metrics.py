"""Run metrics: the request log, start counters, memory timeline.

Every platform run produces a :class:`RunMetrics` with a log of every
request (start type, queueing, startup and end-to-end latency), dedup-op
and restore-op records, a sampled cluster-memory timeline, and sandbox
population counts — everything the evaluation's tables and figures are
derived from.
"""

from __future__ import annotations

import enum
from collections import Counter
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


#: Integer codes for the request log's start column (a request that
#: never started — crash-displaced and re-queued records mid-run —
#: carries ``None`` and is coded ``-1``).
START_CODES: dict[StartType | None, int] = {
    None: -1,
    StartType.COLD: 0,
    StartType.WARM: 1,
    StartType.DEDUP: 2,
    StartType.TEMPLATE: 3,
}
_START_OF_CODE = {code: start for start, code in START_CODES.items()}


@dataclass(slots=True)
class RequestRecord:
    """Lifecycle of one request through the platform.

    Only requests in flight live as these objects; a completed one is a
    row of its run's :class:`RequestLog` and reads back as a fresh
    record."""

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
    fetch_ms: float
    """Base reads plus patch application on the op's critical path
    (``RestoreTimings.fetch_ms``: prefetch and stage overlap applied)."""
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
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency charged to the op (faults)."""
    retries: int = 0

    @property
    def total_ms(self) -> float:
        return self.fetch_ms + self.restore_ms + self.promote_ms + self.retry_ms


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


@dataclass(frozen=True, slots=True)
class MemorySample:
    """Cluster memory usage at one sampling instant."""

    time_ms: float
    used_bytes: int
    warm_count: int
    dedup_count: int
    total_sandboxes: int


#: Rows a :class:`ColumnTimeline` holds as tuples before storing them as
#: one block: a numpy scalar store per field costs more than the row.
ROW_BLOCK = 64


class ColumnTimeline:
    """A growable numpy column store behind a list-of-samples API.

    Cluster-scale replays sample the memory timeline and log requests
    millions of times; one Python object per sample does not survive that.  Samples
    are stored as per-field numpy columns (float64 for ``float`` fields,
    int64 for ``int`` fields) with amortized-doubling growth, written in
    blocks of :data:`ROW_BLOCK` rows that any read flushes first, while
    the exterior API stays the familiar list of frozen sample dataclasses:
    ``append`` takes a sample object, iteration/indexing yield sample
    objects, and equality works against both other timelines and plain
    lists of samples — so existing tests and reports are unchanged.

    Vectorized readers use :meth:`column` to get a numpy view of one
    field across every sample without materializing any objects.
    """

    __slots__ = ("_sample_type", "_names", "_columns", "_size", "_block", "_pending")

    def __init__(self, sample_type: type, samples: Iterator | None = None):
        self._sample_type = sample_type
        self._names: tuple[str, ...] = ()
        self._columns: list[np.ndarray] = []
        for spec in fields(sample_type):
            dtype = np.float64 if spec.type in ("float", float) else np.int64
            self._names += (spec.name,)
            self._columns.append(np.empty(0, dtype=dtype))
        self._size = 0
        self._block: list = [None] * ROW_BLOCK
        self._pending = 0  # rows in the block, not yet in the columns
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
        pending = self._pending
        self._block[pending] = values
        self._pending = pending = pending + 1
        if pending == ROW_BLOCK:
            self._flush()

    def _flush(self) -> None:
        """Store the block of appended rows in the columns, in order."""
        pending = self._pending
        if not pending:
            return
        size = self._size
        stop = size + pending
        if stop > self._columns[0].size:
            self._grow(stop)
        for column, values in zip(self._columns, zip(*self._block[:pending])):
            column[size:stop] = values
        self._size = stop
        self._pending = 0

    def column(self, name: str) -> np.ndarray:
        """Numpy view of one field across all samples (no copies)."""
        self._flush()
        return self._columns[self._names.index(name)][: self._size]

    def __len__(self) -> int:
        self._flush()
        return self._size

    def __iter__(self):
        self._flush()
        sample_type = self._sample_type
        columns = [column[: self._size].tolist() for column in self._columns]
        for row in zip(*columns):
            yield sample_type(*row)

    def __getitem__(self, index: int):
        self._flush()
        if not -self._size <= index < self._size:
            raise IndexError(f"sample index {index} out of range ({self._size})")
        if index < 0:
            index += self._size
        return self._sample_type(
            *(column[index].item() for column in self._columns)
        )

    def __eq__(self, other) -> bool:
        self._flush()
        if isinstance(other, ColumnTimeline):
            other._flush()
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


@dataclass(frozen=True, slots=True)
class _RequestRow:
    """A completed :class:`RequestRecord`, function and start type coded."""

    request_id: int
    function_code: int
    arrival_ms: float
    start_code: int
    queued_ms: float
    startup_ms: float
    exec_ms: float
    completion_ms: float
    retry_penalty_ms: float


class _CompletedRows(ColumnTimeline):
    """Completed requests in completion order, also ``completion_timeline``:
    ``time_ms`` is the completion column and ``e2e_ms`` is completion −
    arrival, the float64 subtraction of :attr:`RequestRecord.e2e_ms`."""

    __slots__ = ()

    def column(self, name: str) -> np.ndarray:
        if name == "e2e_ms":
            return super().column("completion_ms") - super().column("arrival_ms")
        return super().column("completion_ms" if name == "time_ms" else name)

    def take(self, rows: np.ndarray) -> list[list]:
        """Each field over ``rows``, as lists of Python numbers."""
        self._flush()
        return [column[: self._size][rows].tolist() for column in self._columns]

    def values_at(self, row: int) -> list:
        """The fields of one row, as Python numbers."""
        self._flush()
        return [column.item(row) for column in self._columns]


def _as_record(names: list[str], request_id, code, arrival, start, *times) -> RequestRecord:
    return RequestRecord(request_id, names[code], arrival, _START_OF_CODE[start], *times)


class RequestLog:
    """Every request of one run: a mapping from id to
    :class:`RequestRecord`, in arrival order like the dict it replaces.

    ``inflight`` holds the live records the controller writes;
    :meth:`RunMetrics.on_completion` turns one into a row of ``rows`` and
    drops the object.  ``arrivals`` keeps the ids in arrival order, which
    completion order is not.  A completed request reads back as a fresh
    record equal to the one that completed.  Ids are unique in a run.
    """

    __slots__ = ("inflight", "rows", "codes", "arrivals", "arrived", "_index")

    def __init__(self) -> None:
        self.inflight: dict[int, RequestRecord] = {}
        self.rows = _CompletedRows(_RequestRow)
        self.codes: dict[str, int] = {}  # function → code, in arrival order
        self.arrivals = np.empty(64, dtype=np.int64)
        self.arrived = 0
        self._index: tuple[int, np.ndarray, np.ndarray, list[str]] | None = None

    def _sorted(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Completed ids sorted, the row of each, and the function names;
        rebuilt on the first read after a completion."""
        size = len(self.rows)
        if self._index is None or self._index[0] != size:
            ids = self.rows.column("request_id")
            order = np.argsort(ids, kind="stable")
            self._index = (size, ids[order], order, list(self.codes))
        return self._index[1:]

    def rows_of(self, ids: np.ndarray) -> np.ndarray:
        """Row of each request id, ``-1`` where it has not completed."""
        keys, order, _ = self._sorted()
        if not keys.size:
            return np.full(len(ids), -1, dtype=np.int64)
        at = np.searchsorted(keys, ids).clip(max=keys.size - 1)
        return np.where(keys[at] == ids, order[at], -1)

    def completed_rows(self) -> np.ndarray:
        """Rows of the completed requests, in arrival order."""
        rows = self.rows_of(self.arrivals[: self.arrived])
        return rows[rows >= 0]

    def of_function(self, function: str) -> np.ndarray:
        """Mask over the rows: those of ``function``."""
        return self.rows.column("function_code") == self.codes.get(function, -1)

    def records(self, rows: np.ndarray) -> Iterator[RequestRecord]:
        """A fresh record for each of ``rows``, in that order."""
        _, _, names = self._sorted()
        for values in zip(*self.rows.take(rows)):
            yield _as_record(names, *values)

    def get(self, request_id: int, default: RequestRecord | None = None):
        record = self.inflight.get(request_id)
        if record is not None:
            return record
        keys, order, names = self._sorted()
        at = keys.searchsorted(request_id)
        if at < keys.size and keys.item(at) == request_id:
            return _as_record(names, *self.rows.values_at(order.item(at)))
        return default

    def __getitem__(self, request_id: int) -> RequestRecord:
        if (record := self.get(request_id)) is None:
            raise KeyError(request_id)
        return record

    def __contains__(self, request_id: object) -> bool:
        return self.get(request_id) is not None

    def __len__(self) -> int:
        return len(self.inflight) + len(self.rows)

    def __iter__(self) -> Iterator[int]:
        return iter(self.arrivals[: self.arrived].tolist())

    def items(self) -> Iterator[tuple[int, RequestRecord]]:
        ids = self.arrivals[: self.arrived]
        rows = self.rows_of(ids)
        done = self.records(rows[rows >= 0])
        for request_id, row in zip(ids.tolist(), rows.tolist()):
            yield request_id, self.inflight[request_id] if row < 0 else next(done)

    def values(self) -> Iterator[RequestRecord]:
        return (record for _, record in self.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RequestLog):
            return NotImplemented
        # The same records, completed in the same order.
        ids = self.rows.column("request_id"), other.rows.column("request_id")
        return np.array_equal(*ids) and dict(self.items()) == dict(other.items())


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


@dataclass
class RunMetrics:
    """Everything measured during one platform run."""

    platform_name: str
    requests: RequestLog = field(default_factory=RequestLog)
    """Every request by id, in arrival order (a mapping of records)."""
    dedup_ops: list[DedupOpRecord] = field(default_factory=list)
    restore_ops: list[RestoreOpRecord] = field(default_factory=list)
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
    checkpoint_demotions: int = 0
    checkpoint_promotions: int = 0
    table_demotions: int = 0
    """Dedup patch tables parked on SSD instead of purged."""
    table_promotions: int = 0
    """Parked tables read back for a restore."""
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
    fault_events: list[FaultEventRecord] = field(default_factory=list)
    """Injected faults and heals, in firing order (empty without faults)."""
    rpc_retries: int = 0
    """Failed transient-RPC attempts that were retried (fault layer)."""
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
    requests_rescheduled: int = 0
    """In-flight requests whose node crashed and that were re-dispatched."""
    crash_purged_sandboxes: int = 0
    """Sandboxes lost to node crashes (crash purge, not eviction)."""
    crash_reconciled_refs: int = 0
    """Orphaned base refcounts released or re-homed during crash
    reconciliation."""
    template_ops: list[TemplateOpRecord] = field(default_factory=list)
    """Templatize ops (empty unless template sharing is on)."""
    template_segments_created: int = 0
    """Distinct (content, size) template segments published to the pool."""
    template_segments_shared: int = 0
    """Segment reuses across templatize ops — each is a whole shared
    region that needed no publish because another function (or an earlier
    sandbox) already put it in the pool."""
    template_promotions: int = 0
    """Charged pool → node-DRAM segment promotions (first fork per node)."""
    template_promote_bytes: int = 0
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
    """Parked deltas moved to node-local SSD instead of purged, through
    the same park path as §9's patch tables: node DRAM frees fully, the
    sandbox stays fork-restorable at the charged SSD-read cost.  Only
    shared template *segments* get remote-DRAM durability; a parked
    delta dies with its node."""
    template_delta_spill_bytes: int = 0
    """SSD bytes written by those spills (node-local, never crosses the
    fabric)."""
    template_delta_unspill_bytes: int = 0
    """SSD bytes read back by forks of spilled sandboxes (the charged
    leg on the start path)."""

    @property
    def outstanding_requests(self) -> int:
        """Arrived-but-not-completed requests (the drain loop's check)."""
        return len(self.requests.inflight)

    @property
    def completion_timeline(self) -> ColumnTimeline:
        """Completed requests in completion order (``len`` and ``column``)."""
        return self.requests.rows

    # -------------------------------------------------------------- record

    def on_arrival(self, request_id: int, function: str, now: float) -> RequestRecord:
        record = RequestRecord(request_id=request_id, function=function, arrival_ms=now)
        log = self.requests
        log.inflight[request_id] = record
        if function not in log.codes:
            log.codes[function] = len(log.codes)
        arrived = log.arrived
        if arrived == log.arrivals.size:
            log.arrivals = np.concatenate((log.arrivals, log.arrivals))
        log.arrivals[arrived] = request_id
        log.arrived = arrived + 1
        return record

    def on_completion(self, record: RequestRecord, now: float) -> None:
        """Mark ``record`` complete: it leaves the in-flight dict and
        becomes one row of the log."""
        if record.completion_ms is not None:
            raise RuntimeError(f"request {record.request_id} completed twice")
        record.completion_ms = now
        log = self.requests
        del log.inflight[record.request_id]
        log.rows.append_row(
            record.request_id,
            log.codes[record.function],
            record.arrival_ms,
            START_CODES[record.start_type],
            record.queued_ms,
            record.startup_ms,
            record.exec_ms,
            now,
            record.retry_penalty_ms,
        )

    def completed_records(self) -> list[RequestRecord]:
        log = self.requests
        return list(log.records(log.completed_rows()))

    # ------------------------------------------------------------- derive

    def start_counts(self, function: str | None = None) -> Counter[StartType]:
        codes = self.completion_timeline.column("start_code")
        if function is not None:
            codes = codes[self.requests.of_function(function)]
        # Code -1 (completed without ever dispatching, e.g. displaced by a
        # node crash and re-queued) has no start to count, and a None key
        # would poison every ``Counter[StartType]`` consumer downstream.
        counts = np.bincount(codes + 1, minlength=len(START_CODES)).tolist()
        return Counter({s: n for s in StartType if (n := counts[START_CODES[s] + 1])})

    def cold_starts(self, function: str | None = None) -> int:
        return self.start_counts(function)[StartType.COLD]

    def cold_starts_by_function(self) -> dict[str, int]:
        """Cold starts per function, keyed in order of each function's
        first cold-started request (arrival order)."""
        log = self.requests
        rows = log.completed_rows()
        rows = rows[log.rows.column("start_code")[rows] == START_CODES[StartType.COLD]]
        codes = log.rows.column("function_code")[rows]
        seen, first = np.unique(codes, return_index=True)
        counts = np.bincount(codes).tolist()
        names = list(log.codes)
        return {names[code]: counts[code] for code in seen[np.argsort(first)].tolist()}

    def e2e_percentile(self, pct: float, function: str | None = None) -> float:
        return self.latency_percentile(pct, function=function)

    def startup_percentile(self, pct: float, function: str | None = None) -> float:
        return self.latency_percentile(pct, metric="startup", function=function)

    def latency_percentile(
        self,
        pct: float,
        *,
        start_type: StartType | None = None,
        metric: str = "e2e",
        function: str | None = None,
    ) -> float:
        """Latency percentile over completed requests, vectorized.

        ``start_type`` restricts to one rung of the start ladder and
        ``function`` to one function (``None`` keeps every completed
        request).  ``metric`` selects ``"e2e"``, ``"startup"`` or
        ``"queued"``.  Returns ``nan`` when no request of that selection
        completed.
        """
        if metric not in ("e2e", "startup", "queued"):
            raise ValueError(f"unknown latency metric {metric!r}")
        rows = self.completion_timeline
        values = rows.column(f"{metric}_ms")
        keep = np.ones(len(values), dtype=bool)
        if start_type is not None:
            keep &= rows.column("start_code") == START_CODES[start_type]
        if function is not None:
            keep &= self.requests.of_function(function)
        return percentile(values[keep], pct)

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
        return tuple(self.requests.codes)


def improvement_factors(
    baseline: RunMetrics,
    improved: RunMetrics,
    function: str | None = None,
) -> list[float]:
    """Per-request e2e ratios baseline/improved (Figure 7a's CDF).

    Requests are paired by id — both runs must have replayed the same
    trace.  A factor above 1 means ``improved`` was faster.  Factors are
    in the baseline's arrival order.
    """
    ours, theirs = baseline.requests, improved.requests
    rows = ours.completed_rows()
    if function is not None:
        rows = rows[ours.of_function(function)[rows]]
    paired = theirs.rows_of(ours.rows.column("request_id")[rows])
    rows, paired = rows[paired >= 0], paired[paired >= 0]
    base_e2e = ours.rows.column("e2e_ms")[rows]
    other_e2e = theirs.rows.column("e2e_ms")[paired]
    faster = other_e2e > 0
    return (base_e2e[faster] / other_e2e[faster]).tolist()
