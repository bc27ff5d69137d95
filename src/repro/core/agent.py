"""The per-node dedup agent: dedup op and restore op (Sections 4.1-4.2).

The **dedup op** converts a warm sandbox into the dedup state: it
checkpoints the memory image, computes a value-sampled fingerprint per
page, asks the controller's fingerprint registry for candidate base
pages, picks the best base per page, and computes an xdelta-style patch
against it.  Pages with no useful base stay resident as *unique* pages;
zero pages collapse to a marker.  The resulting
:class:`DedupPageTable` — patches, unique pages and base-page addresses —
is all that remains in memory, and it is stored *locally* on the
sandbox's node so restores never touch the controller (Section 4.2).

The dedup op's rules live in :class:`_DedupOp`, the per-op accumulator
that owns every page-classification rule: zero pages collapse in one
vectorized reduction, one registry round-trip (``choose_base_pages``)
serves the image's pages from the flat digest arrays, a base on an
unreachable peer or a patch over the unique cutoff leaves the page
unique, and base pages are read through the checkpoint store's LRU
cache of page views, shared by every agent (the same base pages are
re-read constantly across ops in the cluster).
:meth:`DedupAgent.dedup` drives it with the whole image as one batch —
one marker scan, one lookup, one ``compute_patches`` call.
Property tests assert it produces the page tables of a page-at-a-time
oracle written out independently of this module
(``tests/oracles/dedup_scalar.py``), and
``benchmarks/bench_dedup_throughput.py`` tracks the pages/sec gap.

The **restore op** reverses it: base pages are fetched (one-sided RDMA
for remote ones, batched per peer), patches are applied to recompute the
original pages, and the checkpoint is resumed.  The returned image is
byte-identical to the pre-dedup image — tests assert this, and
``restore(verify=True)`` checks it page by page against the digest
column the dedup op recorded, naming the first page that differs.

All durations are charged at full-sandbox scale even though the content
operations run on scaled images (see the cost model's docstring).
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from repro.core.costs import PIPELINE_BATCH_PAGES, CostModel, pipelined_ms
from repro.core.registry import FingerprintRegistry
from repro.faults.health import RegistryUnavailable
from repro.faults.retry import RetryExhausted, TransientFaults
from repro.memory.fingerprint import (
    FingerprintBatch,
    FingerprintConfig,
    batch_page_fingerprints,
    nonzero_page_mask,
)
from repro.memory.image import MemoryImage
from repro.memory.patch import (
    AnchorIndex,
    Patch,
    apply_patch_into,
    cached_anchor_index,
    compute_patches,
)
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import METADATA_BYTES_PER_PAGE, Sandbox
from repro.sim.network import RdmaFabric
from repro.storage.prefetch import WorkingSetRecorder
from repro.storage.store import TieredCheckpointStore
from repro.storage.tiers import StorageTier, remote_dram_read_ms, ssd_read_ms
from repro.templates.catalog import TemplateCatalog
from repro.templates.delta import (
    TemplateDeltaTable,
    build_delta_table,
    reconstruct_image,
)

#: A patch larger than this fraction of the page is not worth keeping;
#: the page is stored unique instead.
UNIQUE_THRESHOLD = 0.75


class PageKind(enum.IntEnum):
    """Disposition of one page after the dedup op: the codes of
    :attr:`DedupPageTable.entries`.  Arrays are compared with a code's
    ``value``: numpy takes a slow path for an ``IntEnum`` member."""

    ZERO = 0
    UNIQUE = 1
    PATCHED = 2


@dataclass(frozen=True)
class DedupStats:
    """Per-dedup-op accounting (drives Table 3 and Section 7.3.1)."""

    total_pages: int
    zero_pages: int
    unique_pages: int
    patched_pages: int
    same_function_pages: int
    cross_function_pages: int
    saved_content_bytes: int
    image_content_bytes: int

    @property
    def savings_fraction(self) -> float:
        """Fraction of the image's bytes eliminated by deduplication."""
        if self.image_content_bytes == 0:
            return 0.0
        return self.saved_content_bytes / self.image_content_bytes


@dataclass(frozen=True, eq=False)
class DedupMemo:
    """What a dedup op decided, kept for its sandbox's next op (DESIGN.md §7).

    An executed image is a pure function of (function, instance seed),
    so a restored sandbox's next op reads the same bytes.  It reuses
    ``digests`` and ``counts`` (the nonzero pages' fingerprints, all the
    registry reads) and still asks the registry; a page whose fresh
    base equals its row of ``pairs`` at the same ``level`` takes that
    row's outcome.  A pair's outcome depends only on the two pages'
    bytes, the level and the cutoff, and a checkpoint id is never
    reused, so the reuse is exact.
    """

    level: int
    digests: np.ndarray
    counts: np.ndarray
    pairs: np.ndarray
    """``(page, checkpoint, base page)`` of each page that got a base, by page."""
    outcomes: tuple[Patch | None, ...]
    """Each pair's kept patch (shared with the table), or ``None`` if discarded."""

    def rows(self, pairs: np.ndarray, level: int) -> np.ndarray:
        """Each of ``pairs``' row here, or -1 where this memo did not
        decide that pair at ``level``."""
        if level != self.level or not len(self.pairs):
            return np.full(len(pairs), -1)
        rows = np.minimum(self.pairs[:, 0].searchsorted(pairs[:, 0]), len(self.pairs) - 1)
        return np.where(np.logical_and.reduce(self.pairs[rows] == pairs, axis=1), rows, -1)


@dataclass(eq=False)
class DedupPageTable:
    """The resident representation of a deduplicated sandbox, as columns.

    ``entries`` holds one :class:`PageKind` code per page.  The patched
    pages, in page order, have one row each in ``patched`` (page index),
    ``base_checkpoint``, ``base_node`` and ``base_page`` (the base page's
    address) and ``patches``; ``unique`` holds the unique pages' bytes,
    one row per page in page order.  Also records
    everything needed to rebuild the original :class:`MemoryImage` (its
    metadata fields), so restores reconstruct a byte-identical image.
    """

    function: str
    instance_seed: int
    page_size: int
    content_scale: float
    aslr: bool
    executed: bool
    regions: tuple
    entries: np.ndarray
    patched: np.ndarray
    base_checkpoint: np.ndarray
    base_node: np.ndarray
    base_page: np.ndarray
    patches: tuple[Patch, ...]
    unique: np.ndarray
    page_digests: np.ndarray
    """The original image's :meth:`MemoryImage.page_digests` column."""
    full_size_bytes: int
    stats: DedupStats
    base_refs: Counter[int] = field(default_factory=Counter)
    """checkpoint_id -> number of page references (refcount holdings)."""
    memo: DedupMemo | None = None
    """The op's memo, handed to the sandbox when a restore lands."""

    @cached_property
    def retained_content_bytes(self) -> int:
        """Scaled bytes resident (patches + unique pages), cached —
        node accounting queries this on every placement decision."""
        return self.unique.nbytes + sum(patch.size_bytes for patch in self.patches)

    @property
    def retained_full_bytes(self) -> int:
        """Full-scale memory charge of the dedup sandbox."""
        full_pages = max(1, round(len(self.entries) / self.content_scale))
        metadata = full_pages * METADATA_BYTES_PER_PAGE
        return int(self.retained_content_bytes / self.content_scale) + metadata

    def describe_page(self, index: int) -> str:
        """Page ``index``'s class, for a failed-verify message."""
        kind = PageKind(self.entries[index])
        if kind is not PageKind.PATCHED:
            return f"page {index} is {kind.name.lower()}"
        row = int(np.searchsorted(self.patched, index))
        return (
            f"page {index} is patched against base (checkpoint "
            f"{self.base_checkpoint[row]}, page {self.base_page[row]}) "
            f"with a {self.patches[row].size_bytes}-byte patch"
        )

    def write_unique_pages(self, out: np.ndarray) -> None:
        """Copy the unique pages into ``out``, a zeroed buffer of the
        image's size (zero pages are then already materialized)."""
        rows = out.reshape(len(self.entries), self.page_size)
        rows[self.entries == PageKind.UNIQUE.value] = self.unique

    def image_fingerprints(self) -> FingerprintBatch:
        """Every page's value-sampled fingerprint, from :attr:`memo`: a
        zero page holds no marker byte, so it samples no chunk."""
        counts = np.zeros(len(self.entries), dtype=np.int64)
        counts[self.entries != PageKind.ZERO.value] = self.memo.counts
        return FingerprintBatch(self.memo.digests, None, counts)


def checkpoint_order(checkpoints: list[int]) -> list[int]:
    """Positions of ``checkpoints`` grouped by value: groups in order of
    first appearance, positions ascending within each — the order base
    pages are read in, which the LRU cache's hit counts depend on."""
    groups: dict[int, list[int]] = {}
    for position, checkpoint_id in enumerate(checkpoints):
        groups.setdefault(checkpoint_id, []).append(position)
    return [position for group in groups.values() for position in group]


@dataclass(frozen=True)
class DedupTimings:
    """Phase durations of one dedup op (full-scale ms).

    With stage-overlap accounting (``batches`` set — the cost model of
    DESIGN.md §10), the post-checkpoint stages are software-pipelined
    over the op's page batches and the total charges the pipeline's
    critical path instead of the stage sum.  The checkpoint (runtime
    freeze + dump) stays a serial prologue — it cannot overlap work on
    pages that do not exist yet.
    """

    checkpoint_ms: float
    fingerprint_ms: float
    lookup_ms: float
    base_read_ms: float
    patch_ms: float
    batches: int | None = None
    """Page batches the stages pipeline over (None = serial stage sum)."""
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency (serial prologue; fault
    layer only — zero otherwise)."""
    retries: int = 0

    @property
    def total_ms(self) -> float:
        if self.batches is None:
            return (
                self.checkpoint_ms
                + self.fingerprint_ms
                + self.lookup_ms
                + self.base_read_ms
                + self.patch_ms
                + self.retry_ms
            )
        stages = (self.fingerprint_ms, self.lookup_ms, self.base_read_ms, self.patch_ms)
        return self.checkpoint_ms + self.retry_ms + pipelined_ms(stages, self.batches)


@dataclass(frozen=True)
class DedupOutcome:
    table: DedupPageTable
    timings: DedupTimings


@dataclass(frozen=True)
class RestoreTimings:
    """Phase durations of one restore op — the Figure 8 breakdown.

    With checkpoint tiering, a recorded-working-set restore issues its
    base reads as one prefetch that overlaps patch application, so the
    total charges ``max(base_read, compute)`` plus a serial demand-miss
    read; first-touch restores keep the serial sum.  With stage-overlap
    accounting (``batches`` set), the base reads and patch application
    pipeline over the op's page batches instead.
    """

    base_read_ms: float
    """'Dedup: base page reading'."""
    compute_ms: float
    """'Dedup: original page computing' (patch application)."""
    restore_ms: float
    """'Dedup: sandbox restoration' (checkpoint resume)."""
    prefetched: bool = False
    """Base reads overlapped compute (recorded working set)."""
    miss_read_ms: float = 0.0
    """Serial read of pages the recorded working set lacked."""
    prefetch_hit_pages: int = 0
    prefetch_miss_pages: int = 0
    batches: int | None = None
    """Page batches base reads and patch application pipeline over
    (None = serial sum)."""
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency (serial prologue; fault
    layer only — zero otherwise)."""
    retries: int = 0

    @property
    def fetch_ms(self) -> float:
        """Base reads plus patch application on the critical path."""
        if self.prefetched:
            # Recorded-working-set restores already overlap the one
            # batched prefetch with compute.
            return max(self.base_read_ms, self.compute_ms) + self.miss_read_ms
        if self.batches is not None:
            return (
                pipelined_ms((self.base_read_ms, self.compute_ms), self.batches)
                + self.miss_read_ms
            )
        return self.base_read_ms + self.compute_ms

    @property
    def total_ms(self) -> float:
        return self.fetch_ms + self.restore_ms + self.retry_ms


@dataclass(frozen=True)
class RestoreOutcome:
    image: MemoryImage
    timings: RestoreTimings


@dataclass(frozen=True)
class TemplatizeOutcome:
    """Result of parking a sandbox as a template delta (DESIGN.md §14)."""

    table: TemplateDeltaTable
    duration_ms: float
    publish_ms: float
    """Charged pool write for newly published segments (0.0 on hits)."""
    segments_created: int
    segments_shared: int
    """Shareable regions served by already-published segments."""
    published_bytes: int
    retry_ms: float = 0.0
    retries: int = 0


@dataclass(frozen=True)
class ForkTimings:
    """Phase durations of one template fork (full-scale ms)."""

    promote_ms: float
    """Pool read materializing missing node replicas (0.0 once warm)."""
    apply_ms: float
    """Delta application over the replicas (patches + literal pages)."""
    restore_ms: float
    """Checkpoint resume (same fixed cost as a dedup restore)."""
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency on the promote read."""
    retries: int = 0

    @property
    def total_ms(self) -> float:
        return self.promote_ms + self.apply_ms + self.restore_ms + self.retry_ms


@dataclass(frozen=True)
class ForkOutcome:
    image: MemoryImage
    timings: ForkTimings
    promoted: tuple
    """Segments whose replica this fork created on the node (the
    controller pins their DRAM charge)."""
    promoted_bytes: int


class _DedupOp:
    """One dedup op in flight: the page-classification rules and accounts.

    :meth:`DedupAgent.dedup` runs its steps with the whole image as one
    batch: construction classifies the zero pages, :meth:`choose` picks
    bases for the fingerprinted pages, the agent reads each chosen base
    page the sandbox's memo has no outcome for and :meth:`accept`
    records the patches; the agent turns the finished accounts into the
    table, its memo and its timings.  Chosen and kept pairs are int64
    columns ``(page, checkpoint, node, base page)``: no per-pair object.
    """

    def __init__(self, agent: "DedupAgent", sandbox: Sandbox):
        image = sandbox.image
        if image is None:
            raise RuntimeError(f"sandbox {sandbox.sandbox_id} has no image to dedup")
        self.agent = agent
        self.sandbox = sandbox
        self.image = image
        self.unique_cap = int(UNIQUE_THRESHOLD * image.page_size)
        nonzero = nonzero_page_mask(image.data, image.page_size)
        self.pages = nonzero.nonzero()[0]
        """Indices of the pages with content: each goes through
        :meth:`choose` exactly once."""
        self.kinds = nonzero.astype(np.uint8)  # PageKind.UNIQUE is 1, ZERO is 0
        """Each page's :class:`PageKind` code; a content page stays
        unique unless :meth:`accept` patches it."""
        self.zero_pages = image.num_pages - len(self.pages)
        self.saved = self.zero_pages * image.page_size

    def choose(self, fingerprints: FingerprintBatch) -> np.ndarray:
        """One registry round-trip for :attr:`pages` (aligned with
        ``fingerprints``): the columns of the pages that got a readable
        base; the rest stay unique."""
        agent = self.agent
        choices = agent.registry.choose_base_pages(
            fingerprints, agent.node_id, self.sandbox.domain
        )
        chosen = np.array(choices[:4])
        chosen[0] = self.pages[chosen[0]]
        nodes = chosen[2].tolist()
        # A base on an unreachable node leaves its page unique rather
        # than depend on state we cannot read back.
        me, fabric = agent.node_id, agent.fabric
        down = [node for node in set(nodes) if node != me and not fabric.peer_available(node)]
        if down:
            chosen = chosen[:, ~np.isin(chosen[2], down)]
            nodes = chosen[2].tolist()
        # Keyed in order of first appearance: the order a per-pair loop
        # made, which the simulated float sums follow.
        self.reads_by_peer = Counter(nodes)
        self.checkpoints = {
            checkpoint_id: agent.store.get(checkpoint_id)
            for checkpoint_id in dict.fromkeys(chosen[1].tolist())
        }
        """The chosen base checkpoints, resolved once each."""
        return chosen

    def accept(self, chosen: np.ndarray, outcomes: list[Patch | None]) -> list[Patch | None]:
        """Record the patches of ``chosen``'s pairs (``outcomes``, aligned):
        ``None`` or a patch at or over the cutoff leaves the page unique.
        Returns each pair's outcome, ``None`` where it was discarded."""
        cap = self.unique_cap
        keep = [patch is not None and patch.size_bytes < cap for patch in outcomes]
        self.patches = patches = tuple(compress(outcomes, keep))
        self.patched = kept = chosen[:, np.array(keep, dtype=bool)]
        """The patched pages' columns, in page order."""
        self.kinds[kept[0]] = PageKind.PATCHED.value
        self.saved += len(patches) * self.image.page_size - sum(
            patch.size_bytes for patch in patches
        )
        self.base_refs = Counter(kept[1].tolist())
        checkpoints, fn = self.checkpoints, self.sandbox.function
        self.same_fn = sum(k for c, k in self.base_refs.items() if checkpoints[c].function == fn)
        self.cross_fn = len(patches) - self.same_fn
        return [patch if k else None for patch, k in zip(outcomes, keep)]

    def stats(self) -> DedupStats:
        """The finished op's counts."""
        patched = len(self.patches)
        return DedupStats(
            total_pages=self.image.num_pages,
            zero_pages=self.zero_pages,
            unique_pages=int(self.pages.size) - patched,
            patched_pages=patched,
            same_function_pages=self.same_fn,
            cross_function_pages=self.cross_fn,
            saved_content_bytes=self.saved,
            image_content_bytes=self.image.nbytes,
        )


class DedupAgent:
    """The dedup/restore executor of one node."""

    def __init__(
        self,
        node_id: int,
        *,
        registry: FingerprintRegistry,
        store: CheckpointStore,
        fabric: RdmaFabric,
        costs: CostModel,
        content_scale: float,
        fingerprint_config: FingerprintConfig | None = None,
        patch_level: int = 1,
        recorder: WorkingSetRecorder | None = None,
        tiering: bool = False,
        stage_overlap: bool = False,
        transients: TransientFaults | None = None,
        templates: TemplateCatalog | None = None,
    ):
        if not 0 < content_scale <= 1:
            raise ValueError("content_scale must be in (0, 1]")
        self.node_id = node_id
        self.registry = registry
        self.store = store
        self.fabric = fabric
        self.costs = costs
        self.content_scale = content_scale
        if tiering and not isinstance(store, TieredCheckpointStore):
            raise ValueError("tiering needs a TieredCheckpointStore")
        self.tiering = tiering
        """Base reads are costed by residency (checkpoint tiering)."""
        self.recorder = recorder
        """Restore working-set recorder, shared cluster-wide (tiering
        with prefetch only; None disables recording)."""
        self.fingerprint_config = fingerprint_config or FingerprintConfig()
        self.patch_level = patch_level
        self.stage_overlap = stage_overlap
        """Charge dedup/restore timings with stage-overlap accounting:
        the stages pipeline over batches of :data:`PIPELINE_BATCH_PAGES`
        pages, one registry round-trip per batch (False = serial stage
        sums)."""
        self.transients = transients
        """Seeded transient-RPC failure model (fault layer; None = RPCs
        never fail transiently).  Registry lookups and remote base-page
        fetches draw a retry plan from it, charge the timeout/backoff
        latency into the op's timings, and surface
        :class:`RegistryUnavailable` / :class:`RetryExhausted` when
        every attempt fails."""
        self.templates = templates
        """Cluster-wide template catalog (DESIGN.md §14; None unless
        ``template_sharing`` is on)."""
        self.dedup_ops = 0
        self.restore_ops = 0
        self.templatize_ops = 0
        self.fork_ops = 0
        # The store's caches, shared by every agent reading it.  Ids
        # are never reused and a checkpoint's entries are purged on
        # remove, so no entry is stale or pins a retired image.
        self.base_page_cache = store.page_cache
        self.anchor_index_cache = store.anchor_cache

    # ---------------------------------------------------------------- dedup

    def _full_scale(self, pages: int) -> tuple[int, float]:
        """Full-scale page count of a ``pages``-page scaled image, and
        the factor that scales its page counts up to it."""
        full_pages = max(1, round(pages / self.content_scale))
        return full_pages, full_pages / (pages or 1)

    def _retry_plan(self, rpc: str) -> tuple[float, int]:
        """``(retry_ms, retries)`` of the op's one transient-prone RPC.

        Every op draws its plan BEFORE any side effect — refcounts,
        published segments, promoted replicas, charged costs — so an
        exhausted op leaves no state behind and the controller takes
        the next rung of the fallback ladder.
        """
        if self.transients is None:
            return 0.0, 0
        plan = self.transients.plan(rpc)
        if not plan.succeeded:
            raise RetryExhausted(rpc, plan.attempts, plan.charged_ms)
        return plan.charged_ms, plan.attempts

    def base_page_bytes(self, checkpoint: BaseCheckpoint, page_index: int) -> np.ndarray:
        """Read-only view of a base page, through the store's LRU cache."""
        key = (checkpoint.checkpoint_id, page_index)
        cached = self.base_page_cache.get(key)
        if cached is None:
            cached = checkpoint.image.page(page_index)
            self.base_page_cache.put(key, cached)
        return cached

    def dedup(self, sandbox: Sandbox) -> DedupOutcome:
        """Run the dedup op on a warm sandbox's image.

        One :class:`_DedupOp`, whose page table is identical to the
        page-at-a-time oracle's (property-tested).

        Side effects: acquires refcounts on every base checkpoint the new
        page table references.  The caller (controller) is responsible
        for swapping the sandbox's image for the returned table and for
        the corresponding lifecycle transitions.
        """
        op = _DedupOp(self, sandbox)
        memo = self._classify(op)
        return self._finish_dedup(
            sandbox,
            op.image,
            op.kinds,
            op.patched,
            op.patches,
            op.stats(),
            op.base_refs,
            op.reads_by_peer,
            memo,
        )

    def _classify(self, op: _DedupOp) -> DedupMemo:
        """Classify every page of ``op`` as one batch — one marker scan
        fingerprints every nonzero page (a restored sandbox reuses its
        memo's), one registry round-trip picks every base page, a pair
        the memo decided at this level takes its outcome, the other
        pairs' base pages are read grouped by checkpoint through the
        LRU cache, and one ``compute_patches`` call patches them.
        Returns the op's memo."""
        image = op.image
        page_size = image.page_size
        memo = op.sandbox.kept_choices
        if memo is None:
            fingerprints = batch_page_fingerprints(
                image.data, page_size, self.fingerprint_config, pages=op.pages
            )
        else:
            fingerprints = FingerprintBatch(memo.digests, None, memo.counts)
        chosen = op.choose(fingerprints)
        pairs = chosen[[0, 1, 3]].astype(np.int32).T  # (page, checkpoint, base page) rows
        outcomes: list[Patch | None] = [None] * len(pairs)
        todo = np.arange(len(pairs))
        if memo is not None:
            rows = memo.rows(pairs, self.patch_level)
            outcomes = [None if row < 0 else memo.outcomes[row] for row in rows.tolist()]
            todo = (rows < 0).nonzero()[0]
        pages, checkpoints, _, base_pages = chosen[:, todo].tolist()

        # Fetch grouped by checkpoint (the order the LRU cache sees).
        bases: list[np.ndarray] = [None] * len(todo)  # type: ignore[list-item]
        for j in checkpoint_order(checkpoints):
            bases[j] = self.base_page_bytes(op.checkpoints[checkpoints[j]], base_pages[j])

        # The targets are rows of the image, so the codec diffs them and
        # each block's bases in 2-D numpy passes; pages
        # falling back to anchor matching reuse cached base-page anchor
        # indexes (made only when a fallback needs one; an entry shares
        # the page's read-only view with ``base_page_cache`` and builds
        # each of its halves on first use).
        def anchor_index_for(j: int) -> AnchorIndex:
            return cached_anchor_index(
                self.anchor_index_cache,
                (checkpoints[j], base_pages[j]),
                bases[j],
                self.patch_level,
            )

        patches = compute_patches(
            image.data.reshape(image.num_pages, page_size)[pages],
            bases,
            level=self.patch_level,
            index_provider=anchor_index_for,
            max_size=op.unique_cap,
        )
        for j, patch in zip(todo.tolist(), patches):
            outcomes[j] = patch
        outcomes = op.accept(chosen, outcomes)
        return DedupMemo(
            self.patch_level, fingerprints.digests, fingerprints.counts, pairs, tuple(outcomes)
        )

    def _finish_dedup(
        self,
        sandbox: Sandbox,
        image: MemoryImage,
        kinds: np.ndarray,
        patched: np.ndarray,
        patches: tuple[Patch, ...],
        stats: DedupStats,
        base_refs: Counter[int],
        reads_by_peer: Counter[int],
        memo: DedupMemo | None = None,
    ) -> DedupOutcome:
        """Tail of the dedup op (and of its test oracle): refcounts, table, timings.

        ``kinds`` holds each page's :class:`PageKind` code; ``patched``
        holds the patched pages' int64 columns ``(page, checkpoint,
        node, base page)`` in page order and ``patches`` their patches;
        the table carries ``memo``.
        """
        try:
            retry_ms, retries = self._retry_plan("registry-lookup")
        except RetryExhausted as exc:
            raise RegistryUnavailable(
                f"registry lookup for sandbox {sandbox.sandbox_id}: "
                f"all {exc.attempts} attempts timed out"
            ) from exc
        for checkpoint_id, count in base_refs.items():
            self.store.get(checkpoint_id).acquire(count)

        pages, checkpoints, nodes, base_pages = patched
        rows = image.data.reshape(image.num_pages, image.page_size)
        table = DedupPageTable(
            function=sandbox.function,
            instance_seed=image.instance_seed,
            page_size=image.page_size,
            content_scale=self.content_scale,
            aslr=image.aslr,
            executed=image.executed,
            regions=image.regions,
            entries=kinds,
            patched=pages,
            base_checkpoint=checkpoints,
            base_node=nodes,
            base_page=base_pages,
            patches=patches,
            unique=rows[kinds == PageKind.UNIQUE.value],
            page_digests=image.page_digests(),
            full_size_bytes=sandbox.profile.memory_bytes,
            stats=stats,
            base_refs=base_refs,
            memo=memo,
        )

        full_pages, scale_up = self._full_scale(image.num_pages)
        read_plan = {
            peer: (int(count * scale_up), int(count * scale_up) * image.page_size)
            for peer, count in reads_by_peer.items()
        }
        batches = self._stage_overlap(full_pages)
        if batches is None:
            lookup_ms = self.costs.lookup_ms(full_pages)
        else:
            # Batched registry front end: one RPC per batch, table work
            # per page (Section 4.3's batched registry traffic).
            lookup_ms = self.costs.lookup_batched_ms(full_pages, batches)
        timings = DedupTimings(
            checkpoint_ms=self.costs.checkpoint_ms(full_pages),
            fingerprint_ms=self.costs.fingerprint_ms(full_pages),
            lookup_ms=lookup_ms,
            base_read_ms=self.fabric.batch_read_ms(read_plan, local_peer=self.node_id),
            patch_ms=self.costs.patch_compute_ms(
                max(1, round(stats.patched_pages * scale_up))
            ),
            batches=batches,
            retry_ms=retry_ms,
            retries=retries,
        )
        self.dedup_ops += 1
        return DedupOutcome(table=table, timings=timings)

    def _stage_overlap(self, full_pages: int) -> int | None:
        """Page batches an op over ``full_pages`` pipelines over under
        stage-overlap accounting (None without it)."""
        if not self.stage_overlap:
            return None
        return max(1, math.ceil(full_pages / PIPELINE_BATCH_PAGES))

    # -------------------------------------------------------------- restore

    def restore(self, table: DedupPageTable, *, verify: bool = False) -> RestoreOutcome:
        """Run the restore op: rebuild the original image from the table.

        Base-page fetches are grouped by checkpoint and served through
        the store's LRU cache; each patch is applied in place into the
        output buffer, which starts zeroed so zero pages cost nothing
        to materialize.

        Does *not* release base refcounts — the controller does that once
        the sandbox is warm again (the base pages must stay pinned until
        the restore completes).
        """
        page_size = table.page_size
        reads_by_peer = Counter(table.base_node.tolist())
        patched = len(table.patches)

        # Entirely-local fetches involve no RPC and never fail transiently.
        retry_ms, retries = 0.0, 0
        if self.transients is not None and any(
            peer != self.node_id for peer in reads_by_peer
        ):
            retry_ms, retries = self._retry_plan("restore-fetch")

        # Fetch the base pages first: an unreachable peer raises
        # PeerUnavailable *before* any reconstruction work, and the
        # controller falls back to a cold start.
        _, scale_up = self._full_scale(len(table.entries))
        if self.tiering:
            (
                base_read_ms,
                prefetched,
                miss_read_ms,
                hit_pages,
                miss_pages,
            ) = self._tiered_base_read(table, page_size, scale_up)
        else:
            read_plan = {
                peer: (int(count * scale_up), int(count * scale_up) * page_size)
                for peer, count in reads_by_peer.items()
            }
            base_read_ms = self.fabric.batch_read_ms(read_plan, local_peer=self.node_id)
            prefetched = False
            miss_read_ms = 0.0
            hit_pages = miss_pages = 0

        data = self._reconstruct(table)
        image = MemoryImage(
            function=table.function,
            instance_seed=table.instance_seed,
            data=data,
            page_size=page_size,
            regions=table.regions,
            aslr=table.aslr,
            executed=table.executed,
        )
        if verify and not np.array_equal(image.page_digests(), table.page_digests):
            bad = image.differing_pages(table.page_digests)
            raise RuntimeError(
                f"restore of {table.function}/{table.instance_seed} produced a "
                f"corrupted image: {bad.size} bad page(s); first bad "
                + table.describe_page(int(bad[0]))
            )

        timings = RestoreTimings(
            base_read_ms=base_read_ms,
            compute_ms=self.costs.patch_apply_ms(max(1, round(patched * scale_up))),
            restore_ms=self.costs.restore_fixed_ms,
            prefetched=prefetched,
            miss_read_ms=miss_read_ms,
            prefetch_hit_pages=hit_pages,
            prefetch_miss_pages=miss_pages,
            batches=self._stage_overlap(max(1, round(patched * scale_up))),
            retry_ms=retry_ms,
            retries=retries,
        )
        self.restore_ops += 1
        return RestoreOutcome(image=image, timings=timings)

    def _reconstruct(self, table: DedupPageTable) -> np.ndarray:
        """Serial content reconstruction of ``table`` (restore op body):
        patched pages grouped by base checkpoint, in page order within
        each group."""
        data = np.zeros(len(table.entries) * table.page_size, dtype=np.uint8)
        table.write_unique_pages(data)
        rows = data.reshape(len(table.entries), table.page_size)
        checkpoints = table.base_checkpoint.tolist()
        pages, base_pages = table.patched.tolist(), table.base_page.tolist()
        checkpoint = None
        for j in checkpoint_order(checkpoints):
            if checkpoint is None or checkpoint.checkpoint_id != checkpoints[j]:
                checkpoint = self.store.get(checkpoints[j])
            apply_patch_into(
                table.patches[j],
                self.base_page_bytes(checkpoint, base_pages[j]),
                rows[pages[j]],
            )
        return data

    # ---------------------------------------------------- template forks

    def templatize(self, sandbox: Sandbox) -> TemplatizeOutcome:
        """Park a warm sandbox as a delta against shared template segments.

        Ensures the catalog holds a segment per shareable RUNTIME/LIBRARY
        region (publishing missing ones to the remote-DRAM pool — one
        charged write, all-or-nothing), factors the image into segment
        patches plus private pages, and acquires a catalog reference per
        segment.  No registry traffic, no fingerprinting, no base-page
        fetches: the segments *are* the bases.  A forked sandbox's kept
        delta is reused as is: its content, the eligible regions and
        the segments' bytes are all fixed, so factoring would rebuild it.

        Raises :class:`repro.templates.catalog.TemplatePoolFull` (pool
        cannot fit the new segments) or :class:`RetryExhausted` (pool
        write's transient-RPC plan failed) *before* any state is created;
        the controller then falls back to the dedup path.
        """
        catalog = self.templates
        if catalog is None:
            raise RuntimeError("agent has no template catalog")
        image, table = sandbox.image, sandbox.kept_delta
        if image is None and table is None:
            raise RuntimeError(
                f"sandbox {sandbox.sandbox_id} has no image to templatize"
            )
        retry_ms, retries = self._retry_plan("template-publish")

        segments, created, publish_ms = catalog.ensure_segments(
            (image if table is None else table).regions, sandbox.domain
        )
        if table is None:
            table = build_delta_table(
                image,
                {segment.key: segment for segment in segments},
                content_scale=self.content_scale,
                full_size_bytes=sandbox.profile.memory_bytes,
                level=self.patch_level,
                domain=sandbox.domain,
            )
        catalog.acquire(table.segment_keys)

        full_pages, scale_up = self._full_scale(table.num_pages)
        duration_ms = (
            self.costs.checkpoint_ms(full_pages)
            + self.costs.patch_compute_ms(
                max(1, round(table.patched_pages * scale_up))
            )
            + publish_ms
            + retry_ms
        )
        self.templatize_ops += 1
        return TemplatizeOutcome(
            table=table,
            duration_ms=duration_ms,
            publish_ms=publish_ms,
            segments_created=len(created),
            segments_shared=len(segments) - len(created),
            published_bytes=sum(segment.full_bytes for segment in created),
            retry_ms=retry_ms,
            retries=retries,
        )

    def fork_restore(
        self, table: TemplateDeltaTable, *, now: float, verify: bool = False
    ) -> ForkOutcome:
        """Fork a parked template sandbox back to a byte-exact image.

        Promotes any segment the node lacks a replica of (one batched
        pool read — the charged promote of a template's first local
        fork; later forks on the node move no bytes), applies the delta
        over the replicas, and resumes the checkpoint.  Does *not*
        release the table's catalog references — the controller does
        that once the sandbox is warm again.
        """
        catalog = self.templates
        if catalog is None:
            raise RuntimeError("agent has no template catalog")
        keys = table.segment_keys
        # Forks served entirely from local replicas involve no RPC and
        # never fail transiently; a promote is a remote-pool read.
        retry_ms, retries = 0.0, 0
        if self.transients is not None and catalog.missing_on(self.node_id, keys):
            retry_ms, retries = self._retry_plan("template-fork")

        promoted, promoted_bytes, promote_ms = catalog.promote(
            self.node_id, keys, now
        )
        image = reconstruct_image(
            table,
            {segment.key: segment.content for segment in catalog.segments_for(keys)},
            verify=verify,
        )

        _, scale_up = self._full_scale(table.num_pages)
        timings = ForkTimings(
            promote_ms=promote_ms,
            apply_ms=self.costs.patch_apply_ms(
                max(1, round(table.patched_pages * scale_up))
            ),
            restore_ms=self.costs.restore_fixed_ms,
            retry_ms=retry_ms,
            retries=retries,
        )
        self.fork_ops += 1
        return ForkOutcome(
            image=image,
            timings=timings,
            promoted=tuple(promoted),
            promoted_bytes=promoted_bytes,
        )

    # ------------------------------------------------------ tiered reads

    def _tiered_base_read(
        self, table: DedupPageTable, page_size: int, scale_up: float
    ) -> tuple[float, bool, float, int, int]:
        """Base-read costing under checkpoint tiering (DESIGN.md §9).

        Returns ``(base_read_ms, prefetched, miss_read_ms, hit_pages,
        miss_pages)``.  On the first restore of a (function, base set)
        key, every base page is demand-read serially and the exact set
        of fetched pages is recorded; later restores issue the recorded
        set as one batched prefetch (``base_read_ms`` overlaps patch
        compute) and only demand-read the recording's misses.
        """
        assert isinstance(self.store, TieredCheckpointStore)
        needed_cids = sorted(table.base_refs.keys())
        # Validate every involved node's reachability up front: a restore
        # either proceeds in full or fails fast to the cold fallback,
        # with no cost charged — SSD-resident state shares its owning
        # node's failure domain, the far-memory pool has none.
        for checkpoint_id in needed_cids:
            checkpoint = self.store.get(checkpoint_id)
            if (
                checkpoint.tier is not StorageTier.REMOTE_DRAM
                and checkpoint.node_id != self.node_id
            ):
                self.fabric.require_peer(checkpoint.node_id)

        recorded = None
        key = None
        if self.recorder is not None:
            key = WorkingSetRecorder.key_for(table.function, needed_cids)
            recorded = self.recorder.lookup(key)

        hit_by_checkpoint: Counter[int] = Counter()
        miss_by_checkpoint: Counter[int] = Counter()
        addresses = list(zip(table.base_checkpoint.tolist(), table.base_page.tolist()))
        for address in addresses:
            if recorded is not None and address in recorded:
                hit_by_checkpoint[address[0]] += 1
            else:
                miss_by_checkpoint[address[0]] += 1

        if recorded is None:
            # First touch: one serial demand read, then record the set.
            base_read_ms = self._channel_read_ms(
                miss_by_checkpoint, page_size, scale_up
            )
            if self.recorder is not None and key is not None:
                self.recorder.record(key, frozenset(addresses))
            return base_read_ms, False, 0.0, 0, 0

        base_read_ms = self._channel_read_ms(hit_by_checkpoint, page_size, scale_up)
        miss_read_ms = self._channel_read_ms(miss_by_checkpoint, page_size, scale_up)
        hit_pages = int(sum(hit_by_checkpoint.values()) * scale_up)
        miss_pages = int(sum(miss_by_checkpoint.values()) * scale_up)
        assert self.recorder is not None
        self.recorder.note_prefetch(hit_pages, miss_pages)
        return base_read_ms, True, miss_read_ms, hit_pages, miss_pages

    def _channel_read_ms(
        self, counts_by_checkpoint: Counter[int], page_size: int, scale_up: float
    ) -> float:
        """One batched multi-channel fetch of base pages by residency.

        Node-DRAM pages go over the RDMA fabric (pipelined per peer),
        far-memory pages over the pool link, SSD pages through each
        owning node's drive; the channels proceed in parallel, so the
        cost is the slowest channel — the same shape as
        :meth:`RdmaFabric.batch_read_ms`.
        """
        assert isinstance(self.store, TieredCheckpointStore)
        fabric_plan: dict[int, tuple[int, int]] = {}
        remote_dram_bytes = 0
        ssd_bytes: Counter[int] = Counter()
        for checkpoint_id in sorted(counts_by_checkpoint):
            checkpoint = self.store.get(checkpoint_id)
            ops = int(counts_by_checkpoint[checkpoint_id] * scale_up)
            nbytes = ops * page_size
            if checkpoint.tier is StorageTier.NODE_DRAM:
                prev_ops, prev_bytes = fabric_plan.get(checkpoint.node_id, (0, 0))
                fabric_plan[checkpoint.node_id] = (prev_ops + ops, prev_bytes + nbytes)
            elif checkpoint.tier is StorageTier.REMOTE_DRAM:
                remote_dram_bytes += nbytes
            else:
                ssd_bytes[checkpoint.node_id] += nbytes
        cost = self.fabric.batch_read_ms(fabric_plan, local_peer=self.node_id)
        if remote_dram_bytes:
            cost = max(cost, remote_dram_read_ms(remote_dram_bytes))
        for node_id in sorted(ssd_bytes):
            cost = max(cost, ssd_read_ms(ssd_bytes[node_id]))
        return cost
