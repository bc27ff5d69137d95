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

The dedup op has **one body, two drivers and one oracle**.  The body is
:class:`_DedupOp`, the per-op accumulator that owns every
page-classification rule: zero pages collapse in one vectorized
reduction, one registry round-trip (``choose_base_pages``) serves a
batch of pages from the flat digest arrays, a base on an unreachable
peer or a patch over the unique cutoff leaves the page unique, and
base pages are read through a per-agent LRU cache of decoded pages (the
same base pages are re-read constantly across ops on a node).
:meth:`DedupAgent.dedup` drives it with the whole image as one batch —
one marker scan, one lookup, one ``compute_patches`` call; the staged
:class:`~repro.parallel.plane.DataPlane` (``parallel=...``) drives the
same four steps per page-range batch as worker results arrive.
:meth:`DedupAgent.dedup_reference` is the page-at-a-time oracle, written
out independently on purpose; property tests assert all three produce
identical page tables, and ``benchmarks/bench_dedup_throughput.py``
tracks the pages/sec gap.

The **restore op** reverses it: base pages are fetched (one-sided RDMA
for remote ones, batched per peer), patches are applied to recompute the
original pages, and the checkpoint is resumed.  The returned image is
byte-identical to the pre-dedup image — tests assert this.

All durations are charged at full-sandbox scale even though the content
operations run on scaled images (see the cost model's docstring).
"""

from __future__ import annotations

import enum
import math
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro._util import LruCache
from repro.core.costs import CostModel, StageOverlap, pipelined_ms
from repro.core.registry import FingerprintRegistry, PageRef
from repro.faults.health import RegistryUnavailable
from repro.faults.retry import RetryExhausted, TransientFaults
from repro.memory.fingerprint import (
    FingerprintConfig,
    PageFingerprint,
    batch_page_fingerprints,
    nonzero_page_mask,
    page_fingerprint,
)
from repro.memory.image import MemoryImage
from repro.memory.patch import (
    AnchorIndex,
    Patch,
    apply_patch,
    cached_anchor_index,
    compute_patch_reference,
    compute_patches,
)
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import METADATA_BYTES_PER_PAGE, Sandbox
from repro.sim.network import RdmaFabric
from repro.storage.prefetch import WorkingSetRecorder
from repro.storage.store import TieredCheckpointStore
from repro.storage.tiers import StorageTier
from repro.templates.catalog import TemplateCatalog
from repro.templates.delta import (
    TemplateDeltaTable,
    build_delta_table,
    reconstruct_image,
)

if TYPE_CHECKING:
    from repro.parallel.config import ParallelConfig
    from repro.parallel.plane import DataPlane

#: A patch larger than this fraction of the page is not worth keeping;
#: the page is stored unique instead.
UNIQUE_THRESHOLD = 0.75

#: Capacity (in pages) of the per-agent LRU cache of decoded base
#: pages.  4096 entries of 4 KiB pages bound the cache at 16 MiB
#: full-scale — small next to one sandbox, decisive for dedup
#: throughput because base pages repeat across ops on a node.
BASE_PAGE_CACHE_PAGES = 4096

#: Capacity of the per-agent LRU cache of anchor indexes.
#: Building an index's halves (the word table the discard bound reads,
#: the sorted anchors the matcher probes) is the expensive part of the
#: anchor fallback, and the same hot base pages are patched against
#: over and over across dedup ops on a node.
ANCHOR_INDEX_CACHE_PAGES = 1024


class PageKind(enum.Enum):
    """Disposition of one page after the dedup op."""

    ZERO = "zero"
    UNIQUE = "unique"
    PATCHED = "patched"


@dataclass(frozen=True)
class PageEntry:
    """One page's dedup record."""

    kind: PageKind
    base: PageRef | None = None
    patch: Patch | None = None
    raw: bytes | None = None

    def retained_bytes(self) -> int:
        """Scaled content bytes this entry keeps resident."""
        if self.kind is PageKind.ZERO:
            return 0
        if self.kind is PageKind.UNIQUE:
            assert self.raw is not None
            return len(self.raw)
        assert self.patch is not None
        return self.patch.size_bytes


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


@dataclass
class DedupPageTable:
    """The resident representation of a deduplicated sandbox.

    Also records everything needed to rebuild the original
    :class:`MemoryImage` (its metadata fields), so restores reconstruct
    a byte-identical image.
    """

    function: str
    instance_seed: int
    page_size: int
    content_scale: float
    aslr: bool
    regions: tuple
    entries: tuple[PageEntry, ...]
    original_checksum: str
    full_size_bytes: int
    stats: DedupStats
    base_refs: Counter[int] = field(default_factory=Counter)
    """checkpoint_id -> number of page references (refcount holdings)."""
    _retained_content_bytes: int | None = field(default=None, repr=False)

    @property
    def retained_content_bytes(self) -> int:
        """Scaled bytes resident (patches + unique pages), cached —
        node accounting queries this on every placement decision."""
        if self._retained_content_bytes is None:
            self._retained_content_bytes = sum(
                entry.retained_bytes() for entry in self.entries
            )
        return self._retained_content_bytes

    @property
    def retained_full_bytes(self) -> int:
        """Full-scale memory charge of the dedup sandbox."""
        full_pages = max(1, round(len(self.entries) / self.content_scale))
        metadata = full_pages * METADATA_BYTES_PER_PAGE
        return int(self.retained_content_bytes / self.content_scale) + metadata

    def write_unique_pages(self, out: np.ndarray) -> None:
        """Copy the unique pages into ``out``, a zeroed buffer of the
        image's size (zero pages are then already materialized)."""
        page_size = self.page_size
        for index, entry in enumerate(self.entries):
            if entry.kind is PageKind.UNIQUE:
                assert entry.raw is not None
                start = index * page_size
                out[start : start + len(entry.raw)] = np.frombuffer(
                    entry.raw, dtype=np.uint8
                )


@dataclass(frozen=True)
class DedupTimings:
    """Phase durations of one dedup op (full-scale ms).

    With stage-overlap accounting (``overlap`` set — the parallel data
    plane's timing model, DESIGN.md §10), the post-checkpoint stages are
    software-pipelined over the op's batches: fingerprinting and patch
    compute divide across the workers, the registry round-trips and the
    fabric reads of base pages do not, and the total charges the
    pipeline's critical path instead of the stage sum.  The checkpoint
    (runtime freeze + dump) stays a serial prologue — it cannot overlap
    work on pages that do not exist yet.
    """

    checkpoint_ms: float
    fingerprint_ms: float
    lookup_ms: float
    base_read_ms: float
    patch_ms: float
    overlap: StageOverlap | None = None
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency (serial prologue; fault
    layer only — zero otherwise)."""
    retries: int = 0

    @property
    def total_ms(self) -> float:
        if self.overlap is None:
            return (
                self.checkpoint_ms
                + self.fingerprint_ms
                + self.lookup_ms
                + self.base_read_ms
                + self.patch_ms
                + self.retry_ms
            )
        stages = (
            self.fingerprint_ms / self.overlap.workers,
            self.lookup_ms,
            self.base_read_ms,
            self.patch_ms / self.overlap.workers,
        )
        return self.checkpoint_ms + self.retry_ms + pipelined_ms(
            stages, self.overlap.batches
        )


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
    read; first-touch restores keep the serial sum.
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
    overlap: StageOverlap | None = None
    """Stage-overlap accounting (parallel data plane): patch apply
    divides across workers and pipelines against the base reads."""
    retry_ms: float = 0.0
    """Transient-RPC timeout/backoff latency (serial prologue; fault
    layer only — zero otherwise)."""
    retries: int = 0

    @property
    def total_ms(self) -> float:
        compute_ms = self.compute_ms
        if self.overlap is not None:
            compute_ms /= self.overlap.workers
        if self.prefetched:
            # Recorded-working-set restores already overlap the one
            # batched prefetch with compute; overlap only divides the
            # compute side further.
            fetch = max(self.base_read_ms, compute_ms) + self.miss_read_ms
        elif self.overlap is not None:
            fetch = (
                pipelined_ms((self.base_read_ms, compute_ms), self.overlap.batches)
                + self.miss_read_ms
            )
        else:
            fetch = self.base_read_ms + compute_ms
        return fetch + self.restore_ms + self.retry_ms


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

    Both drivers — :meth:`DedupAgent.dedup` (the whole image as one
    batch) and the staged :class:`~repro.parallel.plane.DataPlane`
    (page-range batches, in completion order) — run the same steps on
    it: construction classifies the zero pages, then per batch of
    fingerprinted pages :meth:`choose` picks bases, :meth:`base_page`
    reads each chosen one and :meth:`accept` records the patches; the
    agent turns the finished accounts into the table and its timings.
    Every account sums order-independently and registry choices are
    stateless within an op, so how a driver cuts and orders its batches
    never shows in the table.
    """

    def __init__(self, agent: "DedupAgent", sandbox: Sandbox):
        image = sandbox.image
        if image is None:
            raise RuntimeError(f"sandbox {sandbox.sandbox_id} has no image to dedup")
        self.agent = agent
        self.sandbox = sandbox
        self.image = image
        self.unique_cap = int(UNIQUE_THRESHOLD * image.page_size)
        self.nonzero = nonzero_page_mask(image.data, image.page_size)
        self.pages = np.flatnonzero(self.nonzero)
        """Indices of the pages with content: each goes through
        :meth:`choose` exactly once."""
        zero_entry = PageEntry(kind=PageKind.ZERO)
        self.entries: list[PageEntry | None] = [
            None if nz else zero_entry for nz in self.nonzero
        ]
        self.zero_pages = image.num_pages - int(self.pages.size)
        self.saved = self.zero_pages * image.page_size
        self.unique_pages = self.patched_pages = 0
        self.same_fn = self.cross_fn = 0
        self.base_refs: Counter[int] = Counter()
        self.reads_by_peer: Counter[int] = Counter()
        self.checkpoints: dict[int, BaseCheckpoint] = {}
        """Base checkpoints read so far, resolved once each."""

    def _keep_unique(self, index: int) -> None:
        page_size = self.image.page_size
        start = index * page_size
        self.entries[index] = PageEntry(
            kind=PageKind.UNIQUE,
            raw=self.image.data[start : start + page_size].tobytes(),
        )
        self.unique_pages += 1

    def choose(
        self, pages: list[int], fingerprints: Sequence[PageFingerprint]
    ) -> list[tuple[int, PageRef]]:
        """One registry round-trip for ``pages`` (absolute indices,
        aligned with ``fingerprints``): the pages that got a readable
        base, as ``(page index, base ref)``; the rest are kept unique."""
        agent = self.agent
        choices = agent.registry.choose_base_pages(
            fingerprints, agent.node_id, self.sandbox.domain
        )
        chosen: list[tuple[int, PageRef]] = []
        for index, choice in zip(pages, choices):
            if choice is None:
                self._keep_unique(index)
                continue
            ref, _overlap = choice
            if ref.node_id != agent.node_id and not agent.fabric.peer_available(ref.node_id):
                # The base's node is unreachable: keep the page unique
                # rather than depend on state we cannot read back.
                self._keep_unique(index)
                continue
            self.reads_by_peer[ref.node_id] += 1
            chosen.append((index, ref))
        return chosen

    def base_page(self, ref: PageRef) -> bytes:
        """Content of a chosen base page, through the agent's LRU cache."""
        checkpoint_id = ref.checkpoint_id
        if checkpoint_id not in self.checkpoints:
            self.checkpoints[checkpoint_id] = self.agent.store.get(checkpoint_id)
        return self.agent.base_page_bytes(
            self.checkpoints[checkpoint_id], ref.page_index
        )

    def accept(
        self, chosen: list[tuple[int, PageRef]], patches: Sequence[Patch | None]
    ) -> None:
        """Record a batch's patches (aligned with ``chosen``, whose base
        pages were all read): ``None`` or a patch at or over the cutoff
        leaves the page unique."""
        page_size = self.image.page_size
        for (index, ref), patch in zip(chosen, patches):
            if patch is None or patch.size_bytes >= self.unique_cap:
                self._keep_unique(index)
                continue
            self.entries[index] = PageEntry(kind=PageKind.PATCHED, base=ref, patch=patch)
            self.patched_pages += 1
            self.saved += page_size - patch.size_bytes
            self.base_refs[ref.checkpoint_id] += 1
            if self.checkpoints[ref.checkpoint_id].function == self.sandbox.function:
                self.same_fn += 1
            else:
                self.cross_fn += 1

    def stats(self) -> DedupStats:
        """The finished op's counts (every page must be classified)."""
        assert all(entry is not None for entry in self.entries)
        return DedupStats(
            total_pages=self.image.num_pages,
            zero_pages=self.zero_pages,
            unique_pages=self.unique_pages,
            patched_pages=self.patched_pages,
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
        parallel: "ParallelConfig | None" = None,
        overlap_costs: "ParallelConfig | None" = None,
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
        self.tiering = isinstance(store, TieredCheckpointStore)
        """Base reads are costed by residency (checkpoint tiering)."""
        self.recorder = recorder
        """Restore working-set recorder, shared cluster-wide (tiering
        with prefetch only; None disables recording)."""
        self.fingerprint_config = fingerprint_config or FingerprintConfig()
        self.patch_level = patch_level
        self.parallel = parallel
        """Run the data plane on the parallel engine (None = serial)."""
        self.overlap_costs = overlap_costs
        """Charge dedup/restore timings with stage-overlap accounting
        for this parallel shape (None = serial stage sums).  Independent
        of ``parallel``: the simulator models the overlap without
        needing real worker processes."""
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
        self._plane: "DataPlane | None" = None
        self.dedup_ops = 0
        self.restore_ops = 0
        self.templatize_ops = 0
        self.fork_ops = 0
        # Decoded base pages keyed by (checkpoint_id, page_index).
        # Checkpoint ids are never reused, so a retired checkpoint's
        # entries can only waste capacity until LRU evicts them — they
        # can never serve stale content.
        self.base_page_cache: LruCache[tuple[int, int], bytes] = LruCache(
            BASE_PAGE_CACHE_PAGES
        )
        # Anchor indexes keyed by (checkpoint_id, page_index, level);
        # same staleness argument as the page cache above.
        self.anchor_index_cache: LruCache[tuple[int, int, int], AnchorIndex] = LruCache(
            ANCHOR_INDEX_CACHE_PAGES
        )

    def _data_plane(self) -> "DataPlane":
        if self._plane is None:
            from repro.parallel.plane import DataPlane

            assert self.parallel is not None
            self._plane = DataPlane(self, self.parallel)
        return self._plane

    def close(self) -> None:
        """Release the parallel data plane's arena (idempotent)."""
        if self._plane is not None:
            self._plane.close()
            self._plane = None

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

    def base_page_bytes(self, checkpoint: BaseCheckpoint, page_index: int) -> bytes:
        """A base page's content through the per-agent LRU cache."""
        key = (checkpoint.checkpoint_id, page_index)
        cached = self.base_page_cache.get(key)
        if cached is None:
            cached = checkpoint.page_bytes(page_index)
            self.base_page_cache.put(key, cached)
        return cached

    def dedup(self, sandbox: Sandbox) -> DedupOutcome:
        """Run the dedup op on a warm sandbox's image.

        One :class:`_DedupOp`, driven serially here or by the staged
        data plane (``parallel=...``); either way the page table is
        identical to :meth:`dedup_reference`'s (property-tested).

        Side effects: acquires refcounts on every base checkpoint the new
        page table references.  The caller (controller) is responsible
        for swapping the sandbox's image for the returned table and for
        the corresponding lifecycle transitions.
        """
        op = _DedupOp(self, sandbox)
        if self.parallel is not None:
            self._data_plane().dedup(op)
        else:
            self._dedup_serial(op)
        return self._finish_dedup(
            sandbox,
            op.image,
            op.entries,  # type: ignore[arg-type]
            op.stats(),
            op.base_refs,
            op.reads_by_peer,
        )

    def _dedup_serial(self, op: _DedupOp) -> None:
        """The serial driver: the whole image is one batch — one marker
        scan fingerprints every nonzero page, one registry round-trip
        picks every base page, base-page fetches are grouped by
        checkpoint through the LRU cache, and one ``compute_patches``
        call patches every chosen page."""
        page_size = op.image.page_size
        data = op.image.data
        fingerprints = batch_page_fingerprints(
            data, page_size, self.fingerprint_config, pages=op.pages
        )
        chosen = op.choose(op.pages.tolist(), fingerprints)

        # Fetch grouped by checkpoint (the order the LRU cache sees).
        by_checkpoint: dict[int, list[int]] = defaultdict(list)
        for j, (_index, ref) in enumerate(chosen):
            by_checkpoint[ref.checkpoint_id].append(j)
        bases = [b""] * len(chosen)
        for group in by_checkpoint.values():
            for j in group:
                bases[j] = op.base_page(chosen[j][1])

        # The aligned diff runs as a single 2-D numpy operation over the
        # whole batch, and pages falling back to anchor matching reuse
        # cached base-page anchor indexes (made only when a fallback
        # needs one; an entry shares the page's ``bytes`` with
        # ``base_page_cache`` and builds each of its halves on first use).
        targets = [
            data[index * page_size : (index + 1) * page_size] for index, _ in chosen
        ]

        def anchor_index_for(j: int) -> AnchorIndex:
            ref = chosen[j][1]
            return cached_anchor_index(
                self.anchor_index_cache,
                (ref.checkpoint_id, ref.page_index),
                bases[j],
                self.patch_level,
            )

        patches = compute_patches(
            targets,
            bases,
            level=self.patch_level,
            index_provider=anchor_index_for,
            max_size=op.unique_cap,
        )
        op.accept(chosen, patches)

    def dedup_reference(self, sandbox: Sandbox) -> DedupOutcome:
        """The page-at-a-time dedup op (reference implementation).

        Semantically identical to :meth:`dedup` — per-page fingerprints,
        per-page registry calls, per-page base fetches straight from the
        store — kept as the ground truth the batched pipeline is
        property-tested against, and as the benchmark baseline.
        """
        image = sandbox.image
        if image is None:
            raise RuntimeError(f"sandbox {sandbox.sandbox_id} has no image to dedup")

        page_size = image.page_size
        unique_cap = int(UNIQUE_THRESHOLD * page_size)
        entries: list[PageEntry] = []
        base_refs: Counter[int] = Counter()
        reads_by_peer: Counter[int] = Counter()
        zero_pages = unique_pages = patched_pages = 0
        same_fn = cross_fn = 0
        saved = 0

        for index in range(image.num_pages):
            page = image.page(index)
            if not page.any():
                entries.append(PageEntry(kind=PageKind.ZERO))
                zero_pages += 1
                saved += page_size
                continue
            fingerprint = page_fingerprint(page, self.fingerprint_config)
            choice = self.registry.choose_base_page(
                fingerprint, self.node_id, sandbox.domain
            )
            if choice is None:
                entries.append(PageEntry(kind=PageKind.UNIQUE, raw=page.tobytes()))
                unique_pages += 1
                continue
            ref, _overlap = choice
            if ref.node_id != self.node_id and not self.fabric.peer_available(ref.node_id):
                # The base's node is unreachable: keep the page unique
                # rather than depend on state we cannot read back.
                entries.append(PageEntry(kind=PageKind.UNIQUE, raw=page.tobytes()))
                unique_pages += 1
                continue
            reads_by_peer[ref.node_id] += 1
            base_page = self.store.get(ref.checkpoint_id).page_bytes(ref.page_index)
            patch = compute_patch_reference(page, base_page, level=self.patch_level)
            if patch.size_bytes >= unique_cap:
                entries.append(PageEntry(kind=PageKind.UNIQUE, raw=page.tobytes()))
                unique_pages += 1
                continue
            entries.append(PageEntry(kind=PageKind.PATCHED, base=ref, patch=patch))
            patched_pages += 1
            saved += page_size - patch.size_bytes
            base_refs[ref.checkpoint_id] += 1
            if self.store.get(ref.checkpoint_id).function == sandbox.function:
                same_fn += 1
            else:
                cross_fn += 1

        stats = DedupStats(
            total_pages=image.num_pages,
            zero_pages=zero_pages,
            unique_pages=unique_pages,
            patched_pages=patched_pages,
            same_function_pages=same_fn,
            cross_function_pages=cross_fn,
            saved_content_bytes=saved,
            image_content_bytes=image.nbytes,
        )
        return self._finish_dedup(sandbox, image, entries, stats, base_refs, reads_by_peer)

    def _finish_dedup(
        self,
        sandbox: Sandbox,
        image: MemoryImage,
        entries: list[PageEntry],
        stats: DedupStats,
        base_refs: Counter[int],
        reads_by_peer: Counter[int],
    ) -> DedupOutcome:
        """Tail of the dedup op (and of the oracle): refcounts, table, timings."""
        try:
            retry_ms, retries = self._retry_plan("registry-lookup")
        except RetryExhausted as exc:
            raise RegistryUnavailable(
                f"registry lookup for sandbox {sandbox.sandbox_id}: "
                f"all {exc.attempts} attempts timed out"
            ) from exc
        for checkpoint_id, count in base_refs.items():
            self.store.get(checkpoint_id).acquire(count)

        table = DedupPageTable(
            function=sandbox.function,
            instance_seed=image.instance_seed,
            page_size=image.page_size,
            content_scale=self.content_scale,
            aslr=image.aslr,
            regions=image.regions,
            entries=tuple(entries),
            original_checksum=image.checksum(),
            full_size_bytes=sandbox.profile.memory_bytes,
            stats=stats,
            base_refs=base_refs,
        )

        full_pages, scale_up = self._full_scale(image.num_pages)
        read_plan = {
            peer: (int(count * scale_up), int(count * scale_up) * image.page_size)
            for peer, count in reads_by_peer.items()
        }
        overlap = self._stage_overlap(full_pages)
        if overlap is None:
            lookup_ms = self.costs.lookup_ms(full_pages)
        else:
            # Batched registry front end: one RPC per batch, table work
            # per page (Section 4.3's batched registry traffic).
            lookup_ms = self.costs.lookup_batched_ms(full_pages, overlap.batches)
        timings = DedupTimings(
            checkpoint_ms=self.costs.checkpoint_ms(full_pages),
            fingerprint_ms=self.costs.fingerprint_ms(full_pages),
            lookup_ms=lookup_ms,
            base_read_ms=self.fabric.batch_read_ms(read_plan, local_peer=self.node_id),
            patch_ms=self.costs.patch_compute_ms(
                max(1, round(stats.patched_pages * scale_up))
            ),
            overlap=overlap,
            retry_ms=retry_ms,
            retries=retries,
        )
        self.dedup_ops += 1
        return DedupOutcome(table=table, timings=timings)

    def _stage_overlap(self, full_pages: int) -> StageOverlap | None:
        """The op's stage-overlap shape under ``overlap_costs`` (or None)."""
        if self.overlap_costs is None:
            return None
        batches = max(1, math.ceil(full_pages / self.overlap_costs.batch_pages))
        return StageOverlap(workers=self.overlap_costs.workers, batches=batches)

    # -------------------------------------------------------------- restore

    def restore(self, table: DedupPageTable, *, verify: bool = False) -> RestoreOutcome:
        """Run the restore op: rebuild the original image from the table.

        Base-page fetches are grouped by checkpoint and served through
        the agent's LRU cache; the output buffer starts zeroed so zero
        pages cost nothing to materialize.

        Does *not* release base refcounts — the controller does that once
        the sandbox is warm again (the base pages must stay pinned until
        the restore completes).
        """
        page_size = table.page_size
        reads_by_peer: Counter[int] = Counter()
        by_checkpoint: dict[int, list[int]] = defaultdict(list)
        patched = 0
        for index, entry in enumerate(table.entries):
            if entry.kind is PageKind.PATCHED:
                assert entry.base is not None
                reads_by_peer[entry.base.node_id] += 1
                by_checkpoint[entry.base.checkpoint_id].append(index)
                patched += 1

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

        if self.parallel is not None:
            data = self._data_plane().reconstruct(table, by_checkpoint)
        else:
            data = self._reconstruct(table, by_checkpoint)

        image = MemoryImage(
            function=table.function,
            instance_seed=table.instance_seed,
            data=data,
            page_size=page_size,
            regions=table.regions,
            aslr=table.aslr,
        )
        if verify and image.checksum() != table.original_checksum:
            raise RuntimeError(
                f"restore of {table.function} produced a corrupted image "
                f"({image.checksum()} != {table.original_checksum})"
            )

        timings = RestoreTimings(
            base_read_ms=base_read_ms,
            compute_ms=self.costs.patch_apply_ms(max(1, round(patched * scale_up))),
            restore_ms=self.costs.restore_fixed_ms,
            prefetched=prefetched,
            miss_read_ms=miss_read_ms,
            prefetch_hit_pages=hit_pages,
            prefetch_miss_pages=miss_pages,
            overlap=self._stage_overlap(max(1, round(patched * scale_up))),
            retry_ms=retry_ms,
            retries=retries,
        )
        self.restore_ops += 1
        return RestoreOutcome(image=image, timings=timings)

    def _reconstruct(
        self, table: DedupPageTable, by_checkpoint: dict[int, list[int]]
    ) -> np.ndarray:
        """Serial content reconstruction of ``table`` (restore op body)."""
        page_size = table.page_size
        data = np.zeros(len(table.entries) * page_size, dtype=np.uint8)
        table.write_unique_pages(data)
        for checkpoint_id, indices in by_checkpoint.items():
            checkpoint = self.store.get(checkpoint_id)
            for index in indices:
                entry = table.entries[index]
                assert entry.base is not None and entry.patch is not None
                base_page = self.base_page_bytes(checkpoint, entry.base.page_index)
                original = apply_patch(entry.patch, base_page)
                start = index * page_size
                data[start : start + len(original)] = np.frombuffer(
                    original, dtype=np.uint8
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
        fetches: the segments *are* the bases.

        Raises :class:`repro.templates.catalog.TemplatePoolFull` (pool
        cannot fit the new segments) or :class:`RetryExhausted` (pool
        write's transient-RPC plan failed) *before* any state is created;
        the controller then falls back to the dedup path.
        """
        catalog = self.templates
        if catalog is None:
            raise RuntimeError("agent has no template catalog")
        image = sandbox.image
        if image is None:
            raise RuntimeError(
                f"sandbox {sandbox.sandbox_id} has no image to templatize"
            )
        retry_ms, retries = self._retry_plan("template-publish")

        segments, created, publish_ms = catalog.ensure_segments(
            image.regions, sandbox.domain
        )
        table = build_delta_table(
            image,
            {segment.key: segment for segment in segments},
            content_scale=self.content_scale,
            full_size_bytes=sandbox.profile.memory_bytes,
            level=catalog.config.patch_level,
            domain=sandbox.domain,
        )
        catalog.acquire(table.segment_keys)

        full_pages, scale_up = self._full_scale(image.num_pages)
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
        for entry in table.entries:
            if entry.kind is not PageKind.PATCHED:
                continue
            assert entry.base is not None
            address = (entry.base.checkpoint_id, entry.base.page_index)
            if recorded is not None and address in recorded:
                hit_by_checkpoint[entry.base.checkpoint_id] += 1
            else:
                miss_by_checkpoint[entry.base.checkpoint_id] += 1

        if recorded is None:
            # First touch: one serial demand read, then record the set.
            base_read_ms = self._channel_read_ms(
                miss_by_checkpoint, page_size, scale_up
            )
            if self.recorder is not None and key is not None:
                self.recorder.record(
                    key,
                    frozenset(
                        (entry.base.checkpoint_id, entry.base.page_index)
                        for entry in table.entries
                        if entry.kind is PageKind.PATCHED and entry.base is not None
                    ),
                )
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
        config = self.store.config
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
            cost = max(cost, config.remote_dram_read_ms(remote_dram_bytes))
        for node_id in sorted(ssd_bytes):
            cost = max(cost, config.ssd_read_ms(ssd_bytes[node_id]))
        return cost
