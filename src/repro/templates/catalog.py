"""Cluster-wide catalog of shared runtime/library template segments.

The region model says the dominant redundancy across *different*
functions is the RUNTIME/LIBRARY regions that are byte-identical in
every sandbox importing them (Fig 1c).  The catalog factors those
regions out once per ``(content_key, size)`` — the *template segment* —
and deduplicates them cluster-wide with refcounts, the TrEnv-X move of
sharing forkable execution environments across functions and nodes.

Residency model:

* The **pool copy** lives in the REMOTE_DRAM template pool
  (:class:`repro.storage.store.TemplatePool`).  It is authoritative: no
  single node's failure domain, so templates survive node crashes.
* **Node replicas** are DRAM caches created by the first fork on a node
  (a charged promote-read from the pool).  Later forks on that node are
  copy-on-write against the replica and move no bytes.  Replicas are
  droppable under placement pressure — the pool copy re-promotes — with
  one guard: the last node-DRAM replica of a *hot* template (forked
  within ``TemplateConfig.hot_window_ms``) is never evicted, so a busy
  template's next fork is not forced back through the fabric.
* A segment referenced by any live delta table cannot be retired from
  the pool at all (:meth:`TemplateCatalog.retire` refuses) — forks must
  always find their base bytes.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro._util import MIB
from repro.memory.layout import PlacedRegion, SharingScope
from repro.memory.patch import AnchorIndex, cached_anchor_index
from repro.memory.synth import template_region_content
from repro.storage.store import TemplatePool

if TYPE_CHECKING:
    from repro.templates.delta import TemplateDeltaTable

#: Catalog key of one template segment: the requester's dedup domain,
#: the region's content identity and its placed (scaled) size.  Two
#: functions whose layouts place the same library at the same size share
#: one segment *within a domain*; a squeezed library (different resident
#: subset) keys a separate segment, and so does another dedup domain —
#: templates fork only within a domain (DESIGN.md §15), even when the
#: bytes are identical.  The global domain "" keys every segment while
#: ``dedup_domains`` is off.
SegmentKey = tuple[str, str, int]


@dataclass(frozen=True)
class TemplateConfig:
    """Knobs of the template-sharing subsystem (inert while
    ``ClusterConfig.template_sharing`` is off)."""

    pool_mb: float = 1024.0
    """Remote-DRAM capacity reserved for template pool copies."""

    hot_window_ms: float = 120_000.0
    """A template forked within this window is *hot*: its last node-DRAM
    replica is exempt from placement eviction."""

    def __post_init__(self) -> None:
        if self.pool_mb < 0:
            raise ValueError("template pool_mb must be non-negative")
        if self.hot_window_ms < 0:
            raise ValueError("template hot_window_ms must be non-negative")


class TemplatePoolFull(RuntimeError):
    """The remote-DRAM template pool cannot fit a new segment set (the
    caller falls back to the dedup path)."""


class TemplateInUse(RuntimeError):
    """Refused retirement of a segment still referenced by live deltas."""


@dataclass(eq=False)
class TemplateSegment:
    """One shared region's template: pool-resident content + residency."""

    segment_id: int
    key: SegmentKey
    content: np.ndarray
    """Scaled instance-independent bytes (read-only)."""
    full_bytes: int
    """Full-scale footprint charged to the pool and to node replicas."""
    refcount: int = 0
    """Live delta tables referencing this segment."""
    replicas: set[int] = field(default_factory=set)
    """Node ids holding a DRAM replica (fork caches)."""
    sharers: dict[int, int] = field(default_factory=dict)
    """Per-node count of live forked sandboxes mapping this segment's
    replica copy-on-write.  A shared replica is not droppable: its pages
    are mapped into running sandboxes."""
    last_fork_ms: float = float("-inf")
    anchor_indexes: dict[tuple[int], AnchorIndex] = field(default_factory=dict)
    """Patch-codec indexes of ``content`` by ``(level,)``, built by the
    first delta that needs one and kept until the segment is retired —
    the content is immutable, so they never go stale.  Host-side only:
    not charged to the simulated pool."""

    def anchor_index(self, level: int) -> AnchorIndex:
        return cached_anchor_index(self.anchor_indexes, (), self.content, level)

    @property
    def domain(self) -> str:
        return self.key[0]

    @property
    def content_key(self) -> str:
        return self.key[1]

    @property
    def size(self) -> int:
        return self.key[2]

    def acquire(self) -> None:
        self.refcount += 1

    def release(self) -> None:
        if self.refcount <= 0:
            raise RuntimeError(f"template segment {self.segment_id} refcount underflow")
        self.refcount -= 1


class TemplateCatalog:
    """The cluster's template directory: segment dedup, refcounts,
    pool/replica residency, and the hot-window eviction guard."""

    def __init__(self, config: TemplateConfig, *, content_scale: float) -> None:
        self.config = config
        self.content_scale = content_scale
        self.pool = TemplatePool(capacity_bytes=int(config.pool_mb * MIB))
        self._segments: dict[SegmentKey, TemplateSegment] = {}
        self._ids = itertools.count(1)
        self.live_deltas = 0
        """Parked sandboxes currently holding segment references."""

    # ---------------------------------------------------------- identity

    @staticmethod
    def eligible(region: PlacedRegion) -> bool:
        """Template-shareable regions: cross-function RUNTIME/LIBRARY
        content.  Zero-fill regions need no template (the delta's zero
        markers reproduce them for free); FUNCTION/INSTANCE regions are
        the per-function delta's job."""
        return (
            region.spec.scope in (SharingScope.RUNTIME, SharingScope.LIBRARY)
            and not region.spec.zero_fill
        )

    def shareable_regions(self, regions: tuple[PlacedRegion, ...]) -> list[PlacedRegion]:
        return [region for region in regions if self.eligible(region)]

    def get(self, key: SegmentKey) -> TemplateSegment:
        return self._segments[key]

    def segments_for(self, keys: tuple[SegmentKey, ...]) -> list[TemplateSegment]:
        return [self._segments[key] for key in keys]

    def __len__(self) -> int:
        return len(self._segments)

    # ----------------------------------------------------------- publish

    def ensure_segments(
        self, regions: tuple[PlacedRegion, ...], domain: str = ""
    ) -> tuple[list[TemplateSegment], list[TemplateSegment], float]:
        """Get-or-create the segments covering ``regions``' shareable part.

        Segments are scoped to the requester's ``domain``: a published
        segment is only ever hit by forks of the same dedup domain, so
        template state cannot cross a tenancy boundary (two domains
        publishing the same library hold two segments with identical
        bytes).  Returns ``(segments, created, publish_ms)`` where
        ``publish_ms`` is the charged pool write for newly created
        segments (0.0 when everything was already published).
        All-or-nothing: when the pool cannot fit the missing segments —
        even after retiring idle, unreferenced ones — nothing is
        published and :class:`TemplatePoolFull` is raised.
        """
        shareable = self.shareable_regions(regions)
        segments: list[TemplateSegment] = []
        missing: list[PlacedRegion] = []
        seen: set[SegmentKey] = set()
        for region in shareable:
            key = (domain, region.spec.content_key, region.size)
            existing = self._segments.get(key)
            if existing is not None:
                segments.append(existing)
            elif key not in seen:
                seen.add(key)
                missing.append(region)
        if not missing:
            return segments, [], 0.0
        needed = sum(self._full_bytes(region.size) for region in missing)
        if not self.pool.fits(needed):
            self._reclaim_pool(needed, keep={segment.key for segment in segments})
        if not self.pool.fits(needed):
            raise TemplatePoolFull(
                f"template pool cannot fit {needed} new segment bytes "
                f"({self.pool.used_bytes}/{self.pool.account.capacity_bytes})"
            )
        publish_ms = self.pool.publish_ms(needed)
        created: list[TemplateSegment] = []
        for region in missing:
            key = (domain, region.spec.content_key, region.size)
            segment = TemplateSegment(
                segment_id=next(self._ids),
                key=key,
                content=template_region_content(region.spec, region.size),
                full_bytes=self._full_bytes(region.size),
            )
            self._segments[key] = segment
            segments.append(segment)
            created.append(segment)
        return segments, created, publish_ms

    def _full_bytes(self, scaled_size: int) -> int:
        return int(scaled_size / self.content_scale)

    def _reclaim_pool(self, needed: int, *, keep: set[SegmentKey] = frozenset()) -> None:
        """Retire idle (unreferenced, replica-free) segments, oldest fork
        first, until ``needed`` bytes fit or no candidates remain.

        ``keep`` excludes segments the in-flight publish itself hit:
        they carry no refcount yet, but the caller is about to acquire
        them, so retiring them would strand the new delta."""
        idle = sorted(
            (
                segment
                for segment in self._segments.values()
                if segment.refcount == 0
                and not segment.replicas
                and segment.key not in keep
            ),
            key=lambda segment: (segment.last_fork_ms, segment.segment_id),
        )
        for segment in idle:
            if self.pool.fits(needed):
                return
            self.retire(segment)

    def retire(self, segment: TemplateSegment) -> None:
        """Drop a segment's pool copy.  Refused while any live delta
        references it — a fork must always find its base bytes."""
        if segment.refcount > 0:
            raise TemplateInUse(
                f"template segment {segment.segment_id} has {segment.refcount} live deltas"
            )
        if segment.replicas:
            raise TemplateInUse(
                f"template segment {segment.segment_id} still has node replicas"
            )
        del self._segments[segment.key]
        segment.anchor_indexes.clear()
        self.pool.withdraw(segment.full_bytes)

    # ---------------------------------------------------------- refcounts

    def acquire(self, keys: tuple[SegmentKey, ...]) -> None:
        """One delta table takes a reference on each of its segments."""
        for segment in self.segments_for(keys):
            segment.acquire()
        self.live_deltas += 1

    def release(self, keys: tuple[SegmentKey, ...]) -> None:
        for segment in self.segments_for(keys):
            segment.release()
        self.live_deltas -= 1

    # --------------------------------------------------- copy-on-write forks

    def add_sharers(self, keys: tuple[SegmentKey, ...], node_id: int) -> None:
        """A forked sandbox on ``node_id`` maps these segments' replicas
        copy-on-write; the replicas must stay pinned while it lives."""
        for segment in self.segments_for(keys):
            segment.sharers[node_id] = segment.sharers.get(node_id, 0) + 1

    def drop_sharers(self, keys: tuple[SegmentKey, ...], node_id: int) -> None:
        for segment in self.segments_for(keys):
            count = segment.sharers.get(node_id, 0)
            if count <= 0:
                raise RuntimeError(
                    f"template segment {segment.segment_id} sharer underflow on node {node_id}"
                )
            if count == 1:
                del segment.sharers[node_id]
            else:
                segment.sharers[node_id] = count - 1

    # ---------------------------------------------------------- residency

    def missing_on(self, node_id: int, keys: tuple[SegmentKey, ...]) -> list[TemplateSegment]:
        """Segments a fork on ``node_id`` must first promote from the pool."""
        return [
            segment
            for segment in self.segments_for(keys)
            if node_id not in segment.replicas
        ]

    def promote(
        self, node_id: int, keys: tuple[SegmentKey, ...], now: float
    ) -> tuple[list[TemplateSegment], int, float]:
        """Materialize node-DRAM replicas for a fork on ``node_id``.

        Returns ``(promoted, promoted_bytes, promote_ms)`` — one batched
        pool read covering every segment the node lacked (0 bytes once
        replicas are warm).  Also stamps the fork time on *all* of the
        fork's segments for the hot-window eviction guard.
        """
        promoted = self.missing_on(node_id, keys)
        nbytes = sum(segment.full_bytes for segment in promoted)
        cost_ms = self.pool.read_ms(nbytes)
        for segment in promoted:
            segment.replicas.add(node_id)
        for segment in self.segments_for(keys):
            segment.last_fork_ms = max(segment.last_fork_ms, now)
        return promoted, nbytes, cost_ms

    def is_hot(self, segment: TemplateSegment, now: float) -> bool:
        return now - segment.last_fork_ms <= self.config.hot_window_ms

    def evictable_replicas(self, node_id: int, now: float) -> list[TemplateSegment]:
        """Replicas on ``node_id`` that placement pressure may drop.

        The pool copy survives any replica eviction, so this never loses
        content; the only guard is the hot-template rule — a segment
        forked within the hot window keeps its last node-DRAM replica.
        Coldest-first (oldest fork) so the busy templates stay put.
        """
        victims = [
            segment
            for segment in self._segments.values()
            if node_id in segment.replicas
            and not segment.sharers.get(node_id)
            and not (len(segment.replicas) == 1 and self.is_hot(segment, now))
        ]
        victims.sort(key=lambda segment: (segment.last_fork_ms, segment.segment_id))
        return victims

    def drop_replica(self, node_id: int, segment: TemplateSegment) -> None:
        segment.replicas.discard(node_id)

    def drop_replicas(self, node_id: int) -> list[TemplateSegment]:
        """Forget every replica on a crashed (or drained) node.  Pool
        copies are untouched — the crash-survival property of REMOTE_DRAM."""
        dropped = [
            segment
            for segment in self._segments.values()
            if node_id in segment.replicas
        ]
        for segment in dropped:
            segment.replicas.discard(node_id)
        return dropped

    # ------------------------------------------------------ observability

    def recount(
        self,
        tables: Iterable[TemplateDeltaTable],
        sharers: Iterable[tuple[int, tuple[SegmentKey, ...]]],
    ) -> Iterator[str]:
        """Recount refcounts, ``live_deltas``, sharers and pool bytes from
        ``tables`` (every live delta table, parked or in flight) and
        ``sharers`` (each live sandbox's node and copy-on-write segment
        keys); yields one message per disagreement."""
        refs: Counter[SegmentKey] = Counter()
        tables = list(tables)
        for table in tables:
            refs.update(table.segment_keys)
        shared: dict[SegmentKey, Counter[int]] = defaultdict(Counter)
        for node_id, keys in sharers:
            for key in keys:
                shared[key][node_id] += 1
        if self.live_deltas != len(tables):
            yield f"live deltas: counts {self.live_deltas}, {len(tables)} tables live"
        for key in refs.keys() | shared.keys() | self._segments.keys():
            segment = self._segments.get(key)
            if segment is None or segment.refcount != refs[key]:
                yield f"segment refcount: {key}: {refs[key]} live, {segment and segment.refcount}"
            elif segment.sharers != shared.get(key, {}):
                yield f"template sharers: {key}: {segment.sharers}, live forks {shared[key]}"
        published = sum(segment.full_bytes for segment in self._segments.values())
        if self.pool.used_bytes != published:
            yield f"template pool bytes: charged {self.pool.used_bytes} != {published}"

    def replica_bytes(self, node_id: int | None = None) -> int:
        """Node-DRAM replica bytes on one node (or cluster-wide)."""
        return sum(
            segment.full_bytes * (1 if node_id is not None else len(segment.replicas))
            for segment in self._segments.values()
            if node_id is None or node_id in segment.replicas
        )
