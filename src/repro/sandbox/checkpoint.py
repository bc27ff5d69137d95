"""Checkpoints: frozen memory states (the reproduction's CRIU).

Two kinds of checkpoint exist in Medes:

* the transient checkpoint taken at the start of a dedup op (here simply
  the sandbox's immutable :class:`~repro.memory.image.MemoryImage`); and
* pinned **base checkpoints** — the frozen memory of a base sandbox,
  registered in the fingerprint registry and kept addressable (in memory,
  RDMA-readable) for other sandboxes' patches.  A refcount, maintained by
  the controller, pins a base checkpoint for as long as any dedup
  sandbox's page table references it (Section 4.1.3).

Base checkpoints are cheap while their owner sandbox is still resident
(the pages are shared copy-on-write with the warm sandbox) and cost their
full footprint once the owner is purged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro._util import LruCache
from repro.memory.image import MemoryImage
from repro.storage.tiers import StorageTier

#: Capacity (in pages) of the store's cache of base-page views: base
#: pages repeat across dedup ops on every node.
BASE_PAGE_CACHE_PAGES = 4096

#: Capacity of the store's cache of anchor indexes, whose halves are
#: the expensive part of the anchor fallback.
ANCHOR_INDEX_CACHE_PAGES = 1024


@dataclass(eq=False)
class BaseCheckpoint:
    # eq=False: checkpoints are mutable entities compared by identity.
    """A pinned, RDMA-readable frozen memory state of a base sandbox."""

    function: str
    node_id: int
    image: MemoryImage
    owner_sandbox_id: int
    full_size_bytes: int
    """Full-scale footprint the checkpoint represents (accounting)."""
    cow_overhead_fraction: float = 0.10
    """Fraction of the footprint charged while the owner is resident."""
    checkpoint_id: int = 0
    """Numbered from 1 by the :class:`CheckpointStore` that holds the
    checkpoint, per store; 0 until it is added to one."""
    refcount: int = 0
    owner_resident: bool = True
    registered: bool = False
    """Whether this checkpoint's pages populate the fingerprint registry."""
    domain: str = ""
    """Dedup domain the checkpoint's pages are registered under
    (DESIGN.md §15); "" is the global domain of ``dedup_domains=off``."""
    tier: StorageTier = StorageTier.NODE_DRAM
    """Residency tier; only :class:`repro.storage.store.TieredCheckpointStore`
    moves it off ``NODE_DRAM``."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.cow_overhead_fraction <= 1.0:
            raise ValueError(
                f"cow_overhead_fraction must be in [0, 1], "
                f"got {self.cow_overhead_fraction}"
            )

    def acquire(self, count: int = 1) -> None:
        """Add references from a dedup sandbox's page table."""
        if count < 0:
            raise ValueError("negative refcount acquire")
        self.refcount += count

    def release(self, count: int = 1) -> None:
        """Drop references; the refcount never goes negative."""
        if count < 0:
            raise ValueError("negative refcount release")
        if self.refcount - count < 0:
            raise RuntimeError(
                f"base checkpoint {self.checkpoint_id}: refcount underflow "
                f"({self.refcount} - {count})"
            )
        self.refcount -= count

    @property
    def pinned(self) -> bool:
        """True while dedup sandboxes still depend on this checkpoint."""
        return self.refcount > 0

    def memory_bytes(self) -> int:
        """Accounting charge of this checkpoint on its node.

        Copy-on-write with the resident owner is nearly free; once the
        owner is purged the frozen pages are charged in full.  A
        checkpoint demoted off node DRAM is charged to its tier's
        account instead (checkpoint tiering).
        """
        if self.tier is not StorageTier.NODE_DRAM:
            return 0
        if self.owner_resident:
            return int(self.full_size_bytes * self.cow_overhead_fraction)
        return self.full_size_bytes


class CheckpointStore:
    """Cluster-wide directory of base checkpoints, addressable by id.

    This plays the role of RDMA-registered memory: any node can read a
    base page given its (checkpoint, page) address.  The *cost* of such
    reads is modelled by :class:`repro.sim.network.RdmaFabric`; this
    store provides the content.

    The store numbers the checkpoints it holds, from 1; ids are never
    reused within a store, but two stores both hold a checkpoint 1.

    Base pages live once in the cluster, so the store also owns the
    caches every agent reading it shares: ``page_cache`` maps
    ``(checkpoint_id, page_index)`` to a read-only view of the page,
    ``anchor_cache`` maps ``(checkpoint_id, page_index, level)`` to its
    ``AnchorIndex``.  :meth:`remove` drops a checkpoint's entries, so
    no view pins a retired image.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self.page_cache = LruCache(BASE_PAGE_CACHE_PAGES)
        self.anchor_cache = LruCache(ANCHOR_INDEX_CACHE_PAGES)
        self._by_id: dict[int, BaseCheckpoint] = {}
        # Per-function index so for_function never scans the cluster
        # (same discipline as the controller's SandboxIndex, PR 2).
        self._by_function: dict[str, dict[int, BaseCheckpoint]] = {}

    def add(self, checkpoint: BaseCheckpoint) -> None:
        """Hold ``checkpoint`` and give it the store's next id."""
        if checkpoint.checkpoint_id:
            raise ValueError(f"duplicate add of checkpoint {checkpoint.checkpoint_id}")
        checkpoint.checkpoint_id = next(self._ids)
        self._by_id[checkpoint.checkpoint_id] = checkpoint
        self._by_function.setdefault(checkpoint.function, {})[
            checkpoint.checkpoint_id
        ] = checkpoint

    def get(self, checkpoint_id: int) -> BaseCheckpoint:
        checkpoint = self._by_id.get(checkpoint_id)
        if checkpoint is None:
            raise KeyError(f"unknown checkpoint {checkpoint_id}")
        return checkpoint

    def remove(self, checkpoint_id: int) -> BaseCheckpoint:
        """Drop a checkpoint and its cache entries; refuses while it is
        still pinned."""
        checkpoint = self.get(checkpoint_id)
        if checkpoint.pinned:
            raise RuntimeError(
                f"checkpoint {checkpoint_id} still referenced ({checkpoint.refcount})"
            )
        bucket = self._by_function[checkpoint.function]
        del bucket[checkpoint_id]
        if not bucket:
            del self._by_function[checkpoint.function]
        self.page_cache.drop_prefix(checkpoint_id)
        self.anchor_cache.drop_prefix(checkpoint_id)
        return self._by_id.pop(checkpoint_id)

    def for_function(self, function: str) -> list[BaseCheckpoint]:
        """All live base checkpoints of ``function`` (indexed, O(result))."""
        return list(self._by_function.get(function, {}).values())

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())
