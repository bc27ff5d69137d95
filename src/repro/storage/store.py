"""The residency-aware checkpoint directory (``TieredCheckpointStore``).

Subsumes :class:`repro.sandbox.checkpoint.CheckpointStore` — the same
cluster-wide directory of base checkpoints, with two additions:

* every base checkpoint has a residency **tier**, and the store owns the
  capacity accounting and charged demote/promote operations that move it
  between ``NODE_DRAM``, the cluster-wide ``REMOTE_DRAM`` pool and the
  owning node's ``LOCAL_SSD``; and
* the **tables** of parked sandboxes — dedup patch tables and template
  deltas — can be moved to the owning node's SSD instead of being
  purged, through the ``*_table`` methods; the per-node SSD accounts
  are the one place both kinds are charged.

The store only moves bytes between *accounts* and returns the charged
cost in milliseconds; the controller decides *when* to demote (eviction
pressure, keep-dedup expiry) and the node's DRAM accounting reacts to
the tier flip through ``recharge_checkpoint`` / ``recharge_sandbox``.

Content is never dropped on demotion — the simulation's images stay
addressable at any tier, which is what the demote→promote round-trip
property test pins down.  Only the *cost* of reaching them changes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.storage.tiers import (
    StorageConfig,
    StorageTier,
    TierAccount,
    remote_dram_read_ms,
    ssd_read_ms,
    ssd_write_ms,
)


@dataclass(frozen=True)
class TierMove:
    """Outcome of one charged demote/promote operation."""

    tier: StorageTier
    """Where the state resides after the move."""
    cost_ms: float
    """Charged device/fabric time of the move."""
    nbytes: int
    """Full-scale bytes moved."""


class TemplatePool:
    """The remote-DRAM slice backing template segments (DESIGN.md §14).

    A dedicated :class:`TierAccount` over the far-memory pool, separate
    from the checkpoint store's so template capacity is planned
    independently of demoted checkpoints.  Like everything REMOTE_DRAM it
    has no single node's failure domain: pool copies survive node
    crashes, and node-DRAM replicas are pure caches re-promotable from
    here at the charged read cost.
    """

    def __init__(self, *, capacity_bytes: int) -> None:
        self.account = TierAccount(capacity_bytes)

    def fits(self, nbytes: int) -> bool:
        return self.account.fits(nbytes)

    def publish_ms(self, nbytes: int) -> float:
        """Charge ``nbytes`` into the pool; returns the fabric write cost."""
        self.account.charge(nbytes)
        return remote_dram_read_ms(nbytes)

    def withdraw(self, nbytes: int) -> None:
        """Release ``nbytes`` (a segment retired by the catalog)."""
        self.account.release(nbytes)

    def read_ms(self, nbytes: int) -> float:
        """One batched promote-read of ``nbytes`` out of the pool."""
        return remote_dram_read_ms(nbytes)

    @property
    def used_bytes(self) -> int:
        return self.account.used_bytes


class TieredCheckpointStore(CheckpointStore):
    """A :class:`CheckpointStore` whose checkpoints (and parked tables)
    have residency tiers with bounded capacities."""

    def __init__(self, config: StorageConfig, *, nodes: int) -> None:
        super().__init__()
        self.remote_dram = TierAccount(config.remote_dram_capacity_bytes)
        self.ssd: dict[int, TierAccount] = {
            node_id: TierAccount(config.ssd_capacity_bytes) for node_id in range(nodes)
        }
        # sandbox_id -> (node_id, nbytes) of SSD-parked dedup tables.
        self._tables: dict[int, tuple[int, int]] = {}

    # ---------------------------------------------------- checkpoint tiers

    def tier_of(self, checkpoint_id: int) -> StorageTier:
        return self.get(checkpoint_id).tier

    def _account_for(self, checkpoint: BaseCheckpoint) -> TierAccount | None:
        if checkpoint.tier is StorageTier.REMOTE_DRAM:
            return self.remote_dram
        if checkpoint.tier is StorageTier.LOCAL_SSD:
            return self.ssd[checkpoint.node_id]
        return None

    def demote_checkpoint(self, checkpoint: BaseCheckpoint) -> TierMove | None:
        """Move a checkpoint out of node DRAM, if a lower tier has room.

        Tries the far-memory pool first (cheaper reads), overflowing to
        the owning node's SSD.  Returns ``None`` — and leaves the
        checkpoint in DRAM — when neither tier fits.  The caller must
        re-account the owning node (the DRAM charge drops to zero).

        Only unshared-with-owner checkpoints demote: while the owner
        sandbox is resident the pages are copy-on-write with it and
        there is nothing separate to move.
        """
        if checkpoint.tier is not StorageTier.NODE_DRAM:
            raise RuntimeError(
                f"checkpoint {checkpoint.checkpoint_id} already demoted "
                f"({checkpoint.tier.value})"
            )
        if checkpoint.owner_resident:
            raise RuntimeError(
                f"checkpoint {checkpoint.checkpoint_id} is CoW-shared with its "
                "resident owner; nothing to demote"
            )
        nbytes = checkpoint.full_size_bytes
        if self.remote_dram.fits(nbytes):
            self.remote_dram.charge(nbytes)
            checkpoint.tier = StorageTier.REMOTE_DRAM
            cost_ms = remote_dram_read_ms(nbytes)
        elif self.ssd[checkpoint.node_id].fits(nbytes):
            self.ssd[checkpoint.node_id].charge(nbytes)
            checkpoint.tier = StorageTier.LOCAL_SSD
            cost_ms = ssd_write_ms(nbytes)
        else:
            return None
        return TierMove(tier=checkpoint.tier, cost_ms=cost_ms, nbytes=nbytes)

    def promote_checkpoint(self, checkpoint: BaseCheckpoint) -> TierMove:
        """Bring a demoted checkpoint back into node DRAM.

        Charged at the *read* cost of its current tier (the write into
        DRAM is the memcpy the fabric model already folds into local
        copies).  The caller must have checked DRAM room and must
        re-account the owning node afterwards.
        """
        account = self._account_for(checkpoint)
        if account is None:
            raise RuntimeError(
                f"checkpoint {checkpoint.checkpoint_id} already in node DRAM"
            )
        nbytes = checkpoint.full_size_bytes
        if checkpoint.tier is StorageTier.REMOTE_DRAM:
            cost_ms = remote_dram_read_ms(nbytes)
        else:
            cost_ms = ssd_read_ms(nbytes)
        account.release(nbytes)
        checkpoint.tier = StorageTier.NODE_DRAM
        return TierMove(tier=StorageTier.NODE_DRAM, cost_ms=cost_ms, nbytes=nbytes)

    def fetch_cost_ms(self, checkpoint: BaseCheckpoint, nbytes: int) -> float:
        """One batched read of ``nbytes`` from wherever the checkpoint
        lives, for restores that read through without promoting."""
        if checkpoint.tier is StorageTier.REMOTE_DRAM:
            return remote_dram_read_ms(nbytes)
        if checkpoint.tier is StorageTier.LOCAL_SSD:
            return ssd_read_ms(nbytes)
        raise RuntimeError(
            f"checkpoint {checkpoint.checkpoint_id} is in node DRAM; "
            "reads go through the RDMA fabric"
        )

    def remove(self, checkpoint_id: int) -> BaseCheckpoint:
        """Drop a checkpoint, releasing whatever tier account holds it."""
        checkpoint = super().remove(checkpoint_id)
        account = self._account_for(checkpoint)
        if account is not None:
            account.release(checkpoint.full_size_bytes)
            checkpoint.tier = StorageTier.NODE_DRAM
        return checkpoint

    # ------------------------------------------------------ fault domain

    def survives_node_failure(self, checkpoint: BaseCheckpoint) -> bool:
        """Whether ``checkpoint``'s content outlives its home node's crash.

        Only far-memory residency does: the cluster-wide REMOTE_DRAM
        pool has no single node's failure domain, while NODE_DRAM and
        LOCAL_SSD state dies with the owning node (the SSD model shares
        the node's fate — DESIGN.md §9)."""
        return checkpoint.tier is StorageTier.REMOTE_DRAM

    # ------------------------------------------------------ parked tables

    def ssd_fits(self, node_id: int, nbytes: int) -> bool:
        return self.ssd[node_id].fits(nbytes)

    def demote_table(self, sandbox_id: int, node_id: int, nbytes: int) -> None:
        """Park a sandbox's table (patch table or template delta) on
        ``node_id``'s SSD.

        The caller keeps the table object itself (it is the sandbox's
        ``dedup_table``); the store only accounts for the bytes and
        remembers where they are.  The SSD write is charged to no
        latency (DESIGN.md §9).
        """
        if sandbox_id in self._tables:
            raise RuntimeError(f"sandbox {sandbox_id} table already demoted")
        self.ssd[node_id].charge(nbytes)
        self._tables[sandbox_id] = (node_id, nbytes)

    def promote_table(self, sandbox_id: int) -> float:
        """Read a parked table back for a restore; returns the SSD read
        cost and releases the SSD account."""
        try:
            node_id, nbytes = self._tables.pop(sandbox_id)
        except KeyError:
            raise RuntimeError(f"sandbox {sandbox_id} table not demoted") from None
        self.ssd[node_id].release(nbytes)
        return ssd_read_ms(nbytes)

    def release_table(self, sandbox_id: int) -> None:
        """Drop a parked table without reading it (purge of a cold sandbox)."""
        location = self._tables.pop(sandbox_id, None)
        if location is not None:
            node_id, nbytes = location
            self.ssd[node_id].release(nbytes)

    # ----------------------------------------------------- observability

    def recount(self, parked: dict[int, tuple[int, int]]) -> Iterator[str]:
        """Recount the tier accounts from the checkpoints held and
        ``parked`` (sandbox id -> node id, bytes of every table the
        sandboxes keep on SSD); yields one message per disagreement."""
        if self._tables != parked:
            yield f"parked tables: the store holds {sorted(self._tables)}, not {sorted(parked)}"
        held: Counter[int | str] = Counter()
        for node_id, nbytes in parked.values():
            held[node_id] += nbytes
        for checkpoint in self:
            if checkpoint.tier is StorageTier.REMOTE_DRAM:
                held["remote"] += checkpoint.full_size_bytes
            elif checkpoint.tier is StorageTier.LOCAL_SSD:
                held[checkpoint.node_id] += checkpoint.full_size_bytes
        for where, account in [("remote", self.remote_dram), *self.ssd.items()]:
            if account.used_bytes != held[where]:
                yield f"tier accounts: {where}: charged {account.used_bytes} != {held[where]}"

    def tier_used_bytes(self) -> dict[StorageTier, int]:
        """Current occupancy of the non-DRAM tiers (full-scale bytes)."""
        return {
            StorageTier.REMOTE_DRAM: self.remote_dram.used_bytes,
            StorageTier.LOCAL_SSD: sum(a.used_bytes for a in self.ssd.values()),
        }
