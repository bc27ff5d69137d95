"""Worker nodes: memory accounting for sandboxes and pinned checkpoints.

A node is a capacity-bounded container of residents.  The scheduler
consults nodes for placement (least-used-memory first, as the paper's
default) and the eviction machinery asks them for idle candidates when
memory pressure hits.  Per-node memory limits are *soft-defined* the way
the paper's testbed does it: a software limit passed in the cluster
configuration (Section 7.1 uses 2 GB/node to oversubscribe the cluster).

Accounting is **incremental**: the node keeps a ``used`` counter updated
on admit/remove/pin/unpin and — via a transition observer it installs on
every admitted sandbox — on lifecycle transitions that change a
sandbox's footprint (warm↔dedup↔restoring).  ``used_bytes``, ``fits``
and ``free_bytes`` are therefore O(1) instead of O(residents).  The
recomputed sum survives as :meth:`recomputed_used_bytes`, asserted
against the counter on every read when ``verify_accounting`` is set
(tests enable it; serving every read from the recomputed sum instead
was last proven to replay identically at ``48cbd51``).  A second
counter, ``reclaimable_bytes``, is kept the same way: the charge of the
residents that are evictable right now, which is what the placement
gate asks of every node it considers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro._util import stable_seed
from repro.sandbox.checkpoint import BaseCheckpoint
from repro.sandbox.sandbox import Sandbox
from repro.sandbox.state import SandboxState


class EvictionOrder(enum.Enum):
    """Victim ordering under memory pressure (ablation knob).

    The platform defaults to LRU; the alternatives exist to quantify how
    much of Medes' advantage depends on the baseline's eviction quality
    (see benchmarks/bench_ablations.py).
    """

    LRU = "lru"
    """Least-recently-used idle sandbox first (default)."""
    LARGEST_FIRST = "largest-first"
    """Free the most memory with the fewest evictions."""
    RANDOM = "random"
    """Uniformly random among idle sandboxes (deterministic per state)."""


def rank_victims(
    victims: list[Sandbox], order: EvictionOrder = EvictionOrder.LRU
) -> list[Sandbox]:
    """Sort eviction ``victims`` into the configured order."""
    if order is EvictionOrder.LRU:
        key = lambda s: (s.last_used_at, s.sandbox_id)  # noqa: E731
    elif order is EvictionOrder.LARGEST_FIRST:
        key = lambda s: (-s.memory_bytes(), s.last_used_at, s.sandbox_id)  # noqa: E731
    elif order is EvictionOrder.RANDOM:
        key = lambda s: stable_seed("evict", s.sandbox_id, s.last_used_at)  # noqa: E731
    else:  # pragma: no cover - exhaustive enum
        raise AssertionError(f"unhandled eviction order {order}")
    return sorted(victims, key=key)


class CapacityError(RuntimeError):
    """Raised when an admission would exceed the node's memory limit."""


class AccountingError(AssertionError):
    """Raised when an incremental counter drifts from the recomputed
    per-resident sum (only checked under ``verify_accounting``)."""


@dataclass
class Node:
    """One worker node."""

    node_id: int
    capacity_bytes: int
    sandboxes: dict[int, Sandbox] = field(default_factory=dict)
    checkpoints: dict[int, BaseCheckpoint] = field(default_factory=dict)
    verify_accounting: bool = False
    """Debug: assert counter == recomputed sum on every read."""
    on_used_changed: Callable[["Node"], None] | None = field(
        default=None, repr=False, compare=False
    )
    """Hook fired whenever the node's memory charge changes (the
    controller's placement index subscribes here)."""
    _used: int = field(default=0, repr=False)
    _sandbox_charges: dict[int, int] = field(default_factory=dict, repr=False)
    _reclaimable: int = field(default=0, repr=False)
    _reclaimable_charges: dict[int, int] = field(default_factory=dict, repr=False)
    """The part of each resident's charge that eviction could free
    right now: all of it, or 0 while the resident is busy or a base."""
    _checkpoint_charges: dict[int, int] = field(default_factory=dict, repr=False)
    _template_charges: dict[int, int] = field(default_factory=dict, repr=False)
    """Full-scale DRAM charge per resident template-segment replica,
    keyed by segment id (empty unless template sharing is on)."""

    # -------------------------------------------------------- accounting

    def used_bytes(self) -> int:
        """Current full-scale memory charge on this node."""
        if self.verify_accounting:
            recomputed = self.recomputed_used_bytes()
            if recomputed != self._used:
                raise AccountingError(
                    f"node {self.node_id}: cached used={self._used} != "
                    f"recomputed {recomputed}"
                )
        return self._used

    def recomputed_used_bytes(self) -> int:
        """The O(residents) sum the counter must always agree with."""
        total = sum(sandbox.memory_bytes() for sandbox in self.sandboxes.values())
        total += sum(checkpoint.memory_bytes() for checkpoint in self.checkpoints.values())
        total += sum(self._template_charges.values())
        return total

    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes()

    def reclaimable_bytes(self) -> int:
        """Memory that evicting every evictable resident would free."""
        if self.verify_accounting:
            recomputed = self.recomputed_reclaimable_bytes()
            if recomputed != self._reclaimable:
                raise AccountingError(
                    f"node {self.node_id}: cached reclaimable={self._reclaimable} != "
                    f"recomputed {recomputed}"
                )
        return self._reclaimable

    def recomputed_reclaimable_bytes(self) -> int:
        """The O(residents) sum ``reclaimable_bytes`` must agree with."""
        return sum(s.memory_bytes() for s in self.sandboxes.values() if s.evictable)

    def fits(self, extra_bytes: int) -> bool:
        """Would admitting ``extra_bytes`` stay within the soft limit?"""
        return self.used_bytes() + extra_bytes <= self.capacity_bytes

    def _apply_delta(self, delta: int) -> None:
        if delta == 0:
            return
        self._used += delta
        if self.on_used_changed is not None:
            self.on_used_changed(self)

    def _recharge(self, sandbox: Sandbox, charged: int) -> None:
        """Re-derive a resident's charge, and whether eviction could
        free it, from the sandbox as it is now."""
        sandbox_id = sandbox.sandbox_id
        charge = sandbox.memory_bytes()
        reclaimable = charge if sandbox.evictable else 0
        self._reclaimable += reclaimable - self._reclaimable_charges.get(sandbox_id, 0)
        self._reclaimable_charges[sandbox_id] = reclaimable
        if charge != charged:
            self._sandbox_charges[sandbox_id] = charge
            self._apply_delta(charge - charged)

    def _on_sandbox_transition(
        self, sandbox: Sandbox, old_state: SandboxState, new_state: SandboxState
    ) -> None:
        """Transition observer: recharge the sandbox at its new footprint."""
        charged = self._sandbox_charges.get(sandbox.sandbox_id)
        if charged is not None:  # else not (or no longer) resident here
            self._recharge(sandbox, charged)

    # --------------------------------------------------------- residents

    def admit(self, sandbox: Sandbox) -> None:
        """Place a sandbox on this node (capacity is checked by callers
        via :meth:`fits` so that eviction can run first; this guards
        against programming errors, not pressure)."""
        if sandbox.sandbox_id in self.sandboxes:
            raise ValueError(f"sandbox {sandbox.sandbox_id} already on node {self.node_id}")
        if sandbox.node_id != self.node_id:
            raise ValueError(
                f"sandbox {sandbox.sandbox_id} targets node {sandbox.node_id}, "
                f"not {self.node_id}"
            )
        self.sandboxes[sandbox.sandbox_id] = sandbox
        self._sandbox_charges[sandbox.sandbox_id] = 0
        sandbox.observers.append(self._on_sandbox_transition)
        self._recharge(sandbox, 0)

    def remove(self, sandbox_id: int) -> Sandbox:
        try:
            sandbox = self.sandboxes.pop(sandbox_id)
        except KeyError:
            raise KeyError(f"sandbox {sandbox_id} not on node {self.node_id}") from None
        charge = self._sandbox_charges.pop(sandbox_id)
        self._reclaimable -= self._reclaimable_charges.pop(sandbox_id)
        try:
            sandbox.observers.remove(self._on_sandbox_transition)
        except ValueError:  # pragma: no cover - defensive
            pass
        self._apply_delta(-charge)
        return sandbox

    def pin_checkpoint(self, checkpoint: BaseCheckpoint) -> None:
        if checkpoint.node_id != self.node_id:
            raise ValueError("checkpoint pinned to the wrong node")
        self.checkpoints[checkpoint.checkpoint_id] = checkpoint
        charge = checkpoint.memory_bytes()
        self._checkpoint_charges[checkpoint.checkpoint_id] = charge
        self._apply_delta(charge)

    def unpin_checkpoint(self, checkpoint_id: int) -> BaseCheckpoint:
        try:
            checkpoint = self.checkpoints.pop(checkpoint_id)
        except KeyError:
            raise KeyError(f"checkpoint {checkpoint_id} not on node {self.node_id}") from None
        self._apply_delta(-self._checkpoint_charges.pop(checkpoint_id))
        return checkpoint

    def pin_template(self, segment_id: int, nbytes: int) -> None:
        """Charge a template-segment replica promoted onto this node.

        Replicas are fork caches: the authoritative copy stays in the
        remote-DRAM pool, so unpinning never loses content."""
        if segment_id in self._template_charges:
            raise ValueError(f"template segment {segment_id} already on node {self.node_id}")
        self._template_charges[segment_id] = nbytes
        self._apply_delta(nbytes)

    def unpin_template(self, segment_id: int) -> None:
        try:
            charge = self._template_charges.pop(segment_id)
        except KeyError:
            raise KeyError(
                f"template segment {segment_id} not on node {self.node_id}"
            ) from None
        self._apply_delta(-charge)

    def template_replica_bytes(self) -> int:
        """Total DRAM charged to template replicas on this node."""
        return sum(self._template_charges.values())

    def recharge_sandbox(self, sandbox_id: int) -> None:
        """Re-account a resident sandbox whose charge or evictability
        changed *without* a lifecycle transition — a dedup table demoted
        to (or promoted from) a lower storage tier flips ``table_tier``
        in place, base demarcation flips ``is_base`` and the busy flag."""
        self._recharge(self.sandboxes[sandbox_id], self._sandbox_charges[sandbox_id])

    def recharge_checkpoint(self, checkpoint_id: int) -> None:
        """Re-account a pinned checkpoint whose charge changed.

        The only such change is the owner sandbox's purge: a checkpoint
        charged at the copy-on-write fraction while its owner was
        resident costs its full footprint afterwards.  The controller
        calls this right after flipping ``owner_resident``.
        """
        checkpoint = self.checkpoints[checkpoint_id]
        charged = self._checkpoint_charges[checkpoint_id]
        new_charge = checkpoint.memory_bytes()
        self._checkpoint_charges[checkpoint_id] = new_charge
        self._apply_delta(new_charge - charged)

    # ---------------------------------------------------------- eviction

    def eviction_candidates(self, order: EvictionOrder = EvictionOrder.LRU) -> list[Sandbox]:
        """Idle, non-base sandboxes in eviction order (default LRU)."""
        victims = [s for s in self.sandboxes.values() if s.evictable]
        return rank_victims(victims, order)
