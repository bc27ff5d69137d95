"""The sandbox entity: one container with its memory state and lifecycle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from repro.memory.image import MemoryImage
from repro.sandbox.state import SandboxState, check_transition
from repro.storage.tiers import StorageTier
from repro.workload.functionbench import FunctionProfile

#: Signature of a transition observer: (sandbox, old_state, new_state).
TransitionObserver = Callable[["Sandbox", SandboxState, SandboxState], None]

_sandbox_ids = itertools.count(1)

#: Full-scale metadata bytes per page entry of a retained table (base
#: page address + patch descriptor), part of every parked sandbox's
#: footprint — dedup page tables and template delta tables alike.
METADATA_BYTES_PER_PAGE = 40


@runtime_checkable
class RetainedState(Protocol):
    """What a dedup page table must expose to the sandbox's accounting."""

    @property
    def retained_full_bytes(self) -> int:
        """Full-scale bytes kept in memory for the deduplicated sandbox."""
        ...


@dataclass
class Sandbox:
    """One sandbox instance on a node.

    The sandbox owns its memory image while warm and its dedup page
    table while deduplicated; the two are never resident together except
    transiently during dedup/restore ops.
    """

    profile: FunctionProfile
    node_id: int
    instance_seed: int
    created_at: float
    state: SandboxState = SandboxState.SPAWNING
    sandbox_id: int = field(default_factory=lambda: next(_sandbox_ids))
    image: MemoryImage | None = None
    dedup_table: RetainedState | None = None
    last_used_at: float = 0.0
    last_idle_at: float = 0.0
    busy_request_id: int | None = None
    is_base: bool = False
    base_checkpoint_id: int | None = None
    table_tier: StorageTier | None = None
    """Residency of the dedup page table when off node DRAM (the
    "dedup-cold" state, checkpoint tiering only); ``None`` means DRAM."""
    template_cow_bytes: int = 0
    """Full-scale bytes a template-forked sandbox shares copy-on-write
    with its node's template replicas — unwritten template pages, the
    TrEnv fork model.  Discounted from the warm charge while the share
    lasts (template sharing only; zero otherwise)."""
    template_share_keys: tuple = ()
    """Catalog keys of the shared segments (for releasing the share)."""
    served_requests: int = 0
    dedup_count: int = 0
    tenant: str = ""
    """Owning tenant (from the first request of this function)."""
    domain: str = ""
    """Dedup domain the sandbox shares state in (DESIGN.md §15) — every
    registry/template interaction on this sandbox's behalf is scoped to
    this domain.  "" is the global domain of ``dedup_domains=off``."""
    observers: list[TransitionObserver] = field(default_factory=list, compare=False)
    """Transition hooks (node accounting, controller indexes).  Each is
    called *after* the state and timestamps update, so it observes the
    post-transition sandbox.  Observers must not transition sandboxes."""

    def __post_init__(self) -> None:
        self.last_used_at = self.created_at
        self.last_idle_at = self.created_at

    @property
    def function(self) -> str:
        return self.profile.name

    @property
    def assignable(self) -> bool:
        """Can this sandbox be handed a request right now?"""
        return self.state.assignable and self.busy_request_id is None

    @property
    def idle_warm(self) -> bool:
        return self.state is SandboxState.WARM and self.busy_request_id is None

    @property
    def evictable(self) -> bool:
        """Idle sandboxes may be evicted; base sandboxes are pinned."""
        return not self.is_base and self.busy_request_id is None and self.state.assignable

    def transition(self, new_state: SandboxState, now: float) -> None:
        """Move the lifecycle forward, enforcing Figure 4b."""
        old_state = self.state
        check_transition(old_state, new_state)
        self.state = new_state
        if new_state is SandboxState.WARM:
            self.last_idle_at = now
        if new_state is SandboxState.RUNNING:
            self.last_used_at = now
        for observer in self.observers:
            observer(self, old_state, new_state)

    def memory_bytes(self) -> int:
        """Full-scale memory charge of this sandbox in its current state.

        * warm/running/spawning/deduping: the full warm footprint;
        * dedup: only the retained patches/unique pages + metadata;
        * restoring: both are transiently resident (this is the restore
          overhead ``m_R`` the policy accounts for, Section 5.1);
        * purged: nothing.
        """
        if self.state is SandboxState.PURGED:
            return 0
        full = self.profile.memory_bytes
        if self.state.full_footprint:
            # A template-forked sandbox maps its clean template pages
            # from the node's replicas (copy-on-write), so it is charged
            # only for what it actually owns.
            return full - self.template_cow_bytes
        if self.dedup_table is None:
            raise RuntimeError(f"sandbox {self.sandbox_id} in {self.state} without dedup table")
        retained = self.dedup_table.retained_full_bytes
        if self.state is SandboxState.DEDUP:
            if self.table_tier is not None:
                return 0  # table parked on a lower tier ("dedup-cold")
            return retained
        if self.state is SandboxState.RESTORING:
            return full + retained
        raise AssertionError(f"unhandled state {self.state}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Sandbox(id={self.sandbox_id}, fn={self.function}, node={self.node_id}, "
            f"state={self.state.value}, base={self.is_base})"
        )
