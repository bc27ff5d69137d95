"""The sandbox entity: one container with its memory state and lifecycle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.memory.image import MemoryImage
from repro.sandbox.state import SandboxState, check_transition
from repro.storage.tiers import StorageTier
from repro.workload.functionbench import FunctionProfile

if TYPE_CHECKING:
    from repro.core.agent import DedupMemo
    from repro.templates.delta import TemplateDeltaTable

#: Signature of a transition observer: (sandbox, old_state, new_state).
TransitionObserver = Callable[["Sandbox", SandboxState, SandboxState], None]

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
    table while deduplicated; a dedup op drops the image when it starts,
    and only a landing restore holds both, for one event.  A warm
    sandbox forked from a template delta keeps that delta instead of
    the rebuilt image, and holds at most one of the two; a restored one
    keeps its last dedup op's memo beside the image.
    """

    profile: FunctionProfile
    node_id: int
    instance_seed: int
    created_at: float
    state: SandboxState = SandboxState.SPAWNING
    sandbox_id: int = 0
    """Numbered from 1 by the controller that spawns the sandbox, per
    run; 0 means not placed by a platform."""
    image: MemoryImage | None = None
    dedup_table: RetainedState | None = None
    kept_delta: TemplateDeltaTable | None = None
    """The template delta a fork rebuilt this warm sandbox from: its
    content without the bytes, which its next template park reuses.  It
    holds no catalog references; whatever needs bytes re-synthesizes the
    image and drops it."""
    kept_choices: DedupMemo | None = None
    """The memo of the dedup op a restore rebuilt this sandbox from: its
    next dedup op reuses the fingerprints and every pair outcome the
    registry picks again.  Dropped with the image."""
    last_used_at: float = 0.0
    last_idle_at: float = 0.0
    busy_request_id: int | None = None
    is_base: bool = False
    base_checkpoint_id: int | None = None
    table_tier: StorageTier | None = None
    """Residency of the dedup table (patch table or template delta) when
    parked off node DRAM; ``None`` means DRAM."""
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
    function: str = field(init=False, repr=False, compare=False)
    """The profile's name, copied once: a replay reads it per event."""
    observers: list[TransitionObserver] = field(default_factory=list, compare=False)
    """Transition hooks (node accounting, controller indexes).  Each is
    called *after* the state and timestamps update, so it observes the
    post-transition sandbox.  Observers must not transition sandboxes."""

    def __post_init__(self) -> None:
        self.function = self.profile.name
        self.last_used_at = self.created_at
        self.last_idle_at = self.created_at

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
        if new_state not in old_state.allowed:
            check_transition(old_state, new_state)  # raises
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
                return 0  # table parked on a lower tier
            return retained
        if self.state is SandboxState.RESTORING:
            return full + retained
        raise AssertionError(f"unhandled state {self.state}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Sandbox(id={self.sandbox_id}, fn={self.function}, node={self.node_id}, "
            f"state={self.state.value}, base={self.is_base})"
        )
