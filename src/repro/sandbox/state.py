"""Sandbox lifecycle state machine (paper Figure 4b).

Medes extends the classic cold/warm lifecycle with the dedup state and
its transitions.  Transient states (SPAWNING, DEDUPING, RESTORING) model
the operations in flight; a sandbox in a transient state cannot accept
requests.  Transitions outside the table below raise
:class:`InvalidTransition`, which tests use to pin the lifecycle down.
"""

from __future__ import annotations

import enum


class SandboxState(enum.Enum):
    """States of the Medes sandbox lifecycle."""

    SPAWNING = "spawning"
    """Cold start in progress: environment being initialized."""

    RUNNING = "running"
    """Executing a function request."""

    WARM = "warm"
    """Idle with full memory state resident; serves warm starts."""

    DEDUPING = "deduping"
    """Dedup op in progress (checkpoint, lookup, patch)."""

    DEDUP = "dedup"
    """Deduplicated: only patches + unique pages resident."""

    RESTORING = "restoring"
    """Restore op in progress (base-page reads, patch application)."""

    PURGED = "purged"
    """Removed from memory; terminal."""

    # Per-state facts, as plain attributes of each member (set just
    # below the class: annotations alone create no enum members).  A
    # sandbox changes state twice per request and every change reads
    # most of these; an attribute read hashes no enum member.
    allowed: tuple["SandboxState", ...]
    """States reachable in one transition (Figure 4b's edges)."""
    full_footprint: bool
    """Occupies its full warm footprint."""
    assignable: bool
    """May be handed a request, and may be evicted, when idle."""
    live: bool
    """Serving-capable in the policy's ``ClusterView`` sense:
    everything between spawn completion and purge."""
    dedup: bool
    """Deduplicated, or on the way in."""
    census_warm: bool
    """Counted as warm-ish by the memory-timeline census."""


def _describe(state: SandboxState, allowed: tuple[SandboxState, ...], *facts: str) -> None:
    state.allowed = allowed
    for name in ("full_footprint", "assignable", "live", "dedup", "census_warm"):
        setattr(state, name, name in facts)


_S = SandboxState
# SPAWNING -> WARM is the pre-warm path: a sandbox spawned ahead of
# demand becomes idle-warm without serving a request first.
_describe(_S.SPAWNING, (_S.RUNNING, _S.WARM, _S.PURGED), "full_footprint")
_describe(_S.RUNNING, (_S.WARM,), "full_footprint", "live", "census_warm")
_describe(
    _S.WARM,
    (_S.RUNNING, _S.DEDUPING, _S.PURGED),
    "full_footprint",
    "assignable",
    "live",
    "census_warm",
)
_describe(_S.DEDUPING, (_S.DEDUP, _S.WARM), "full_footprint", "live", "dedup")
_describe(_S.DEDUP, (_S.RESTORING, _S.PURGED), "assignable", "live", "dedup")
_describe(_S.RESTORING, (_S.RUNNING, _S.WARM), "live")
_describe(_S.PURGED, ())
del _S


class InvalidTransition(RuntimeError):
    """Raised on a lifecycle transition outside Figure 4b."""


def check_transition(current: SandboxState, new: SandboxState) -> None:
    """Validate a lifecycle transition, raising :class:`InvalidTransition`."""
    if new not in current.allowed:
        raise InvalidTransition(f"illegal sandbox transition {current.value} -> {new.value}")


def allowed_transitions(state: SandboxState) -> frozenset[SandboxState]:
    """The set of states reachable from ``state`` in one transition."""
    return frozenset(state.allowed)
