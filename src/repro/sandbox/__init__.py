"""Sandbox substrate: lifecycle, checkpoints, sandbox entities, nodes."""

from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.node import AccountingError, CapacityError, EvictionOrder, Node
from repro.sandbox.sandbox import Sandbox
from repro.sandbox.state import (
    InvalidTransition,
    SandboxState,
    allowed_transitions,
    check_transition,
)

__all__ = [
    "AccountingError",
    "BaseCheckpoint",
    "CapacityError",
    "EvictionOrder",
    "CheckpointStore",
    "InvalidTransition",
    "Node",
    "Sandbox",
    "SandboxState",
    "allowed_transitions",
    "check_transition",
]
