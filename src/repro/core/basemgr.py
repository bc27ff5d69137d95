"""Base-sandbox management (Section 4.1.3).

Only base sandboxes populate the fingerprint registry.  The manager
tracks, per function, the number of base checkpoints ``B`` and dedup
sandboxes ``D``; when ``D / B`` exceeds the threshold ``T`` (the paper
uses 40), the next sandbox headed for deduplication is demarcated as an
additional base instead.  Base checkpoints are pinned via refcounts held
by dedup page tables and are retired when unreferenced and superfluous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore

#: The paper's D/B threshold.
BASE_THRESHOLD = 40


@dataclass
class _FunctionBases:
    checkpoints: list[BaseCheckpoint] = field(default_factory=list)
    dedup_count: int = 0


class BaseSandboxManager:
    """Decides when a function needs another base sandbox."""

    def __init__(self, store: CheckpointStore):
        self.store = store
        self._functions: dict[str, _FunctionBases] = {}

    def _entry(self, function: str) -> _FunctionBases:
        return self._functions.setdefault(function, _FunctionBases())

    def base_count(self, function: str) -> int:
        return len(self._entry(function).checkpoints)

    def dedup_count(self, function: str) -> int:
        return self._entry(function).dedup_count

    def needs_new_base(self, function: str) -> bool:
        """True when the next dedup of ``function`` should become a base.

        A function with no base yet always needs one (its sandboxes
        cannot be deduplicated against anything of their own function
        otherwise); beyond that, one more base is demarcated whenever
        ``D / B > T``.
        """
        entry = self._entry(function)
        bases = len(entry.checkpoints)
        if bases == 0:
            return True
        return entry.dedup_count / bases > BASE_THRESHOLD

    def add_base(self, checkpoint: BaseCheckpoint) -> None:
        """Record a newly-demarcated base checkpoint."""
        checkpoint.registered = True
        self._entry(checkpoint.function).checkpoints.append(checkpoint)
        self.store.add(checkpoint)

    def note_dedup(self, function: str, delta: int) -> None:
        """Track the population of dedup sandboxes for the D/B ratio."""
        entry = self._entry(function)
        entry.dedup_count += delta
        if entry.dedup_count < 0:
            raise RuntimeError(f"negative dedup count for {function}")

    def bases_for(self, function: str) -> list[BaseCheckpoint]:
        return list(self._entry(function).checkpoints)

    def all_bases(self) -> list[BaseCheckpoint]:
        return [c for entry in self._functions.values() for c in entry.checkpoints]

    def remove_base(self, checkpoint: BaseCheckpoint) -> None:
        """Forget a retired base checkpoint (idempotent).

        The caller is responsible for deregistering its registry entries
        and removing it from the checkpoint store / node.
        """
        entry = self._entry(checkpoint.function)
        if checkpoint in entry.checkpoints:
            entry.checkpoints.remove(checkpoint)

    def retire_unreferenced(self, function: str, *, keep: int = 1) -> list[BaseCheckpoint]:
        """Retire unpinned base checkpoints beyond ``keep`` for a function.

        Returns the retired checkpoints so the controller can deregister
        their registry entries and release node memory.
        """
        entry = self._entry(function)
        retired: list[BaseCheckpoint] = []
        # Newest-first retention: older bases go first.
        removable = [c for c in entry.checkpoints if not c.pinned]
        excess = len(entry.checkpoints) - keep
        for checkpoint in removable:
            if excess <= 0:
                break
            entry.checkpoints.remove(checkpoint)
            self.store.remove(checkpoint.checkpoint_id)
            retired.append(checkpoint)
            excess -= 1
        return retired
