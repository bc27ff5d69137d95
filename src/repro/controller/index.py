"""Incrementally maintained control-plane indexes.

Recomputing a scheduling fact by scanning all sandboxes — filtering a
function's population for dispatch candidates, re-counting states for
``live_counts``/``sandbox_census``, re-sorting every node by a freshly
summed memory charge for placement — is O(S) work per request in the
sandbox population S: exactly the control-plane scaling wall the
paper's Section 4.3 distributes the controller to avoid.

This module holds the two index structures that make the per-request
work independent of S:

* :class:`SandboxIndex` — per-function candidate sets (idle-warm,
  restorable-dedup, abortable-deduping) plus cached live/dedup/census
  counters, maintained from the :meth:`Sandbox.transition` observer
  hook and from the controller's explicit busy-flag refreshes.
* :class:`NodeUsageIndex` — nodes keyed by ``(used_bytes, node_id)`` in
  a bisect-maintained sorted list, updated from ``Node.on_used_changed``
  so placement reads an already-sorted order instead of sorting per
  cold start.

Both indexes equal what a scan would compute (same membership, same
orderings, same tie-breaks): ``tests/controller/test_indexed_scheduling.py``
recounts them from ``_by_function`` / ``node.sandboxes`` in the middle
of pressured runs, and whole runs were last proven bit-identical to a
scan-driven controller at ``48cbd51``, where
``tests/golden/control_plane_runs.json`` was frozen from both.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Iterable

from repro.sandbox.sandbox import Sandbox
from repro.sandbox.state import SandboxState

if TYPE_CHECKING:
    from repro.sandbox.node import Node


class SandboxIndex:
    """Candidate sets and population counters, updated in O(1) per event."""

    def __init__(self) -> None:
        #: function -> {sandbox_id: sandbox} in WARM with no request.
        self.idle_warm: dict[str, dict[int, Sandbox]] = {}
        #: function -> {sandbox_id: sandbox} in DEDUP with no request.
        self.restorable: dict[str, dict[int, Sandbox]] = {}
        #: function -> {sandbox_id: sandbox} mid-dedup with no request.
        self.abortable: dict[str, dict[int, Sandbox]] = {}
        #: function -> sandboxes in a LIVE state.
        self.live_count: dict[str, int] = {}
        #: function -> sandboxes in a DEDUP state.
        self.dedup_count: dict[str, int] = {}
        self.warm_census = 0
        self.dedup_census = 0
        self.total = 0

    # ------------------------------------------------------------ events

    def on_spawn(self, sandbox: Sandbox) -> None:
        """A sandbox entered the cluster (state SPAWNING)."""
        self.total += 1
        self.refresh(sandbox)

    def on_transition(
        self, sandbox: Sandbox, old_state: SandboxState, new_state: SandboxState
    ) -> None:
        """Observer for :meth:`Sandbox.transition`."""
        function = sandbox.function
        live_delta = new_state.live - old_state.live
        if live_delta:
            self.live_count[function] = self.live_count.get(function, 0) + live_delta
        dedup_delta = new_state.dedup - old_state.dedup
        if dedup_delta:
            self.dedup_count[function] = self.dedup_count.get(function, 0) + dedup_delta
            self.dedup_census += dedup_delta
        self.warm_census += new_state.census_warm - old_state.census_warm
        if new_state is SandboxState.PURGED:
            self.total -= 1
        self.refresh(sandbox)

    def refresh(self, sandbox: Sandbox) -> None:
        """Recompute the candidate-set membership of one sandbox.

        Called from the transition observer and — because base
        demarcation toggles ``busy_request_id`` without a state
        transition — explicitly by the controller wherever the busy
        flag changes outside :meth:`Sandbox.transition`.
        """
        function = sandbox.function
        for candidates in (self.idle_warm, self.restorable, self.abortable):
            bucket = candidates.get(function)
            if bucket is not None:
                bucket.pop(sandbox.sandbox_id, None)
        if sandbox.busy_request_id is not None:
            return
        if sandbox.state is SandboxState.WARM:
            target = self.idle_warm
        elif sandbox.state is SandboxState.DEDUP:
            target = self.restorable
        elif sandbox.state is SandboxState.DEDUPING:
            target = self.abortable
        else:
            return
        target.setdefault(function, {})[sandbox.sandbox_id] = sandbox


class NodeUsageIndex:
    """Nodes in ``(used_bytes, node_id)`` order, maintained incrementally.

    ``snapshot()`` returns the current placement order — the same order
    ``sorted(nodes, key=lambda n: (n.used_bytes(), n.node_id))``
    produces — without recomputing or re-sorting anything.  Updates are
    O(n) list surgery in the *node* count, which is configuration-fixed
    and tiny next to the sandbox population.
    """

    def __init__(self, nodes: Iterable["Node"]):
        self._nodes: dict[int, Node] = {node.node_id: node for node in nodes}
        self._keys: dict[int, tuple[int, int]] = {
            node.node_id: (node.used_bytes(), node.node_id)
            for node in self._nodes.values()
        }
        self._order: list[tuple[int, int]] = sorted(self._keys.values())

    def update(self, node: "Node") -> None:
        """Re-key one node after its memory charge changed."""
        old_key = self._keys[node.node_id]
        new_key = (node.used_bytes(), node.node_id)
        if new_key == old_key:
            return
        self._order.remove(old_key)
        insort(self._order, new_key)
        self._keys[node.node_id] = new_key

    def snapshot(self, exclude: frozenset[int] | set[int] = frozenset()) -> list["Node"]:
        """Nodes in ascending (used, id) order at this instant.

        ``exclude`` filters out down nodes (fault layer); the common
        no-fault call keeps the allocation-only fast path.
        """
        if not exclude:
            return [self._nodes[node_id] for _, node_id in self._order]
        return [
            self._nodes[node_id]
            for _, node_id in self._order
            if node_id not in exclude
        ]
