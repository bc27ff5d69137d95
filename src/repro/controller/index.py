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
orderings, same tie-breaks): each has a ``recount`` that compares it
with a scan, which :func:`repro.invariants.check` runs at the end of
every replay (and tests at every instant), and whole runs were last
proven bit-identical to a scan-driven controller at ``48cbd51``, where
``tests/golden/control_plane_runs.json`` was frozen from both.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.sandbox.sandbox import Sandbox
from repro.sandbox.state import SandboxState

if TYPE_CHECKING:
    from repro.sandbox.node import Node


class SandboxIndex:
    """Candidate sets and population counters, updated in O(1) per event."""

    def __init__(self) -> None:
        #: function -> {sandbox_id: sandbox} in WARM with no request.
        self.idle_warm: dict[str, dict[int, Sandbox]] = defaultdict(dict)
        #: function -> {sandbox_id: sandbox} in DEDUP with no request.
        self.restorable: dict[str, dict[int, Sandbox]] = defaultdict(dict)
        #: function -> {sandbox_id: sandbox} mid-dedup with no request.
        self.abortable: dict[str, dict[int, Sandbox]] = defaultdict(dict)
        #: function -> sandboxes in a LIVE state.
        self.live_count: dict[str, int] = {}
        #: function -> sandboxes in a DEDUP state.
        self.dedup_count: dict[str, int] = {}
        self.warm_census = 0
        self.dedup_census = 0
        self.total = 0
        #: The candidate sets, by ``SandboxState.candidates``.
        self._candidates = (self.idle_warm, self.restorable, self.abortable)

    # ------------------------------------------------------------ events

    def on_spawn(self, sandbox: Sandbox) -> None:
        """A sandbox entered the cluster (state SPAWNING: no candidate)."""
        self.total += 1

    def on_transition(
        self, sandbox: Sandbox, old_state: SandboxState, new_state: SandboxState
    ) -> None:
        """Observer for :meth:`Sandbox.transition`: the sandbox leaves
        only its old state's candidate set and, if idle, joins only its
        new state's."""
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
        if old_state.candidates is not None:
            self._candidates[old_state.candidates][function].pop(sandbox.sandbox_id, None)
        if new_state.candidates is not None and sandbox.busy_request_id is None:
            self._candidates[new_state.candidates][function][sandbox.sandbox_id] = sandbox

    def refresh(self, sandbox: Sandbox) -> None:
        """Put one sandbox in, or take it out of, its state's candidate
        set by its busy flag.

        Base demarcation toggles ``busy_request_id`` without a state
        transition, so the controller calls this wherever the busy flag
        changes outside :meth:`Sandbox.transition`.
        """
        slot = sandbox.state.candidates
        if slot is None:
            return
        candidates = self._candidates[slot][sandbox.function]
        if sandbox.busy_request_id is None:
            candidates[sandbox.sandbox_id] = sandbox
        else:
            candidates.pop(sandbox.sandbox_id, None)

    def recount(self, sandboxes: Iterable[Sandbox]) -> Iterator[str]:
        """Scan ``sandboxes`` (every resident) into each set and counter
        by its definition, without the event paths above, and yield a
        message per one the maintained index disagrees on."""
        scan = SandboxIndex()
        for sandbox in sandboxes:
            function, state = sandbox.function, sandbox.state
            scan.total += 1
            scan.live_count[function] = scan.live_count.get(function, 0) + state.live
            scan.dedup_count[function] = scan.dedup_count.get(function, 0) + state.dedup
            scan.warm_census += state.census_warm
            scan.dedup_census += state.dedup
            for candidates, idle_state in (
                (scan.idle_warm, SandboxState.WARM),
                (scan.restorable, SandboxState.DEDUP),
                (scan.abortable, SandboxState.DEDUPING),
            ):
                if state is idle_state and sandbox.busy_request_id is None:
                    candidates.setdefault(function, {})[sandbox.sandbox_id] = sandbox
        for name, held in vars(self).items():
            if name != "_candidates" and _nonempty(held) != _nonempty(vars(scan)[name]):
                yield (
                    f"dispatch index: {name}: holds {_nonempty(held)}, "
                    f"the residents give {_nonempty(vars(scan)[name])}"
                )


def _nonempty(field):
    """An index field without its empty buckets and zero counts."""
    if not isinstance(field, dict):
        return field
    return {
        key: set(value) if isinstance(value, dict) else value
        for key, value in field.items()
        if value
    }


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
        #: The cluster's used bytes: the nodes' charges, kept summed.
        self.used_total = sum(used for used, _ in self._order)

    def update(self, node: "Node") -> None:
        """Re-key one node after its memory charge changed."""
        old_key = self._keys[node.node_id]
        new_key = (node.used_bytes(), node.node_id)
        if new_key == old_key:
            return
        self.used_total += new_key[0] - old_key[0]
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

    def recount(self) -> Iterator[str]:
        """Yield a message if the order is not the nodes' charges sorted,
        or the total not their sum."""
        keys = sorted((node.used_bytes(), node_id) for node_id, node in self._nodes.items())
        if self._order != keys or sorted(self._keys.values()) != keys:
            yield f"node order: holds {self._order}, the nodes' charges sort to {keys}"
        used = sum(used for used, _ in keys)
        if self.used_total != used:
            yield f"cluster used bytes: holds {self.used_total}, the nodes' charges sum to {used}"
