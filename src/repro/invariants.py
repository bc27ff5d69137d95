"""Whole-system invariants: one recount of every fact the platform maintains.

Medes is correct only while base-checkpoint refcounts equal the dedup
tables that pin them (paper §4); so is every counter built on top.
:func:`check` recounts them all and raises ``AccountingError`` naming the
first broken invariant.  It holds at any instant between events — the
tables of ops in flight already hold their references — and
``Platform.run`` calls it after drain.  Modules recount their private
state (``recount`` methods); this module recounts what spans
subsystems.  DESIGN.md §21 lists every invariant and its owner.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterator

from repro.core.agent import DedupPageTable
from repro.sandbox.node import AccountingError, Node
from repro.sandbox.state import SandboxState
from repro.storage.store import TieredCheckpointStore
from repro.templates.delta import TemplateDeltaTable

if TYPE_CHECKING:
    from repro.platform.platform import Platform


def check(platform: Platform) -> None:
    """Raise ``AccountingError("<invariant>: <subject>: <detail>")`` at
    the first broken invariant of ``platform``."""
    for problem in _problems(platform):
        raise AccountingError(problem)


def liveness(platform: Platform) -> AccountingError:
    """The error for a run whose requests never drain: each request still
    waiting (id, function, footprint) and what each node holds against
    it (free bytes, bytes of bases pinned by dedup tables, bytes of
    template replicas)."""
    waiting = ", ".join(
        f"#{record.request_id} {record.function} "
        f"({platform.suite.get(record.function).memory_bytes} B)"
        for _, record in sorted(platform.metrics.requests.inflight.items())
    )
    nodes = "; ".join(
        f"node {node.node_id}: {node.free_bytes()} B free, "
        f"{_pinned_base_bytes(node)} B in pinned bases, "
        f"{node.template_replica_bytes()} B in template replicas"
        for node in platform.nodes
    )
    return AccountingError(f"liveness: never started: {waiting}; {nodes}")


def _pinned_base_bytes(node: Node) -> int:
    pinned = [checkpoint for checkpoint in node.checkpoints.values() if checkpoint.pinned]
    owners = [node.sandboxes.get(checkpoint.owner_sandbox_id) for checkpoint in pinned]
    return sum(checkpoint.memory_bytes() for checkpoint in pinned) + sum(
        owner.memory_bytes() for owner in owners if owner is not None
    )


def _problems(platform: Platform) -> Iterator[str]:
    store, catalog, log = platform.store, platform.templates, platform.metrics.requests
    residents = {s.sandbox_id: s for node in platform.nodes for s in node.sandboxes.values()}
    tables = [(s, s.dedup_table) for s in residents.values() if s.dedup_table is not None]
    tables += [(residents[i], t) for i, t in platform.controller.inflight_tables().items()]
    checkpoints = {checkpoint.checkpoint_id: checkpoint for checkpoint in store}
    kept: list = []  # (sandbox, its kept delta), for the table domain check
    memos = [  # (sandbox, a memo of its, its page count), for the kept choices check
        (s, t.memo, len(t.entries))
        for s, t in tables
        if isinstance(t, DedupPageTable) and t.memo is not None
    ]

    if log.arrived != len(log.inflight) + len(log.rows):
        yield f"request log: {log.arrived} arrived != {len(log.inflight)} + {len(log.rows)} done"
    for node in platform.nodes:
        if node.used_bytes() != node.recomputed_used_bytes():
            yield f"node used bytes: node {node.node_id}: {node.used_bytes()} != recount"
        for s in node.sandboxes.values():
            idle = not s.is_base and s.busy_request_id is None
            if s.evictable != (idle and s.state in (SandboxState.WARM, SandboxState.DEDUP)):
                yield f"evictable: sandbox {s.sandbox_id} in {s.state.value}: {s.evictable}"
            parked = s.state in (SandboxState.DEDUPING, SandboxState.DEDUP, SandboxState.RESTORING)
            if parked and s.image is not None:
                yield f"parked image: sandbox {s.sandbox_id} in {s.state.value} holds its image"
            if s.kept_delta is not None:
                kept.append((s, s.kept_delta))
                if parked or s.image is not None:
                    also = " and its image" if s.image is not None else ""
                    yield f"kept delta: sandbox {s.sandbox_id} in {s.state.value} keeps it{also}"
            if s.kept_choices is not None:
                pages = s.image.num_pages if s.image is not None else 0
                memos.append((s, s.kept_choices, pages))
                if s.state in (SandboxState.DEDUP, SandboxState.RESTORING):
                    yield f"kept choices: sandbox {s.sandbox_id} in {s.state.value} keeps them"
        if node.reclaimable_bytes() != node.recomputed_reclaimable_bytes():
            yield f"reclaimable bytes: node {node.node_id}: {node.reclaimable_bytes()} != recount"
        replicas = catalog.replica_bytes(node.node_id) if catalog is not None else 0
        if node.template_replica_bytes() != replicas:
            yield f"node template charges: node {node.node_id}: the catalog places {replicas}"

    for sandbox, memo, pages in memos:
        level, memo_pages = platform.agents[sandbox.node_id].patch_level, memo.pairs[:, 0]
        if memo.level != level:
            yield f"kept choices: sandbox {sandbox.sandbox_id}: memo level {memo.level} != {level}"
        if memo_pages.size and not 0 <= memo_pages.min() <= memo_pages.max() < pages:
            yield f"kept choices: sandbox {sandbox.sandbox_id}: memo pages outside its {pages}"

    held: Counter[int] = Counter()
    for sandbox, table in tables + kept:
        if isinstance(table, TemplateDeltaTable):
            domains = {key[0] for key in table.segment_keys}
        else:
            held.update(table.base_refs)
            domains = {checkpoints[i].domain for i in table.base_refs if i in checkpoints}
        if domains - {sandbox.domain}:
            yield f"table domain: sandbox {sandbox.sandbox_id} of {sandbox.domain!r}: {domains}"
    for checkpoint_id in held.keys() | checkpoints.keys():
        checkpoint = checkpoints.get(checkpoint_id)
        if checkpoint is None or checkpoint.refcount != held[checkpoint_id]:
            yield (
                f"checkpoint refcount: checkpoint {checkpoint_id}: live tables hold "
                f"{held[checkpoint_id]}, the store {checkpoint and checkpoint.refcount}"
            )

    if catalog is not None:
        yield from catalog.recount(
            (table for _, table in tables if isinstance(table, TemplateDeltaTable)),
            ((s.node_id, s.template_share_keys) for s in residents.values()),
        )
    if isinstance(store, TieredCheckpointStore):
        yield from store.recount(
            {
                s.sandbox_id: (s.node_id, s.dedup_table.retained_full_bytes)
                for s in residents.values()
                if s.table_tier is not None
            }
        )
    yield from platform.controller.recount()
    yield from platform.registry.recount(
        {i: checkpoint.domain for i, checkpoint in checkpoints.items() if checkpoint.registered}
    )
