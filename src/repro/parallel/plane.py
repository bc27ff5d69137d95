"""Parent-side driver of the parallel dedup/restore data plane.

:class:`DataPlane` runs the staged pipeline of a dedup or restore op on
behalf of a :class:`~repro.core.agent.DedupAgent`:

* **dedup** — the image is copied into the arena once; fingerprint
  tasks go out over contiguous page-range batches (up to ``depth`` in
  flight — software pipelining: workers scan batch *k+1* while the
  parent does the registry round-trip and base-page staging for batch
  *k*); each finished fingerprint batch gets one grouped
  ``choose_base_pages`` round-trip, its base pages staged into arena
  slots (deduplicated per distinct base page), and a patch task
  submitted.  Patch results assemble into the entries list by absolute
  page index, so completion order never matters.
* **restore** — unique/zero pages are materialized by the parent
  (their bytes are already local); base pages are staged once per
  distinct base; patched pages are reconstructed by apply tasks
  writing straight into the arena's output region.

What a page becomes — zero, unique, patched against which base — is
not decided here: both this driver and the serial
:meth:`DedupAgent.dedup` feed the agent's per-op accumulator
(``choose`` → ``base_page`` → ``accept`` per batch), and this module
keeps only what is its own: page ranges, the arena layout, slot
staging and the submit/collect loop.

The pipeline produces bit-identical page tables and images to the
serial :meth:`DedupAgent.dedup`/:meth:`DedupAgent.restore` paths for
any ``workers``/``batch_pages``/``depth`` (property-tested): batches
cut at page boundaries preserve per-page fingerprints exactly, registry
choices are stateless within an op, the patch codec is deterministic,
and all accounting (saved bytes, refcounts, read plans) sums order-
independently.

Two executors implement the same task protocol: :class:`PoolExecutor`
submits to a shared :class:`~repro.parallel.pool.WorkerPool` over a
:class:`~repro.parallel.arena.ShmArena`; :class:`InlineExecutor`
(``workers=1``) runs :func:`~repro.parallel.pool.run_task` in-process
over a :class:`~repro.parallel.arena.LocalArena` — same staged code,
no subprocesses, no shared memory.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro._util import LruCache
from repro.memory.fingerprint import FingerprintBatch
from repro.parallel.arena import LocalArena, ShmArena
from repro.parallel.config import ParallelConfig
from repro.parallel.pool import WORKER_ANCHOR_CACHE_PAGES, WorkerPool, run_task

if TYPE_CHECKING:
    from repro.core.agent import DedupAgent, DedupPageTable, _DedupOp


class InlineExecutor:
    """Run data-plane tasks in-process (the ``workers=1`` engine)."""

    def __init__(self) -> None:
        self._arena: LocalArena | None = None
        self._results: deque[tuple] = deque()
        self._anchor_cache: LruCache = LruCache(WORKER_ANCHOR_CACHE_PAGES)

    def ensure_arena(self, nbytes: int) -> tuple[str | None, np.ndarray]:
        if self._arena is None or self._arena.capacity < nbytes:
            if self._arena is not None:
                self._arena.close()
            self._arena = LocalArena(nbytes)
        return self._arena.token, self._arena.view

    def _resolve(self, token: str | None) -> np.ndarray:
        assert self._arena is not None
        return self._arena.view

    def submit(self, task: tuple) -> None:
        self._results.append(run_task(task, self._resolve, self._anchor_cache))

    def next_result(self) -> tuple:
        return self._results.popleft()

    def close(self) -> None:
        if self._arena is not None:
            self._arena.close()
            self._arena = None


class PoolExecutor:
    """Run data-plane tasks on a shared worker pool over a shm arena."""

    def __init__(self, workers: int):
        self._workers = workers
        self._arena: ShmArena | None = None

    def ensure_arena(self, nbytes: int) -> tuple[str | None, np.ndarray]:
        # Arenas are only ever replaced between ops (no tasks in
        # flight), so unlinking the old segment is safe: workers drop
        # their stale mappings lazily.
        if self._arena is None or self._arena.capacity < nbytes:
            if self._arena is not None:
                self._arena.close()
            self._arena = ShmArena(nbytes)
        return self._arena.token, self._arena.view

    def submit(self, task: tuple) -> None:
        WorkerPool.shared(self._workers).submit(task)

    def next_result(self) -> tuple:
        return WorkerPool.shared(self._workers).next_result()

    def close(self) -> None:
        # The pool is process-wide (shared across agents); only the
        # arena belongs to this executor.
        if self._arena is not None:
            self._arena.close()
            self._arena = None


class DataPlane:
    """Staged dedup/restore execution for one agent."""

    def __init__(self, agent: "DedupAgent", config: ParallelConfig):
        self.agent = agent
        self.config = config
        if config.workers > 1:
            self.executor: InlineExecutor | PoolExecutor = PoolExecutor(config.workers)
        else:
            self.executor = InlineExecutor()

    def close(self) -> None:
        self.executor.close()

    # ---------------------------------------------------------------- dedup

    def dedup(self, op: "_DedupOp") -> None:
        """Drive ``op`` over the staged pipeline (see module docstring)."""
        agent = self.agent
        page_size = op.image.page_size
        num_pages = op.image.num_pages

        # Contiguous page-range batches; ranges with no nonzero page
        # produce no work.  Cutting at page boundaries keeps the marker
        # scan's per-page semantics, so batch fingerprints are identical
        # to the whole-image scan.
        batch_pages = self.config.batch_pages
        ranges: list[tuple[int, int, list[int]]] = []
        for lo in range(0, num_pages, batch_pages):
            hi = min(lo + batch_pages, num_pages)
            abs_pages = [lo + off for off, nz in enumerate(op.nonzero[lo:hi]) if nz]
            if abs_pages:
                ranges.append((lo, hi, abs_pages))

        # Arena layout: [image | base-page slots].  At most one slot per
        # chosen page (slots deduplicate per distinct base page).
        data_off = 0
        bases_off = num_pages * page_size
        token, view = self.executor.ensure_arena(
            bases_off + len(op.pages) * page_size
        )
        view[data_off : data_off + num_pages * page_size] = op.image.data

        slot_of: dict[tuple[int, int], int] = {}
        chosen_of_batch: dict[int, list] = {}

        def submit_fp(batch: int) -> None:
            lo, hi, abs_pages = ranges[batch]
            rel_pages = [index - lo for index in abs_pages]
            self.executor.submit(
                ("fp", batch, token, data_off, lo, hi, rel_pages, page_size,
                 agent.fingerprint_config)
            )

        def on_fingerprints(batch: int, arrays: tuple) -> bool:
            """Registry round-trip + base staging; True if a patch task went out."""
            chosen = op.choose(ranges[batch][2], FingerprintBatch(*arrays))
            if not chosen:
                return False
            jobs = []
            for index, ref in chosen:
                key = (ref.checkpoint_id, ref.page_index)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(slot_of)
                    start = bases_off + slot * page_size
                    view[start : start + page_size] = np.frombuffer(
                        op.base_page(ref), np.uint8
                    )
                jobs.append((index, slot, key))
            chosen_of_batch[batch] = chosen
            self.executor.submit(
                ("patch", batch, token, data_off, bases_off, page_size,
                 agent.patch_level, op.unique_cap, jobs)
            )
            return True

        next_fp = 0
        in_flight = 0
        while next_fp < len(ranges) and next_fp < self.config.depth:
            submit_fp(next_fp)
            next_fp += 1
            in_flight += 1
        while in_flight:
            result = self.executor.next_result()
            in_flight -= 1
            if result[0] == "fp":
                if next_fp < len(ranges):  # keep the fingerprint stage fed
                    submit_fp(next_fp)
                    next_fp += 1
                    in_flight += 1
                if on_fingerprints(result[1], result[2]):
                    in_flight += 1
            else:  # patches; None marks the unique-page cutoff hit in the worker
                op.accept(chosen_of_batch.pop(result[1]), result[2])

    # -------------------------------------------------------------- restore

    def reconstruct(
        self, table: "DedupPageTable", by_checkpoint: dict[int, list[int]]
    ) -> np.ndarray:
        """Rebuild the image bytes of ``table`` (the restore content path).

        The caller (:meth:`DedupAgent.restore`) has already done the
        costing and failure checks; this only reconstructs bytes.
        Returns a fresh writable array of the full image.
        """
        agent = self.agent
        page_size = table.page_size
        num_pages = len(table.entries)

        # Stage each distinct base page once.
        slot_of: dict[tuple[int, int], int] = {}
        for checkpoint_id, indices in by_checkpoint.items():
            for index in indices:
                entry = table.entries[index]
                assert entry.base is not None
                slot_of.setdefault((checkpoint_id, entry.base.page_index), None)
        # Arena layout: [base-page slots | output image].
        bases_off = 0
        out_off = len(slot_of) * page_size
        token, view = self.executor.ensure_arena(out_off + num_pages * page_size)
        out = view[out_off : out_off + num_pages * page_size]
        out[:] = 0

        for slot, key in enumerate(slot_of):
            slot_of[key] = slot
            page = agent.base_page_bytes(agent.store.get(key[0]), key[1])
            start = bases_off + slot * page_size
            view[start : start + page_size] = np.frombuffer(page, np.uint8)

        # Unique pages are parent-local bytes; write them directly.
        table.write_unique_pages(out)

        jobs: list = []
        for checkpoint_id, indices in by_checkpoint.items():
            for index in indices:
                entry = table.entries[index]
                assert entry.base is not None and entry.patch is not None
                slot = slot_of[(checkpoint_id, entry.base.page_index)]
                jobs.append((index, slot, entry.patch))

        in_flight = 0
        for batch_start in range(0, len(jobs), self.config.batch_pages):
            self.executor.submit(
                ("apply", batch_start, token, bases_off, out_off, page_size,
                 jobs[batch_start : batch_start + self.config.batch_pages])
            )
            in_flight += 1
        while in_flight:
            self.executor.next_result()
            in_flight -= 1

        return np.array(out, dtype=np.uint8, copy=True)
