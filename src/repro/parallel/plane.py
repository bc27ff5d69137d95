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

from collections import Counter, deque
from typing import TYPE_CHECKING

import numpy as np

from repro._util import LruCache
from repro.memory.fingerprint import FingerprintBatch, nonzero_page_mask
from repro.parallel.arena import LocalArena, ShmArena
from repro.parallel.config import ParallelConfig
from repro.parallel.pool import WORKER_ANCHOR_CACHE_PAGES, WorkerPool, run_task

if TYPE_CHECKING:
    from repro.core.agent import DedupAgent, DedupOutcome, DedupPageTable


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

    def dedup(self, sandbox) -> "DedupOutcome":
        """The dedup op over the staged pipeline (see module docstring)."""
        from repro.core.agent import PageEntry, PageKind

        agent = self.agent
        image = sandbox.image
        assert image is not None
        page_size = image.page_size
        data = image.data
        num_pages = image.num_pages
        unique_cap = int(agent.unique_threshold * page_size)

        base_refs: Counter[int] = Counter()
        reads_by_peer: Counter[int] = Counter()
        unique_pages = patched_pages = 0
        same_fn = cross_fn = 0

        nonzero = nonzero_page_mask(data, page_size)
        zero_pages = num_pages - int(np.count_nonzero(nonzero))
        saved = zero_pages * page_size
        zero_entry = PageEntry(kind=PageKind.ZERO)
        entries: list[PageEntry | None] = [
            None if nz else zero_entry for nz in nonzero
        ]

        def keep_unique(index: int) -> None:
            nonlocal unique_pages
            start = index * page_size
            entries[index] = PageEntry(
                kind=PageKind.UNIQUE, raw=data[start : start + page_size].tobytes()
            )
            unique_pages += 1

        # Contiguous page-range batches; ranges with no nonzero page
        # produce no work.  Cutting at page boundaries keeps the marker
        # scan's per-page semantics, so batch fingerprints are identical
        # to the whole-image scan.
        batch_pages = self.config.batch_pages
        ranges: list[tuple[int, int, list[int]]] = []
        for lo in range(0, num_pages, batch_pages):
            hi = min(lo + batch_pages, num_pages)
            abs_pages = [lo + off for off, nz in enumerate(nonzero[lo:hi]) if nz]
            if abs_pages:
                ranges.append((lo, hi, abs_pages))

        # Arena layout: [image | base-page slots].  At most one slot per
        # chosen page (slots deduplicate per distinct base page).
        total_nonzero = sum(len(abs_pages) for _, _, abs_pages in ranges)
        data_off = 0
        bases_off = num_pages * page_size
        token, view = self.executor.ensure_arena(
            bases_off + total_nonzero * page_size
        )
        view[data_off : data_off + num_pages * page_size] = data

        slot_of: dict[tuple[int, int], int] = {}
        checkpoint_functions: dict[int, str] = {}
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
            _lo, _hi, abs_pages = ranges[batch]
            choices = agent.registry.choose_base_pages(
                FingerprintBatch(*arrays), agent.node_id, sandbox.domain
            )
            chosen: list = []
            for index, choice in zip(abs_pages, choices):
                if choice is None:
                    keep_unique(index)
                    continue
                ref, _overlap = choice
                if ref.node_id != agent.node_id and not agent.fabric.peer_available(
                    ref.node_id
                ):
                    keep_unique(index)
                    continue
                reads_by_peer[ref.node_id] += 1
                chosen.append((index, ref))
            if not chosen:
                return False
            jobs = []
            for index, ref in chosen:
                checkpoint_id = ref.checkpoint_id
                if checkpoint_id not in checkpoint_functions:
                    checkpoint_functions[checkpoint_id] = agent.store.get(
                        checkpoint_id
                    ).function
                key = (checkpoint_id, ref.page_index)
                slot = slot_of.get(key)
                if slot is None:
                    slot = len(slot_of)
                    slot_of[key] = slot
                    page = agent._base_page_bytes(  # noqa: SLF001 — plane is the agent's data-plane half
                        agent.store.get(checkpoint_id), ref.page_index
                    )
                    start = bases_off + slot * page_size
                    view[start : start + page_size] = np.frombuffer(page, np.uint8)
                jobs.append((index, slot, key))
            chosen_of_batch[batch] = chosen
            self.executor.submit(
                ("patch", batch, token, data_off, bases_off, page_size,
                 agent.patch_level, unique_cap, jobs)
            )
            return True

        def on_patches(batch: int, patches: list) -> None:
            nonlocal patched_pages, saved, same_fn, cross_fn
            for (index, ref), patch in zip(chosen_of_batch.pop(batch), patches):
                if patch is None:  # hit the unique-page cutoff in the worker
                    keep_unique(index)
                    continue
                entries[index] = PageEntry(kind=PageKind.PATCHED, base=ref, patch=patch)
                patched_pages += 1
                saved += page_size - patch.size_bytes
                base_refs[ref.checkpoint_id] += 1
                if checkpoint_functions[ref.checkpoint_id] == sandbox.function:
                    same_fn += 1
                else:
                    cross_fn += 1

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
            else:
                on_patches(result[1], result[2])

        assert all(entry is not None for entry in entries)
        return agent._finish_dedup(  # noqa: SLF001 — plane is the agent's data-plane half
            sandbox,
            image,
            entries,  # type: ignore[arg-type]
            base_refs=base_refs,
            reads_by_peer=reads_by_peer,
            zero_pages=zero_pages,
            unique_pages=unique_pages,
            patched_pages=patched_pages,
            same_fn=same_fn,
            cross_fn=cross_fn,
            saved=saved,
        )

    # -------------------------------------------------------------- restore

    def reconstruct(
        self, table: "DedupPageTable", by_checkpoint: dict[int, list[int]]
    ) -> np.ndarray:
        """Rebuild the image bytes of ``table`` (the restore content path).

        The caller (:meth:`DedupAgent.restore`) has already done the
        costing and failure checks; this only reconstructs bytes.
        Returns a fresh writable array of the full image.
        """
        from repro.core.agent import PageKind

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
            checkpoint = agent.store.get(key[0])
            page = agent._base_page_bytes(checkpoint, key[1])  # noqa: SLF001
            start = bases_off + slot * page_size
            view[start : start + page_size] = np.frombuffer(page, np.uint8)

        # Unique pages are parent-local bytes; write them directly.
        for index, entry in enumerate(table.entries):
            if entry.kind is PageKind.UNIQUE:
                assert entry.raw is not None
                start = out_off + index * page_size
                view[start : start + len(entry.raw)] = np.frombuffer(
                    entry.raw, np.uint8
                )

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
