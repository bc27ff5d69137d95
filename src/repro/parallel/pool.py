"""Worker pool of the parallel data plane.

The pool runs the *content kernels* of the dedup/restore hot path —
fingerprint scan + chunk digests, patch compute, patch apply — in
forked worker processes.  Page bytes never cross the process boundary:
every task names a shared-memory arena (:mod:`repro.parallel.arena`)
plus offsets, and workers map the same segment.  Only small results
travel back (digest tuples, accepted patches, acks).

Work distribution is a single shared task queue: any idle worker takes
the next batch, which is work stealing in its simplest form — a slow
batch (anchor-matching-heavy pages, say) occupies one worker while the
rest drain the remaining batches.

Tasks and results are plain tuples (cheap to pickle, no class identity
problems across fork/spawn):

==========  =====================================================
task        layout
==========  =====================================================
fingerprint ``("fp", batch, token, data_off, lo, hi, rel_pages,
            page_size, config)`` → ``("fp", batch, (digests,
            offsets, counts))`` — flat uint64/int64 arrays delimited
            per page by ``counts``, aligned with ``rel_pages`` (one
            pickled buffer each instead of per-page tuples)
patch       ``("patch", batch, token, data_off, bases_off,
            page_size, level, unique_cap, jobs)`` with ``jobs =
            [(page_index, slot, anchor_key), ...]`` →
            ``("patch", batch, [Patch | None, ...])`` — ``None``
            marks a patch that hit the unique-page cutoff (the
            parent re-slices the raw page locally; degenerate
            patches are never pickled)
apply       ``("apply", batch, token, bases_off, out_off,
            page_size, jobs)`` with ``jobs = [(page_index, slot,
            patch), ...]`` → ``("apply", batch)``; pages are
            written straight into the arena's output region
error       any failure → ``("err", batch, traceback_str)``,
            re-raised in the parent as :class:`WorkerError`
==========  =====================================================

:func:`run_task` is the single kernel dispatcher, shared by workers and
by the inline (``workers=1``) executor so both engines execute literally
the same code over the same layouts.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import queue
import time
import traceback
from typing import Callable, ClassVar

import numpy as np

from repro._util import LruCache
from repro.memory.fingerprint import batch_fingerprint_arrays
from repro.memory.patch import AnchorIndex, apply_patch_into, cached_anchor_index, compute_patches

#: Per-worker anchor-index cache (pages).  Keyed by (checkpoint_id,
#: page_index, level); checkpoint ids are never reused in a parent
#: process, so entries can go cold but never stale.  An entry builds its
#: halves during later ops, on other arenas: it holds its own copy of
#: the base page (made once, on the miss), never a view of the arena.
WORKER_ANCHOR_CACHE_PAGES = 1024

#: Arena segments a worker keeps mapped.  Ops only reference the arena
#: that is current at submit time, so a small cache of recent segments
#: (several agents may interleave ops on distinct arenas) suffices.
_MAX_WORKER_SEGMENTS = 4

#: Liveness-check interval while waiting for results.
_POLL_S = 1.0


class WorkerError(RuntimeError):
    """A kernel failed in a worker (carries the worker traceback)."""


def run_task(
    task: tuple,
    resolve: Callable[[str | None], np.ndarray],
    anchor_cache: LruCache,
) -> tuple:
    """Execute one data-plane task against an arena view.

    ``resolve(token)`` maps an arena token to its flat uint8 view —
    a shared-memory attach in workers, the local buffer inline.
    """
    kind = task[0]
    if kind == "fp":
        _, batch, token, data_off, lo, hi, rel_pages, page_size, config = task
        view = resolve(token)
        window = view[data_off + lo * page_size : data_off + hi * page_size]
        arrays = batch_fingerprint_arrays(
            window, page_size, config, pages=np.asarray(rel_pages, dtype=np.int64)
        )
        return ("fp", batch, arrays)
    if kind == "patch":
        _, batch, token, data_off, bases_off, page_size, level, unique_cap, jobs = task
        view = resolve(token)
        targets = []
        bases = []
        for page_index, slot, _key in jobs:
            t0 = data_off + page_index * page_size
            b0 = bases_off + slot * page_size
            targets.append(view[t0 : t0 + page_size])
            bases.append(view[b0 : b0 + page_size])

        def index_for(j: int) -> AnchorIndex:
            # ``bases[j]`` is a writable arena view: a new entry copies it.
            return cached_anchor_index(anchor_cache, jobs[j][2], bases[j], level)

        patches = compute_patches(
            targets, bases, level=level, index_provider=index_for, max_size=unique_cap
        )
        return (
            "patch",
            batch,
            [patch if patch.size_bytes < unique_cap else None for patch in patches],
        )
    if kind == "apply":
        _, batch, token, bases_off, out_off, page_size, jobs = task
        view = resolve(token)
        for page_index, slot, patch in jobs:
            b0 = bases_off + slot * page_size
            o0 = out_off + page_index * page_size
            apply_patch_into(
                patch, view[b0 : b0 + page_size], view[o0 : o0 + patch.target_len]
            )
        return ("apply", batch)
    raise ValueError(f"unknown task kind {kind!r}")


def _worker_main(tasks: mp.Queue, results: mp.Queue, forked: bool) -> None:
    """Worker loop: map arenas lazily, run kernels until the stop sentinel."""
    from repro.parallel.arena import attach_segment

    segments: dict[str, object] = {}
    anchor_cache: LruCache = LruCache(WORKER_ANCHOR_CACHE_PAGES)

    def resolve(token: str | None) -> np.ndarray:
        assert token is not None, "pool tasks must reference a shared arena"
        shm = segments.get(token)
        if shm is None:
            while len(segments) >= _MAX_WORKER_SEGMENTS:
                _, old = segments.popitem()
                old.close()
            shm = attach_segment(token, forked=forked)
            segments[token] = shm
        return np.frombuffer(shm.buf, dtype=np.uint8)

    while True:
        task = tasks.get()
        if task is None:
            break
        try:
            result = run_task(task, resolve, anchor_cache)
        except BaseException:
            results.put(("err", task[1], traceback.format_exc()))
            continue
        results.put(result)
    for shm in segments.values():
        shm.close()


class WorkerPool:
    """A pool of forked kernel workers around one shared task queue."""

    #: Process-wide pools by worker count, so property tests and
    #: benchmarks that build many agents reuse forked workers instead
    #: of paying a fork per agent.  Cleaned up atexit.
    _shared: ClassVar[dict[int, "WorkerPool"]] = {}
    _atexit_registered: ClassVar[bool] = False

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be positive")
        forked = "fork" in mp.get_all_start_methods()
        ctx = mp.get_context("fork" if forked else None)
        self.workers = workers
        self.tasks: mp.Queue = ctx.Queue()
        self.results: mp.Queue = ctx.Queue()
        self.procs = [
            ctx.Process(
                target=_worker_main,
                args=(self.tasks, self.results, forked),
                daemon=True,
            )
            for _ in range(workers)
        ]
        for proc in self.procs:
            proc.start()
        self._closed = False

    @property
    def alive(self) -> bool:
        return not self._closed and all(proc.is_alive() for proc in self.procs)

    @classmethod
    def shared(cls, workers: int) -> "WorkerPool":
        """The process-wide pool for ``workers``, (re)forking if needed."""
        pool = cls._shared.get(workers)
        if pool is None or not pool.alive:
            pool = cls(workers)
            cls._shared[workers] = pool
            if not cls._atexit_registered:
                atexit.register(cls.shutdown_all)
                cls._atexit_registered = True
        return pool

    @classmethod
    def shutdown_all(cls) -> None:
        for pool in list(cls._shared.values()):
            pool.shutdown()
        cls._shared.clear()

    def submit(self, task: tuple) -> None:
        self.tasks.put(task)

    def next_result(self, timeout_s: float = 600.0) -> tuple:
        """Block for the next result; fail fast if a worker died.

        Results arrive in completion order, not submission order —
        callers match them up by the batch id in slot 1.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                result = self.results.get(timeout=_POLL_S)
            except queue.Empty:
                if not self.alive:
                    raise WorkerError("worker process died while tasks were in flight")
                if time.monotonic() > deadline:
                    raise WorkerError(f"no result within {timeout_s:.0f}s")
                continue
            if result[0] == "err":
                raise WorkerError(
                    f"worker task (batch {result[1]}) failed:\n{result[2]}"
                )
            return result

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self.procs:
            try:
                self.tasks.put(None)
            except (ValueError, OSError):  # queue already torn down
                break
        for proc in self.procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for q in (self.tasks, self.results):
            q.cancel_join_thread()
            q.close()
        if WorkerPool._shared.get(self.workers) is self:  # noqa: SLF001 — own class
            WorkerPool._shared.pop(self.workers)  # noqa: SLF001 — own class
