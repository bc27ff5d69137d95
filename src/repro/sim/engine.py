"""Discrete-event simulation engine.

A small, deterministic event loop: events are (time, sequence) ordered on
a binary heap, callbacks run strictly in that order, and timers can be
cancelled (lazily — cancelled entries are skipped on pop).  All of the
cluster — request arrivals, sandbox lifecycles, keep-alive expiries,
dedup/restore completions — runs on one :class:`Simulator`.

The loop is built to survive cluster-scale replays (millions of events):

* **Batched dispatch** — :meth:`Simulator.run` and
  :meth:`Simulator.run_until` pop and dispatch events in one tight loop
  with locally-bound heap operations, touching ``now`` only when the
  timestamp actually advances and flushing the processed-event counter
  once per drain instead of once per event.
* **Heap compaction** — cancelled entries are dropped lazily on pop, but
  when they come to dominate a large heap the whole heap is compacted in
  place, so long runs with heavy timer churn (idle/keep-alive timers
  cancelled by dispatch) don't accumulate garbage.
* **Streamed scheduling** — :meth:`Simulator.schedule_stream` schedules a
  large time-sorted sequence of callbacks while keeping only a small
  window of entries resident, *bit-identical* to scheduling them all up
  front: the sequence numbers for the whole stream are reserved at call
  time, so every entry gets exactly the (time, seq) pair eager
  scheduling would have given it, and same-time ties against unrelated
  events resolve identically.

Times are floating-point **milliseconds** throughout the reproduction.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence


class SimulationError(RuntimeError):
    """Raised for inconsistent use of the simulator (e.g. past scheduling)."""


class Timer:
    """A scheduled event, and the handle that cancels it.

    The heap holds ``(time, seq, timer)`` tuples: ``seq`` is unique, so
    ordering is settled on the first two elements, compared in C, and
    the timer itself is never compared.
    """

    __slots__ = ("time", "cancelled", "_callback", "_queued", "_sim")

    def __init__(self, time: float, callback: Callable[[], None], sim: "Simulator"):
        self.time = time
        """Absolute fire time in ms."""
        self.cancelled = False
        self._callback = callback
        self._queued = True  # occupies a heap slot: not yet popped
        self._sim = sim

    @property
    def pending(self) -> bool:
        """True if the event has not fired and not been cancelled."""
        return self._queued and not self.cancelled

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired.

        The flag is still set on a fired timer — :meth:`Simulator.every`
        reads it to stop a series cancelled from its own callback — but
        only timers actually occupying a heap slot count toward the
        simulator's cancelled-entry bookkeeping.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._queued:
            self._sim._note_cancelled()


#: Compact the heap only once this many cancelled entries accumulated
#: (small heaps aren't worth rebuilding) ...
_COMPACT_MIN_CANCELLED = 512
#: ... and only when cancelled entries are at least this fraction of it.
_COMPACT_FRACTION = 0.5

#: Default window of a :meth:`Simulator.schedule_stream` call: how many
#: entries of the stream are resident on the heap at once.
STREAM_CHUNK = 4096


class Simulator:
    """Deterministic discrete-event loop with millisecond timestamps."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Timer]] = []
        self._next_seq = 0
        self._events_processed = 0
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current simulation time in ms."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live events still queued (lazily-cancelled entries excluded)."""
        return len(self._heap) - self._cancelled

    @property
    def cancelled_events(self) -> int:
        """Cancelled entries still occupying heap slots (awaiting lazy
        drop on pop, or the next compaction)."""
        return self._cancelled

    # --------------------------------------------------------- bookkeeping

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled >= _COMPACT_FRACTION * len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place (slice assignment) so the locally-bound heap lists in
        the dispatch loops stay valid even when a callback's cancels
        trigger compaction mid-drain.
        """
        self._heap[:] = [item for item in self._heap if not item[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    # ---------------------------------------------------------- scheduling

    def at(self, time: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` at absolute time ``time`` (>= now)."""
        now = self._now
        if time < now:
            if time < now - 1e-9:
                raise SimulationError(f"cannot schedule at {time} < now {now}")
            time = now
        seq = self._next_seq
        self._next_seq = seq + 1
        timer = Timer(time, callback, self)
        heapq.heappush(self._heap, (time, seq, timer))
        return timer

    def after(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` after ``delay`` ms."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + delay, callback)

    def every(self, interval: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` every ``interval`` ms until cancelled.

        One timer carries the whole series: each tick puts it back on
        the heap for the next occurrence, so cancelling it — from
        outside or from ``callback`` itself — stops the series.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval}")

        def tick() -> None:
            callback()
            if timer.cancelled:
                return
            timer.time = self._now + interval
            timer._queued = True  # noqa: SLF001 — Timer's own module
            seq = self._next_seq
            self._next_seq = seq + 1
            heapq.heappush(self._heap, (timer.time, seq, timer))

        timer = self.after(interval, tick)
        return timer

    def schedule_stream(
        self,
        times: Sequence[float],
        make_callback: Callable[[int], Callable[[], None]],
        *,
        chunk_size: int = STREAM_CHUNK,
        on_chunk: Callable[[int, int], None] | None = None,
    ) -> int:
        """Schedule ``make_callback(i)`` at ``times[i]`` for every ``i``,
        keeping only ~``chunk_size`` entries of the stream resident.

        ``times`` must be sorted non-decreasing with ``times[0] >= now``.
        The whole stream's sequence numbers are reserved immediately:
        entry ``i`` is created with the exact (time, seq) pair that
        ``self.at(times[i], make_callback(i))`` called up front — before
        any later scheduling — would have produced, so the replay is
        bit-identical to eager scheduling while resident heap state stays
        O(chunk) instead of O(len(times)).  Entries materialize chunk by
        chunk: the last entry of each chunk pushes the next one after its
        own callback runs, and ``on_chunk(start, stop)`` is told about
        each chunk just before its entries are made (a caller batching
        per-entry preparation hooks in here).  Stream entries expose no
        :class:`Timer` and cannot be cancelled.  Returns the number of
        scheduled callbacks.
        """
        count = len(times)
        if chunk_size <= 0:
            raise SimulationError(f"non-positive chunk_size {chunk_size}")
        if count == 0:
            return 0
        base = self._next_seq
        self._next_seq = base + count
        heap = self._heap
        heappush = heapq.heappush

        def push_chunk(start: int) -> None:
            stop = min(start + chunk_size, count)
            if on_chunk is not None:
                on_chunk(start, stop)
            floor = self._now
            for i in range(start, stop):
                time = times[i]
                if time < floor:
                    if time < floor - 1e-9:
                        raise SimulationError(
                            f"stream time {time} at index {i} below {floor} (unsorted?)"
                        )
                    time = floor
                floor = time
                callback = make_callback(i)
                if i == stop - 1 and stop < count:
                    callback = _chained(callback, push_chunk, stop)
                heappush(heap, (time, base + i, Timer(time, callback, self)))

        def _chained(callback, refill, next_start):
            def run_and_refill() -> None:
                callback()
                refill(next_start)

            return run_and_refill

        push_chunk(0)
        return count

    # ----------------------------------------------------------- dispatch

    def step(self) -> bool:
        """Run the next pending event.  Returns False when queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, timer = heapq.heappop(heap)
            timer._queued = False  # noqa: SLF001 — Timer's own module
            if timer.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            self._events_processed += 1
            timer._callback()  # noqa: SLF001
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run all events with ``time <= end_time`` and advance the clock."""
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        try:
            while heap and heap[0][0] <= end_time:
                time, _seq, timer = heappop(heap)
                timer._queued = False  # noqa: SLF001 — Timer's own module
                if timer.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = time
                processed += 1
                timer._callback()  # noqa: SLF001
        finally:
            self._events_processed += processed
        self._now = max(self._now, end_time)

    def run(self, max_events: int | None = None) -> None:
        """Run until the queue drains (or ``max_events`` callbacks ran).

        Lazily-cancelled entries never count against the budget; if the
        budget runs out with only cancelled entries left, they are
        discarded and the run completes instead of raising.
        """
        remaining = max_events if max_events is not None else float("inf")
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        try:
            while heap and remaining > 0:
                time, _seq, timer = heappop(heap)
                timer._queued = False  # noqa: SLF001 — Timer's own module
                if timer.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = time
                processed += 1
                remaining -= 1
                timer._callback()  # noqa: SLF001
        finally:
            self._events_processed += processed
        if heap and remaining <= 0:
            while heap and heap[0][2].cancelled:
                heappop(heap)
                self._cancelled -= 1
            live = len(heap) - self._cancelled
            if live > 0:
                raise SimulationError(
                    f"event budget exhausted with {live} live events pending"
                    f" ({self._cancelled} cancelled)"
                )
            heap.clear()
            self._cancelled = 0
