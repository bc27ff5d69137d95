"""Tests for the discrete-event engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import _COMPACT_MIN_CANCELLED, SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(5.0, lambda: order.append("b"))
        sim.at(1.0, lambda: order.append("a"))
        sim.at(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.at(3.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.at(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]
        assert sim.now == 7.5

    def test_after_relative(self):
        sim = Simulator(start_time=100.0)
        seen = []
        sim.after(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [105.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.after(1.0, lambda: order.append("inner"))

        sim.at(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_arbitrary_schedules_run_sorted(self, times):
        sim = Simulator()
        seen = []
        for t in times:
            sim.at(t, lambda t=t: seen.append(t))
        sim.run()
        assert seen == sorted(times)


class TestTimers:
    def test_cancel_prevents_execution(self):
        sim = Simulator()
        fired = []
        timer = sim.after(5.0, lambda: fired.append(1))
        timer.cancel()
        sim.run()
        assert not fired
        assert timer.cancelled

    def test_pending_reflects_state(self):
        sim = Simulator()
        timer = sim.after(5.0, lambda: None)
        assert timer.pending
        sim.run()
        assert not timer.pending

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        timer = sim.after(1.0, lambda: fired.append(1))
        sim.run()
        timer.cancel()
        assert fired == [1]


class TestPeriodic:
    def test_every_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now))
        sim.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_every_cancel_stops_series(self):
        sim = Simulator()
        ticks = []
        timer = sim.every(10.0, lambda: ticks.append(sim.now))
        sim.run_until(25.0)
        timer.cancel()
        sim.run_until(100.0)
        assert ticks == [10.0, 20.0]

    def test_every_rejects_bad_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_every_cancel_from_inside_callback_stops_series(self):
        """Regression: cancelling the series from its own callback used
        to be ignored — tick() re-armed onto a fresh entry after the
        callback returned, so the cancelled flag was lost and the series
        ran forever."""
        sim = Simulator()
        ticks = []
        holder = {}

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                holder["timer"].cancel()

        holder["timer"] = sim.every(10.0, tick)
        sim.run_until(100.0)
        assert ticks == [10.0, 20.0]
        assert sim.pending_events == 0


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, lambda: fired.append("early"))
        sim.at(15.0, lambda: fired.append("late"))
        sim.run_until(10.0)
        assert fired == ["early"]
        assert sim.now == 10.0
        sim.run_until(20.0)
        assert fired == ["early", "late"]

    def test_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.at(10.0, lambda: fired.append(1))
        sim.run_until(10.0)
        assert fired == [1]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_event_budget_guard(self):
        sim = Simulator()

        def rearm():
            sim.after(1.0, rearm)

        sim.after(1.0, rearm)
        with pytest.raises(SimulationError, match="budget"):
            sim.run(max_events=100)

    def test_budget_ignores_cancelled_entries(self):
        """Regression: ``run(max_events=N)`` used to raise "event budget
        exhausted" when the heap held nothing but lazily-cancelled
        entries — the guard only checked heap emptiness, counting
        garbage as pending work."""
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.at(float(i), lambda i=i: fired.append(i))
        timers = [sim.at(100.0 + i, lambda: fired.append("cancelled")) for i in range(20)]
        for timer in timers:
            timer.cancel()
        sim.run(max_events=5)  # must complete, not raise
        assert fired == [0, 1, 2, 3, 4]
        assert sim.pending_events == 0
        assert sim.cancelled_events == 0

    def test_budget_still_raises_with_live_events(self):
        sim = Simulator()
        for i in range(10):
            sim.at(float(i), lambda: None)
        cancelled = sim.at(50.0, lambda: None)
        cancelled.cancel()
        with pytest.raises(SimulationError, match=r"6 live events.*1 cancelled"):
            sim.run(max_events=4)


class TestCancelledBookkeeping:
    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        live = sim.at(1.0, lambda: None)
        dead = sim.at(2.0, lambda: None)
        dead.cancel()
        assert sim.pending_events == 1
        assert sim.cancelled_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.cancelled_events == 0
        assert not live.pending

    def test_compaction_drops_cancelled_entries(self):
        """Once cancelled entries dominate a large heap, the heap is
        rebuilt without them instead of waiting for lazy pops."""
        sim = Simulator()
        doomed = [sim.at(10.0 + i, lambda: None) for i in range(_COMPACT_MIN_CANCELLED)]
        keep = [sim.at(5.0 + i, lambda: None) for i in range(10)]
        for timer in doomed:
            timer.cancel()
        # Compaction triggered by the last cancel: heap shrank in place.
        assert len(sim._heap) == len(keep)
        assert sim.cancelled_events == 0
        assert sim.pending_events == len(keep)
        # The surviving entries still dispatch in order.
        for _ in range(len(keep)):
            assert sim.step()
        assert sim.events_processed == len(keep)
        assert not sim.step()

    def test_small_heaps_not_compacted(self):
        sim = Simulator()
        timers = [sim.at(1.0 + i, lambda: None) for i in range(10)]
        for timer in timers:
            timer.cancel()
        # Below _COMPACT_MIN_CANCELLED: entries stay until popped.
        assert len(sim._heap) == 10
        assert sim.pending_events == 0
        sim.run()
        assert len(sim._heap) == 0


class TestScheduleStream:
    @staticmethod
    def _eager_and_streamed(times, column):
        eager_sim = Simulator()
        eager_seen = []
        for i, t in enumerate(times):
            eager_sim.at(t, lambda i=i: eager_seen.append((eager_sim.now, i)))
        eager_sim.run()

        stream_sim = Simulator()
        stream_seen = []
        stream_sim.schedule_stream(
            column,
            lambda i: lambda: stream_seen.append((stream_sim.now, i)),
            chunk_size=3,
        )
        stream_sim.run()
        return eager_seen, stream_seen

    def test_stream_matches_eager_order(self):
        times = [1.0, 2.0, 2.0, 3.0, 7.5, 7.5, 7.5, 9.0]
        eager_seen, stream_seen = self._eager_and_streamed(times, times)
        assert stream_seen == eager_seen

    def test_stream_numpy_column_matches_eager_order(self):
        """A numpy column streams like a list, on Python-float times."""
        times = [1.0, 2.0, 2.0, 3.0, 7.5, 7.5, 7.5, 9.0]
        eager_seen, stream_seen = self._eager_and_streamed(times, np.array(times))
        assert stream_seen == eager_seen
        assert {type(now) for now, _ in stream_seen} == {float}

    def test_stream_occupies_one_heap_slot(self):
        times = [float(i) for i in range(100)]
        sim = Simulator()
        sim.schedule_stream(times, lambda i: lambda: None, chunk_size=8)
        assert sim.pending_events == 1
        sim.run()
        assert sim.events_processed == 100

    def test_stream_reserves_sequence_numbers(self):
        """Events scheduled *after* the stream tie-break behind in-stream
        same-time events, exactly as if the stream had been eager."""
        sim = Simulator()
        order = []
        sim.schedule_stream(
            [1.0, 5.0, 5.0], lambda i: lambda: order.append(f"s{i}"), chunk_size=1
        )
        sim.at(5.0, lambda: order.append("late"))
        sim.run()
        assert order == ["s0", "s1", "s2", "late"]

    def test_stream_announces_each_chunk_before_making_it(self):
        """``on_chunk(start, stop)`` precedes the chunk's ``make_callback``
        calls, each of which is made when its entry fires, and the chunks
        tile the stream."""
        sim = Simulator()
        log = []

        def make(i):
            log.append(i)
            return lambda: None

        sim.schedule_stream(
            [float(i) for i in range(7)],
            make,
            chunk_size=3,
            on_chunk=lambda start, stop: log.append((start, stop)),
        )
        assert log == [(0, 3)]
        sim.run()
        assert log == [(0, 3), 0, 1, 2, (3, 6), 3, 4, 5, (6, 7), 6]

    def test_stream_rejects_unsorted(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="unsorted"):
            sim.schedule_stream([5.0, 1.0], lambda i: lambda: None, chunk_size=10)
            sim.run()

    def test_stream_empty_and_bad_chunk(self):
        sim = Simulator()
        assert sim.schedule_stream([], lambda i: lambda: None) == 0
        with pytest.raises(SimulationError):
            sim.schedule_stream([1.0], lambda i: lambda: None, chunk_size=0)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e5), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=7),
    )
    def test_stream_bit_identical_to_eager(self, times, chunk):
        times = sorted(times)
        eager_sim = Simulator()
        eager_seen = []
        for i, t in enumerate(times):
            eager_sim.at(t, lambda i=i: eager_seen.append((eager_sim.now, i)))
        eager_sim.run()

        stream_sim = Simulator()
        stream_seen = []
        stream_sim.schedule_stream(
            times,
            lambda i: lambda: stream_seen.append((stream_sim.now, i)),
            chunk_size=chunk,
        )
        stream_sim.run()
        assert stream_seen == eager_seen
        assert stream_sim.events_processed == eager_sim.events_processed

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.sampled_from(("none", "after0", "same", "later")),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_stream_with_follow_ups_fires_like_eager(self, entries, chunk):
        """Stream entries that schedule ``after(0)`` and same-time ``at``
        events, some tying with later entries, and an event scheduled
        after the stream at its last time: the cursor fires all of them
        in eager scheduling's order and count."""
        entries = sorted(entries, key=lambda entry: entry[0])
        times = [float(time) for time, _ in entries]

        def replay(schedule):
            sim = Simulator()
            seen = []

            def entry(i):
                def fire():
                    seen.append(("stream", i, sim.now))
                    kind = entries[i][1]
                    if kind == "after0":
                        sim.after(0.0, lambda: seen.append(("after0", i, sim.now)))
                    elif kind == "same":
                        sim.at(sim.now, lambda: seen.append(("same", i, sim.now)))
                    elif kind == "later":
                        sim.at(sim.now + 1.0, lambda: seen.append(("later", i, sim.now)))

                return fire

            schedule(sim, entry)
            sim.at(times[-1], lambda: seen.append(("outside", -1, sim.now)))
            sim.run()
            return seen, sim.events_processed

        def eager(sim, entry):
            for i, time in enumerate(times):
                sim.at(time, entry(i))

        def streamed(sim, entry):
            sim.schedule_stream(times, entry, chunk_size=chunk)

        assert replay(streamed) == replay(eager)
