"""Tests for trace containers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workload.trace import Request, Trace


def make_trace(arrivals) -> Trace:
    return Trace.from_arrivals(arrivals)


class TestRequest:
    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            Request(request_id=0, function="f", arrival_ms=-1.0)


class TestTraceConstruction:
    def test_from_arrivals_sorts(self):
        trace = make_trace([(50.0, "b"), (10.0, "a")])
        assert [r.arrival_ms for r in trace] == [10.0, 50.0]
        assert [r.function for r in trace] == ["a", "b"]

    def test_ids_sequential(self):
        trace = make_trace([(5.0, "a"), (1.0, "b"), (3.0, "c")])
        assert [r.request_id for r in trace] == [0, 1, 2]

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Trace(np.array([10.0, 5.0]), np.zeros(2), ("a",), np.zeros(2))

    @pytest.mark.parametrize(
        ("columns", "match"),
        [
            ((np.array([-1.0]), np.zeros(1), ("a",), np.zeros(1)), "non-negative"),
            ((np.array([1.0, 2.0]), np.zeros(1), ("a",), np.zeros(2)), "one entry"),
            ((np.array([1.0]), np.array([1]), ("a",), np.zeros(1)), "index"),
            ((np.array([1.0]), np.zeros(1), ("a", "a"), np.zeros(1)), "duplicate"),
            ((np.array([1.0]), np.zeros(1), ("a",), np.array([-1])), "index"),
        ],
    )
    def test_malformed_columns_rejected(self, columns, match):
        with pytest.raises(ValueError, match=match):
            Trace(*columns)

    def test_columns_are_read_only(self):
        trace = make_trace([(1.0, "a"), (2.0, "b", "t")])
        for column in (trace.arrival_ms, trace.function_codes, trace.tenant_codes):
            with pytest.raises(ValueError):
                column[0] = 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.sampled_from(["a", "b", "c"]),
            ),
            max_size=50,
        )
    )
    def test_from_arrivals_always_valid(self, arrivals):
        trace = make_trace(arrivals)
        times = [r.arrival_ms for r in trace]
        assert times == sorted(times)
        assert len(trace) == len(arrivals)


class TestTraceQueries:
    @pytest.fixture
    def trace(self) -> Trace:
        return make_trace(
            [(0.0, "a"), (100.0, "b"), (200.0, "a"), (300.0, "c"), (400.0, "a")]
        )

    def test_duration(self, trace):
        assert trace.duration_ms == 400.0
        assert make_trace([]).duration_ms == 0.0

    def test_functions_first_arrival_order(self, trace):
        assert trace.functions() == ("a", "b", "c")

    def test_count_by_function(self, trace):
        assert trace.count_by_function() == {"a": 3, "b": 1, "c": 1}

    def test_window(self, trace):
        window = trace.window(100.0, 300.0)
        assert [r.function for r in window] == ["b", "a"]
        assert window[0].arrival_ms == 0.0  # re-based

    def test_merged_with(self, trace):
        other = make_trace([(50.0, "z")])
        merged = trace.merged_with(other)
        assert len(merged) == 6
        assert merged.functions()[0] == "a"

    def test_mean_rate(self, trace):
        # 5 requests over 0.4 s.
        assert trace.mean_rate_per_s() == pytest.approx(5 / 0.4)
        assert trace.mean_rate_per_s("a") == pytest.approx(3 / 0.4)


ARRIVALS = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e4),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["", "t1", "t2"]),
    ),
    max_size=40,
)


class TestRows:
    """A trace is columns; its rows read back as the requests it was
    built from, in stable time order, numbered by position."""

    @given(ARRIVALS)
    def test_rows_are_the_sorted_arrivals(self, arrivals):
        trace = make_trace(arrivals)
        ordered = sorted(arrivals, key=lambda item: item[0])
        assert list(trace) == [Request(i, *item[1::-1], item[2]) for i, item in enumerate(ordered)]
        assert [trace[i] for i in range(len(trace))] == list(trace)
        functions, tenants = trace.labels(0, len(trace))
        assert functions == [item[1] for item in ordered]
        assert tenants == [item[2] for item in ordered]

    @given(ARRIVALS)
    def test_from_arrays_matches_from_arrivals(self, arrivals):
        names = ["a", "b", "c"]
        tenant_of = {"a": "t1", "b": "", "c": "t2"}
        labelled = [(t, f, tenant_of[f]) for t, f, _ in arrivals]
        columns = Trace.from_arrays(
            np.array([t for t, _, _ in arrivals], dtype=np.float64),
            np.array([names.index(f) for _, f, _ in arrivals], dtype=np.int64),
            names,
            [tenant_of[n] for n in names],
        )
        assert columns == make_trace(labelled)

    @given(ARRIVALS, ARRIVALS)
    def test_merged_with_matches_the_merged_arrivals(self, ours, theirs):
        merged = make_trace(ours).merged_with(make_trace(theirs))
        assert merged == make_trace(
            sorted(ours, key=lambda item: item[0]) + sorted(theirs, key=lambda item: item[0])
        )

    @given(ARRIVALS)
    def test_with_tenants_relabels_by_function(self, arrivals):
        relabelled = make_trace(arrivals).with_tenants({"a": "t9", "b": ""})
        expected = [
            (t, f, {"a": "t9", "b": ""}.get(f, tenant)) for t, f, tenant in arrivals
        ]
        assert relabelled == make_trace(expected)

    def test_window_keeps_labels(self):
        trace = make_trace([(0.0, "a", "t1"), (100.0, "b", "t2"), (200.0, "a", "t1")])
        window = trace.window(50.0, 250.0)
        assert list(window) == [Request(0, "b", 50.0, "t2"), Request(1, "a", 150.0, "t1")]

    def test_index_out_of_range(self):
        trace = make_trace([(0.0, "a")])
        assert trace[-1] == trace[0]
        with pytest.raises(IndexError):
            trace[1]

    def test_empty_trace(self):
        trace = make_trace([])
        assert len(trace) == 0 and list(trace) == []
        assert trace == Trace.from_arrays(np.empty(0), np.empty(0, dtype=np.int64), [])
        assert trace.functions() == () and trace.mean_rate_per_s() == 0.0
