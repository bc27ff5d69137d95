"""The columnar request log against the dict-of-records oracle.

``RunMetrics.requests`` keeps only in-flight requests as objects; a
completed request is one row of numpy columns.  Hypothesis draws
interleavings of arrive, start, re-queue and complete — every start type
and ``None``, tied arrival and completion times, ids out of arrival
order, requests left in flight, displaced requests that start again on
the same record — and every reader, and the mapping itself, must equal
the readers of the dict the log replaced (``tests/oracles``).
"""

from __future__ import annotations

import gc
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.platform.config import ClusterConfig
from repro.platform.metrics import (
    RequestRecord,
    RunMetrics,
    StartType,
    improvement_factors,
)
from repro.platform.platform import PlatformKind, build_platform
from repro.platform.report_io import metrics_to_dict
from repro.workload.azure import ClusterTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Request, Trace
from tests.conftest import check_every_instant
from tests.oracles import request_records as oracle

FUNCTIONS = ("f", "g", "h")
IDS = st.permutations(range(40))
TIMES = st.sampled_from((0.0, 0.5, 1.0, 3.0, 10.0))
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), st.sampled_from(FUNCTIONS), TIMES),
        st.tuples(
            st.just("start"),
            st.integers(0, 40),
            st.sampled_from((None, *StartType)),
            TIMES,
            TIMES,
        ),
        st.tuples(st.just("requeue"), st.integers(0, 40), TIMES),
        st.tuples(st.just("complete"), st.integers(0, 40), TIMES, TIMES),
    ),
    max_size=40,
)


def replay(ids, steps) -> tuple[RunMetrics, dict[int, RequestRecord], list[RequestRecord]]:
    """Drive a :class:`RunMetrics` the way the controller does.

    Returns the metrics, the dict of every record in arrival order (what
    ``metrics.requests`` used to be) and the completed records in
    completion order.
    """
    metrics = RunMetrics(platform_name="t")
    requests: dict[int, RequestRecord] = {}
    in_flight: list[RequestRecord] = []
    done: list[RequestRecord] = []
    fresh = iter(ids)
    now = 0.0
    for step in steps:
        if step[0] == "arrive":
            _, function, gap = step
            now += gap
            record = metrics.on_arrival(next(fresh), function, now)
            requests[record.request_id] = record
            in_flight.append(record)
        elif not in_flight:
            continue
        elif step[0] == "start":
            _, pick, start, queued, startup = step
            record = in_flight[pick % len(in_flight)]
            record.start_type = start
            record.queued_ms = queued
            record.startup_ms = startup + record.retry_penalty_ms
        elif step[0] == "requeue":
            # A node crash displaces the request: the same record queues
            # again, keeps its last start type, and is charged the retry.
            _, pick, penalty = step
            in_flight[pick % len(in_flight)].retry_penalty_ms += penalty
        else:
            _, pick, exec_ms, gap = step
            record = in_flight.pop(pick % len(in_flight))
            record.exec_ms = exec_ms
            now += gap
            metrics.on_completion(record, now)
            done.append(record)
    return metrics, requests, done


def same(ours: float, theirs: float) -> bool:
    return ours == theirs or (math.isnan(ours) and math.isnan(theirs))


@given(ids=IDS, steps=STEPS)
def test_mapping_equals_the_dict(ids, steps):
    metrics, requests, _ = replay(ids, steps)
    log = metrics.requests
    assert list(log.items()) == list(requests.items())
    assert list(log) == list(requests)
    assert list(log.values()) == list(requests.values())
    assert len(log) == len(requests)
    assert dict(log.items()) == requests
    for request_id in range(-1, 41):
        assert log.get(request_id) == requests.get(request_id)
        assert (request_id in log) == (request_id in requests)
        if request_id in requests:
            assert log[request_id] == requests[request_id]
        else:
            with pytest.raises(KeyError):
                log[request_id]


@given(ids=IDS, steps=STEPS)
def test_every_reader_equals_the_oracle(ids, steps):
    metrics, requests, done = replay(ids, steps)
    assert metrics.completed_records() == oracle.completed_records(requests)
    assert metrics.functions() == oracle.functions(requests)
    assert metrics.outstanding_requests == len(requests) - len(done)
    # Key order is report order (``metrics_to_dict`` dumps the dict).
    assert list(metrics.cold_starts_by_function().items()) == list(
        oracle.cold_starts_by_function(requests).items()
    )
    for function in (None, *FUNCTIONS, "missing"):
        assert metrics.start_counts(function) == oracle.start_counts(requests, function)
        assert metrics.cold_starts(function) == oracle.cold_starts(requests, function)
        for pct in (0, 37.5, 50, 99, 100):
            assert same(
                metrics.e2e_percentile(pct, function),
                oracle.e2e_percentile(requests, pct, function),
            )
            assert same(
                metrics.startup_percentile(pct, function),
                oracle.startup_percentile(requests, pct, function),
            )
            for start in (None, *StartType):
                for metric in ("e2e", "startup", "queued"):
                    assert same(
                        metrics.latency_percentile(
                            pct, start_type=start, metric=metric, function=function
                        ),
                        oracle.latency_percentile(
                            requests, pct, start_type=start, metric=metric, function=function
                        ),
                    )
    report = metrics_to_dict(metrics, include_requests=True)
    assert report["requests"] == oracle.request_rows(requests)
    assert report["requests_completed"] == len(done)


@given(ids=IDS, steps=STEPS)
def test_rows_stay_in_completion_order(ids, steps):
    metrics, _, done = replay(ids, steps)
    timeline = metrics.completion_timeline
    assert len(timeline) == len(done)
    assert timeline.column("request_id").tolist() == [r.request_id for r in done]
    assert timeline.column("time_ms").tolist() == [r.completion_ms for r in done]
    assert timeline.column("e2e_ms").tolist() == [r.e2e_ms for r in done]
    assert timeline.column("startup_ms").tolist() == [r.startup_ms for r in done]


@given(ids=IDS, steps=STEPS, other_ids=IDS, other_steps=STEPS)
def test_improvement_factors_pair_by_id(ids, steps, other_ids, other_steps):
    baseline, base_requests, _ = replay(ids, steps)
    improved, other_requests, _ = replay(other_ids, other_steps)
    for function in (None, *FUNCTIONS, "missing"):
        assert improvement_factors(baseline, improved, function) == (
            oracle.improvement_factors(base_requests, other_requests, function)
        )


@given(ids=IDS, steps=STEPS)
def test_run_metrics_equality(ids, steps):
    first, requests, _ = replay(ids, steps)
    second, _, _ = replay(ids, steps)
    assert first == second
    if requests:
        second.on_arrival(99, "f", 0.0)
        assert first != second


def test_iteration_is_arrival_order_not_completion_order():
    """Ids out of order, tied arrival times, completions in a third
    order and one request left in flight."""
    metrics = RunMetrics(platform_name="t")
    records = {rid: metrics.on_arrival(rid, "f", 5.0) for rid in (7, 2, 9, 4)}
    for rid in (4, 9, 7):
        records[rid].start_type = StartType.WARM
        metrics.on_completion(records[rid], 6.0)
    assert list(metrics.requests) == [7, 2, 9, 4]
    assert [r.request_id for r in metrics.requests.values()] == [7, 2, 9, 4]
    assert [r.request_id for r in metrics.completed_records()] == [7, 9, 4]
    assert metrics.completion_timeline.column("request_id").tolist() == [4, 9, 7]


def test_equality_sees_completion_order():
    """Requests tied at the same completion time that finish in another
    order make another run: the startup mean sums in completion order."""

    def run(order):
        metrics = RunMetrics(platform_name="t")
        records = [metrics.on_arrival(rid, "f", 0.0) for rid in range(3)]
        for index in order:
            metrics.on_completion(records[index], 1.0)
        return metrics

    assert run((0, 1, 2)) == run((0, 1, 2))
    assert run((0, 1, 2)) != run((2, 0, 1))


def test_a_record_completes_once():
    metrics = RunMetrics(platform_name="t")
    record = metrics.on_arrival(0, "f", 0.0)
    metrics.on_completion(record, 1.0)
    with pytest.raises(RuntimeError, match="completed twice"):
        metrics.on_completion(record, 2.0)


def test_drained_replay_keeps_no_record_objects():
    """After a fixed keep-alive replay drains, no request is an object:
    the controller dropped every record it completed, and so did the
    log."""
    suite = FunctionBenchSuite.replicated(FunctionBenchSuite.default().names(), 20)
    trace = ClusterTraceGenerator(seed=17).generate(
        6.0, suite.names(), target_requests=6_000
    )
    config = ClusterConfig(nodes=32, node_memory_mb=3072.0, content_scale=1.0 / 1024.0)
    platform = build_platform(PlatformKind.FIXED_KEEP_ALIVE, config, suite)

    def records_alive() -> int:
        gc.collect()
        return sum(isinstance(o, RequestRecord) for o in gc.get_objects())

    alive = records_alive()
    platform.run(trace)
    assert len(trace) >= 5_000
    assert platform.metrics.outstanding_requests == 0
    assert len(platform.metrics.completion_timeline) == len(trace)
    assert records_alive() == alive


def test_replay_builds_no_request_and_holds_each_record_once(monkeypatch):
    """The trace stays columns through a replay: no ``Request`` row is
    made.  At every instant, the controller holds each queued or
    scheduled request as the log's own in-flight record, once (the
    ``requests held`` recount of ``repro.invariants.check``)."""
    trace = Trace.from_arrivals([(float(i * 10), "LinAlg") for i in range(12)])
    config = ClusterConfig(nodes=1, node_memory_mb=256.0, content_scale=1.0 / 1024.0)
    suite = FunctionBenchSuite.subset(["LinAlg"])
    platform = build_platform(PlatformKind.FIXED_KEEP_ALIVE, config, suite)
    held = check_every_instant(
        platform, lambda p: (len(p.controller._queue), len(p.controller._inflight))
    )

    def no_rows(*args, **kwargs):
        raise AssertionError("a replay built a Request")

    monkeypatch.setattr(Request, "__init__", no_rows)
    platform.run(trace)
    assert max(queued for queued, _ in held) > 0, "no request ever queued"
    assert max(scheduled for _, scheduled in held) > 1
    assert len(platform.metrics.completion_timeline) == len(trace)
