"""The request readers over a dict of records, one record at a time.

Before the columnar :class:`~repro.platform.metrics.RequestLog`,
``RunMetrics.requests`` was a ``dict[int, RequestRecord]`` in arrival
order and every reader below walked it.  They are kept here verbatim (as
functions of that dict) so the log's column operations have a definition
to equal.  ``latency_percentile`` read a separate completion timeline;
its per-record statement is added so the ``start_type`` and
``function`` filters have one too.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro._util import percentile
from repro.platform.metrics import RequestRecord, StartType

Requests = dict[int, RequestRecord]


def completed_records(requests: Requests) -> list[RequestRecord]:
    return [r for r in requests.values() if r.completion_ms is not None]


def start_counts(requests: Requests, function: str | None = None) -> Counter[StartType]:
    counts: Counter[StartType] = Counter()
    for record in completed_records(requests):
        if record.start_type is None:
            continue
        if function is None or record.function == function:
            counts[record.start_type] += 1
    return counts


def cold_starts(requests: Requests, function: str | None = None) -> int:
    return start_counts(requests, function)[StartType.COLD]


def cold_starts_by_function(requests: Requests) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for record in completed_records(requests):
        if record.start_type is StartType.COLD:
            counts[record.function] += 1
    return dict(counts)


def e2e_percentile(requests: Requests, pct: float, function: str | None = None) -> float:
    values = [
        r.e2e_ms
        for r in completed_records(requests)
        if function is None or r.function == function
    ]
    return percentile(values, pct)


def startup_percentile(requests: Requests, pct: float, function: str | None = None) -> float:
    values = [
        r.startup_ms
        for r in completed_records(requests)
        if function is None or r.function == function
    ]
    return percentile(values, pct)


def latency_percentile(
    requests: Requests,
    pct: float,
    *,
    start_type: StartType | None = None,
    metric: str = "e2e",
    function: str | None = None,
) -> float:
    values = [
        getattr(r, f"{metric}_ms")
        for r in completed_records(requests)
        if (start_type is None or r.start_type is start_type)
        and (function is None or r.function == function)
    ]
    return percentile(values, pct)


def functions(requests: Requests) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for record in requests.values():
        seen.setdefault(record.function, None)
    return tuple(seen)


def improvement_factors(
    baseline: Requests, improved: Requests, function: str | None = None
) -> list[float]:
    factors: list[float] = []
    for request_id, base_record in baseline.items():
        other = improved.get(request_id)
        if other is None or base_record.completion_ms is None or other.completion_ms is None:
            continue
        if function is not None and base_record.function != function:
            continue
        if other.e2e_ms <= 0:
            continue
        factors.append(base_record.e2e_ms / other.e2e_ms)
    return factors


def request_rows(requests: Requests) -> list[dict]:
    """``metrics_to_dict(..., include_requests=True)["requests"]``."""
    return [
        {
            "id": record.request_id,
            "function": record.function,
            "arrival_ms": record.arrival_ms,
            "start_type": record.start_type.value if record.start_type else None,
            "queued_ms": record.queued_ms,
            "startup_ms": record.startup_ms,
            "exec_ms": record.exec_ms,
            "e2e_ms": record.e2e_ms if record.completion_ms is not None else None,
        }
        for record in requests.values()
    ]
