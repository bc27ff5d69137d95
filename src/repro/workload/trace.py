"""Request traces: the workload container consumed by the platform.

A :class:`Trace` is an immutable, time-sorted table of requests kept as
columns: an arrival time, a function code and a tenant code per request,
plus the two name tables the codes index.  A request's id is its row.
The same trace object is replayed against Medes and every baseline so
comparisons are paired per request — the paper's Figure 7a
improvement-factor CDF relies on this pairing.

The replay path builds no per-request object from a trace: the platform
hands the controller each arrival's id and labels.  Iterating or
indexing a trace yields :class:`Request` rows for callers that want one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Request:
    """One function invocation: a row of a :class:`Trace`."""

    request_id: int
    function: str
    arrival_ms: float
    tenant: str = ""
    """Owning tenant of this invocation ("" = the anonymous tenant).
    Only read when ``ClusterConfig.dedup_domains`` partitions sharing
    by tenant domain; the default label keeps untagged traces on the
    pre-tenancy path bit-identically."""

    def __post_init__(self) -> None:
        if self.arrival_ms < 0:
            raise ValueError("arrival_ms must be non-negative")


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as one ``dtype`` column."""
    column = np.array(values, dtype=dtype)
    column.setflags(write=False)
    return column


def _codes(labels: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each label's code and the name table, in first-seen order."""
    table: dict[str, int] = {}
    codes = [table.setdefault(label, len(table)) for label in labels]
    return np.array(codes, dtype=np.int32), tuple(table)


def _recode(
    columns: Sequence[tuple[np.ndarray, tuple[str, ...]]],
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Coded columns concatenated over one merged name table."""
    table: dict[str, int] = {}
    parts = []
    for codes, names in columns:
        lut = np.array([table.setdefault(n, len(table)) for n in names], dtype=np.int32)
        parts.append(lut[codes])
    return np.concatenate(parts), tuple(table)


@dataclass(frozen=True, eq=False)
class Trace:
    """A time-sorted immutable table of requests, one row each.

    Row ``i`` is request ``i``: it arrives at ``arrival_ms[i]``, calls
    ``names[function_codes[i]]`` and belongs to tenant
    ``tenants[tenant_codes[i]]``.  A name table may hold names no row
    uses, but no name twice.
    """

    arrival_ms: np.ndarray
    function_codes: np.ndarray
    names: tuple[str, ...]
    tenant_codes: np.ndarray
    tenants: tuple[str, ...] = ("",)

    def __post_init__(self) -> None:
        times = _frozen(self.arrival_ms, np.float64)
        functions = _frozen(self.function_codes, np.int32)
        tenants = _frozen(self.tenant_codes, np.int32)
        count = times.size
        if times.ndim != 1:
            raise ValueError("arrival_ms must be one column")
        if count and not bool((times >= 0).all()):
            raise ValueError("arrival_ms must be non-negative")
        if count > 1 and bool((np.diff(times) < 0).any()):
            raise ValueError("trace requests must be sorted by arrival time")
        columns = ((functions, self.names, "function"), (tenants, self.tenants, "tenant"))
        for codes, table, what in columns:
            if codes.shape != (count,):
                raise ValueError(f"{what} codes must have one entry per request")
            if count and not 0 <= codes.min() <= codes.max() < len(table):
                raise ValueError(f"{what} codes must index the {what} names")
            if len(set(table)) != len(table):
                raise ValueError(f"duplicate {what} names")
        object.__setattr__(self, "arrival_ms", times)
        object.__setattr__(self, "function_codes", functions)
        object.__setattr__(self, "tenant_codes", tenants)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "tenants", tuple(self.tenants))

    @classmethod
    def from_arrivals(
        cls, arrivals: list[tuple[float, str]] | list[tuple[float, str, str]]
    ) -> "Trace":
        """Build a trace from (arrival_ms, function[, tenant]) tuples.

        Tuples may mix 2- and 3-element forms; the 2-element form keeps
        the default (anonymous) tenant label.  Ties keep input order.
        """
        ordered = sorted(arrivals, key=lambda item: item[0])
        functions, names = _codes([item[1] for item in ordered])
        tenants, table = _codes([item[2] if len(item) > 2 else "" for item in ordered])
        times = np.array([item[0] for item in ordered], dtype=np.float64)
        return cls(times, functions, names, tenants, table)

    @classmethod
    def from_arrays(
        cls,
        arrival_ms: np.ndarray,
        function_ids: np.ndarray,
        names: Sequence[str],
        tenants: Sequence[str] | None = None,
    ) -> "Trace":
        """Build a trace from parallel columns (any order), stably sorted.

        ``arrival_ms[i]`` pairs with ``names[function_ids[i]]``; the
        stable time sort matches :meth:`from_arrivals` exactly.  This is
        the generators' path: no per-request Python object is made.
        ``tenants``, when given, maps each function id to its owning
        tenant label (one entry per name — tenancy is per function, not
        per request).
        """
        if len(arrival_ms) != len(function_ids):
            raise ValueError("arrival_ms and function_ids must be the same length")
        if tenants is not None and len(tenants) != len(names):
            raise ValueError("tenants must have one entry per function name")
        times = np.asarray(arrival_ms, dtype=np.float64)
        order = np.argsort(times, kind="stable")
        ids = np.asarray(function_ids, dtype=np.int64)[order]
        functions, table = _codes(names)
        tenant_of, tenant_table = _codes(tenants if tenants is not None else [""] * len(names))
        return cls(times[order], functions[ids], table, tenant_of[ids], tenant_table or ("",))

    def __len__(self) -> int:
        return self.arrival_ms.size

    def __getitem__(self, index: int) -> Request:
        count = len(self)
        if not -count <= index < count:
            raise IndexError(f"request index {index} out of range ({count})")
        index %= count
        return Request(
            index,
            self.names[self.function_codes.item(index)],
            self.arrival_ms.item(index),
            self.tenants[self.tenant_codes.item(index)],
        )

    def __iter__(self) -> Iterator[Request]:
        rows = zip(self.arrival_ms.tolist(), *self.labels(0, len(self)))
        for request_id, (arrival, function, tenant) in enumerate(rows):
            yield Request(request_id, function, arrival, tenant)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        same_times = np.array_equal(self.arrival_ms, other.arrival_ms)
        return same_times and self.labels(0, len(self)) == other.labels(0, len(other))

    def labels(self, start: int, stop: int) -> tuple[list[str], list[str]]:
        """The function and the tenant names of rows ``start`` to ``stop``."""
        names, tenants = self.names, self.tenants
        return (
            [names[code] for code in self.function_codes[start:stop].tolist()],
            [tenants[code] for code in self.tenant_codes[start:stop].tolist()],
        )

    @property
    def duration_ms(self) -> float:
        """Arrival time of the last request (0 for an empty trace)."""
        return self.arrival_ms.item(-1) if len(self) else 0.0

    def count_by_function(self) -> dict[str, int]:
        """Requests per function, in first-arrival order."""
        codes = self.function_codes
        present, first = np.unique(codes, return_index=True)
        counts = np.bincount(codes, minlength=len(self.names)).tolist()
        return {self.names[c]: counts[c] for c in present[np.argsort(first)].tolist()}

    def functions(self) -> tuple[str, ...]:
        """Distinct function names, in first-arrival order."""
        return tuple(self.count_by_function())

    def window(self, start_ms: float, end_ms: float) -> "Trace":
        """Requests with ``start_ms <= arrival < end_ms``, re-numbered."""
        times = self.arrival_ms
        lo = int(np.searchsorted(times, start_ms, side="left"))
        hi = int(np.searchsorted(times, end_ms - 1e-9, side="right"))
        return Trace(
            times[lo:hi] - start_ms,
            self.function_codes[lo:hi],
            self.names,
            self.tenant_codes[lo:hi],
            self.tenants,
        )

    def merged_with(self, other: "Trace") -> "Trace":
        """Union of two traces on one timeline, re-numbered (ties: ours first)."""
        functions, names = _recode([(t.function_codes, t.names) for t in (self, other)])
        tenants, table = _recode([(t.tenant_codes, t.tenants) for t in (self, other)])
        times = np.concatenate((self.arrival_ms, other.arrival_ms))
        order = np.argsort(times, kind="stable")
        return Trace(times[order], functions[order], names, tenants[order], table)

    def with_tenants(self, tenant_of: dict[str, str]) -> "Trace":
        """Relabel tenants by function (missing entries keep theirs)."""
        table = dict(zip(self.tenants, range(len(self.tenants))))
        relabel = np.array(
            [table.setdefault(tenant_of[n], len(table)) if n in tenant_of else -1
             for n in self.names],
            dtype=np.int32,
        )[self.function_codes]
        codes = np.where(relabel >= 0, relabel, self.tenant_codes)
        return Trace(self.arrival_ms, self.function_codes, self.names, codes, tuple(table))

    def mean_rate_per_s(self, function: str | None = None) -> float:
        """Mean arrival rate (requests/second) over the trace span."""
        if not len(self):
            return 0.0
        count = len(self) if function is None else self.count_by_function().get(function, 0)
        span_s = max(self.duration_ms, 1.0) / 1000.0
        return count / span_s
