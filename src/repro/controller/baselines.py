"""Baseline sandbox-management policies (paper Section 7.1).

* :class:`FixedKeepAlivePolicy` — the AWS Lambda / OpenWhisk model: an
  idle warm sandbox survives a fixed keep-alive period (the paper's
  default, 10 minutes, which its Section-7.5 sweep found best) and is
  then purged.  No deduplication.
* :class:`AdaptiveKeepAlivePolicy` — the Azure Functions model (Shahrad
  et al.): a per-function histogram of inter-arrival times picks the
  keep-alive window, and strongly regular functions are pre-warmed just
  before the predicted next arrival.  Its shorter windows save memory at
  the cost of extra cold starts — exactly the trade-off Figure 9 shows.

Both implement the :class:`~repro.core.policy.LifecyclePolicy` interface
with deduplication disabled (``idle_period_ms`` is None and
``decide_idle`` always keeps sandboxes warm).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.policy import ClusterView, Decision

#: Histogram range of the adaptive policy: 1-minute bins up to 4 hours
#: (the Azure policy's bounds).
HISTOGRAM_BIN_MS = 60_000.0
HISTOGRAM_MAX_MS = 240 * 60_000.0

#: Keep-alive percentile of the inter-arrival distribution.  Covering
#: most gaps but not the tail reproduces the adaptive baseline's
#: behaviour in the paper: noticeably lower memory, ~50% more cold
#: starts than Medes.
ADAPTIVE_PERCENTILE = 75.0
ADAPTIVE_MARGIN = 1.2
ADAPTIVE_MIN_MS = 30_000.0
ADAPTIVE_MAX_MS = 20 * 60_000.0
#: Observations needed before trusting the histogram.
ADAPTIVE_MIN_SAMPLES = 5
#: Keep-alive window while the histogram is untrusted.
ADAPTIVE_DEFAULT_KEEP_ALIVE_MS = 600_000.0
#: Pre-warm lead time before the predicted next arrival.
PREWARM_LEAD_MS = 2_000.0
#: Regularity bound (IT coefficient of variation) enabling pre-warming.
PREWARM_MAX_CV = 0.5


class FixedKeepAlivePolicy:
    """Fixed keep-alive, no dedup (AWS Lambda / OpenWhisk style)."""

    def __init__(self, keep_alive_ms: float = 600_000.0):
        if keep_alive_ms <= 0:
            raise ValueError("keep_alive_ms must be positive")
        self.name = f"fixed-ka-{keep_alive_ms / 60_000:g}min"
        self._keep_alive_ms = keep_alive_ms

    def keep_alive_ms(self, function: str, now: float) -> float:
        return self._keep_alive_ms

    def idle_period_ms(self, function: str) -> float | None:
        return None

    def keep_dedup_ms(self, function: str) -> float:
        raise RuntimeError("fixed keep-alive never deduplicates")

    def decide_idle(self, function: str, view: ClusterView) -> Decision:
        return Decision.KEEP_WARM

    def on_arrival(self, function: str, now: float) -> None:
        pass

    def prewarm_delay_ms(self, function: str, now: float) -> float | None:
        return None


@dataclass
class _FunctionHistory:
    last_arrival_ms: float | None = None
    intervals: list[float] = field(default_factory=list)

    def observe(self, now: float) -> None:
        if self.last_arrival_ms is not None:
            gap = min(now - self.last_arrival_ms, HISTOGRAM_MAX_MS)
            if gap >= HISTOGRAM_BIN_MS:
                # Bin-center representation, clamped to the histogram range.
                bin_index = int(gap // HISTOGRAM_BIN_MS)
                gap = min((bin_index + 0.5) * HISTOGRAM_BIN_MS, HISTOGRAM_MAX_MS)
            self.intervals.append(gap)
        self.last_arrival_ms = now


class AdaptiveKeepAlivePolicy:
    """Histogram-driven keep-alive with pre-warming (Azure style)."""

    def __init__(self) -> None:
        self.name = "adaptive-ka"
        self._history: dict[str, _FunctionHistory] = {}

    def _entry(self, function: str) -> _FunctionHistory:
        return self._history.setdefault(function, _FunctionHistory())

    def on_arrival(self, function: str, now: float) -> None:
        self._entry(function).observe(now)

    def keep_alive_ms(self, function: str, now: float) -> float:
        intervals = self._entry(function).intervals
        if len(intervals) < ADAPTIVE_MIN_SAMPLES:
            return ADAPTIVE_DEFAULT_KEEP_ALIVE_MS
        window = float(np.percentile(intervals, ADAPTIVE_PERCENTILE)) * ADAPTIVE_MARGIN
        return float(min(max(window, ADAPTIVE_MIN_MS), ADAPTIVE_MAX_MS))

    def idle_period_ms(self, function: str) -> float | None:
        return None

    def keep_dedup_ms(self, function: str) -> float:
        raise RuntimeError("adaptive keep-alive never deduplicates")

    def decide_idle(self, function: str, view: ClusterView) -> Decision:
        return Decision.KEEP_WARM

    def prewarm_delay_ms(self, function: str, now: float) -> float | None:
        """Pre-warm regular functions just before the predicted arrival.

        Called when a sandbox is purged: a strongly regular function
        (low inter-arrival CV) gets a fresh sandbox spawned
        ``PREWARM_LEAD_MS`` before its next expected invocation.
        """
        entry = self._entry(function)
        intervals = entry.intervals
        if len(intervals) < ADAPTIVE_MIN_SAMPLES or entry.last_arrival_ms is None:
            return None
        mean = float(np.mean(intervals))
        std = float(np.std(intervals))
        if mean <= 0 or std / mean > PREWARM_MAX_CV:
            return None
        predicted_next = entry.last_arrival_ms + mean
        delay = predicted_next - now - PREWARM_LEAD_MS
        if delay <= 0:
            return None
        return delay
