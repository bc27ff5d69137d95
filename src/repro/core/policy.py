"""The Medes sandbox-management policy (paper Section 5).

When a warm sandbox has been idle for the *idle period*, the node daemon
asks the controller whether to keep it warm or deduplicate it.  The
policy answers by solving the Section-5.2 program for that function with
live measurements (arrival rate, measured dedup-start latency, measured
dedup footprint) and comparing the optimal dedup count ``D*`` with the
function's current dedup population.

The module also defines the generic :class:`LifecyclePolicy` interface
that the keep-alive baselines implement, and the per-function online
estimators both use.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Protocol

import numpy as np

from repro.core.optimizer import FunctionModel, Objective, solve
from repro.workload.functionbench import FunctionProfile

#: Window over which arrival rates are estimated (ms).
RATE_WINDOW_MS = 120_000.0
#: Sub-window used for the peak-rate (lambda_max) estimate (ms).
RATE_SUBWINDOW_MS = 30_000.0
#: EWMA smoothing for measured dedup quantities.
EWMA_ALPHA = 0.3
#: Transient restore overhead m_R as a fraction of the warm footprint
#: (buffers for base pages and patch computation, Section 5.1).
RESTORE_OVERHEAD_FRACTION = 0.05
#: Dedup aggressively once cluster free memory falls below this fraction.
PRESSURE_FREE_FRACTION = 0.10


class Decision(enum.Enum):
    """Outcome of an idle-period consultation."""

    KEEP_WARM = "keep-warm"
    DEDUP = "dedup"
    TEMPLATE = "template"
    """Park as a per-function delta against shared template segments
    (DESIGN.md §14) — only issued when the cluster view advertises a
    template catalog; restores are template forks instead of base
    fetches."""


@dataclass
class FunctionStats:
    """Online per-function estimators feeding the optimizer."""

    profile: FunctionProfile
    prior_dedup_start_ms: float = 150.0
    prior_retained_fraction: float = 0.45
    arrivals: deque = field(default_factory=deque)
    dedup_start_ms: float = 0.0
    retained_fraction: float = 0.0
    observed_requests: int = 0

    def __post_init__(self) -> None:
        self.dedup_start_ms = self.prior_dedup_start_ms
        self.retained_fraction = self.prior_retained_fraction

    def record_arrival(self, now: float) -> None:
        self.arrivals.append(now)
        self.observed_requests += 1
        self._trim(now)

    def _trim(self, now: float) -> None:
        horizon = now - RATE_WINDOW_MS
        while self.arrivals and self.arrivals[0] < horizon:
            self.arrivals.popleft()

    def mean_rate(self, now: float) -> float:
        """Mean arrival rate over the window (req/ms)."""
        self._trim(now)
        return len(self.arrivals) / RATE_WINDOW_MS

    def peak_rate(self, now: float) -> float:
        """lambda_max: the busiest sub-window's rate (req/ms) — the most
        arrivals, up to and including one, at most a sub-window before it."""
        self._trim(now)
        if not self.arrivals:
            return 0.0
        times = np.fromiter(self.arrivals, float, len(self.arrivals))
        first = np.searchsorted(times, times - RATE_SUBWINDOW_MS)
        return int((np.arange(1, len(times) + 1) - first).max()) / RATE_SUBWINDOW_MS

    def record_dedup_start(self, duration_ms: float) -> None:
        self.dedup_start_ms += EWMA_ALPHA * (duration_ms - self.dedup_start_ms)

    def record_retained_fraction(self, fraction: float) -> None:
        self.retained_fraction += EWMA_ALPHA * (fraction - self.retained_fraction)

    def model(self, now: float, warm_start_ms: float) -> FunctionModel:
        """Assemble the optimizer's inputs from current estimates."""
        warm_bytes = self.profile.memory_bytes
        dedup_bytes = int(self.retained_fraction * warm_bytes)
        return FunctionModel(
            lambda_max=self.peak_rate(now),
            warm_start_ms=warm_start_ms,
            dedup_start_ms=self.dedup_start_ms,
            exec_ms=self.profile.exec_time_ms,
            warm_bytes=warm_bytes,
            dedup_bytes=dedup_bytes,
            restore_overhead_bytes=int(RESTORE_OVERHEAD_FRACTION * warm_bytes),
        )


@dataclass(frozen=True)
class ClusterView:
    """Cluster-wide facts the policy needs for one decision."""

    now: float
    live_counts: dict[str, int]
    """Per function: sandboxes in WARM/RUNNING/DEDUP(+transients)."""
    dedup_counts: dict[str, int]
    """Per function: sandboxes currently in (or entering) dedup state."""
    used_bytes: int
    capacity_bytes: int
    function_stats: Mapping[str, FunctionStats]
    """Per function arrival estimators, read by :meth:`rate_share`."""
    registry_available: bool = True
    """False while a fingerprint-registry shard is down: the fleet
    degrades to warm/cold-only and no new dedup ops are admitted
    (DESIGN.md §11)."""
    templates_available: bool = False
    """True when template sharing is on and the catalog can serve this
    cluster: idle consultations that would dedup park as template deltas
    instead (restore = fork + delta apply, no registry or base fetch)."""

    @property
    def free_fraction(self) -> float:
        if self.capacity_bytes == 0:
            return 0.0
        return max(0.0, 1.0 - self.used_bytes / self.capacity_bytes)

    def rate_share(self, function: str) -> float:
        """``function``'s share of the total mean arrival rate (for
        budget splitting; 0.0 while nothing arrived in the window)."""
        rates = {fn: stats.mean_rate(self.now) for fn, stats in self.function_stats.items()}
        total_rate = sum(rates.values())
        return rates.get(function, 0.0) / total_rate if total_rate > 0 else 0.0


class LifecyclePolicy(Protocol):
    """What the controller's lifecycle machinery asks of a policy."""

    name: str

    def keep_alive_ms(self, function: str, now: float) -> float:
        """How long an idle warm sandbox survives before purge."""
        ...

    def idle_period_ms(self, function: str) -> float | None:
        """Idle duration before a dedup consultation; None disables."""
        ...

    def keep_dedup_ms(self, function: str) -> float:
        """How long a dedup sandbox survives before purge."""
        ...

    def decide_idle(self, function: str, view: ClusterView) -> Decision:
        """Called at idle-period expiry for one sandbox."""
        ...

    def on_arrival(self, function: str, now: float) -> None:
        """Observe a request arrival (rate/histogram upkeep)."""
        ...

    def prewarm_delay_ms(self, function: str, now: float) -> float | None:
        """If set, spawn a prewarmed sandbox this long after a purge."""
        ...


@dataclass(frozen=True)
class MedesPolicyConfig:
    """Operator-facing knobs (the 'narrow, intuitive interface').

    The paper's Section 5.3 lets providers regulate functions
    *separately* — critical functions on a tight latency constraint,
    best-effort ones loose: ``per_function_alpha`` overrides the global
    ``alpha`` for named functions under the P1 objective.
    """

    objective: Objective = Objective.LATENCY
    alpha: float = 2.5
    """P1: mean-startup bound as a multiple of the warm start."""
    per_function_alpha: Mapping[str, float] = field(default_factory=dict)
    """P1: per-function overrides of ``alpha`` (Section 5.3)."""
    memory_budget_bytes: int | None = None
    """P2: cluster-wide dedup budget, split across functions by rate."""
    idle_period_ms: float = 30_000.0
    keep_alive_ms: float = 600_000.0
    keep_dedup_ms: float = 600_000.0

    def __post_init__(self) -> None:
        if self.alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        for function, alpha in self.per_function_alpha.items():
            if alpha < 1.0:
                raise ValueError(f"alpha for {function} must be >= 1")
        if self.objective is Objective.MEMORY and self.memory_budget_bytes is None:
            raise ValueError("MEMORY objective requires memory_budget_bytes")
        if min(self.idle_period_ms, self.keep_alive_ms, self.keep_dedup_ms) <= 0:
            raise ValueError("periods must be positive")

    def alpha_for(self, function: str) -> float:
        """The latency bound applying to ``function``."""
        return self.per_function_alpha.get(function, self.alpha)


class MedesPolicy:
    """The paper's policy: optimizer-guided warm/dedup split per function."""

    def __init__(
        self,
        config: MedesPolicyConfig,
        *,
        warm_start_ms: float,
        stats: dict[str, FunctionStats],
    ):
        self.name = "medes"
        self.config = config
        self.warm_start_ms = warm_start_ms
        self.stats = stats
        self.decisions: list[tuple[float, str, Decision, bool]] = []

    def keep_alive_ms(self, function: str, now: float) -> float:
        return self.config.keep_alive_ms

    def idle_period_ms(self, function: str) -> float | None:
        return self.config.idle_period_ms

    def keep_dedup_ms(self, function: str) -> float:
        return self.config.keep_dedup_ms

    def on_arrival(self, function: str, now: float) -> None:
        self.stats[function].record_arrival(now)

    def prewarm_delay_ms(self, function: str, now: float) -> float | None:
        return None

    def _function_budget(self, function: str, view: ClusterView) -> float | None:
        total = self.config.memory_budget_bytes
        if total is None:
            return None
        share = view.rate_share(function)
        if share <= 0.0:
            # Inactive functions get a minimal slice: one warm sandbox.
            return float(self.stats[function].profile.memory_bytes)
        return total * share

    def decide_idle(self, function: str, view: ClusterView) -> Decision:
        """Compare the live dedup count with the optimizer's D*."""
        if not view.registry_available and not view.templates_available:
            # Registry outage: a dedup op could neither look up bases
            # nor register state — degrade to keep-warm until it heals.
            # (Template parking needs no registry, so a catalog keeps
            # the park path open through the outage.)
            return Decision.KEEP_WARM
        stats = self.stats[function]
        total = view.live_counts.get(function, 0)
        if total <= 0:
            return Decision.KEEP_WARM
        model = stats.model(view.now, self.warm_start_ms)
        solution = solve(
            model,
            total,
            self.config.objective,
            alpha=self.config.alpha_for(function),
            budget_bytes=self._function_budget(function, view),
        )
        current_dedup = view.dedup_counts.get(function, 0)
        pressured = view.free_fraction < PRESSURE_FREE_FRACTION
        if not solution.feasible or pressured:
            decision = Decision.DEDUP
        elif current_dedup < solution.dedup:
            decision = Decision.DEDUP
        else:
            decision = Decision.KEEP_WARM
        if decision is Decision.DEDUP and view.templates_available:
            # A resident template serves the same parked role at a far
            # cheaper restore (fork + delta, no base fetch) — prefer it.
            decision = Decision.TEMPLATE
        self.decisions.append((view.now, function, decision, solution.feasible))
        return decision
