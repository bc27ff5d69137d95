"""Synthetic Azure-Functions-style arrival patterns.

The paper drives its evaluation with per-function arrival sequences from
the Azure Functions production traces (Shahrad et al., ATC '20), scaled
5x.  Those traces are not redistributable here, so this module generates
arrivals from the pattern classes that characterization reports:

* a heavy-tailed popularity distribution (a few hot functions, many
  cold ones);
* **steady** Poisson arrivals;
* **bursty** ON/OFF arrivals (long idle gaps punctuated by bursts — the
  regime where keep-alive policies waste memory or miss);
* **periodic** timer-triggered arrivals (cron-style, small jitter);
* **diurnal** rate modulation (a sinusoidal envelope over Poisson).

Each FunctionBench function is deterministically assigned a pattern and
a base rate from the generator seed, so a given (seed, duration,
functions) triple always yields the identical trace.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro._util import rng_for
from repro.workload.trace import Trace


class PatternKind(enum.Enum):
    """Arrival pattern classes from the Azure characterization."""

    STEADY = "steady"
    BURSTY = "bursty"
    PERIODIC = "periodic"
    DIURNAL = "diurnal"


@dataclass(frozen=True)
class PatternSpec:
    """A concrete per-function arrival process."""

    kind: PatternKind
    rate_per_min: float
    """Mean arrival rate (after scaling)."""
    period_min: float = 5.0
    """Period for PERIODIC/DIURNAL patterns."""
    burst_size_mean: float = 6.0
    """Mean invocations per burst for BURSTY."""

    def __post_init__(self) -> None:
        if self.rate_per_min <= 0:
            raise ValueError("rate_per_min must be positive")
        if self.period_min <= 0:
            raise ValueError("period_min must be positive")


def _poisson_arrivals(rate_per_ms: float, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
    if rate_per_ms <= 0:
        return np.empty(0)
    expected = rate_per_ms * duration_ms
    count = rng.poisson(expected)
    return np.sort(rng.uniform(0, duration_ms, size=count))


def _steady(spec: PatternSpec, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
    return _poisson_arrivals(spec.rate_per_min / 60_000.0, duration_ms, rng)


def _bursty(spec: PatternSpec, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
    """ON/OFF bursts: exponential gaps between bursts, tight in-burst spacing."""
    per_burst = max(1.0, spec.burst_size_mean)
    bursts_per_min = spec.rate_per_min / per_burst
    gap_mean_ms = 60_000.0 / bursts_per_min
    times: list[float] = []
    t = rng.exponential(gap_mean_ms)
    while t < duration_ms:
        size = 1 + rng.poisson(per_burst - 1)
        offsets = np.cumsum(rng.exponential(250.0, size=size))  # ~4/s inside a burst
        times.extend(t + off for off in offsets if t + off < duration_ms)
        t += rng.exponential(gap_mean_ms)
    return np.sort(np.asarray(times))


def _periodic(spec: PatternSpec, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
    """Timer-triggered arrivals with small jitter; rate sets extra invocations."""
    period_ms = spec.period_min * 60_000.0
    ticks = np.arange(period_ms, duration_ms, period_ms)
    jitter = rng.normal(0, period_ms * 0.02, size=len(ticks))
    times = np.clip(ticks + jitter, 0, duration_ms - 1e-6)
    # Keep the configured mean rate by adding Poisson arrivals around ticks.
    per_tick = spec.rate_per_min * spec.period_min
    extra: list[float] = []
    for tick in times:
        burst = rng.poisson(max(0.0, per_tick - 1))
        extra.extend(np.clip(tick + rng.exponential(500.0, size=burst), 0, duration_ms - 1e-6))
    return np.sort(np.concatenate([times, np.asarray(extra)]))


def _diurnal(spec: PatternSpec, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
    """Sinusoidally-modulated Poisson arrivals via thinning."""
    peak_rate = 2.0 * spec.rate_per_min / 60_000.0
    candidates = _poisson_arrivals(peak_rate, duration_ms, rng)
    if candidates.size == 0:
        return candidates
    period_ms = spec.period_min * 60_000.0
    phase = 2 * math.pi * candidates / period_ms
    accept_prob = 0.5 * (1 + np.sin(phase))
    keep = rng.random(candidates.size) < accept_prob
    return candidates[keep]


_SAMPLERS = {
    PatternKind.STEADY: _steady,
    PatternKind.BURSTY: _bursty,
    PatternKind.PERIODIC: _periodic,
    PatternKind.DIURNAL: _diurnal,
}


def sample_arrivals(spec: PatternSpec, duration_ms: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival times (ms, sorted) for one pattern over ``duration_ms``."""
    if duration_ms <= 0:
        return np.empty(0)
    return _SAMPLERS[spec.kind](spec, duration_ms, rng)


#: Pattern mix matching the characterization: mostly steady/bursty with a
#: periodic and diurnal tail.
_PATTERN_CYCLE = (
    PatternKind.STEADY,
    PatternKind.BURSTY,
    PatternKind.STEADY,
    PatternKind.PERIODIC,
    PatternKind.BURSTY,
    PatternKind.DIURNAL,
)


@dataclass(frozen=True)
class AzureTraceGenerator:
    """Deterministic generator of Azure-style multi-function traces.

    Args:
        seed: Master seed; every per-function stream derives from it.
        rate_scale: Multiplier applied to base rates — the paper scales
            the production traces 5x because per-function rates are low.
    """

    seed: int = 0
    rate_scale: float = 5.0

    def pattern_for(self, function: str, index: int) -> PatternSpec:
        """The pattern assigned to ``function`` (deterministic in seed)."""
        rng = rng_for("azure-pattern", self.seed, function)
        kind = _PATTERN_CYCLE[index % len(_PATTERN_CYCLE)]
        # Heavy-tailed base popularity: lognormal around ~1.2/min.
        base_rate = float(np.exp(rng.normal(0.2, 0.55)))
        return PatternSpec(
            kind=kind,
            rate_per_min=base_rate * self.rate_scale,
            period_min=float(rng.uniform(3.0, 8.0)),
            burst_size_mean=float(rng.uniform(3.0, 9.0)),
        )

    def generate(
        self,
        duration_min: float,
        functions: tuple[str, ...] | list[str],
        *,
        tenant_of: dict[str, str] | None = None,
    ) -> Trace:
        """Generate a merged multi-function trace of ``duration_min`` minutes.

        ``tenant_of`` optionally labels each function's requests with an
        owning tenant (tenancy is per function); arrival times are
        unaffected, so a labelled trace pairs request-for-request with
        the unlabelled one.
        """
        if duration_min <= 0:
            raise ValueError("duration_min must be positive")
        duration_ms = duration_min * 60_000.0
        times = [
            sample_arrivals(
                self.pattern_for(function, index),
                duration_ms,
                rng_for("azure-arrivals", self.seed, function),
            )
            for index, function in enumerate(functions)
        ]
        ids = [np.full(len(part), index) for index, part in enumerate(times)]
        return Trace.from_arrays(
            np.concatenate([np.empty(0), *times]),
            np.concatenate([np.empty(0, dtype=np.int64), *ids]),
            list(functions),
            [(tenant_of or {}).get(function, "") for function in functions],
        )


#: Cluster-mix pattern cycle: the characterization's mass is on steady
#: HTTP-style and bursty event-style triggers, with a periodic (timer)
#: tail; the diurnal component is a *shared* envelope applied to the
#: merged trace rather than a per-function pattern.
_CLUSTER_PATTERN_CYCLE = (
    PatternKind.STEADY,
    PatternKind.BURSTY,
    PatternKind.STEADY,
    PatternKind.BURSTY,
    PatternKind.PERIODIC,
    PatternKind.STEADY,
)


@dataclass(frozen=True)
class ClusterTraceGenerator:
    """Cluster-scale Azure-style trace generator (millions of requests).

    Scales the per-function pattern classes above to hundreds of
    functions and a request *budget*, matching the shape of the Azure
    characterization's full fleet rather than a handful of functions:

    * **heavy-tailed popularity** — functions are ranked by a seeded
      shuffle and given Zipf(``zipf_exponent``) rate shares, so a few
      hot functions carry most of the traffic while a long tail stays
      nearly idle (exactly the regime keep-alive policies struggle in);
    * **steady/bursty/periodic mix** — each function draws its process
      from a steady- and bursty-dominated cycle, with seeded per-rank
      jitter in burst sizes and periods;
    * **shared diurnal envelope** — the merged trace is thinned by a
      sinusoid of ``diurnal_depth`` over ``diurnal_period_min``, so the
      whole cluster breathes together (peak load ≈ (1+depth)/(1-depth)
      times trough load).

    Everything is seeded: a given (seed, duration, functions,
    target_requests) quadruple always yields the identical trace.  The
    generation path is columnar end to end (numpy arrival arrays merged
    via :meth:`Trace.from_arrays`), so million-request traces build in
    seconds.
    """

    seed: int = 0
    zipf_exponent: float = 1.1
    """Popularity tail exponent; ~1.1 matches heavy-but-not-degenerate
    production skew (top 20% of functions ≈ 80% of invocations)."""
    diurnal_period_min: float = 120.0
    """Compressed "day" of the shared envelope — full 24 h days don't
    fit simulated traces; two sim-hours per cycle keeps several peaks
    and troughs inside a long replay."""
    diurnal_depth: float = 0.4
    """Amplitude of the shared envelope in [0, 1)."""

    def __post_init__(self) -> None:
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        if not 0 <= self.diurnal_depth < 1:
            raise ValueError("diurnal_depth must be in [0, 1)")
        if self.diurnal_period_min <= 0:
            raise ValueError("diurnal_period_min must be positive")

    def rate_shares(self, count: int) -> np.ndarray:
        """Zipf popularity share per function index (seeded shuffle)."""
        ranks = rng_for("cluster-ranks", self.seed).permutation(count)
        weights = (ranks + 1.0) ** -self.zipf_exponent
        return weights / weights.sum()

    def spec_for(self, function: str, index: int, rate_per_min: float) -> PatternSpec:
        """The arrival process of one function at its popularity rate."""
        rng = rng_for("cluster-pattern", self.seed, function)
        return PatternSpec(
            kind=_CLUSTER_PATTERN_CYCLE[index % len(_CLUSTER_PATTERN_CYCLE)],
            rate_per_min=rate_per_min,
            period_min=float(rng.uniform(3.0, 12.0)),
            burst_size_mean=float(rng.uniform(4.0, 16.0)),
        )

    def generate(
        self,
        duration_min: float,
        functions: tuple[str, ...] | list[str],
        *,
        target_requests: int,
        tenant_of: dict[str, str] | None = None,
    ) -> Trace:
        """Generate a merged cluster trace of ~``target_requests`` requests.

        The budget is an expectation: per-function Poisson counts and the
        diurnal thinning each add sampling noise of a few tenths of a
        percent at millions of requests.
        """
        if duration_min <= 0:
            raise ValueError("duration_min must be positive")
        if target_requests <= 0:
            raise ValueError("target_requests must be positive")
        if not functions:
            raise ValueError("need at least one function")
        duration_ms = duration_min * 60_000.0
        # Thinning keeps (1 + depth*sin(2πt/P))/(1 + depth) of candidates;
        # oversample by the envelope's exact mean over [0, duration] (the
        # mean of sin over a partial cycle is (1-cos(2πD/P))·P/(2πD), not
        # zero) so the budget lands on target for any duration/period.
        cycles = 2.0 * math.pi * duration_min / self.diurnal_period_min
        mean_sin = (1.0 - math.cos(cycles)) / cycles
        mean_keep = (1.0 + self.diurnal_depth * mean_sin) / (1.0 + self.diurnal_depth)
        total_rate_per_min = target_requests / duration_min / mean_keep
        shares = self.rate_shares(len(functions))
        times_parts: list[np.ndarray] = []
        ids_parts: list[np.ndarray] = []
        for index, function in enumerate(functions):
            rate = float(shares[index] * total_rate_per_min)
            if rate <= 0:
                continue
            spec = self.spec_for(function, index, rate)
            rng = rng_for("cluster-arrivals", self.seed, function)
            times = np.asarray(
                sample_arrivals(spec, duration_ms, rng), dtype=np.float64
            )
            if times.size == 0:
                continue
            times_parts.append(times)
            ids_parts.append(np.full(times.size, index, dtype=np.int64))
        if not times_parts:
            return Trace.from_arrivals([])
        times = np.concatenate(times_parts)
        ids = np.concatenate(ids_parts)
        # Shared diurnal envelope over the merged cluster load.
        phase = 2.0 * math.pi * times / (self.diurnal_period_min * 60_000.0)
        keep_prob = (1.0 + self.diurnal_depth * np.sin(phase)) / (
            1.0 + self.diurnal_depth
        )
        keep = rng_for("cluster-diurnal", self.seed).random(times.size) < keep_prob
        tenants = (
            [(tenant_of or {}).get(fn, "") for fn in functions] if tenant_of else None
        )
        return Trace.from_arrays(times[keep], ids[keep], list(functions), tenants)
