"""The Section-2 measurement study: Figures 1a, 1b, 1c and 2.

These drivers measure memory redundancy on freshly-initialized sandbox
checkpoints (the study's setting) using the paper's Rabin-style
fixed-offset sampling methodology, and estimate the achievable memory
savings of a keep-alive platform (Figure 2) by combining a lightweight
keep-alive occupancy model with per-function measured dedup savings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import stable_seed
from repro.analysis.tables import render_table
from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import FingerprintConfig, batch_page_fingerprints
from repro.memory.redundancy import measure_redundancy
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.workload.functionbench import FunctionBenchSuite, FunctionProfile
from repro.workload.trace import Trace

#: Chunk sizes swept in Figures 1a/1b.
FIG1_CHUNK_SIZES = (64, 128, 256, 512, 1024)


def same_function_redundancy(
    suite: FunctionBenchSuite,
    *,
    chunk_sizes: tuple[int, ...] = FIG1_CHUNK_SIZES,
    aslr: bool = False,
    content_scale: float = 1.0 / 64.0,
    seed: int = 0,
) -> dict[str, dict[int, float]]:
    """Figure 1a/1b: redundancy between two sandboxes of each function.

    Returns ``{function: {chunk_size: redundancy}}``.
    """
    results: dict[str, dict[int, float]] = {}
    for index, profile in enumerate(suite):
        image_a = profile.synthesize(
            stable_seed("fig1-a", seed, profile.name), content_scale=content_scale, aslr=aslr
        )
        image_b = profile.synthesize(
            stable_seed("fig1-b", seed, profile.name), content_scale=content_scale, aslr=aslr
        )
        results[profile.name] = {
            chunk: measure_redundancy(image_b, image_a, chunk).redundancy
            for chunk in chunk_sizes
        }
    return results


def render_redundancy(redundancy: dict[str, dict[int, float]], title: str) -> str:
    """A Figure 1a/1b table: redundancy by function and chunk size."""
    rows = [[fn] + [f"{by[c]:.3f}" for c in FIG1_CHUNK_SIZES] for fn, by in redundancy.items()]
    return render_table(["function"] + [f"{c}B" for c in FIG1_CHUNK_SIZES], rows, title=title)


def cross_function_matrix(
    suite: FunctionBenchSuite,
    *,
    chunk_size: int = 64,
    content_scale: float = 1.0 / 64.0,
    seed: int = 0,
) -> dict[tuple[str, str], float]:
    """Figure 1c: redundancy of each function w.r.t. every other.

    Entry ``(row, col)`` follows the paper's convention: the redundancy
    of ``row``'s sandbox measured against ``col``'s sandbox.
    """
    images = {
        profile.name: profile.synthesize(
            stable_seed("fig1c", seed, profile.name), content_scale=content_scale
        )
        for profile in suite
    }
    result: dict[tuple[str, str], float] = {}
    for row, row_image in images.items():
        for col, col_image in images.items():
            if row == col:
                # Same-function entry: compare two distinct instances.
                other = suite.get(row).synthesize(
                    stable_seed("fig1c-alt", seed, row), content_scale=content_scale
                )
                result[(row, col)] = measure_redundancy(other, col_image, chunk_size).redundancy
            else:
                result[(row, col)] = measure_redundancy(
                    row_image, col_image, chunk_size
                ).redundancy
    return result


@dataclass(frozen=True)
class SavingsMeasurement:
    """Measured dedup savings for one function (drives Table 3 / Fig 2)."""

    function: str
    savings_fraction: float
    saved_mb: float
    memory_mb: float


@dataclass(frozen=True)
class FunctionMicrobench:
    """Dedup + restore microbenchmark of one function (Table 3 / Fig 8)."""

    function: str
    savings_fraction: float
    retained_full_bytes: int
    dedup_total_ms: float
    dedup_lookup_ms: float
    restore_base_read_ms: float
    restore_compute_ms: float
    restore_fixed_ms: float
    unique_pages: int
    patched_pages: int
    zero_pages: int

    @property
    def restore_total_ms(self) -> float:
        return self.restore_base_read_ms + self.restore_compute_ms + self.restore_fixed_ms


def per_function_microbench(
    suite: FunctionBenchSuite,
    *,
    content_scale: float = 1.0 / 64.0,
    aslr: bool = False,
    fingerprint: FingerprintConfig | None = None,
    seed: int = 0,
    verify: bool = True,
) -> dict[str, FunctionMicrobench]:
    """Dedup then restore one sandbox of each function (one base each).

    The base sandboxes live on other nodes, so restores exercise remote
    (RDMA-model) base-page reads exactly like the paper's Figure 8.
    """
    fingerprint = fingerprint or FingerprintConfig()
    store = CheckpointStore()
    registry = FingerprintRegistry(fingerprint)
    agent = DedupAgent(
        0,
        registry=registry,
        store=store,
        fabric=RdmaFabric(),
        costs=CostModel(),
        content_scale=content_scale,
        fingerprint_config=fingerprint,
    )
    for index, profile in enumerate(suite):
        base_image = profile.synthesize(
            stable_seed("micro-base", seed, profile.name),
            content_scale=content_scale,
            aslr=aslr,
            executed=True,
        )
        checkpoint = BaseCheckpoint(
            function=profile.name,
            node_id=1 + index % 3,
            image=base_image,
            owner_sandbox_id=index,
            full_size_bytes=profile.memory_bytes,
        )
        store.add(checkpoint)
        fingerprints = batch_page_fingerprints(
            base_image.data, base_image.page_size, fingerprint
        )
        registry.register_pages(
            [
                PageRef(checkpoint.checkpoint_id, checkpoint.node_id, index)
                for index in range(len(fingerprints))
            ],
            fingerprints,
        )

    results: dict[str, FunctionMicrobench] = {}
    for index, profile in enumerate(suite):
        subject_seed = stable_seed("micro-subject", seed, profile.name)
        sandbox = Sandbox(
            profile=profile, node_id=0, instance_seed=subject_seed, created_at=0.0
        )
        sandbox.image = profile.synthesize(
            subject_seed, content_scale=content_scale, aslr=aslr, executed=True
        )
        outcome = agent.dedup(sandbox)
        restore = agent.restore(outcome.table, verify=verify)
        stats = outcome.table.stats
        results[profile.name] = FunctionMicrobench(
            function=profile.name,
            savings_fraction=stats.savings_fraction,
            retained_full_bytes=outcome.table.retained_full_bytes,
            dedup_total_ms=outcome.timings.total_ms,
            dedup_lookup_ms=outcome.timings.lookup_ms,
            restore_base_read_ms=restore.timings.base_read_ms,
            restore_compute_ms=restore.timings.compute_ms,
            restore_fixed_ms=restore.timings.restore_ms,
            unique_pages=stats.unique_pages,
            patched_pages=stats.patched_pages,
            zero_pages=stats.zero_pages,
        )
    return results


def measure_function_savings(
    suite: FunctionBenchSuite,
    *,
    content_scale: float = 1.0 / 64.0,
    aslr: bool = False,
    fingerprint: FingerprintConfig | None = None,
    seed: int = 0,
) -> dict[str, SavingsMeasurement]:
    """Table 3: per-function dedup savings with one base per function.

    Builds a registry populated with one base sandbox per function, then
    dedups a second (executed) sandbox of each function against it —
    the paper's per-sandbox savings methodology.
    """
    micro = per_function_microbench(
        suite,
        content_scale=content_scale,
        aslr=aslr,
        fingerprint=fingerprint,
        seed=seed,
        verify=False,
    )
    return {
        name: SavingsMeasurement(
            function=name,
            savings_fraction=result.savings_fraction,
            saved_mb=result.savings_fraction * suite.get(name).memory_mb,
            memory_mb=suite.get(name).memory_mb,
        )
        for name, result in micro.items()
    }


@dataclass(frozen=True)
class TimelinePoint:
    """One Figure-2 sample."""

    time_s: float
    keep_alive_mb: float
    after_dedup_mb: float


def savings_timeline(
    trace: Trace,
    suite: FunctionBenchSuite,
    *,
    keep_alive_ms: float = 600_000.0,
    sample_interval_ms: float = 30_000.0,
    savings: dict[str, SavingsMeasurement] | None = None,
    content_scale: float = 1.0 / 64.0,
) -> list[TimelinePoint]:
    """Figure 2: keep-alive memory usage vs usage after dedup, over time.

    Uses the paper's estimation methodology: replay the arrival trace
    through a keep-alive occupancy model (a function's warm pool at time
    t is its peak concurrency over the trailing keep-alive window), then
    discount each idle sandbox by its function's measured savings.
    """
    savings = savings or measure_function_savings(suite, content_scale=content_scale)
    profiles: dict[str, FunctionProfile] = {p.name: p for p in suite}

    arrivals_by_function: dict[str, list[float]] = {name: [] for name in profiles}
    busy_until: dict[str, list[float]] = {name: [] for name in profiles}
    for request in trace:
        arrivals_by_function[request.function].append(request.arrival_ms)
        busy_until[request.function].append(
            request.arrival_ms + profiles[request.function].exec_time_ms
        )

    points: list[TimelinePoint] = []
    t = sample_interval_ms
    end = trace.duration_ms + keep_alive_ms
    while t <= end:
        keep_alive_bytes = 0.0
        dedup_bytes = 0.0
        for name, profile in profiles.items():
            window_start = t - keep_alive_ms
            window = [a for a in arrivals_by_function[name] if window_start <= a <= t]
            pool = _peak_concurrency(window, profile.exec_time_ms) if window else 0
            running = sum(1 for b, a in zip(busy_until[name], arrivals_by_function[name])
                          if a <= t < b)
            idle = max(0, pool - running)
            keep_alive_bytes += pool * profile.memory_bytes
            fraction = savings[name].savings_fraction
            dedup_bytes += running * profile.memory_bytes
            dedup_bytes += idle * profile.memory_bytes * (1.0 - fraction)
        points.append(
            TimelinePoint(
                time_s=t / 1000.0,
                keep_alive_mb=keep_alive_bytes / 2**20,
                after_dedup_mb=dedup_bytes / 2**20,
            )
        )
        t += sample_interval_ms
    return points


def _peak_concurrency(arrivals: list[float], exec_ms: float) -> int:
    """Peak number of overlapping executions among ``arrivals``."""
    events: list[tuple[float, int]] = []
    for arrival in arrivals:
        events.append((arrival, +1))
        events.append((arrival + exec_ms, -1))
    events.sort()
    peak = current = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return max(peak, 1 if arrivals else 0)
