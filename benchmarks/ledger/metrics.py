"""Metric catalogue and derivation from a finished run.

Two clocks: *host* metrics time the simulator itself (wall clock, RSS,
call counts); *sim* metrics are what Medes reports on the simulated
clock and repeat exactly for a seed.  Everything here is read from the
run's public counters and records after the fact — nothing is measured
inside the program.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import MIB
from repro.platform.metrics import StartType

from .tracer import DEDUP_STAGES, LAYERS
from .workloads import DataplaneRun, ReplayRun

REPLAYS = ("medes_pressure", "keepalive_control", "ladder_faulted", "template_forks")
MEDES_REPLAYS = ("medes_pressure", "ladder_faulted", "template_forks")
DATAPLANE = ("dataplane_ops",)
ALL = REPLAYS + DATAPLANE


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    """"higher" or "lower"."""
    clock: str
    """"host" (wall clock; noisy, best-of-reps), "reference" (wall clock
    corrected to the calibration kernel's reference speed; median of
    reps), "exact" (host-side count that repeats exactly) or "sim"
    (simulated clock, repeats exactly)."""
    bound: str
    """Same-seed regression bound, as the issue states it."""
    workloads: tuple[str, ...]
    what: str


#: The 15 end-to-end metrics of ISSUE 11, and ``work_per_s``: the one
#: throughput every workload has, on the reference clock, which is what
#: the benchmark driver bounds (``contract.py``).  ``bound`` is how far the
#: value may worsen, at the same seed, before a change counts as a
#: regression.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", "+0.5 s", ALL,
           "process start of the workload body to the first timed call"),
    Metric("replay_req_per_s", "1/s", "higher", "host", "-10 %", REPLAYS,
           "trace requests / wall seconds of Platform.run"),
    Metric("dedup_pages_per_s", "1/s", "higher", "host", "-10 %", DATAPLANE,
           "pages / summed wall time of the agent.dedup calls"),
    Metric("restore_pages_per_s", "1/s", "higher", "host", "-10 %", DATAPLANE,
           "pages / summed wall time of the agent.restore calls"),
    Metric("peak_rss_mb", "MB", "lower", "host", "+10 %", ALL,
           "ru_maxrss of the run's subprocess"),
    Metric("py_calls_per_req", "count", "lower", "exact", "+3 %", REPLAYS,
           "primitive Python+C calls of the counted run / requests"),
    Metric("py_calls_per_page", "count", "lower", "exact", "+3 %", DATAPLANE,
           "primitive Python+C calls of the counted run / pages"),
    Metric("sim_e2e_p50_ms", "ms", "lower", "sim", "+1 %", REPLAYS,
           "median request end-to-end latency"),
    Metric("sim_e2e_p99_ms", "ms", "lower", "sim", "+1 %", REPLAYS,
           "p99 request end-to-end latency (>=15 samples beyond it)"),
    Metric("sim_startup_mean_ms", "ms", "lower", "sim", "+1 %", REPLAYS,
           "mean startup latency over all requests (the paper's P1)"),
    Metric("sim_restore_start_p50_ms", "ms", "lower", "sim", "+1 %", MEDES_REPLAYS,
           "median startup of the middle rung (dedup; template on template_forks)"),
    Metric("sim_cold_fraction", "fraction", "lower", "sim", "+1 % rel", REPLAYS,
           "cold starts / completed requests"),
    Metric("sim_mean_memory_mb", "MB", "lower", "sim", "+1 %", REPLAYS,
           "RunMetrics.mean_memory_bytes()"),
    Metric("dedup_savings_fraction", "fraction", "higher", "sim", "-1 %",
           MEDES_REPLAYS + DATAPLANE,
           "mean savings_fraction over dedup / templatize ops"),
    Metric("failed_fraction", "fraction", "lower", "sim", "any increase", ALL,
           "(requests not completed exactly once + inexact restores/forks "
           "+ ops raising) / attempted; baseline 0"),
    Metric("work_per_s", "1/s", "higher", "reference", "-10 %", ALL,
           "requests of the replay (pages of the agent.dedup calls on "
           "dataplane_ops) / their reference-speed seconds (calibrate.py)"),
)

E2E_BY_NAME = {metric.name: metric for metric in END_TO_END}

#: Metrics that must be bit-identical between two runs of one seed.
EXACT_E2E = tuple(m.name for m in END_TO_END if m.clock in ("sim", "exact"))

RESTORE_STAGES = ("base_read", "compute", "restore", "promote", "retry")

#: Per-layer metrics besides the four per-layer columns: name -> unit.
LAYER_COUNTERS: dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_req": "count",
    "controller.evictions": "count",
    "controller.sandboxes_created": "count",
    "controller.eviction_candidates_scanned": "count",
    "core.agent.dedup_ops": "count",
    "core.agent.restore_ops": "count",
    "core.agent.templatize_ops": "count",
    "core.agent.fork_ops": "count",
    "core.agent.pages": "count",
    "core.agent.patched_page_ratio": "fraction",
    "core.agent.base_cache_hit_ratio": "fraction",
    "core.agent.anchor_cache_hit_ratio": "fraction",
    **{f"core.agent.sim_dedup_ms.{stage}": "ms" for stage in DEDUP_STAGES},
    **{f"core.agent.sim_restore_ms.{stage}": "ms" for stage in RESTORE_STAGES},
    "core.registry.lookups": "count",
    "core.registry.hit_ratio": "fraction",
    "core.registry.digests": "count",
    "core.registry.memory_mb": "MB",
    "memory.synth.images": "count",
    "memory.synth.mb": "MB",
    "memory.fingerprint.pages": "count",
    "memory.patch.encode_s": "s",
    "memory.patch.index_s": "s",
    "memory.patch.apply_s": "s",
    "memory.patch.pages_encoded": "count",
    "memory.patch.pages_applied": "count",
    "memory.patch.bytes_per_patched_page": "B",
    "sim.network.remote_mb": "MB",
    "sim.network.failed_reads": "count",
    "storage.demotes": "count",
    "storage.promotes": "count",
    "storage.prefetch_hit_ratio": "fraction",
    "templates.segments_shared_ratio": "fraction",
    "templates.promotions": "count",
    "templates.fork_fallbacks": "count",
    "faults.rpc_retries": "count",
    "faults.requests_rescheduled": "count",
    "faults.crash_purged": "count",
    "faults.cold_fallbacks": "count",
    "tenancy.domains": "count",
    "tenancy.cross_domain_replica_skips": "count",
    "workload.generate_s": "s",
    "workload.requests": "count",
    "trace.untraced_share": "fraction",
    "trace.overhead_ratio": "ratio",
}

LAYER_COLUMNS: dict[str, str] = {
    "calls": "count",
    "self_s": "s",
    "share": "fraction",
    "py_calls": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {
        f"{layer}.{column}": unit
        for layer in LAYERS
        for column, unit in LAYER_COLUMNS.items()
    }
    units.update(LAYER_COUNTERS)
    return units


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------- replays


def replay_end_to_end(run: ReplayRun) -> dict[str, float]:
    """End-to-end metrics one replay can compute on its own."""
    platform, metrics = run.platform, run.platform.metrics
    timeline = metrics.completion_timeline
    completed = len(timeline)
    middle = (
        StartType.TEMPLATE if platform.config.template_sharing else StartType.DEDUP
    )
    parks = [op.savings_fraction for op in metrics.dedup_ops]
    parks += [op.savings_fraction for op in metrics.template_ops]
    values = {
        "replay_req_per_s": _ratio(run.units, run.wall_s),
        "sim_e2e_p50_ms": metrics.latency_percentile(50),
        "sim_e2e_p99_ms": metrics.latency_percentile(99),
        "sim_startup_mean_ms": float(timeline.column("startup_ms").mean())
        if completed
        else 0.0,
        "sim_cold_fraction": _ratio(metrics.cold_starts(), completed),
        "sim_mean_memory_mb": metrics.mean_memory_bytes() / MIB,
    }
    if platform.name.startswith("medes"):
        values["sim_restore_start_p50_ms"] = metrics.latency_percentile(
            50, start_type=middle, metric="startup"
        )
        values["dedup_savings_fraction"] = _mean(parks)
    return values


def replay_counters(run: ReplayRun) -> dict[str, float]:
    """Per-layer counters read from the platform's public state."""
    platform, metrics = run.platform, run.platform.metrics
    agents = list(platform.agents.values())
    registry = platform.registry
    stats = registry.stats
    fabric = platform.fabric.stats
    restores = metrics.restore_ops
    values = {
        "sim.events": platform.sim.events_processed,
        "sim.events_per_req": _ratio(platform.sim.events_processed, run.units),
        "controller.evictions": metrics.evictions,
        "controller.sandboxes_created": metrics.sandboxes_created,
        "controller.eviction_candidates_scanned": metrics.eviction_candidates_scanned,
        "core.agent.dedup_ops": sum(a.dedup_ops for a in agents),
        "core.agent.restore_ops": sum(a.restore_ops for a in agents),
        "core.agent.templatize_ops": sum(a.templatize_ops for a in agents),
        "core.agent.fork_ops": sum(a.fork_ops for a in agents),
        "core.agent.base_cache_hit_ratio": _ratio(
            metrics.base_page_cache_hits,
            metrics.base_page_cache_hits + metrics.base_page_cache_misses,
        ),
        "core.agent.anchor_cache_hit_ratio": _ratio(
            metrics.anchor_index_cache_hits,
            metrics.anchor_index_cache_hits + metrics.anchor_index_cache_misses,
        ),
        "core.agent.sim_restore_ms.promote": _mean(op.promote_ms for op in restores),
        "core.registry.lookups": stats.page_lookups,
        "core.registry.hit_ratio": stats.hit_rate,
        "core.registry.digests": registry.digest_count,
        "core.registry.memory_mb": registry.memory_bytes() / MIB,
        "sim.network.remote_mb": fabric.remote_bytes / MIB,
        "sim.network.failed_reads": fabric.failed_reads,
        "storage.demotes": metrics.checkpoint_demotions + metrics.table_demotions,
        "storage.promotes": metrics.checkpoint_promotions + metrics.table_promotions,
        "storage.prefetch_hit_ratio": _ratio(
            metrics.prefetch_hit_pages,
            metrics.prefetch_hit_pages + metrics.prefetch_miss_pages,
        ),
        "templates.segments_shared_ratio": _ratio(
            metrics.template_segments_shared,
            metrics.template_segments_shared + metrics.template_segments_created,
        ),
        "templates.promotions": metrics.template_promotions,
        "templates.fork_fallbacks": metrics.template_fork_fallbacks,
        "faults.rpc_retries": metrics.rpc_retries,
        "faults.requests_rescheduled": metrics.requests_rescheduled,
        "faults.crash_purged": metrics.crash_purged_sandboxes,
        "faults.cold_fallbacks": metrics.restore_cold_fallbacks,
        "tenancy.domains": len(registry.domains()),
        "tenancy.cross_domain_replica_skips": metrics.cross_domain_replica_skips,
    }
    return values


# -------------------------------------------------------------- data plane


def dataplane_end_to_end(run: DataplaneRun) -> dict[str, float]:
    return {
        "dedup_pages_per_s": _ratio(run.pages, run.dedup_s),
        "restore_pages_per_s": _ratio(run.pages, run.restore_s),
        "dedup_savings_fraction": _mean(run.savings),
    }


def dataplane_counters(run: DataplaneRun) -> dict[str, float]:
    agents = list(run.agents.values())
    stats = [agent.registry.stats for agent in agents]
    base_hits = sum(a.base_page_cache.hits for a in agents)
    base_misses = sum(a.base_page_cache.misses for a in agents)
    anchor_hits = sum(a.anchor_index_cache.hits for a in agents)
    anchor_misses = sum(a.anchor_index_cache.misses for a in agents)
    lookups = sum(s.page_lookups for s in stats)
    return {
        "core.agent.dedup_ops": sum(a.dedup_ops for a in agents),
        "core.agent.restore_ops": sum(a.restore_ops for a in agents),
        "core.agent.base_cache_hit_ratio": _ratio(base_hits, base_hits + base_misses),
        "core.agent.anchor_cache_hit_ratio": _ratio(
            anchor_hits, anchor_hits + anchor_misses
        ),
        "core.registry.lookups": lookups,
        "core.registry.hit_ratio": _ratio(sum(s.hits for s in stats), lookups),
        "core.registry.digests": sum(a.registry.digest_count for a in agents),
        "core.registry.memory_mb": sum(a.registry.memory_bytes() for a in agents) / MIB,
        "sim.network.remote_mb": sum(a.fabric.stats.remote_bytes for a in agents) / MIB,
        "sim.network.failed_reads": sum(a.fabric.stats.failed_reads for a in agents),
        "tenancy.domains": len(agents[0].registry.domains()),
    }


# ------------------------------------------------------------------ common


def end_to_end(run: ReplayRun | DataplaneRun) -> dict[str, float]:
    if isinstance(run, ReplayRun):
        return replay_end_to_end(run)
    return dataplane_end_to_end(run)


def counters(run: ReplayRun | DataplaneRun) -> dict[str, float]:
    values = (
        replay_counters(run) if isinstance(run, ReplayRun) else dataplane_counters(run)
    )
    values["workload.generate_s"] = run.generate_s
    values["workload.requests"] = len(run.trace) if isinstance(run, ReplayRun) else 0
    return values


def traced_counters(
    tracer_counters: dict[str, float], name_self_s: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics taken at span boundaries during the traced run."""
    count = tracer_counters.get
    encode_s = name_self_s.get("compute_patches", 0.0) + name_self_s.get("compute_patch", 0.0)
    apply_s = name_self_s.get("apply_patch", 0.0) + name_self_s.get("apply_patch_into", 0.0)
    values = {
        "core.agent.pages": count("core.agent.pages", 0.0),
        "core.agent.patched_page_ratio": _ratio(
            count("core.agent.pages_patched", 0.0), count("core.agent.pages_parked", 0.0)
        ),
        "memory.synth.images": count("memory.synth.images", 0.0),
        "memory.synth.mb": count("memory.synth.bytes", 0.0) / MIB,
        "memory.fingerprint.pages": count("memory.fingerprint.pages", 0.0),
        "memory.patch.encode_s": encode_s,
        "memory.patch.index_s": name_self_s.get("build_anchor_index", 0.0),
        "memory.patch.apply_s": apply_s,
        "memory.patch.pages_encoded": count("memory.patch.pages_encoded", 0.0),
        "memory.patch.pages_applied": count("memory.patch.pages_applied", 0.0),
        "memory.patch.bytes_per_patched_page": _ratio(
            count("memory.patch.patch_bytes", 0.0), count("memory.patch.pages_encoded", 0.0)
        ),
    }
    dedups = count("core.agent.dedup_timed", 0.0)
    for stage in DEDUP_STAGES:
        key = f"core.agent.sim_dedup_ms.{stage}"
        values[key] = _ratio(count(key, 0.0), dedups)
    restores = count("core.agent.restore_timed", 0.0)
    for stage in RESTORE_STAGES:
        if stage != "promote":  # charged by the controller, read from records
            key = f"core.agent.sim_restore_ms.{stage}"
            values[key] = _ratio(count(key, 0.0), restores)
    return values
