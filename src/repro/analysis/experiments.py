"""Experiment drivers for every table and figure of the evaluation.

Each ``run_*`` function reproduces one experiment of Section 7 at
benchmark-friendly scale and returns a result object whose ``render()``
prints the same rows/series the paper reports.  The benchmark harness
under ``benchmarks/`` calls these drivers; EXPERIMENTS.md records the
measured values against the paper's.

Scale note: the paper replays 1-hour Azure traces (5x rate) on a 19-node
cluster.  These drivers default to 15-30 minute synthetic traces on a
2-4 node cluster with the same 2 GB/node software memory limit, which
preserves the oversubscription regime the evaluation depends on while
keeping each experiment at seconds-to-minutes of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro._util import MIB, percentile
from repro.analysis import tables
from repro.analysis.study import per_function_microbench
from repro.core.optimizer import Objective
from repro.core.policy import MedesPolicyConfig
from repro.memory.fingerprint import FingerprintConfig
from repro.platform.comparison import Comparison, run_comparison
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import REPRESENTATIVE_SUBSET, FunctionBenchSuite
from repro.workload.trace import Trace

#: Default workload scale for the full 10-function experiments.
FULL_DURATION_MIN = 20.0
FULL_SEED = 11
#: Default cluster for the full workload: oversubscribed like the paper's
#: 2 GB/node limit (Section 7.2).
FULL_NODES = 2
FULL_NODE_MB = 1024.0

#: Representative 3-function workload (Sections 7.5-7.8).
REP_DURATION_MIN = 15.0
REP_SEED = 13
REP_NODES = 2
REP_NODE_MB = 1152.0


def full_workload(
    duration_min: float = FULL_DURATION_MIN,
    seed: int = FULL_SEED,
    copies: int = 2,
) -> tuple[FunctionBenchSuite, Trace]:
    """The 10-environment Azure-style workload of Sections 7.2-7.4.

    As in the paper, several distinct functions (arrival patterns) share
    each FunctionBench environment.
    """
    suite = FunctionBenchSuite.replicated(FunctionBenchSuite.default().names(), copies)
    trace = AzureTraceGenerator(seed=seed).generate(duration_min, suite.names())
    return suite, trace


def representative_workload(
    duration_min: float = REP_DURATION_MIN,
    seed: int = REP_SEED,
    copies: int = 6,
) -> tuple[FunctionBenchSuite, Trace]:
    """The {LinAlg, FeatureGen, ModelTrain} workload of Section 7.5+."""
    suite = FunctionBenchSuite.replicated(REPRESENTATIVE_SUBSET, copies)
    trace = AzureTraceGenerator(seed=seed).generate(duration_min, suite.names())
    return suite, trace


def full_config(**overrides) -> ClusterConfig:
    base = ClusterConfig(nodes=FULL_NODES, node_memory_mb=FULL_NODE_MB, seed=1)
    return replace(base, **overrides) if overrides else base


def representative_config(**overrides) -> ClusterConfig:
    base = ClusterConfig(nodes=REP_NODES, node_memory_mb=REP_NODE_MB, seed=1)
    return replace(base, **overrides) if overrides else base


# --------------------------------------------------------------- Figure 7


@dataclass
class Fig7Result:
    """Figure 7 + Section 7.2.1: latency improvements and their sources."""

    comparison: Comparison
    improvement_vs_fixed: list[float]
    improvement_vs_adaptive: list[float]

    def render(self) -> str:
        comp = self.comparison
        out = [
            tables.render_cdf(
                self.improvement_vs_fixed,
                title="Fig 7a (left): e2e improvement factor vs Fixed Keep-Alive",
            ),
            tables.render_cdf(
                self.improvement_vs_adaptive,
                title="Fig 7a (right): e2e improvement factor vs Adaptive Keep-Alive",
            ),
        ]
        functions = comp.trace.functions()
        cold_rows = [
            [name] + [by_fn[fn] for fn in functions]
            for name, by_fn in comp.cold_start_table()
        ]
        out.append(
            tables.render_table(
                ["platform"] + list(functions),
                cold_rows,
                title="Fig 7b (top): cold starts per function",
            )
        )
        tail_rows = [
            [name] + [f"{by_fn[fn]:.0f}" for fn in functions]
            for name, by_fn in comp.tail_latency_table()
        ]
        out.append(
            tables.render_table(
                ["platform"] + list(functions),
                tail_rows,
                title="Fig 7b (bottom): 99.9p end-to-end latency (ms)",
            )
        )
        medes = comp.metrics(comp.medes_name())
        out.append(
            "Sources of improvement (Sec 7.2.1): "
            f"dedup share of sandboxes = {medes.dedup_share() * 100:.1f}%, "
            f"extra sandboxes vs fixed = {comp.extra_sandboxes_vs('fixed-ka-10min'):+.1f}%, "
            f"extra vs adaptive = {comp.extra_sandboxes_vs('adaptive-ka'):+.1f}%"
        )
        return "\n\n".join(out)


def run_fig7(
    *,
    duration_min: float = FULL_DURATION_MIN,
    seed: int = FULL_SEED,
    config: ClusterConfig | None = None,
    medes: MedesPolicyConfig | None = None,
) -> Fig7Result:
    """Figure 7: function startup improvements under the P1 policy."""
    suite, trace = full_workload(duration_min, seed)
    comparison = run_comparison(
        trace,
        suite,
        config or full_config(),
        medes=medes or MedesPolicyConfig(objective=Objective.LATENCY, alpha=2.5),
    )
    return Fig7Result(
        comparison=comparison,
        improvement_vs_fixed=comparison.improvement_over("fixed-ka-10min"),
        improvement_vs_adaptive=comparison.improvement_over("adaptive-ka"),
    )


# --------------------------------------------------------------- Figure 8


@dataclass
class Fig8Result:
    """Figure 8: dedup-start breakdown vs cold start per function."""

    rows: list[tuple[str, float, float, float, float, float]]
    """(function, cold_ms, base_read_ms, compute_ms, restore_ms, dedup_total_ms)."""

    def render(self) -> str:
        return tables.render_table(
            ["function", "cold (ms)", "base read", "page compute", "sandbox restore", "dedup start total"],
            [
                (fn, f"{cold:.0f}", f"{read:.1f}", f"{compute:.1f}", f"{fixed:.1f}", f"{read + compute + fixed:.1f}")
                for fn, cold, read, compute, fixed, _ in self.rows
            ],
            title="Fig 8: dedup start breakdown vs cold start",
        )


def run_fig8(*, content_scale: float = 1.0 / 64.0, seed: int = 3) -> Fig8Result:
    """Figure 8 via the per-function dedup/restore microbenchmark."""
    suite = FunctionBenchSuite.default()
    micro = per_function_microbench(suite, content_scale=content_scale, seed=seed)
    rows = []
    for profile in suite:
        result = micro[profile.name]
        rows.append(
            (
                profile.name,
                profile.cold_start_ms,
                result.restore_base_read_ms,
                result.restore_compute_ms,
                result.restore_fixed_ms,
                result.dedup_total_ms,
            )
        )
    return Fig8Result(rows=rows)


# --------------------------------------------------------------- Figure 9


@dataclass
class Fig9Result:
    """Figure 9: memory usage under the P2 (memory) objective."""

    comparison: Comparison
    same_function_share: float
    cross_function_share: float

    def render(self) -> str:
        rows = [
            (name, f"{mean:.0f}", f"{median:.0f}")
            for name, mean, median in self.comparison.memory_table()
        ]
        out = [
            tables.render_table(
                ["platform", "mean MB", "median MB"],
                rows,
                title="Fig 9a: cluster memory usage",
            )
        ]
        functions = self.comparison.trace.functions()
        cold_rows = [
            [name] + [by_fn[fn] for fn in functions]
            for name, by_fn in self.comparison.cold_start_table()
        ]
        out.append(
            tables.render_table(
                ["platform"] + list(functions),
                cold_rows,
                title="Fig 9b: cold starts per function",
            )
        )
        out.append(
            "Cross-function duplication (Sec 7.3.1): "
            f"{self.same_function_share * 100:.1f}% of deduped pages matched the same "
            f"function, {self.cross_function_share * 100:.1f}% a different function"
        )
        return "\n\n".join(out)


def run_fig9(
    *,
    duration_min: float = FULL_DURATION_MIN,
    seed: int = FULL_SEED,
    config: ClusterConfig | None = None,
    alpha: float = 2.5,
) -> Fig9Result:
    """Figure 9: the P2 policy with a per-cluster memory budget."""
    config = config or full_config()
    suite, trace = full_workload(duration_min, seed)
    medes = MedesPolicyConfig(
        objective=Objective.MEMORY,
        alpha=alpha,
        memory_budget_bytes=int(config.cluster_capacity_bytes * 0.8),
    )
    comparison = run_comparison(trace, suite, config, medes=medes)
    metrics = comparison.metrics(comparison.medes_name())
    same = sum(op.same_function_pages for op in metrics.dedup_ops)
    cross = sum(op.cross_function_pages for op in metrics.dedup_ops)
    total = max(1, same + cross)
    return Fig9Result(
        comparison=comparison,
        same_function_share=same / total,
        cross_function_share=cross / total,
    )


# ---------------------------------------------------------- Figures 10-11


@dataclass
class PressureResult:
    """Figures 10-11: behaviour across shrinking memory pools."""

    pool_labels: list[str]
    comparisons: dict[str, Comparison]

    def render(self) -> str:
        out = []
        rows = []
        for label in self.pool_labels:
            comp = self.comparisons[label]
            rows.append(
                [label] + [f"{comp.metrics(name).cold_starts()}" for name in comp.names]
            )
        names = self.comparisons[self.pool_labels[0]].names
        out.append(
            tables.render_table(
                ["pool"] + list(names),
                rows,
                title="Fig 10a: total cold starts vs cluster pool size",
            )
        )
        for label in self.pool_labels[1:]:
            comp = self.comparisons[label]
            functions = comp.trace.functions()
            cold_rows = []
            tail_rows = []
            for name in comp.names:
                by_fn = comp.metrics(name).cold_starts_by_function()
                cold_rows.append([name] + [by_fn.get(fn, 0) for fn in functions])
                tail_rows.append(
                    [name]
                    + [f"{comp.metrics(name).e2e_percentile(99.9, fn):.0f}" for fn in functions]
                )
            out.append(
                tables.render_table(
                    ["platform"] + list(functions),
                    cold_rows,
                    title=f"Fig 10b: cold starts per function under {label}",
                )
            )
            out.append(
                tables.render_table(
                    ["platform"] + list(functions),
                    tail_rows,
                    title=f"Fig 11: 99.9p e2e latency (ms) under {label}",
                )
            )
        return "\n\n".join(out)


def run_pressure(
    *,
    duration_min: float = FULL_DURATION_MIN,
    seed: int = FULL_SEED,
    pool_mb: tuple[float, ...] = (3072.0, 2304.0, 1792.0),
    nodes: int = FULL_NODES,
) -> PressureResult:
    """Figures 10-11: sweep the cluster pool size (the paper's 40/30/20G).

    The default ladder matches the paper's *relative* pressure: the
    largest pool roughly covers the fixed-keep-alive demand and the
    smaller pools undercut it, where dedup's smaller footprints matter
    most.
    """
    suite, trace = full_workload(duration_min, seed)
    labels = []
    comparisons = {}
    for pool in pool_mb:
        label = f"{pool:.0f}MB"
        config = ClusterConfig(nodes=nodes, node_memory_mb=pool / nodes, seed=1)
        comparisons[label] = run_comparison(trace, suite, config)
        labels.append(label)
    return PressureResult(pool_labels=labels, comparisons=comparisons)


# --------------------------------------------------------------- Figure 12


@dataclass
class Fig12Result:
    """Figure 12: keep-alive period sweep vs Medes."""

    cold_starts: dict[str, int]

    def render(self) -> str:
        return tables.render_table(
            ["policy", "cold starts"],
            [(name, count) for name, count in self.cold_starts.items()],
            title="Fig 12: keep-alive sweep vs Medes (representative workload)",
        )


def run_fig12(
    *,
    duration_min: float = REP_DURATION_MIN,
    seed: int = REP_SEED,
    keep_alive_minutes: tuple[float, ...] = (5, 10, 15, 20),
    config: ClusterConfig | None = None,
) -> Fig12Result:
    """Figure 12: can a tuned fixed keep-alive match Medes?"""
    suite, trace = representative_workload(duration_min, seed)
    config = config or representative_config()
    cold_starts: dict[str, int] = {}
    for minutes in keep_alive_minutes:
        platform = build_platform(
            PlatformKind.FIXED_KEEP_ALIVE,
            config,
            suite,
            fixed_keep_alive_ms=minutes * 60_000.0,
        )
        report = platform.run(trace)
        cold_starts[f"KA-{minutes:g}"] = report.metrics.cold_starts()
    medes = build_platform(PlatformKind.MEDES, config, suite)
    cold_starts["Medes"] = medes.run(trace).metrics.cold_starts()
    return Fig12Result(cold_starts=cold_starts)


# --------------------------------------------------------------- Figure 13


@dataclass
class Fig13Result:
    """Figure 13: emulated Catalyzer with and without Medes."""

    cold_starts: dict[str, int]

    def render(self) -> str:
        return tables.render_table(
            ["system", "cold starts"],
            list(self.cold_starts.items()),
            title="Fig 13: integrating Medes with optimized checkpoint-restore",
        )


def run_fig13(
    *,
    duration_min: float = REP_DURATION_MIN,
    seed: int = REP_SEED,
    config: ClusterConfig | None = None,
) -> Fig13Result:
    """Figure 13: Catalyzer-style cold starts, with and without Medes."""
    suite, trace = representative_workload(duration_min, seed)
    config = config or representative_config()
    emulated = build_platform(
        PlatformKind.FIXED_KEEP_ALIVE, config, suite, catalyzer=True
    ).run(trace)
    combined = build_platform(PlatformKind.MEDES, config, suite, catalyzer=True).run(trace)
    return Fig13Result(
        cold_starts={
            "Emulated Catalyzer": emulated.metrics.cold_starts(),
            "Emulated Catalyzer + Medes": combined.metrics.cold_starts(),
        }
    )


# ----------------------------------------------------- Sensitivity (7.8)


@dataclass
class SweepResult:
    """A one-parameter sensitivity sweep (Figures 14-16)."""

    title: str
    parameter: str
    cold_starts: dict[str, int]
    extras: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    """Per-setting auxiliary metric (e.g. mean savings fraction)."""

    def render(self) -> str:
        rows = [
            [label, count, self.extras.get(label, "")]
            for label, count in self.cold_starts.items()
        ]
        return tables.render_table(
            [self.parameter, "cold starts", "notes"], rows, title=self.title
        )


def run_fig14(
    *,
    duration_min: float = REP_DURATION_MIN,
    seed: int = REP_SEED,
    chunk_sizes: tuple[int, ...] = (32, 64, 128),
    config: ClusterConfig | None = None,
) -> SweepResult:
    """Figure 14: RSC chunk-size sensitivity.

    Smaller chunks collide in the fingerprint table (modelled by digest
    truncation), larger chunks identify less redundancy; both inflate
    retained footprints and hence cold starts.
    """
    suite, trace = representative_workload(duration_min, seed)
    base_config = config or representative_config()
    digest_bits = {32: 14, 64: 64, 128: 64}
    cold, extras, metrics = {}, {}, {}
    for chunk in chunk_sizes:
        fingerprint = FingerprintConfig(chunk_size=chunk, digest_bits=digest_bits[chunk])
        cfg = replace(base_config, fingerprint=fingerprint)
        report = build_platform(PlatformKind.MEDES, cfg, suite).run(trace)
        cold[f"{chunk}B"] = report.metrics.cold_starts()
        if report.metrics.dedup_ops:
            mean_saving = float(
                np.mean([op.savings_fraction for op in report.metrics.dedup_ops])
            )
            extras[f"{chunk}B"] = f"mean savings {mean_saving * 100:.0f}%"
            metrics[f"{chunk}B"] = mean_saving
    return SweepResult(
        title="Fig 14: sensitivity to the RSC chunk size",
        parameter="chunk size",
        cold_starts=cold,
        extras=extras,
        metrics=metrics,
    )


def run_fig15(
    *,
    duration_min: float = REP_DURATION_MIN,
    seed: int = REP_SEED,
    keep_dedup_minutes: tuple[float, ...] = (5, 10, 15, 20),
    config: ClusterConfig | None = None,
) -> SweepResult:
    """Figure 15: keep-dedup period sweep (plus a no-dedup reference)."""
    suite, trace = representative_workload(duration_min, seed)
    base_config = config or representative_config()
    cold: dict[str, int] = {}
    no_dedup = build_platform(
        PlatformKind.FIXED_KEEP_ALIVE, base_config, suite
    ).run(trace)
    cold["No Dedup"] = no_dedup.metrics.cold_starts()
    for minutes in keep_dedup_minutes:
        medes = MedesPolicyConfig(keep_dedup_ms=minutes * 60_000.0)
        report = build_platform(
            PlatformKind.MEDES, base_config, suite, medes=medes
        ).run(trace)
        cold[f"Keep-Dedup {minutes:g} min"] = report.metrics.cold_starts()
    return SweepResult(
        title="Fig 15: sensitivity to the keep-dedup period",
        parameter="keep-dedup",
        cold_starts=cold,
    )


@dataclass
class Fig16Result:
    """Figure 16: fingerprint set cardinality sensitivity."""

    cold_starts: dict[str, int]
    slowdowns: dict[str, list[float]]
    restore_ms: dict[str, float]
    savings_mb: dict[str, float]

    def render(self) -> str:
        rows = [
            [
                label,
                self.cold_starts[label],
                f"{self.restore_ms[label]:.0f}",
                f"{self.savings_mb[label]:.1f}",
                f"p99={percentile(self.slowdowns[label], 99):.2f}",
            ]
            for label in self.cold_starts
        ]
        return tables.render_table(
            ["cardinality", "cold starts", "mean restore ms", "mean saved MB/sandbox", "slowdown"],
            rows,
            title="Fig 16: sensitivity to the fingerprint set cardinality",
        )


def run_fig16(
    *,
    duration_min: float = REP_DURATION_MIN,
    seed: int = REP_SEED,
    cardinalities: tuple[int, ...] = (5, 10, 20),
    config: ClusterConfig | None = None,
) -> Fig16Result:
    """Figure 16: higher cardinality saves more memory, restores slower."""
    suite, trace = representative_workload(duration_min, seed)
    base_config = config or representative_config()
    cold, slowdowns, restores, savings = {}, {}, {}, {}
    for cardinality in cardinalities:
        fingerprint = FingerprintConfig(cardinality=cardinality)
        cfg = replace(base_config, fingerprint=fingerprint)
        report = build_platform(PlatformKind.MEDES, cfg, suite).run(trace)
        label = str(cardinality)
        metrics = report.metrics
        cold[label] = metrics.cold_starts()
        slowdowns[label] = [r.slowdown for r in metrics.completed_records()]
        restores[label] = (
            float(np.mean([r.total_ms for r in metrics.restore_ops]))
            if metrics.restore_ops
            else 0.0
        )
        if metrics.dedup_ops:
            saved = [
                op.savings_fraction * suite.get(op.function).memory_mb
                for op in metrics.dedup_ops
            ]
            savings[label] = float(np.mean(saved))
        else:
            savings[label] = 0.0
    return Fig16Result(
        cold_starts=cold, slowdowns=slowdowns, restore_ms=restores, savings_mb=savings
    )


# ------------------------------------------------------- Overheads (7.7)


@dataclass
class OverheadResult:
    """Section 7.7: dedup agent and controller overheads."""

    dedup_duration_ms: dict[str, float]
    lookup_ms: dict[str, float]
    registry_bytes: int
    registry_digests: int
    agent_metadata_share: float

    def render(self) -> str:
        rows = [
            (fn, f"{self.dedup_duration_ms[fn]:.0f}", f"{self.lookup_ms[fn]:.0f}")
            for fn in self.dedup_duration_ms
        ]
        out = [
            tables.render_table(
                ["function", "dedup op total (ms)", "registry lookup (ms)"],
                rows,
                title="Sec 7.7: dedup op duration by function",
            ),
            f"Controller fingerprint registry: {self.registry_digests} digests, "
            f"{self.registry_bytes / MIB:.1f} MB",
            f"Dedup agent metadata + base checkpoints: "
            f"{self.agent_metadata_share * 100:.1f}% of node memory usage",
        ]
        return "\n\n".join(out)


def run_overheads(
    *,
    duration_min: float = REP_DURATION_MIN,
    seed: int = REP_SEED,
    config: ClusterConfig | None = None,
) -> OverheadResult:
    """Section 7.7 overheads from a Medes run plus the microbenchmark."""
    suite, trace = representative_workload(duration_min, seed)
    config = config or representative_config()
    platform = build_platform(PlatformKind.MEDES, config, suite)
    platform.run(trace)
    micro = per_function_microbench(FunctionBenchSuite.default(), seed=seed)
    dedup_ms = {fn: m.dedup_total_ms for fn, m in micro.items()}
    lookup_ms = {fn: m.dedup_lookup_ms for fn, m in micro.items()}
    checkpoint_bytes = sum(
        ck.memory_bytes() for node in platform.nodes for ck in node.checkpoints.values()
    )
    # Agent-side metadata proper: the per-page dedup table entries (the
    # patches/unique pages themselves are the dedup sandboxes' state,
    # not overhead).
    from repro.sandbox.sandbox import METADATA_BYTES_PER_PAGE

    table_metadata = sum(
        int(
            max(1, round(len(s.dedup_table.entries) / s.dedup_table.content_scale))
            * METADATA_BYTES_PER_PAGE
        )
        for node in platform.nodes
        for s in node.sandboxes.values()
        if s.dedup_table is not None
    )
    used = max(1, platform.controller.used_bytes())
    return OverheadResult(
        dedup_duration_ms=dedup_ms,
        lookup_ms=lookup_ms,
        registry_bytes=platform.registry.memory_bytes(),
        registry_digests=platform.registry.digest_count,
        agent_metadata_share=(checkpoint_bytes + table_metadata) / used,
    )
