"""Isolation tax and leak signal of tenant-scoped dedup domains (§15).

Two questions, one benchmark:

1. **Isolation tax** — what do dedup domains cost?  The Fig-10 pressure
   ladder (the paper's 40/30/20 GB pool points, scaled) is replayed with
   every function owned by its own tenant, under three domain policies:
   ``all`` (``dedup_domains=off``, cluster-wide sharing — the paper's
   behaviour), ``10`` (trust groups of ten tenants), and ``1``
   (``per_tenant``, no cross-tenant merging at all).  Reported per rung:
   mean cluster memory, cold-start rate, dedup savings, and startup
   latency percentiles — the price of shrinking the sharing pool.

2. **Leak signal** — what does isolation buy?  The seeded remote-dedup
   attack scenario (:mod:`repro.tenancy.attack`) is run under each
   policy and reports the attacker's distinguishing accuracy between
   planted-hit and planted-miss probes: ~1.0 whenever attacker and
   victim share a domain (a measurable channel), ~0.5 (a coin flip)
   when domains separate them.

Results go to ``BENCH_tenant_isolation.json`` at the repo root.

Run standalone for the full ladder::

    PYTHONPATH=src python -m benchmarks.bench_tenant_isolation

or via pytest for a reduced smoke configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib

from benchmarks.conftest import environment, write_result

from repro.analysis.experiments import full_workload
from repro.analysis.tables import render_table
from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.tenancy.attack import ATTACKER_TENANT, VICTIM_TENANT, AttackConfig, run_attack
from repro.tenancy.domains import DedupDomainMode, TenantConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_JSON = REPO_ROOT / "BENCH_tenant_isolation.json"

#: The Figure-10 ladder: the paper's 40/30/20 GB cluster pools, scaled.
DEFAULT_POOL_MB = (3072.0, 2304.0, 1792.0)
DEFAULT_NODES = 2
DEFAULT_DURATION_MIN = 20.0
DEFAULT_SEED = 11

MEDES = MedesPolicyConfig()


def domain_policies(functions: tuple[str, ...]) -> dict[str, TenantConfig]:
    """The domain-size ladder: every function is its own tenant, and the
    policy decides how many tenants pool their dedup state."""
    tenants = [f"tenant-{name}" for name in functions]
    groups_of_ten = tuple(
        (f"group-{index}", tuple(tenants[index * 10 : (index + 1) * 10]))
        for index in range((len(tenants) + 9) // 10)
    )
    return {
        "all": TenantConfig(),
        "10": TenantConfig(
            mode=DedupDomainMode.TRUST_GROUPS, trust_groups=groups_of_ten
        ),
        "1": TenantConfig(mode=DedupDomainMode.PER_TENANT),
    }


def _pct(metrics, pct, start: StartType | None, metric: str = "startup") -> float:
    value = metrics.latency_percentile(pct, start_type=start, metric=metric)
    return None if math.isnan(value) else round(value, 3)


def run_point(pool_mb: float, nodes: int, duration_min: float, seed: int) -> dict:
    """One pool size under each domain policy, same trace and tenants."""
    suite, trace = full_workload(duration_min, seed)
    tenant_of = {name: f"tenant-{name}" for name in suite.names()}
    trace = trace.with_tenants(tenant_of)
    samples = {}
    for label, policy in domain_policies(suite.names()).items():
        config = ClusterConfig(
            nodes=nodes,
            node_memory_mb=pool_mb / nodes,
            seed=1,
            dedup_domains=policy,
        )
        platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
        metrics = platform.run(trace).metrics
        counts = metrics.start_counts()
        requests = len(metrics.requests)
        dedup_savings = [op.savings_fraction for op in metrics.dedup_ops]
        samples[label] = {
            "requests": requests,
            "domains": len(platform.registry.domains()),
            "cold_starts": counts.get(StartType.COLD, 0),
            "warm_starts": counts.get(StartType.WARM, 0),
            "dedup_starts": counts.get(StartType.DEDUP, 0),
            "cold_start_rate": round(counts.get(StartType.COLD, 0) / requests, 4),
            "bases_created": metrics.bases_created,
            "dedup_ops": len(metrics.dedup_ops),
            "mean_dedup_savings": round(
                sum(dedup_savings) / len(dedup_savings), 4
            )
            if dedup_savings
            else None,
            "mean_memory_mb": round(metrics.mean_memory_bytes() / 2**20, 1),
            "p50_e2e_ms": _pct(metrics, 50, None, "e2e"),
            "p99_e2e_ms": _pct(metrics, 99, None, "e2e"),
            "p50_startup_ms": _pct(metrics, 50, None),
            "p99_startup_ms": _pct(metrics, 99, None),
            "p50_startup_dedup_ms": _pct(metrics, 50, StartType.DEDUP),
        }
    shared = samples["all"]
    for label, sample in samples.items():
        sample["memory_tax_mb"] = round(
            sample["mean_memory_mb"] - shared["mean_memory_mb"], 1
        )
        sample["cold_rate_tax"] = round(
            sample["cold_start_rate"] - shared["cold_start_rate"], 4
        )
    return {
        "pool_mb": pool_mb,
        "requests": shared["requests"],
        "domain_size": samples,
    }


def leak_curve(rounds: int, seed: int) -> list[dict]:
    """The attacker's distinguishing accuracy under each domain policy."""
    same_group = TenantConfig(
        mode=DedupDomainMode.TRUST_GROUPS,
        trust_groups=(("shared", (VICTIM_TENANT, ATTACKER_TENANT)),),
    )
    cross_group = TenantConfig(
        mode=DedupDomainMode.TRUST_GROUPS,
        trust_groups=(
            ("victims", (VICTIM_TENANT,)),
            ("attackers", (ATTACKER_TENANT,)),
        ),
    )
    policies = [
        ("off", TenantConfig()),
        ("trust_groups:same-group", same_group),
        ("trust_groups:cross-group", cross_group),
        ("per_tenant", TenantConfig(mode=DedupDomainMode.PER_TENANT)),
    ]
    config = AttackConfig(rounds=rounds, seed=seed)
    curve = []
    for label, policy in policies:
        result = run_attack(policy, config)
        curve.append(
            {
                "policy": label,
                "rounds": rounds,
                "leak_accuracy": round(result.leak_accuracy, 4),
                "mean_hit_startup_ms": round(result.mean_hit_startup_ms, 1),
                "mean_miss_startup_ms": round(result.mean_miss_startup_ms, 1),
                "hit_start_types": sorted(
                    {
                        o.second_start_type
                        for o in result.observations
                        if o.kind == "hit"
                    }
                ),
                "miss_start_types": sorted(
                    {
                        o.second_start_type
                        for o in result.observations
                        if o.kind == "miss"
                    }
                ),
            }
        )
    return curve


def run_sweep(
    pool_mb: tuple[float, ...] = DEFAULT_POOL_MB,
    nodes: int = DEFAULT_NODES,
    duration_min: float = DEFAULT_DURATION_MIN,
    seed: int = DEFAULT_SEED,
    attack_rounds: int = 12,
) -> dict:
    results = [run_point(pool, nodes, duration_min, seed) for pool in pool_mb]
    return {
        "benchmark": "tenant_isolation",
        "units": "isolation tax per Fig-10 pool point; leak accuracy per policy",
        "config": {
            "pool_mb": list(pool_mb),
            "nodes": nodes,
            "trace_minutes": duration_min,
            "seed": seed,
            "attack_rounds": attack_rounds,
            **environment(),
        },
        "results": results,
        "leak_signal": leak_curve(attack_rounds, seed),
    }


def _render(report: dict) -> str:
    rows = []
    for point in report["results"]:
        for label in ("all", "10", "1"):
            sample = point["domain_size"][label]
            rows.append(
                [
                    f"{point['pool_mb']:.0f}MB",
                    label,
                    sample["domains"],
                    sample["cold_starts"],
                    f"{sample['cold_start_rate']:.3f}",
                    f"{sample['mean_memory_mb']:.0f}",
                    f"{sample['memory_tax_mb']:+.0f}",
                    sample["p50_startup_ms"],
                    sample["p99_startup_ms"],
                ]
            )
    tax = render_table(
        [
            "pool",
            "domain",
            "domains",
            "cold",
            "cold rate",
            "mem MB",
            "tax MB",
            "p50 start",
            "p99 start",
        ],
        rows,
        title="Fig 10 pressure ladder under dedup-domain sizes all/10/1",
    )
    leak_rows = [
        [
            entry["policy"],
            f"{entry['leak_accuracy']:.3f}",
            f"{entry['mean_hit_startup_ms']:.0f}",
            f"{entry['mean_miss_startup_ms']:.0f}",
        ]
        for entry in report["leak_signal"]
    ]
    leak = render_table(
        ["policy", "leak accuracy", "hit start ms", "miss start ms"],
        leak_rows,
        title="Remote-dedup attack: distinguishing accuracy per policy",
    )
    return tax + "\n\n" + leak


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pool-mb", type=float, nargs="+", default=list(DEFAULT_POOL_MB)
    )
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    parser.add_argument("--duration-min", type=float, default=DEFAULT_DURATION_MIN)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--attack-rounds", type=int, default=12)
    args = parser.parse_args(argv)
    report = run_sweep(
        pool_mb=tuple(args.pool_mb),
        nodes=args.nodes,
        duration_min=args.duration_min,
        seed=args.seed,
        attack_rounds=args.attack_rounds,
    )
    OUTPUT_JSON.write_text(json.dumps(report, indent=2) + "\n")
    text = _render(report)
    write_result("tenant_isolation", text)
    print(text)
    print(f"\nwrote {OUTPUT_JSON}")


def test_tenant_isolation_smoke():
    """Reduced sweep pinning both acceptance claims.

    The channel must be statistically visible under global sharing and
    null under per-tenant domains; the tax rows must partition the
    registry as configured (one domain under ``all``, many under ``1``).
    """
    report = run_sweep(
        pool_mb=(DEFAULT_POOL_MB[0],), duration_min=6.0, attack_rounds=4
    )
    leak = {entry["policy"]: entry["leak_accuracy"] for entry in report["leak_signal"]}
    assert leak["off"] >= 0.9, leak
    assert leak["trust_groups:same-group"] >= 0.9, leak
    assert leak["trust_groups:cross-group"] <= 0.6, leak
    assert leak["per_tenant"] <= 0.6, leak
    for point in report["results"]:
        sizes = point["domain_size"]
        assert sizes["all"]["domains"] == 1, sizes["all"]
        assert sizes["1"]["domains"] > sizes["10"]["domains"] >= 1, sizes
        assert sizes["all"]["memory_tax_mb"] == 0.0


if __name__ == "__main__":
    main()
