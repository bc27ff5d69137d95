"""Property: every sharing decision stays inside the requester's domain.

For any trace x tenant assignment x domain policy, after a full Medes
run (dedup + template sharing + sharded or plain registry):

* every base checkpoint carries its owner's domain, and the registry's
  claim map agrees;
* every registry partition contains only refs of checkpoints in that
  partition's domain;
* every dedup sandbox's patched pages reference bases in the sandbox's
  own domain, and every template delta's segment keys carry it;
* a function served under two different tenant labels trips the
  controller's ownership check instead of blending domains.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.policy import MedesPolicyConfig
from repro.invariants import check
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.tenancy.domains import DedupDomainMode, TenantConfig
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

SCALE = 1.0 / 256.0
MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)
FUNCTIONS = ("Vanilla", "LinAlg", "FeatureGen")
TENANTS = ("alice", "bob", "carol")

POLICIES = (
    TenantConfig(),
    TenantConfig(mode=DedupDomainMode.PER_TENANT),
    TenantConfig(
        mode=DedupDomainMode.TRUST_GROUPS, trust_groups=(("pair", ("alice", "bob")),)
    ),
    TenantConfig(
        mode=DedupDomainMode.TRUST_GROUPS,
        trust_groups=(("solo-a", ("alice",)), ("solo-c", ("carol",))),
    ),
)

scenarios = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(POLICIES),
        "tenant_of": st.fixed_dictionaries(
            {name: st.sampled_from(TENANTS) for name in FUNCTIONS}
        ),
        "shards": st.sampled_from([1, 4]),
        "seed": st.integers(0, 2**16),
    }
)

#: Two bursts so bases form, idle, and serve dedup restores; a tail
#: arrival re-exercises the candidate indexes late in the run.
ARRIVAL_PATTERN = [
    (0.0, "Vanilla"),
    (1.0, "Vanilla"),
    (2.0, "LinAlg"),
    (3.0, "FeatureGen"),
    (4.0, "FeatureGen"),
    (26_000.0, "Vanilla"),
    (26_010.0, "LinAlg"),
    (60_000.0, "FeatureGen"),
    (61_000.0, "Vanilla"),
]


def run_scenario(policy, tenant_of, shards, seed):
    suite = FunctionBenchSuite.subset(list(FUNCTIONS))
    trace = Trace.from_arrivals(
        [(at, fn, tenant_of[fn]) for at, fn in ARRIVAL_PATTERN]
    )
    config = ClusterConfig(
        nodes=2,
        node_memory_mb=256.0,
        content_scale=SCALE,
        seed=seed,
        registry_shards=shards,
        template_sharing=True,
        dedup_domains=policy,
    )
    platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
    report = platform.run(trace)
    return platform, report


class TestDomainPurity:
    @settings(max_examples=10, deadline=None)
    @given(scenarios)
    def test_every_decision_stays_in_domain(self, scenario):
        policy = scenario["policy"]
        tenant_of = scenario["tenant_of"]
        platform, report = run_scenario(
            policy, tenant_of, scenario["shards"], scenario["seed"]
        )
        expected = {fn: policy.domain_of(tenant_of[fn]) for fn in FUNCTIONS}
        # Checkpoints, sandboxes and segments carry their function's
        # domain under this policy; check() proves the registry's
        # partitions and every live table stay inside those domains.
        for checkpoint in platform.store:
            assert checkpoint.domain == expected[checkpoint.function]
        for node in platform.nodes:
            for sandbox in node.sandboxes.values():
                assert sandbox.domain == expected[sandbox.function]
        domains = set(expected.values())
        assert set(platform.registry.domains()) <= domains
        if platform.templates is not None:
            assert {key[0] for key in platform.templates._segments} <= domains
        check(platform)
        # The structural partition held, so the defence-in-depth counter
        # never fired.
        assert report.metrics.cross_domain_replica_skips == 0


class TestTenantOwnershipTripwire:
    def test_function_cannot_serve_two_tenants(self):
        suite = FunctionBenchSuite.subset(["Vanilla"])
        config = ClusterConfig(
            nodes=1,
            node_memory_mb=256.0,
            content_scale=SCALE,
            dedup_domains=TenantConfig(mode=DedupDomainMode.PER_TENANT),
        )
        platform = build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)
        trace = Trace.from_arrivals(
            [(0.0, "Vanilla", "alice"), (1.0, "Vanilla", "mallory")]
        )
        with pytest.raises(ValueError, match="tenant"):
            platform.run(trace)
