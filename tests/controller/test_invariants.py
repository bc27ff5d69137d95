"""Property-based end-to-end invariants of the platform.

Hypothesis generates small arbitrary traces and feature mixes; after
every run, the platform must satisfy the core invariants regardless of
the arrival pattern: every request completes exactly once and restores
are byte-exact, and :func:`repro.invariants.check` — refcounts, node,
tier and template accounting, dispatch indexes, registry partitions —
holds at every simulated instant.  ``TestCheckNamesTheBrokenInvariant``
plants one corruption per invariant to show the checker names it, and
``TestLostNodeUpdate`` shows a drifted node counter is caught at the
instant it drifts.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import DedupMemo
from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash
from repro.invariants import check
from repro.platform.config import ClusterConfig
from repro.platform.metrics import RequestRecord, StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.node import AccountingError, Node
from repro.sandbox.state import SandboxState
from repro.templates.catalog import TemplateConfig
from repro.templates.delta import TemplateDeltaTable
from repro.tenancy.domains import DedupDomainMode, TenantConfig
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant
from tests.faults.test_recovery_invariants import fault_configs
from tests.platform.test_control_plane_equivalence import build_scenario

FUNCTIONS = ("Vanilla", "LinAlg", "RNNModel")

arrival_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=120_000.0),
        st.sampled_from(FUNCTIONS),
    ),
    min_size=1,
    max_size=12,
)

#: Bursts of one to three near-simultaneous arrivals, so sandboxes of a
#: function coexist and idle together; the gaps between bursts let
#: parked sandboxes (idle 5 s, then a ~1.3 s op) be restored or expire.
bursty_arrivals = st.lists(
    st.tuples(
        st.sampled_from([0.0, 500.0, 7_500.0, 9_000.0, 14_000.0, 30_000.0]),
        st.sampled_from(FUNCTIONS),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=8,
).map(
    lambda bursts: [
        (sum(gap for gap, _, _ in bursts[: k + 1]) + i, fn)
        for k, (_, fn, n) in enumerate(bursts)
        for i in range(n)
    ]
)

#: Every default-off feature, each drawn independently; a drawn fault
#: schedule heals inside the trace (tests/faults/test_recovery_invariants).
feature_mixes = st.fixed_dictionaries(
    {
        "checkpoint_tiering": st.booleans(),
        "template_sharing": st.booleans(),
        # A zero hot window lets placement drop any unshared replica.
        "templates": st.sampled_from([TemplateConfig(), TemplateConfig(hot_window_ms=0.0)]),
        "dedup_domains": st.sampled_from(
            [TenantConfig(), TenantConfig(mode=DedupDomainMode.PER_TENANT)]
        ),
        "registry_shards": st.sampled_from([1, 2]),
        "parallel_data_plane": st.booleans(),
        "faults": st.just(FaultsConfig()) | fault_configs,
        "node_memory_mb": st.sampled_from([100.0, 256.0]),
    }
)
tenant_labels = st.fixed_dictionaries(
    {name: st.sampled_from(("alice", "bob")) for name in FUNCTIONS}
)


def build(*, node_memory_mb=256.0, medes=None, **features):
    config = ClusterConfig(
        nodes=2,
        node_memory_mb=node_memory_mb,
        content_scale=1.0 / 256.0,
        seed=5,
        verify_restores=True,
        **features,
    )
    return build_platform(
        PlatformKind.MEDES,
        config,
        FunctionBenchSuite.subset(list(FUNCTIONS)),
        medes=medes or MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
    )


def run_platform(arrivals, **cluster):
    platform = build(**cluster)
    report = platform.run(Trace.from_arrivals(arrivals))
    return platform, report


class TestEndToEndInvariants:
    @settings(max_examples=15, deadline=None)
    @given(arrival_lists)
    def test_all_requests_complete_once(self, arrivals):
        _, report = run_platform(arrivals)
        assert len(report.metrics.requests) == len(arrivals)
        for record in report.metrics.requests.values():
            assert record.completion_ms is not None
            assert record.completion_ms >= record.arrival_ms
            assert record.start_type in StartType

    @settings(max_examples=15, deadline=None)
    @given(arrival_lists)
    def test_refcounts_balance(self, arrivals):
        """Refcounts equal the tables holding them, in flight or parked,
        at every instant."""
        platform = build()
        refcounts = check_every_instant(
            platform, lambda p: sum(checkpoint.refcount for checkpoint in p.store)
        )
        platform.run(Trace.from_arrivals(arrivals))
        assert refcounts and min(refcounts) >= 0

    @settings(max_examples=15, deadline=None)
    @given(arrival_lists)
    def test_node_accounting_consistent(self, arrivals):
        """Node counters equal their recounts at every instant, and no
        node could reclaim more than it holds."""
        platform = build()
        within = check_every_instant(
            platform, lambda p: all(n.reclaimable_bytes() <= n.used_bytes() for n in p.nodes)
        )
        platform.run(Trace.from_arrivals(arrivals))
        assert within and all(within)

    @settings(max_examples=60, deadline=None)
    @given(bursty_arrivals, tenant_labels, feature_mixes)
    def test_recounts_hold_at_every_instant(self, arrivals, tenant_of, features):
        # A short keep-dedup window, so within the trace tiering parks
        # tables on SSD, templates park deltas there, and both expire.
        platform = build(
            medes=MedesPolicyConfig(
                idle_period_ms=5_000.0, alpha=25.0, keep_dedup_ms=12_000.0
            ),
            **features,
        )
        instants = check_every_instant(platform)
        labelled = [(at, fn, tenant_of[fn]) for at, fn in arrivals]
        report = platform.run(Trace.from_arrivals(labelled))
        assert len(report.metrics.requests) == len(arrivals)
        assert len(instants) > len({at for at, _ in arrivals})

    @settings(max_examples=10, deadline=None)
    @given(arrival_lists)
    def test_pressured_runs_also_complete(self, arrivals):
        """Even a pool fitting ~1 large sandbox never loses requests."""
        _, report = run_platform(arrivals, node_memory_mb=100.0)
        assert all(
            r.completion_ms is not None for r in report.metrics.requests.values()
        )

    @settings(max_examples=10, deadline=None)
    @given(arrival_lists)
    def test_e2e_at_least_exec_plus_startup(self, arrivals):
        _, report = run_platform(arrivals)
        for record in report.metrics.requests.values():
            floor = record.exec_ms + record.startup_ms + record.queued_ms
            assert record.e2e_ms >= floor - 1e-6


# ------------------------------------------------------------- mutations


@pytest.fixture(scope="module")
def finished():
    """A drained run with every feature on: tiering, templates (a pool
    small enough that some parks fall to the dedup rung, so bases and
    registry rows exist too), per-tenant domains, two registry shards,
    the parallel data plane and a healed node crash."""
    tenant = {"Vanilla": "alice", "LinAlg": "bob", "RNNModel": "bob"}
    arrivals = [
        (0.0, "Vanilla"), (1.0, "Vanilla"), (2.0, "LinAlg"), (3.0, "LinAlg"),
        (4.0, "RNNModel"), (5.0, "RNNModel"), (26_000.0, "Vanilla"),
        (26_010.0, "LinAlg"), (26_020.0, "RNNModel"), (60_000.0, "Vanilla"),
        (61_000.0, "LinAlg"), (62_000.0, "RNNModel"), (100_000.0, "Vanilla"),
        (100_001.0, "Vanilla"), (101_000.0, "LinAlg"),
    ]  # fmt: skip
    platform, _ = run_platform(
        [(at, fn, tenant[fn]) for at, fn in arrivals],
        node_memory_mb=128.0,
        checkpoint_tiering=True,
        template_sharing=True,
        templates=TemplateConfig(pool_mb=8.0),
        dedup_domains=TenantConfig(mode=DedupDomainMode.PER_TENANT),
        registry_shards=2,
        parallel_data_plane=True,
        faults=FaultsConfig(
            schedule=FaultSchedule(
                node_crashes=(NodeCrash(at_ms=40_000.0, node_id=1, restart_at_ms=50_000.0),)
            )
        ),
    )
    return platform


def _rows(platform):
    """The first shard and domain whose rows hold two distinct digests."""
    return next(
        (shard, domain, rows)
        for shard in platform.registry.shards
        for domain, rows in shard.rows.items()
        if len(np.unique(rows.digests)) > 1
    )


def _segment(platform):
    return next(iter(platform.templates._segments.values()))


def _bump(mp, owner, attr, by=1):
    mp.setattr(owner, attr, getattr(owner, attr) + by)


def _misdefine_evictable(platform, mp):
    idle = next(
        s
        for node in platform.nodes
        for s in node.sandboxes.values()
        if not s.is_base and s.busy_request_id is None
    )
    mp.setattr(idle.state, "assignable", not idle.state.assignable)


def _attach_image(platform, mp):
    residents = [s for node in platform.nodes for s in node.sandboxes.values()]
    parked = next(s for s in residents if s.state is SandboxState.DEDUP)
    mp.setattr(parked, "image", next(s.image for s in residents if s.image is not None))


def _keep_delta_while_parked(platform, mp):
    residents = [s for node in platform.nodes for s in node.sandboxes.values()]
    parked = next(s for s in residents if isinstance(s.dedup_table, TemplateDeltaTable))
    mp.setattr(parked, "kept_delta", parked.dedup_table)


def _keep_choices_while_parked(platform, mp):
    residents = [s for node in platform.nodes for s in node.sandboxes.values()]
    parked = next(s for s in residents if s.state is SandboxState.DEDUP)
    level = platform.agents[parked.node_id].patch_level
    empty = np.empty(0, dtype=np.int64)
    mp.setattr(parked, "kept_choices", DedupMemo(level, empty, empty, empty.reshape(0, 3), ()))


def _drop_idle_warm(platform, mp):
    bucket = next(b for b in platform.controller._index.idle_warm.values() if b)
    mp.delitem(bucket, next(iter(bucket)))


def _swap_first_and_last_rows(platform, mp):
    rows = _rows(platform)[2]
    for column in ("digests", "ref_ids"):
        values = getattr(rows, column).copy()
        values[[0, -1]] = values[[-1, 0]]
        mp.setattr(rows, column, values)


def _rename_domain(platform, mp):
    shard, domain, rows = _rows(platform)
    mp.delitem(shard.rows, domain)
    mp.setitem(shard.rows, "tenant:mallory", rows)


#: Invariant name -> a corruption that breaks it alone.
CORRUPTIONS = {
    "request log": lambda p, mp: _bump(mp, p.metrics.requests.rows, "_size", -1),
    "requests held": lambda p, mp: mp.setitem(
        p.controller._inflight, -1, (None, None, RequestRecord(-1, "Vanilla", 0.0))
    ),
    "node used bytes": lambda p, mp: _bump(mp, p.nodes[0], "_used"),
    "reclaimable bytes": lambda p, mp: _bump(mp, p.nodes[0], "_reclaimable"),
    "evictable": _misdefine_evictable,
    "parked image": _attach_image,
    "kept delta": _keep_delta_while_parked,
    "kept choices": _keep_choices_while_parked,
    "checkpoint refcount": lambda p, mp: _bump(mp, next(iter(p.store)), "refcount"),
    "segment refcount": lambda p, mp: _bump(mp, _segment(p), "refcount"),
    "template sharers": lambda p, mp: mp.setitem(_segment(p).sharers, 99, 1),
    "template pool bytes": lambda p, mp: _bump(mp, p.templates.pool.account, "used_bytes"),
    "tier accounts": lambda p, mp: _bump(mp, p.store.ssd[0], "used_bytes"),
    "parked tables": lambda p, mp: mp.setitem(p.controller._parked, -1, None),
    "dispatch index": _drop_idle_warm,
    "node order": lambda p, mp: mp.setattr(p.controller._usage, "_order", []),
    "cluster used bytes": lambda p, mp: _bump(mp, p.controller._usage, "used_total"),
    "registry claims": lambda p, mp: mp.setattr(p.registry._refs, "domain_of", {}),
    "registry rows sorted": _swap_first_and_last_rows,
    "registry domain": _rename_domain,
    "registry free ids": lambda p, mp: mp.setattr(
        p.registry._refs, "free", [int(_rows(p)[2].ref_ids[0])]
    ),
}


class TestCheckNamesTheBrokenInvariant:
    @pytest.mark.parametrize("invariant", list(CORRUPTIONS))
    def test_named(self, finished, monkeypatch, invariant):
        CORRUPTIONS[invariant](finished, monkeypatch)
        with pytest.raises(AccountingError, match=f"^{invariant}: "):
            check(finished)


class TestLostNodeUpdate:
    """A node counter that misses an update (the 3rd admission adds one
    byte too many) fails the check at the instant it drifts, long before
    the check ``Platform.run`` makes after drain."""

    SCENARIO = "pressure/eviction"

    @pytest.fixture(scope="class")
    def clean_instants(self) -> int:
        platform, trace, instants = build_scenario(self.SCENARIO)
        platform.run(trace)
        return len(instants)

    @pytest.mark.parametrize(
        "counter,invariant",
        [("_used", "node used bytes"), ("_reclaimable", "reclaimable bytes")],
    )
    def test_caught_at_its_instant(self, monkeypatch, clean_instants, counter, invariant):
        admit = Node.admit
        admissions = itertools.count(1)

        def lossy_admit(node, sandbox):
            admit(node, sandbox)
            if next(admissions) == 3:
                setattr(node, counter, getattr(node, counter) + 1)

        monkeypatch.setattr(Node, "admit", lossy_admit)
        platform, trace, instants = build_scenario(self.SCENARIO)
        with pytest.raises(AccountingError, match=f"^{invariant}: "):
            platform.run(trace)
        assert len(instants) < clean_instants
