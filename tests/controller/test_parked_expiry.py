"""Parked state keeps its keep-dedup clock (paper §5, Fig 15).

A table parked on SSD — a patch table under checkpoint tiering or a
template delta — still belongs to a dedup sandbox, so it expires like
one: parked by its own keep-dedup expiry, a patch table gets one fresh
window; parked by eviction, a table keeps the window it had.  Either
way it is purged when the window closes, which releases the bases its
table pins, so queued work behind them can run.
"""

from __future__ import annotations

import pytest

from repro.core.policy import MedesPolicyConfig
from repro.faults.retry import RetryExhausted
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.node import AccountingError
from repro.storage.tiers import StorageTier
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant, record_replica_drops

KEEP_DEDUP_MS = 12_000.0


def parked_tables(platform) -> int:
    """Residents whose table is parked on SSD."""
    return sum(
        sandbox.table_tier is not None
        for node in platform.nodes
        for sandbox in node.sandboxes.values()
    )


def build(*, nodes=2, node_memory_mb=100.0, **features):
    config = ClusterConfig(
        nodes=nodes,
        node_memory_mb=node_memory_mb,
        content_scale=1.0 / 256.0,
        seed=5,
        verify_restores=True,
        checkpoint_tiering=True,
        **features,
    )
    return build_platform(
        PlatformKind.MEDES,
        config,
        FunctionBenchSuite.subset(["Vanilla", "LinAlg", "RNNModel"]),
        medes=MedesPolicyConfig(
            idle_period_ms=5_000.0, alpha=25.0, keep_dedup_ms=KEEP_DEDUP_MS
        ),
    )


def test_parked_tables_expire_so_a_large_function_runs():
    """LinAlg's parked tables pin the Vanilla bases; once they expire,
    the starvation path may evict those bases and the 90 MB RNNModel
    fits on a 100 MB node."""
    linalg = [14_000, 14_001, 30_000, 30_001, 44_000, 60_000, 74_000, 82_000]
    arrivals = sorted(
        [(0.0, "Vanilla"), (14_000.0, "Vanilla"), (82_500.0, "RNNModel")]
        + [(float(at), "LinAlg") for at in linalg]
    )
    platform = build()
    check_every_instant(platform)
    metrics = platform.run(Trace.from_arrivals(arrivals)).metrics
    assert metrics.table_demotions > 0
    assert len(metrics.requests) == len(arrivals)
    assert all(record.completion_ms is not None for record in metrics.requests.values())


#: Each case parks one LinAlg table on SSD, for one keep-dedup window.
PARKS_ONE_TABLE = pytest.mark.parametrize(
    ("arrivals", "template_sharing"),
    [
        # Two LinAlg sandboxes idle; one dedups, and its keep-dedup
        # expiry parks the patch table on SSD (19.8-31.8 s).
        ([(0.0, "LinAlg"), (1.0, "LinAlg")], False),
        # The second RNNModel evicts the last LinAlg: it parks as a
        # template delta, and the same eviction moves the delta to SSD
        # (3.0-15.0 s).
        ([(0.0, "LinAlg"), (3_000.0, "RNNModel"), (3_001.0, "RNNModel")], True),
    ],
    ids=["patch-table", "template-delta"],
)


@PARKS_ONE_TABLE
def test_a_parked_table_is_purged_one_window_after_it_parks(arrivals, template_sharing):
    platform = build(template_sharing=template_sharing)
    parked = check_every_instant(platform, lambda p: (p.sim.now, parked_tables(p)))
    metrics = platform.run(Trace.from_arrivals(arrivals)).metrics
    changes = [(now, count) for (now, count), (_, was) in zip(parked[1:], parked) if count != was]
    assert [count for _, count in changes] == [1, 0]
    (parked_at, _), (purged_at, _) = changes
    assert purged_at == pytest.approx(parked_at + KEEP_DEDUP_MS)
    if template_sharing:
        assert (metrics.template_delta_spills, metrics.table_demotions) == (1, 0)
    else:
        assert (metrics.template_delta_spills, metrics.table_demotions) == (0, 1)


@PARKS_ONE_TABLE
def test_a_failed_start_leaves_the_table_parked(arrivals, template_sharing, monkeypatch):
    """The agent's ops are all-or-nothing, so a restore or fork that
    exhausts its retries reads nothing back: the table stays parked on
    SSD, the node's DRAM is not recharged, and the request pays the
    failed attempts on its cold start."""
    # The patch case's LinAlg base is warm: the first late arrival
    # takes it, and the second reaches the parked table.
    late_ms = 13_000.0 if template_sharing else 20_000.0
    late = [(late_ms, "LinAlg")] * (1 if template_sharing else 2)
    platform = build(template_sharing=template_sharing)
    metrics = platform.metrics
    attempts, snapshots = [], []

    def fail(*args, **kwargs):
        attempts.append(platform.sim.now)
        raise RetryExhausted("restore-fetch", 3, 7.5)

    def snapshot(sandbox, residents):
        """What a failed start must leave alone; the node's charge
        leaves out the sandboxes spawned since ``residents``."""
        node = platform.nodes[sandbox.node_id]
        spawned = [s for s in node.sandboxes.values() if s.sandbox_id not in residents]
        return (
            sandbox.table_tier,
            parked_tables(platform),
            metrics.table_demotions,
            metrics.table_promotions,
            node.used_bytes() - sum(s.memory_bytes() for s in spawned),
        )

    def arm():
        (sandbox,) = [s for n in platform.nodes for s in n.sandboxes.values() if s.table_tier]
        monkeypatch.setattr(
            platform.agents[sandbox.node_id],
            "fork_restore" if template_sharing else "restore",
            fail,
        )
        residents = set(platform.nodes[sandbox.node_id].sandboxes)
        snapshots.append(snapshot(sandbox, residents))
        platform.sim.at(late_ms + 0.5, lambda: snapshots.append(snapshot(sandbox, residents)))

    platform.sim.at(late_ms - 1.0, arm)
    platform.run(Trace.from_arrivals(arrivals + late))
    assert attempts == [late_ms]
    before, after = snapshots
    assert before[0] is StorageTier.LOCAL_SSD
    assert after == before
    record = metrics.requests[len(arrivals) + len(late) - 1]
    assert record.start_type is StartType.COLD
    assert record.retry_penalty_ms == 7.5


def test_a_run_that_cannot_drain_names_what_waits():
    """RNNModel (90 MB) fits on no 64 MB node: the run stops with a
    liveness error naming the request, its footprint and each node."""
    platform = build(nodes=2, node_memory_mb=64.0)
    with pytest.raises(AccountingError) as raised:
        platform.run(Trace.from_arrivals([(0.0, "RNNModel")]))
    assert str(raised.value) == (
        "liveness: never started: #0 RNNModel (94371840 B); "
        "node 0: 67108864 B free, 0 B in pinned bases, 0 B in template replicas; "
        "node 1: 67108864 B free, 0 B in pinned bases, 0 B in template replicas"
    )


def test_hot_template_replicas_cannot_starve_a_queued_request():
    """The last RNNModel finds no sandbox or delta live, only the last
    replicas of templates forked within the hot window (42 MB on node 0,
    8 + 6 MB on node 1).  The starvation pass drops them — the pool
    copies survive — so the request runs instead of waiting forever."""
    arrivals = [
        (0.0, "RNNModel"),
        (7_500.0, "LinAlg"),
        (15_000.0, "RNNModel"),
        (24_000.0, "LinAlg"),
        (24_001.0, "LinAlg"),
        (24_002.0, "LinAlg"),
        (38_000.0, "RNNModel"),
    ]
    platform = build(template_sharing=True)
    check_every_instant(platform)
    dropped = record_replica_drops(platform)
    metrics = platform.run(Trace.from_arrivals(arrivals)).metrics
    assert all(record.completion_ms is not None for record in metrics.requests.values())
    assert metrics.start_counts() == {StartType.COLD: 5, StartType.TEMPLATE: 2}
    assert dropped
