"""Advanced controller behaviours: dedup abort, starvation, per-function policy."""

from __future__ import annotations

import pytest

from repro.core.costs import COSTS
from repro.core.policy import MedesPolicyConfig
from repro.faults.retry import RetryExhausted
from repro.invariants import check
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.state import SandboxState
from repro.sim.network import PeerUnavailable
from repro.templates.catalog import TemplatePoolFull
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant

SCALE = 1.0 / 256.0


def config(**overrides) -> ClusterConfig:
    base = dict(
        nodes=1,
        node_memory_mb=512.0,
        content_scale=SCALE,
        seed=9,
        verify_restores=True,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def medes(**overrides) -> MedesPolicyConfig:
    base = dict(idle_period_ms=5_000.0, alpha=25.0)
    base.update(overrides)
    return MedesPolicyConfig(**base)


@pytest.fixture(scope="module")
def pair_suite():
    return FunctionBenchSuite.subset(["Vanilla", "LinAlg"])


class TestDedupAbort:
    def _abort_trace(self) -> Trace:
        # Two sandboxes; the second one's dedup op is interrupted by a
        # burst of requests needing both.  Timing: both sandboxes go
        # idle ~0.7-1.7 s in; idle expiry at ~5.7 s turns one into a
        # base (busy checkpointing/registering until ~6.86 s) and starts
        # the other's dedup op (~1.3 s, 5.70-7.03 s), so t=6.95 s lands
        # after the demarcation completes but mid-DEDUPING.
        return Trace.from_arrivals(
            [
                (0.0, "Vanilla"),
                (1.0, "Vanilla"),
                (6_950.0, "Vanilla"),
                (6_951.0, "Vanilla"),
            ]
        )

    def test_request_aborts_in_flight_dedup(self, pair_suite):
        platform = build_platform(
            PlatformKind.MEDES, config(), pair_suite, medes=medes()
        )
        report = platform.run(self._abort_trace())
        # With abort enabled, the burst at t=6.5 s is served without any
        # extra cold start even though a dedup op was in flight.
        assert report.metrics.cold_starts() == 2
        late = [r for r in report.metrics.requests.values() if r.arrival_ms >= 6_000.0]
        assert all(r.start_type is StartType.WARM for r in late)

    def test_without_abort_burst_pays_cold_start(self, pair_suite):
        platform = build_platform(
            PlatformKind.MEDES,
            config(enable_dedup_abort=False),
            pair_suite,
            medes=medes(),
        )
        report = platform.run(self._abort_trace())
        # The DEDUPING sandbox is unavailable: one extra cold start.
        assert report.metrics.cold_starts() == 3

    def test_abort_rolls_back_refcounts(self, pair_suite):
        platform = build_platform(
            PlatformKind.MEDES, config(), pair_suite, medes=medes()
        )
        # Before the abort the in-flight op holds references; after it,
        # only resident tables may.
        instants = check_every_instant(platform)
        platform.run(self._abort_trace())
        assert any(6_000.0 < at < 6_950.0 for at in instants)


class TestPurgeDuringDedup:
    """Regression: purging a DEDUPING sandbox used to leak its pending
    dedup timer and the base refcounts the in-flight op had acquired."""

    def _trace(self) -> Trace:
        return Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "Vanilla")])

    def test_purge_cancels_pending_dedup_and_releases_refs(self, pair_suite):
        platform = build_platform(
            PlatformKind.MEDES, config(), pair_suite, medes=medes()
        )
        purged: list = []

        def purge_deduping() -> None:
            # t=6.0 s: the idle-expired sandbox's dedup op is in flight
            # (5.70-7.03 s, see TestDedupAbort._abort_trace timing).
            for node in platform.nodes:
                for sandbox in list(node.sandboxes.values()):
                    if sandbox.state is SandboxState.DEDUPING:
                        platform.controller._purge(sandbox, reason="test-eviction")
                        purged.append(sandbox)

        platform.sim.at(6_000.0, purge_deduping)
        platform.run(self._trace())

        assert len(purged) == 1
        assert purged[0].state is SandboxState.PURGED
        assert purged[0].dedup_table is None
        # The stale finish_dedup timer must be gone, not just cancelled.
        assert platform.controller._pending_dedups == {}
        # Every refcount the aborted op acquired was rolled back: only
        # resident dedup tables may hold references now.
        check(platform)


class TestMultiCandidateDispatch:
    def test_dispatch_tries_next_dedup_candidate(self, pair_suite):
        """Regression: when the best dedup candidate's base pages are
        unreachable, dispatch must try the remaining dedup sandboxes
        before falling back to a cold start."""
        platform = build_platform(
            PlatformKind.MEDES, config(), pair_suite, medes=medes()
        )
        agent = platform.agents[0]
        real_restore = agent.restore
        down_nodes = platform.faults.health.down_nodes
        calls = {"n": 0}

        def flaky_restore(table, *, verify=False):
            calls["n"] += 1
            if calls["n"] == 1:
                # Node 1 is down for this call, so the controller reads
                # a dead peer (not a partition) and purges the sandbox.
                down_nodes.add(1)
                raise PeerUnavailable(1)
            down_nodes.discard(1)
            return real_restore(table, verify=verify)

        platform.sim.at(11_999.0, lambda: setattr(agent, "restore", flaky_restore))
        # Three sandboxes; after idle expiry one demarcates as base and
        # two become DEDUP.  At t=12.0 s the base owner serves request 3
        # warm; request 4 must be served from a dedup sandbox even
        # though the first candidate fails and is purged.
        trace = Trace.from_arrivals(
            [
                (0.0, "Vanilla"),
                (1.0, "Vanilla"),
                (2.0, "Vanilla"),
                (12_000.0, "Vanilla"),
                (12_000.5, "Vanilla"),
            ]
        )
        report = platform.run(trace)
        records = report.metrics.requests
        assert calls["n"] == 2  # first candidate failed, second served
        assert records[4].start_type is StartType.DEDUP
        # No extra cold start beyond the three initial ones.
        assert report.metrics.cold_starts() == 3
        # The broken candidate is gone.
        remaining = platform.controller._function_sandboxes("Vanilla")
        assert len(remaining) == 2


    def test_template_fork_is_tried_before_newer_patch_tables(self, pair_suite):
        """Parked candidates go template first, then most recent first:
        an older template delta is tried before two newer patch tables,
        and when its fork fails the newest patch table restores."""
        platform = build_platform(
            PlatformKind.MEDES, config(template_sharing=True), pair_suite, medes=medes()
        )
        agent = platform.agents[0]
        real_templatize, real_restore = agent.templatize, agent.restore
        calls, templatized = [], []

        def owner(table):
            sandboxes = platform.nodes[0].sandboxes.values()
            return next(s.sandbox_id for s in sandboxes if s.dedup_table is table)

        def templatize_once(sandbox):
            # The first idle sandbox parks as a delta; then the pool is
            # full and the rest fall down to the base and dedup rungs.
            if templatized:
                raise TemplatePoolFull("pool full")
            templatized.append(sandbox.sandbox_id)
            return real_templatize(sandbox)

        def failing_fork(table, *, now, verify=False):
            calls.append(("fork", owner(table)))
            raise RetryExhausted("template-fork", 3, 1.0)

        def recorded_restore(table, *, verify=False):
            calls.append(("restore", owner(table)))
            return real_restore(table, verify=verify)

        def arm():
            agent.fork_restore = failing_fork
            agent.restore = recorded_restore

        agent.templatize = templatize_once
        platform.sim.at(11_999.0, arm)
        # Sandboxes 1-4 go idle in spawn order: 1 parks as a delta, 4
        # becomes the base, 2 and 3 dedup against it.  At t=12.0 s the
        # base serves request 4 warm; request 5 walks the parked ones.
        trace = Trace.from_arrivals(
            [(float(at), "Vanilla") for at in range(4)]
            + [(12_000.0, "Vanilla"), (12_000.5, "Vanilla")]
        )
        records = platform.run(trace).metrics.requests
        assert calls == [("fork", 1), ("restore", 3)]
        assert records[4].start_type is StartType.WARM
        assert records[5].start_type is StartType.DEDUP

class TestBaseOpAccounting:
    def test_base_stays_busy_for_checkpoint_and_register(self, pair_suite, monkeypatch):
        """Demarcation charges both phases: the base serves nothing for
        exactly ``checkpoint_ms + register_ms`` after it is made."""
        platform = build_platform(
            PlatformKind.MEDES, config(), pair_suite, medes=medes()
        )
        controller = platform.controller
        made = []  # (time, base sandbox, its busy marker)
        make_base = controller._make_base

        def spy(sandbox, *trial):
            make_base(sandbox, *trial)
            made.append((platform.sim.now, sandbox, sandbox.busy_request_id))

        monkeypatch.setattr(controller, "_make_base", spy)
        busy = check_every_instant(
            platform, lambda p: [(p.sim.now, base.busy_request_id) for _, base, _ in made]
        )
        report = platform.run(
            Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "Vanilla")])
        )
        assert len(made) == report.metrics.bases_created == 1
        ((made_at, base, marker),) = made
        assert base.function == "Vanilla"
        assert marker is not None
        full_pages = max(1, round(base.image.num_pages / SCALE))
        checkpoint_ms = COSTS.checkpoint_ms(full_pages)
        register_ms = COSTS.register_ms(full_pages)
        assert checkpoint_ms >= COSTS.checkpoint_fixed_ms
        assert register_ms > 0
        after = [sample[0] for sample in busy if sample and sample[0][0] > made_at]
        freed_at = next(now for now, holder in after if holder != marker)
        assert all(holder == marker for now, holder in after if now < freed_at)
        assert freed_at == made_at + (checkpoint_ms + register_ms)


class TestStarvationPath:
    def test_starving_request_evicts_unpinned_base(self):
        """A request that cannot fit otherwise evicts an idle base."""
        suite = FunctionBenchSuite.subset(["RNNModel", "ModelTrain"])
        # Node fits a single large sandbox; the RNNModel sandbox becomes
        # a base (first dedup attempt, empty registry) and then blocks
        # the ModelTrain spawn until the starvation path fires.
        cluster = config(node_memory_mb=150.0)
        trace = Trace.from_arrivals([(0.0, "RNNModel"), (20_000.0, "ModelTrain")])
        platform = build_platform(PlatformKind.MEDES, cluster, suite, medes=medes())
        report = platform.run(trace)
        records = report.metrics.requests
        assert records[1].completion_ms is not None
        # It waited for the starvation window, not for a keep-alive.
        assert records[1].queued_ms < 60_000.0

    def test_pinned_base_survives_starvation(self, pair_suite):
        """A base checkpoint with live dedup references is never evicted."""
        cluster = config(node_memory_mb=80.0)
        trace = Trace.from_arrivals(
            [
                (0.0, "Vanilla"),
                (1.0, "Vanilla"),
                (40_000.0, "LinAlg"),  # needs eviction
                (80_000.0, "Vanilla"),
            ]
        )
        platform = build_platform(PlatformKind.MEDES, cluster, pair_suite, medes=medes())
        platform.run(trace)
        for checkpoint in platform.store:
            if checkpoint.pinned:
                # Every pinned checkpoint must still be resident somewhere.
                node = platform.nodes[checkpoint.node_id]
                assert checkpoint.checkpoint_id in node.checkpoints


class TestPerFunctionPolicy:
    def test_critical_function_not_deduplicated(self):
        """Section 5.3: a tight per-function alpha keeps it warm while
        best-effort functions deduplicate."""
        suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg"])
        policy = medes(alpha=25.0, per_function_alpha={"Vanilla": 1.01})
        trace = Trace.from_arrivals(
            [(0.0, "Vanilla"), (1.0, "Vanilla"), (2.0, "LinAlg"), (3.0, "LinAlg"),
             (4.0, "Vanilla"), (5.0, "LinAlg")]
        )
        platform = build_platform(PlatformKind.MEDES, config(), suite, medes=policy)
        platform.sim.run_until(0)  # no-op; run below
        report = platform.run(trace)
        dedup_functions = {op.function for op in report.metrics.dedup_ops}
        assert "Vanilla" not in dedup_functions

    def test_alpha_for_validation(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            MedesPolicyConfig(per_function_alpha={"X": 0.5})
