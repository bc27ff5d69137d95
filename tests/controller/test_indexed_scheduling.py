"""The control plane's indexes: O(1) reads that equal a scan's answer.

The first tests wire a tripwire or counter into a structure a scan
would iterate — resident sandboxes for memory sums, the per-function
population for dispatch and counting, the request table for the drain
check, the event heap for starvation retries — and show the control
plane never touches it.  ``TestIndexInvariants`` is the other half:
in the middle of pressured runs, every index equals a fresh recount
from ``_by_function`` / ``node.sandboxes``.
"""

from __future__ import annotations

from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.state import SandboxState
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Request, Trace
from tests.platform.test_control_plane_equivalence import build_scenario

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)


def build(config_overrides=None, functions=("Vanilla", "LinAlg")):
    suite = FunctionBenchSuite.subset(list(functions))
    overrides = dict(nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=3)
    overrides.update(config_overrides or {})
    config = ClusterConfig(**overrides)
    return build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)


class _Tripwire:
    """Raises on any use; stands in for a structure that must be idle."""

    def __init__(self, name: str):
        self.name = name

    def _trip(self, *args, **kwargs):
        raise AssertionError(f"indexed path touched {self.name}")

    __iter__ = __len__ = __getitem__ = __call__ = _trip

    def values(self, *a, **k):
        self._trip()

    def items(self, *a, **k):
        self._trip()


class _ValuesCountingDict(dict):
    """A dict that counts full-table iterations."""

    values_calls = 0

    def values(self):
        self.values_calls += 1
        return super().values()


class TestNoResidentScans:
    def test_used_bytes_without_touching_residents(self):
        """fits/free_bytes/used_bytes serve from the counter: they must
        work even when every resident's memory_bytes() is booby-trapped."""
        platform = build()
        platform.run(Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "LinAlg")]))
        for node in platform.nodes:
            assert node.sandboxes, "need residents for the test to mean anything"
        for sandbox_holder in platform.nodes:
            for sandbox in sandbox_holder.sandboxes.values():
                sandbox.memory_bytes = _Tripwire("Sandbox.memory_bytes")
        total = 0
        for node in platform.nodes:
            total += node.used_bytes()
            node.fits(1)
            node.free_bytes()
        assert total == platform.controller.used_bytes() > 0

    def test_counts_without_population_scan(self):
        """live_counts/sandbox_census/build_view never iterate the
        per-function sandbox population."""
        platform = build()
        platform.run(Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "LinAlg")]))
        controller = platform.controller
        controller._by_function = _Tripwire("controller._by_function")
        live, dedup = controller.live_counts()
        assert sum(live.values()) > 0
        warm, dedup_census, total = controller.sandbox_census()
        assert total > 0
        view = controller.build_view()
        assert view.used_bytes > 0


class TestPlacementGateReadsACounter:
    """``_try_place`` asks every node whether eviction could make room;
    the answer is a maintained number, and only the node that goes on
    to evict looks at its residents."""

    NODES = 8

    def _full_cluster(self):
        # 64 MB nodes hold three 17 MB Vanilla sandboxes and no fourth:
        # 24 simultaneous arrivals cold-start three per node.
        platform = build(config_overrides=dict(nodes=self.NODES, node_memory_mb=64.0))
        for i in range(3 * self.NODES):
            request = Request(request_id=i, function="Vanilla", arrival_ms=0.0)
            platform.sim.at(0.0, lambda r=request: platform.controller.submit(r))
        return platform

    @staticmethod
    def _count_evictable(monkeypatch):
        from repro.sandbox.sandbox import Sandbox

        original = Sandbox.evictable.fget
        seen: list[int] = []

        def counting(sandbox):
            seen.append(sandbox.node_id)
            return original(sandbox)

        monkeypatch.setattr(Sandbox, "evictable", property(counting))
        return seen

    def test_failed_placement_looks_at_no_resident(self, monkeypatch):
        platform = self._full_cluster()
        platform.sim.run_until(600.0)  # all 24 executing: nothing evictable
        controller = platform.controller
        assert all(len(node.sandboxes) == 3 for node in platform.nodes)
        assert all(node.reclaimable_bytes() == 0 for node in platform.nodes)
        seen = self._count_evictable(monkeypatch)
        suite = controller.suite
        assert controller._place(suite.get("Vanilla").memory_bytes) is None
        assert controller._place(
            suite.get("Vanilla").memory_bytes, allow_bases=True
        ) is None
        assert seen == []

    def test_evicting_placement_looks_at_the_chosen_node_only(self, monkeypatch):
        platform = self._full_cluster()
        platform.sim.run_until(2_000.0)  # all 24 idle warm
        controller = platform.controller
        vanilla = controller.suite.get("Vanilla").memory_bytes
        assert all(node.reclaimable_bytes() == 3 * vanilla for node in platform.nodes)
        seen = self._count_evictable(monkeypatch)
        evictions = platform.metrics.evictions
        node = controller._place(controller.suite.get("LinAlg").memory_bytes)
        assert node is not None
        assert platform.metrics.evictions == evictions + 2
        assert seen and set(seen) == {node.node_id}
        assert node.reclaimable_bytes() == node.recomputed_reclaimable_bytes() == vanilla


class TestNoDispatchScan:
    def test_warm_dispatch_without_function_scan(self):
        """Dispatching to an idle warm sandbox reads the candidate index,
        not the whole per-function population."""
        platform = build()
        platform.run(Trace.from_arrivals([(0.0, "Vanilla")]))
        controller = platform.controller
        assert controller._index.idle_warm.get("Vanilla"), "no idle warm sandbox"
        controller._function_sandboxes = _Tripwire("_function_sandboxes")
        request = Request(request_id=999, function="Vanilla", arrival_ms=platform.sim.now)
        controller.submit(request)
        record = platform.metrics.requests[999]
        assert record.start_type is StartType.WARM


class TestNoDrainScan:
    def test_drain_check_is_counter_not_scan(self):
        """Platform.run's drain loop consults the outstanding-requests
        counter; the request table is never iterated during the run."""
        platform = build()
        counting = _ValuesCountingDict()
        platform.metrics.requests = counting
        trace = Trace.from_arrivals(
            [(float(i * 500), "Vanilla") for i in range(8)]
        )
        platform.run(trace)
        assert len(counting) == 8
        assert counting.values_calls == 0
        assert platform.metrics.outstanding_requests == 0


class TestCoalescedStarvationTimer:
    def test_single_timer_for_many_queued_requests(self):
        # One node that fits a single big sandbox: a burst of arrivals
        # all queue behind it.
        platform = build(
            config_overrides=dict(nodes=1, node_memory_mb=100.0, seed=5),
            functions=("RNNModel",),
        )
        trace = Trace.from_arrivals([(float(i), "RNNModel") for i in range(20)])
        probes = {}

        def probe():
            controller = platform.controller
            probes["queued"] = len(controller._queue)
            probes["deadlines"] = len(controller._starvation_deadlines)
            probes["pending_events"] = platform.sim.pending_events
            timer = controller._starvation_timer
            probes["armed"] = timer is not None and timer.pending

        platform.sim.at(100.0, probe)
        platform.run(trace)
        assert probes["queued"] >= 15
        # Every queued request holds a slot in the deadline deque...
        assert probes["deadlines"] >= probes["queued"]
        # ...but only ONE starvation event is armed on the heap, so the
        # heap holds fewer events than there are queued requests.
        assert probes["armed"]
        assert probes["pending_events"] < probes["queued"]


class TestIndexInvariants:
    """Mid-run, under pressure, the indexes equal a fresh scan."""

    @staticmethod
    def _probe(check):
        """Replay the pressure, starvation and burst scenarios (one node
        each) and the two-node Azure one, calling ``check(platform)``
        every 50 simulated ms; returns what the checks returned."""
        seen = []
        for name in (
            "pressure/eviction",
            "pressure/starvation",
            "pressure/queued_burst",
            "azure/medes",
        ):
            platform, trace = build_scenario(name)
            platform.sim.every(50.0, lambda: seen.append(check(platform)))
            platform.run(trace)
        assert len(seen) > 1_000
        return seen

    def test_candidate_sets_match_scan(self):
        def check(platform):
            controller = platform.controller
            index = controller._index
            sizes = []
            for indexed, state in (
                (index.idle_warm, SandboxState.WARM),
                (index.restorable, SandboxState.DEDUP),
                (index.abortable, SandboxState.DEDUPING),
            ):
                scanned = {
                    function: {
                        s.sandbox_id
                        for s in sandboxes.values()
                        if s.state is state and s.busy_request_id is None
                    }
                    for function, sandboxes in controller._by_function.items()
                }
                assert {f: set(ids) for f, ids in indexed.items() if ids} == {
                    f: ids for f, ids in scanned.items() if ids
                }
                sizes.append(sum(map(len, scanned.values())))
            return sizes

        # Each of the three sets was non-empty at some tick.
        assert all(max(sizes) > 0 for sizes in zip(*self._probe(check)))

    def test_node_order_matches_sorted_scan(self):
        def check(platform):
            assert platform.controller._usage.snapshot() == sorted(
                platform.nodes, key=lambda n: (n.recomputed_used_bytes(), n.node_id)
            )
            for node in platform.nodes:
                assert node.reclaimable_bytes() == node.recomputed_reclaimable_bytes()
            return sum(node.reclaimable_bytes() for node in platform.nodes)

        assert max(self._probe(check)) > 0

    def test_census_matches_scan(self):
        def check(platform):
            controller = platform.controller
            population = [
                (function, s)
                for function, sandboxes in controller._by_function.items()
                for s in sandboxes.values()
            ]
            live, dedup = controller.live_counts()
            for counts, flag in ((live, "live"), (dedup, "dedup")):
                scanned = {}
                for function, s in population:
                    scanned[function] = scanned.get(function, 0) + getattr(s.state, flag)
                assert {f: n for f, n in counts.items() if n} == {
                    f: n for f, n in scanned.items() if n
                }
            assert controller.sandbox_census() == (
                sum(s.state.census_warm for _, s in population),
                sum(s.state.dedup for _, s in population),
                len(population),
            )
            return sum(dedup.values())

        assert max(self._probe(check)) > 0
