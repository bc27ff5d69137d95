"""A dedup or templatize op releases the sandbox's image when it starts.

The op's table holds everything the sandbox keeps, so from the op's
first instant to the restore that ends the park no image is resident
(the ``parked image`` invariant, DESIGN.md §21).  An aborted op leaves
a warm sandbox without an image; the next op that reads content
re-synthesizes it, byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.controller.controller import ClusterController
from repro.core.agent import DedupAgent
from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, NodeCrash
from repro.platform.config import ClusterConfig
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.node import AccountingError
from repro.sandbox.state import SandboxState
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant
from tests.platform.test_control_plane_equivalence import build_scenario


class TestHeldImageIsCaught:
    """A controller that re-attaches the image after starting a dedup op
    fails the check at the op's first instant."""

    SCENARIO = "azure/medes"

    @staticmethod
    def _inflight(platform) -> int:
        return len(platform.controller.inflight_tables())

    def test_caught_at_the_first_inflight_instant(self, monkeypatch):
        platform, trace, inflight = build_scenario(self.SCENARIO, self._inflight)
        platform.run(trace)
        first = next(i for i, ops in enumerate(inflight) if ops)

        begin = ClusterController._begin_dedup

        def holding(controller, sandbox):
            made_base = begin(controller, sandbox)
            controller._ensure_image(sandbox)
            return made_base

        monkeypatch.setattr(ClusterController, "_begin_dedup", holding)
        platform, trace, inflight = build_scenario(self.SCENARIO, self._inflight)
        with pytest.raises(AccountingError, match="^parked image: "):
            platform.run(trace)
        assert len(inflight) == first


def _build(**overrides):
    config = ClusterConfig(
        nodes=2,
        node_memory_mb=512.0,
        content_scale=1.0 / 256.0,
        seed=9,
        verify_restores=True,
        **overrides,
    )
    return build_platform(
        PlatformKind.MEDES,
        config,
        FunctionBenchSuite.subset(["Vanilla", "LinAlg"]),
        medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
    )


@pytest.fixture
def ops(monkeypatch) -> dict[str, list]:
    """What each abort left behind — ``(sandbox, state, image, the
    aborted table's digests)`` — and each dedup op's input image, as
    ``(sandbox id, its page digests)``, in order."""
    seen: dict[str, list] = {"aborted": [], "dedups": []}
    abort, dedup = ClusterController._abort_dedup, DedupAgent.dedup

    def recording_abort(controller, sandbox):
        table = controller._pending_dedups[sandbox.sandbox_id][1].table
        abort(controller, sandbox)
        seen["aborted"].append((sandbox, sandbox.state, sandbox.image, table.page_digests))

    def recording_dedup(agent, sandbox):
        seen["dedups"].append((sandbox.sandbox_id, sandbox.image.page_digests()))
        return dedup(agent, sandbox)

    monkeypatch.setattr(ClusterController, "_abort_dedup", recording_abort)
    monkeypatch.setattr(DedupAgent, "dedup", recording_dedup)
    return seen


class TestAbortedOpResynthesizes:
    """Two Vanilla sandboxes on two nodes idle out together at ~5.7 s:
    the one on node 0 becomes a base, the other dedups against it
    (5.70-7.03 s)."""

    def _check(self, ops):
        ((sandbox, state, image, digests),) = ops["aborted"]
        assert state is SandboxState.WARM and image is None
        before, after = [d for i, d in ops["dedups"] if i == sandbox.sandbox_id]
        assert np.array_equal(before, digests)
        assert np.array_equal(after, digests)

    def test_abort_by_an_arriving_request(self, ops):
        platform = _build()
        check_every_instant(platform)
        platform.run(
            Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "Vanilla"), (6_500.0, "Vanilla")])
        )
        self._check(ops)

    def test_abort_by_crash_reconcile(self, ops):
        crash = NodeCrash(at_ms=6_000.0, node_id=0, restart_at_ms=8_000.0)
        platform = _build(faults=FaultsConfig(schedule=FaultSchedule(node_crashes=(crash,))))
        check_every_instant(platform)
        report = platform.run(Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "Vanilla")]))
        assert report.metrics.crash_reconciled_refs > 0
        self._check(ops)
