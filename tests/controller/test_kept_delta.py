"""A forked sandbox keeps its template delta, not its rebuilt image.

A fork rebuilds the image from the delta and verifies it against the
delta's page digests; the sandbox then keeps the delta (which holds no
catalog references) and drops the image.  Its next template park reuses
that delta instead of encoding the same bytes against the same segments
again.  Whatever needs bytes re-synthesizes the image and drops the
delta, so a warm sandbox holds one copy of its content (the ``kept
delta`` invariant, DESIGN.md §21).

One Vanilla sandbox on one node: it cold-starts at 0 s, parks as a delta
at ~5.7 s, forks at 12 s, and parks again at ~17.2 s.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.agent as agent_module
from repro.controller.controller import ClusterController
from repro.core.agent import DedupAgent
from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.sandbox.node import AccountingError
from repro.sandbox.state import SandboxState
from repro.templates.catalog import TemplatePoolFull
from repro.templates.delta import build_delta_table
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant

TRACE = [(0.0, "Vanilla"), (12_000.0, "Vanilla")]


def _build():
    config = ClusterConfig(
        nodes=1,
        node_memory_mb=512.0,
        content_scale=1.0 / 256.0,
        seed=9,
        verify_restores=True,
        template_sharing=True,
    )
    platform = build_platform(
        PlatformKind.MEDES,
        config,
        FunctionBenchSuite.subset(["Vanilla", "LinAlg"]),
        medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0),
    )
    check_every_instant(platform)
    return platform


@pytest.fixture
def seen(monkeypatch) -> dict[str, list]:
    """What each fork landing left on its sandbox — ``(kept delta,
    image, the forked table)`` — each templatize's ``(kept delta, table
    parked)`` — and the function of each ``build_delta_table`` call."""
    seen: dict[str, list] = {"forks": [], "parks": [], "builds": []}
    fork, templatize = DedupAgent.fork_restore, DedupAgent.templatize
    run_request, build = ClusterController._run_request, agent_module.build_delta_table
    forked: list = []

    def recording_fork(agent, table, **kwargs):
        forked.append(table)
        return fork(agent, table, **kwargs)

    def recording_run(controller, sandbox, record, **kwargs):
        if record.start_type is StartType.TEMPLATE and kwargs.get("already_started"):
            seen["forks"].append((sandbox.kept_delta, sandbox.image, forked[-1]))
        return run_request(controller, sandbox, record, **kwargs)

    def recording_templatize(agent, sandbox):
        kept = sandbox.kept_delta
        outcome = templatize(agent, sandbox)
        seen["parks"].append((kept, outcome.table))
        return outcome

    def counting_build(*args, **kwargs):
        seen["builds"].append(args[0].function)
        return build(*args, **kwargs)

    monkeypatch.setattr(DedupAgent, "fork_restore", recording_fork)
    monkeypatch.setattr(ClusterController, "_run_request", recording_run)
    monkeypatch.setattr(DedupAgent, "templatize", recording_templatize)
    monkeypatch.setattr(agent_module, "build_delta_table", counting_build)
    return seen


class TestForkKeepsItsDelta:
    def test_a_landed_fork_holds_its_delta_and_no_image(self, seen):
        _build().run(Trace.from_arrivals(TRACE))
        ((kept, image, table),) = seen["forks"]
        assert kept is table
        assert image is None

    def test_re_parking_reuses_the_delta(self, seen):
        platform = _build()
        platform.run(Trace.from_arrivals(TRACE))
        (first_kept, _), (kept, reused) = seen["parks"]
        assert first_kept is None and kept is reused
        assert seen["builds"] == ["Vanilla"]  # the first park only

        (sandbox,) = platform.nodes[0].sandboxes.values()
        assert sandbox.state is SandboxState.DEDUP and sandbox.dedup_table is reused
        catalog, agent = platform.templates, platform.agents[0]
        fresh = build_delta_table(
            sandbox.profile.synthesize(
                sandbox.instance_seed, content_scale=platform.config.content_scale, executed=True
            ),
            {segment.key: segment for segment in catalog.segments_for(reused.segment_keys)},
            content_scale=reused.content_scale,
            full_size_bytes=reused.full_size_bytes,
            level=agent.patch_level,
            domain=sandbox.domain,
        )
        assert [(s.offset, s.size, s.segment_key, s.patch.blob) for s in fresh.shared] == [
            (s.offset, s.size, s.segment_key, s.patch.blob) for s in reused.shared
        ]
        for column in ("unique_index", "unique", "zero_pages", "page_digests"):
            assert np.array_equal(getattr(fresh, column), getattr(reused, column)), column
        assert fresh.regions == reused.regions
        assert fresh.retained_content_bytes == reused.retained_content_bytes

    def test_a_failed_re_park_falls_to_the_dedup_rung(self, seen, monkeypatch):
        """The pool refuses the second park: the dedup rung synthesizes
        the same image the kept delta describes, and drops the delta."""
        templatize, ensured = DedupAgent.templatize, []
        ensure_image = ClusterController._ensure_image

        def once(agent, sandbox):
            if seen["parks"]:
                raise TemplatePoolFull("pool full")
            return templatize(agent, sandbox)

        def recording_ensure(controller, sandbox):
            kept = sandbox.kept_delta
            ensure_image(controller, sandbox)
            ensured.append((kept, sandbox.image, sandbox.kept_delta))

        monkeypatch.setattr(DedupAgent, "templatize", once)
        monkeypatch.setattr(ClusterController, "_ensure_image", recording_ensure)
        report = _build().run(Trace.from_arrivals(TRACE))
        assert report.metrics.template_pool_rejections == 1
        ((kept, _, _),) = seen["forks"]
        ((image, after),) = [(image, after) for kept_before, image, after in ensured if kept_before]
        assert after is None
        assert np.array_equal(image.page_digests(), kept.page_digests)


class TestKeptDeltaIsChecked:
    """A controller that breaks the one-copy rule at the fork's landing
    fails the check at that instant."""

    @staticmethod
    def _caught_at_fork_landing(monkeypatch, corrupt, match):
        run_request, landed = ClusterController._run_request, []

        def corrupting(controller, sandbox, record, **kwargs):
            if sandbox.kept_delta is not None:
                landed.append(controller.sim.now)
                corrupt(controller, sandbox)
            return run_request(controller, sandbox, record, **kwargs)

        monkeypatch.setattr(ClusterController, "_run_request", corrupting)
        platform = _build()
        with pytest.raises(AccountingError, match=match):
            platform.run(Trace.from_arrivals(TRACE))
        assert [platform.sim.now] == landed

    def test_holding_the_image_as_well_is_caught(self, monkeypatch):
        def keep_image(controller, sandbox):
            sandbox.image = sandbox.profile.synthesize(
                sandbox.instance_seed,
                content_scale=controller.config.content_scale,
                executed=True,
            )

        self._caught_at_fork_landing(
            monkeypatch, keep_image, "^kept delta: sandbox 1 in running keeps it and its image"
        )

    def test_a_delta_of_another_domain_is_caught(self, monkeypatch):
        self._caught_at_fork_landing(
            monkeypatch,
            lambda _, sandbox: setattr(sandbox, "domain", "x"),
            "^table domain: sandbox 1 of 'x'",
        )
