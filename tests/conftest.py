"""Shared fixtures for the Medes reproduction test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.invariants import check
from repro.memory import patch as patch_module
from repro.workload.functionbench import FunctionBenchSuite

# Keep property tests fast and robust under CI load.  Tier-1 draws its
# examples from a seed fixed per test (``derandomize``), so its verdict is
# a function of the commit; the "explore" profile (``HYPOTHESIS_PROFILE=
# explore``, CI's "Property exploration" leg) runs the same properties on
# random draws, at least EXPLORE_EXAMPLES examples each.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
EXPLORE_EXAMPLES = 500
settings.register_profile(
    "explore", settings.get_profile("repro"), derandomize=False, max_examples=EXPLORE_EXAMPLES
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


def pytest_collection_modifyitems(items) -> None:
    """Under "explore", lift every property's own ``max_examples`` to at
    least :data:`EXPLORE_EXAMPLES` (ten times tier-1's default) and draw
    at random, whatever its ``@settings`` fixed.

    Hypothesis has no public hook for this: it relies on the private
    ``_hypothesis_internal_use_settings`` attribute that ``@given`` reads
    on each call (Hypothesis 6.155).  A property without it raises
    ``AttributeError`` here rather than run at its tier-1 count."""
    if settings.default.max_examples < EXPLORE_EXAMPLES:
        return
    for item in items:
        test = getattr(getattr(item, "obj", None), "__func__", getattr(item, "obj", None))
        if hasattr(test, "hypothesis"):
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(
                own,
                derandomize=False,
                database=settings.default.database,
                max_examples=max(own.max_examples, EXPLORE_EXAMPLES),
            )

#: Tiny content scale used by tests that touch real bytes.
TEST_SCALE = 1.0 / 256.0


@pytest.fixture(scope="session")
def suite() -> FunctionBenchSuite:
    return FunctionBenchSuite.default()


@pytest.fixture
def codec_calls(monkeypatch) -> dict[str, int]:
    """Live counts of what the batched codec does past its triage.

    ``run_rows``: stack rows whose equal/unequal runs were extracted;
    ``bound``: rows that took the copy-coverage bound; ``matcher``: runs
    of the vectorised anchor matcher (the scalar oracle is not counted);
    ``word_bits``: word tables built for the bound; ``sorted_halves``:
    sorted anchor halves built through the module (a test's own call of
    an imported ``build_anchor_index`` is not counted); ``probed``:
    target positions :meth:`AnchorIndex.probe` was asked to look up.
    """
    calls = dict.fromkeys(
        ("run_rows", "bound", "matcher", "word_bits", "sorted_halves", "probed"), 0
    )

    def counted(name, attr, weight=lambda *args: 1):
        real = getattr(patch_module, attr)

        def wrapper(*args, **kwargs):
            calls[name] += weight(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(patch_module, attr, wrapper)

    counted("run_rows", "_batch_aligned_runs", lambda neq: len(neq))
    counted("bound", "_copy_bounds", lambda targets, indexes: len(indexes))
    counted("matcher", "_anchor_patch")
    counted("word_bits", "_build_word_bits")
    counted("sorted_halves", "build_anchor_index")

    real_probe = patch_module.AnchorIndex.probe

    def probe(index, target_bytes, start, stride, stop=None):
        end = len(target_bytes) - patch_module.ANCHOR_SIZE + 1
        calls["probed"] += len(range(start, end if stop is None else min(end, stop), stride))
        return real_probe(index, target_bytes, start, stride, stop)

    monkeypatch.setattr(patch_module.AnchorIndex, "probe", probe)
    return calls


@pytest.fixture
def log_reads(monkeypatch) -> list[str]:
    """Names of the request-log read paths called so far, in order.

    Every read of a completed request goes through the log's sorted-id
    index (``_sorted``), ``__iter__`` walks the arrival order, and the
    column readers of :class:`RunMetrics` go through the completed rows'
    ``column``.  Arrival and completion write the log without calling
    any of these.
    """
    from repro.platform.metrics import RequestLog

    reads: list[str] = []

    def counted(cls, attr):
        real = getattr(cls, attr)

        def wrapper(self, *args, **kwargs):
            reads.append(attr)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    for attr in ("_sorted", "__iter__"):
        counted(RequestLog, attr)
    counted(type(RequestLog().rows), "column")
    return reads


def check_every_instant(platform, probe=lambda platform: platform.sim.now) -> list:
    """Make ``platform``'s next run call ``invariants.check`` after every
    simulated instant; returns what ``probe(platform)`` gave after each
    check (by default the instant), filled in as the run goes."""
    sim = platform.sim
    run_until = sim.run_until
    checked: list = []

    def instant_by_instant(end: float) -> None:
        while sim._heap and sim._heap[0][0] <= end:
            run_until(sim._heap[0][0])
            check(platform)
            checked.append(probe(platform))
        run_until(end)

    sim.run_until = instant_by_instant
    return checked


def record_replica_drops(platform) -> list:
    """Make ``platform``'s template catalog log each replica the
    controller drops under placement pressure (a crash drops a node's
    replicas through ``drop_replicas``, not here); returns the log of
    ``(node, segment id)``, filled in as the run goes."""
    catalog = platform.templates
    drop = catalog.drop_replica
    dropped: list = []

    def logged(node_id, segment) -> None:
        dropped.append((node_id, segment.segment_id))
        drop(node_id, segment)

    catalog.drop_replica = logged
    return dropped


@pytest.fixture(scope="session")
def small_suite() -> FunctionBenchSuite:
    return FunctionBenchSuite.subset(["Vanilla", "LinAlg", "RNNModel"])


@pytest.fixture(scope="session")
def linalg_profile(suite):
    return suite.get("LinAlg")


@pytest.fixture(scope="session")
def linalg_image(linalg_profile):
    return linalg_profile.synthesize(1, content_scale=TEST_SCALE)


@pytest.fixture(scope="session")
def linalg_image_executed(linalg_profile):
    return linalg_profile.synthesize(1, content_scale=TEST_SCALE, executed=True)
