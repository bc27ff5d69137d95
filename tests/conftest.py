"""Shared fixtures for the Medes reproduction test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro._util import MIB
from repro.memory import patch as patch_module
from repro.workload.functionbench import FunctionBenchSuite

# Keep property tests fast and robust under CI load.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

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
    an imported ``build_anchor_index`` is not counted).
    """
    calls = dict.fromkeys(("run_rows", "bound", "matcher", "word_bits", "sorted_halves"), 0)

    def counted(name, attr, weight=lambda *args: 1):
        real = getattr(patch_module, attr)

        def wrapper(*args, **kwargs):
            calls[name] += weight(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(patch_module, attr, wrapper)

    counted("run_rows", "_batch_aligned_runs", lambda neq: len(neq))
    counted("bound", "_copy_bounds", lambda targets, indexes: len(indexes))
    counted("matcher", "_anchor_ops")
    counted("word_bits", "_build_word_bits")
    counted("sorted_halves", "build_anchor_index")
    return calls


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
