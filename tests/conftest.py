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
    """Live counts of what the batched codec does at the anchor fallback.

    ``bound``: copy-coverage bounds consulted; ``matcher``: runs of the
    vectorised anchor matcher (the scalar oracle is not counted);
    ``word_bits``: word tables built for the bound.
    """
    calls = {"bound": 0, "matcher": 0, "word_bits": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    index_cls = patch_module.AnchorIndex
    monkeypatch.setattr(index_cls, "copy_bound", counted("bound", index_cls.copy_bound))
    monkeypatch.setattr(
        patch_module, "_anchor_ops", counted("matcher", patch_module._anchor_ops)
    )
    monkeypatch.setattr(
        patch_module, "_build_word_bits", counted("word_bits", patch_module._build_word_bits)
    )
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
