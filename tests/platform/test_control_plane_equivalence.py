"""Control-plane scenario runs against frozen per-request goldens.

``tests/golden/control_plane_runs.json`` holds
``report_to_dict(report, include_requests=True)`` of every scenario
below: all three platforms on a dense Azure trace, and the workloads
that exercise the tricky placement paths (eviction under pressure,
starvation base-eviction, a queued burst, the eviction-order
ablations).  The file was frozen at ``48cbd51``, the last commit with
two control planes (incremental indexes, and the per-request scans they
replaced), by a writer that refused to write unless both produced it;
the one control plane left must keep reproducing it, request by
request.  Every scenario replays under
:func:`tests.conftest.check_every_instant`, so after each simulated
instant :func:`repro.invariants.check` recounts every node's counters,
refcounts and dispatch indexes against the residents that pin them.

``python -m tests.platform.test_control_plane_equivalence --write``
regenerates the file through the same :func:`run_scenario` the tests
call.  A PR that means to move a number edits the JSON in the same
diff.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

import pytest

from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.platform import Platform, PlatformKind, build_platform
from repro.platform.report_io import report_to_dict
from repro.sandbox.node import EvictionOrder
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "control_plane_runs.json"

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)


def _azure(kind: PlatformKind):
    """A dense multi-function trace with dedup churn."""
    suite = FunctionBenchSuite.subset(["Vanilla", "LinAlg", "FeatureGen"])
    trace = AzureTraceGenerator(seed=3).generate(6.0, suite.names())
    config = ClusterConfig(nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=2)
    return kind, config, suite, trace


def _pressure(order: EvictionOrder = EvictionOrder.LRU):
    """Memory pressure on one node: queueing and evictions."""
    suite = FunctionBenchSuite.subset(["FeatureGen", "RNNModel"])
    trace = AzureTraceGenerator(seed=5, rate_scale=8.0).generate(4.0, suite.names())
    config = ClusterConfig(
        nodes=1, node_memory_mb=256.0, content_scale=SCALE, seed=7, eviction_order=order
    )
    return PlatformKind.MEDES, config, suite, trace


def _starvation():
    """The desperate path: unpinned-base eviction after STARVATION_MS."""
    suite = FunctionBenchSuite.subset(["RNNModel", "ModelTrain"])
    trace = Trace.from_arrivals([(0.0, "RNNModel"), (20_000.0, "ModelTrain")])
    config = ClusterConfig(nodes=1, node_memory_mb=150.0, content_scale=SCALE, seed=9)
    return PlatformKind.MEDES, config, suite, trace


def _queued_burst():
    """Many simultaneously queued requests on the coalesced starvation timer."""
    suite = FunctionBenchSuite.subset(["LinAlg"])
    trace = Trace.from_arrivals([(float(i * 10), "LinAlg") for i in range(12)])
    config = ClusterConfig(nodes=1, node_memory_mb=220.0, content_scale=SCALE, seed=4)
    return PlatformKind.MEDES, config, suite, trace


SCENARIOS = {
    "azure/medes": lambda: _azure(PlatformKind.MEDES),
    "azure/fixed_keep_alive": lambda: _azure(PlatformKind.FIXED_KEEP_ALIVE),
    "azure/adaptive_keep_alive": lambda: _azure(PlatformKind.ADAPTIVE_KEEP_ALIVE),
    "pressure/eviction": _pressure,
    "pressure/starvation": _starvation,
    "pressure/queued_burst": _queued_burst,
    **{
        f"eviction_order/{order.value}": (lambda order=order: _pressure(order))
        for order in EvictionOrder
    },
}


def build_scenario(
    name: str, probe=lambda platform: platform.sim.now
) -> tuple[Platform, Trace, list]:
    """One scenario's platform, set to check every invariant after each
    simulated instant, the trace it replays, and the list
    :func:`check_every_instant` fills with ``probe(platform)`` as the
    run goes."""
    kind, config, suite, trace = SCENARIOS[name]()
    kwargs = {"medes": MEDES} if kind is PlatformKind.MEDES else {}
    platform = build_platform(kind, config, suite, **kwargs)
    return platform, trace, check_every_instant(platform, probe)


def run_scenario(name: str) -> dict:
    """Replay one scenario and flatten its report, requests included."""
    platform, trace, _ = build_scenario(name)
    return report_to_dict(platform.run(trace), include_requests=True)


def _by_name(value, prefix: str = ""):
    """Leaves of a flattened report as (dotted name, value); request
    rows are keyed by request id so a diff names the request."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _by_name(item, f"{prefix}{key}.")
    elif isinstance(value, list):
        for item in value:
            yield from _by_name(item, f"{prefix}{item['id']}.")
    else:
        yield prefix[:-1], value


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def check(name: str, golden: dict) -> dict:
    """The scenario's run equals its golden, which is returned."""
    assert dict(_by_name(run_scenario(name))) == dict(_by_name(golden[name]))
    return golden[name]


def test_golden_covers_exactly_the_scenarios(golden):
    assert sorted(golden) == sorted(SCENARIOS)


class TestAzureWorkloadEquivalence:
    """A dense multi-function trace with dedup churn on every platform."""

    def test_medes(self, golden):
        check("azure/medes", golden)

    def test_fixed_keep_alive(self, golden):
        check("azure/fixed_keep_alive", golden)

    def test_adaptive_keep_alive(self, golden):
        check("azure/adaptive_keep_alive", golden)


class TestPressureEquivalence:
    """Memory pressure: queueing, evictions and the starvation path."""

    def test_eviction_under_pressure(self, golden):
        run = check("pressure/eviction", golden)
        assert run["metrics"]["evictions"] > 0, "workload must exercise eviction"

    def test_starvation_evicts_same_base(self, golden):
        """The desperate path (unpinned-base eviction after STARVATION_MS)
        must fire at the same time and pick the same victim."""
        run = check("pressure/starvation", golden)
        assert run["metrics"]["requests"][1]["queued_ms"] > 0, "request must starve first"

    def test_queued_burst_same_drain_times(self, golden):
        """Many simultaneously queued requests: the coalesced starvation
        timer must drain them at the same instants the per-request
        timers did."""
        run = check("pressure/queued_burst", golden)
        assert any(r["queued_ms"] > 0 for r in run["metrics"]["requests"])


class TestEvictionOrderEquivalence:
    """Every eviction-order ablation picks the same victims."""

    @pytest.mark.parametrize("order", list(EvictionOrder))
    def test_order(self, order, golden):
        run = check(f"eviction_order/{order.value}", golden)
        assert run["metrics"]["evictions"] > 0, "workload must exercise eviction"


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(f"usage: python -m {__spec__.name} --write", file=sys.stderr)
        return 2
    runs = {name: run_scenario(name) for name in SCENARIOS}
    # One line per request row, so a moved number diffs as its request.
    text = re.sub(
        r"\{\s+(\"id\"[^{}]*?)\s+\}",
        lambda row: "{" + re.sub(r"\s*\n\s*", " ", row.group(1)) + "}",
        json.dumps(runs, indent=1),
    )
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN} ({len(runs)} scenarios)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
