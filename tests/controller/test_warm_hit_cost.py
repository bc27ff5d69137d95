"""The control path's Python call budget on a fixed keep-alive replay.

Almost every request of a keep-alive replay is a warm hit, so the
primitive calls per request measure the per-request control path:
arrival, dispatch, the execution-time draw, completion, timers.  A run
under ``cProfile`` counts them exactly, the same in every process, so
the bound is tight: the measured count plus 2 %.  Only calls into
``src/repro`` count, so numpy and the standard library, whose own calls
move with their versions, do not move the count.  A change that adds
per-request calls on this path fails here; one that removes some
lowers the measured count.  A warm hit also schedules only callbacks
its sandbox already owns.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.sim.engine import Simulator
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace

#: Primitive calls of the replay below over its requests, as measured.
MEASURED_CALLS_PER_REQUEST = 162_872 / 3_705
BOUND = MEASURED_CALLS_PER_REQUEST * 1.02

SCRIPT = textwrap.dedent(
    """
    import cProfile, json, os, pstats
    import repro
    from repro.platform.config import ClusterConfig
    from repro.platform.metrics import StartType
    from repro.platform.platform import PlatformKind, build_platform
    from repro.workload.azure import ClusterTraceGenerator
    from repro.workload.functionbench import FunctionBenchSuite

    suite = FunctionBenchSuite.replicated(FunctionBenchSuite.default().names(), 4)
    trace = ClusterTraceGenerator(seed=17).generate(
        6.0, suite.names(), target_requests=4_000
    )
    config = ClusterConfig(nodes=8, node_memory_mb=3072.0, content_scale=1.0 / 1024.0)
    platform = build_platform(PlatformKind.FIXED_KEEP_ALIVE, config, suite)
    profile = cProfile.Profile()
    profile.enable()
    report = platform.run(trace)
    profile.disable()
    root = os.path.dirname(repro.__file__) + os.sep
    calls = sum(
        entry[0]
        for (filename, _, _), entry in pstats.Stats(profile).stats.items()
        if filename.startswith(root)
    )
    starts = [record.start_type for record in report.metrics.requests.values()]
    print(json.dumps({
        "requests": len(trace),
        "calls": calls,
        "warm": starts.count(StartType.WARM),
    }))
    """
)


def test_calls_per_request_within_budget():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    run = json.loads(done.stdout.splitlines()[-1])
    assert run["warm"] > 0.9 * run["requests"]  # the path measured is the warm hit
    per_request = run["calls"] / run["requests"]
    assert per_request <= BOUND, f"{per_request:.2f} calls a request, budget {BOUND:.2f}"


def test_a_warm_hit_schedules_no_new_callback(monkeypatch):
    """50 warm hits of one sandbox schedule its completion, idle-expiry
    and keep-alive-expiry callbacks over and over: at most three
    distinct objects, whatever the number of hits."""
    at, scheduled = Simulator.at, []

    def spying_at(sim, time, callback):
        scheduled.append((sim.now, callback))  # held: no id is reused
        return at(sim, time, callback)

    monkeypatch.setattr(Simulator, "at", spying_at)
    suite = FunctionBenchSuite.subset(["Vanilla"])
    config = ClusterConfig(nodes=1, node_memory_mb=1024.0, content_scale=1.0 / 256.0)
    medes = MedesPolicyConfig(idle_period_ms=60_000.0)
    platform = build_platform(PlatformKind.MEDES, config, suite, medes=medes)
    report = platform.run(Trace.from_arrivals([(2_000.0 * i, "Vanilla") for i in range(51)]))
    starts = [record.start_type for record in report.metrics.requests.values()]
    assert starts == [StartType.COLD] + [StartType.WARM] * 50
    assert report.metrics.sandboxes_created == 1
    warm = [callback for now, callback in scheduled if 2_000.0 <= now < 101_000.0]
    assert len(warm) >= 150  # each hit: its completion, idle and keep-alive timers
    assert len({id(callback) for callback in warm}) <= 3
