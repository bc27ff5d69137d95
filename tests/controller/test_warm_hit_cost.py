"""The control path's Python call budget on a fixed keep-alive replay.

Almost every request of a keep-alive replay is a warm hit, so the
primitive calls per request measure the per-request control path:
arrival, dispatch, the execution-time draw, completion, timers.  A run
under ``cProfile`` counts them exactly, the same in every process, so
the bound is tight: the measured count plus 2 %.  A change that adds
per-request calls on this path fails here; one that removes some
lowers the measured count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

#: Primitive calls of the replay below over its requests, as measured.
MEASURED_CALLS_PER_REQUEST = 249_881 / 3_705
BOUND = MEASURED_CALLS_PER_REQUEST * 1.02

SCRIPT = textwrap.dedent(
    """
    import cProfile, json, pstats
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
    calls = sum(entry[0] for entry in pstats.Stats(profile).stats.values())
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
