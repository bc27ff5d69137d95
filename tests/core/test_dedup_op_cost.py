"""The dedup op's fixed Python cost: a call budget on small images.

At 1/512 scale an image has 15-20 content pages, so a fresh dedup op's
time is mostly the fixed sequence of steps each stage takes before its
first page — fingerprint, registry round trip, codec, table — not its
pages.  A run under ``cProfile`` counts the primitive calls exactly, the
same in every process, so the bound is tight: the measured count plus
2 %.  Only calls into ``src/repro`` count, so numpy and the standard
library, whose own calls move with their versions, do not move it.  A
change that adds a fixed step to the op fails here; one that removes
some lowers the measured count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

#: Primitive calls into ``src/repro`` over the ops below, as measured.
MEASURED_CALLS_PER_OP = 11_180 / 60
BOUND = MEASURED_CALLS_PER_OP * 1.02

SCRIPT = textwrap.dedent(
    """
    import cProfile, json, os, pstats
    import repro
    from repro.core.agent import DedupAgent
    from repro.core.costs import CostModel
    from repro.core.registry import FingerprintRegistry
    from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
    from repro.sandbox.sandbox import Sandbox
    from repro.sim.network import RdmaFabric
    from repro.workload.functionbench import FunctionBenchSuite

    scale = 1.0 / 512
    suite = FunctionBenchSuite.default()
    profile = cProfile.Profile()
    ops = 0
    for name in ("Vanilla", "LinAlg", "ImagePro", "MapReduce"):
        function = suite.get(name)
        registry, store = FingerprintRegistry(), CheckpointStore()
        agent = DedupAgent(
            0, registry=registry, store=store, fabric=RdmaFabric(),
            costs=CostModel(), content_scale=scale,
        )
        base = BaseCheckpoint(
            function=name, node_id=1, owner_sandbox_id=1,
            image=function.synthesize(100, content_scale=scale, executed=True),
            full_size_bytes=function.memory_bytes,
        )
        store.add(base)
        registry.register_base(base, registry.config)
        for seed in range(300, 315):
            sandbox = Sandbox(profile=function, node_id=0, instance_seed=seed, created_at=0.0)
            sandbox.image = function.synthesize(seed, content_scale=scale, executed=True)
            sandbox.image.page_digests()
            profile.enable()
            table = agent.dedup(sandbox).table
            profile.disable()
            ops += 1
            assert table.memo is not None
    root = os.path.dirname(repro.__file__) + os.sep
    calls = sum(
        entry[0]
        for (filename, _, _), entry in pstats.Stats(profile).stats.items()
        if filename.startswith(root)
    )
    print(json.dumps({"ops": ops, "calls": calls}))
    """
)


def test_fresh_op_calls_within_budget():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    run = json.loads(done.stdout.splitlines()[-1])
    assert run["ops"] == 60
    per_op = run["calls"] / run["ops"]
    assert per_op <= BOUND, f"{per_op:.2f} calls an op, budget {BOUND:.2f}"
