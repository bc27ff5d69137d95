#!/usr/bin/env python3
"""A dedup op and restore op under the microscope (Sections 4.1-4.2).

Walks one sandbox through the full Medes mechanism on real bytes:
synthesize its memory image, register a base sandbox in the fingerprint
registry, run the dedup op (value-sampled fingerprints, base-page
choice, patch computation), inspect the resulting page table, then
restore and verify the image byte for byte.

Run:
    python examples/dedup_microscope.py [function]
"""

from __future__ import annotations

import sys
from collections import Counter

from repro._util import MIB, fmt_bytes, fmt_ms
from repro.core.agent import DedupAgent
from repro.core.costs import CostModel
from repro.core.registry import FingerprintRegistry, PageRef
from repro.memory.fingerprint import page_fingerprint
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.sandbox import Sandbox
from repro.sim.network import RdmaFabric
from repro.workload.functionbench import FunctionBenchSuite

SCALE = 1.0 / 64.0


def main() -> None:
    function = sys.argv[1] if len(sys.argv) > 1 else "LinAlg"
    suite = FunctionBenchSuite.default()
    profile = suite.get(function)
    print(f"Function: {profile.name} ({profile.description}), "
          f"{profile.memory_mb:g} MB footprint\n")

    # Wire the dedup machinery of one node (node 0), with the base
    # sandbox living remotely on node 1.
    store = CheckpointStore()
    registry = FingerprintRegistry()
    agent = DedupAgent(
        0,
        registry=registry,
        store=store,
        fabric=RdmaFabric(),
        costs=CostModel(),
        content_scale=SCALE,
    )

    print("1. Demarcating a base sandbox on node 1 and registering its")
    print("   value-sampled page fingerprints in the controller registry...")
    base_image = profile.synthesize(1, content_scale=SCALE, executed=True)
    checkpoint = BaseCheckpoint(
        function=profile.name,
        node_id=1,
        image=base_image,
        owner_sandbox_id=1,
        full_size_bytes=profile.memory_bytes,
    )
    store.add(checkpoint)
    for index in range(base_image.num_pages):
        registry.register_page(
            PageRef(checkpoint.checkpoint_id, 1, index),
            page_fingerprint(base_image.page(index)),
        )
    print(f"   registry now holds {registry.digest_count} chunk digests "
          f"({fmt_bytes(registry.memory_bytes())})\n")

    print("2. Running the dedup op on a second sandbox of the function...")
    sandbox = Sandbox(profile=profile, node_id=0, instance_seed=2, created_at=0.0)
    sandbox.image = profile.synthesize(2, content_scale=SCALE, executed=True)
    original_checksum = sandbox.image.checksum()
    outcome = agent.dedup(sandbox)
    table, timings = outcome.table, outcome.timings

    stats = table.stats
    print(f"   pages: {stats.total_pages} total = {stats.zero_pages} zero + "
          f"{stats.patched_pages} patched + {stats.unique_pages} unique")
    patch_sizes = [patch.size_bytes for patch in table.patches]
    print(f"   mean patch size: {sum(patch_sizes) / len(patch_sizes):.0f} B "
          f"(vs {table.page_size} B pages)")
    print(f"   memory: {profile.memory_mb:g} MB warm -> "
          f"{table.retained_full_bytes / MIB:.1f} MB deduped "
          f"({stats.savings_fraction * 100:.1f}% saved)")
    print(f"   dedup op duration (full-scale): {fmt_ms(timings.total_ms)} "
          f"(checkpoint {fmt_ms(timings.checkpoint_ms)}, registry lookups "
          f"{fmt_ms(timings.lookup_ms)}, patches {fmt_ms(timings.patch_ms)})")
    refs = Counter({store.get(c).function: n for c, n in table.base_refs.items()})
    print(f"   base-page references: {dict(refs)}\n")

    print("3. Restoring the sandbox from patches + remote base pages...")
    restore = agent.restore(table, verify=True)
    print(f"   restore: base reads {fmt_ms(restore.timings.base_read_ms)} + "
          f"page compute {fmt_ms(restore.timings.compute_ms)} + "
          f"resume {fmt_ms(restore.timings.restore_ms)} = "
          f"{fmt_ms(restore.timings.total_ms)} "
          f"(cold start would be {fmt_ms(profile.cold_start_ms)})")
    assert restore.image.checksum() == original_checksum
    print("   restored image is byte-identical to the original ✔")


if __name__ == "__main__":
    main()
