"""Every data-plane decision of one all-features replay, frozen.

``tests/golden/data_plane_run.json`` records one replay with every
default-off feature on at once: two per-tenant dedup domains over two
registry shards, checkpoint tiering with recorded-working-set prefetch,
a template pool small enough that some parks fall through to the dedup
rung, the overlap cost model (``parallel_data_plane``), verified
restores, a node crash, a link partition and transient RPC failures.
It runs under :func:`tests.conftest.check_every_instant`, so
:func:`repro.invariants.check` also holds at every simulated instant.

What is frozen is each op's *decisions*, recorded by wrapping
``DedupAgent.dedup``, ``restore`` and ``fork_restore`` (one line each):

* a dedup op: sandbox and node, page counts by kind and by base
  locality, one CRC32 over every page's (index, kind, base checkpoint,
  node and page, patch length, CRC32 of the patch's wire bytes), one
  CRC32 of the unique pages (index and content), and its timings;
* a restore: the patched pages it reads from local DRAM, peer DRAM, the
  far-memory pool and SSD (counted from the table and the store when
  the call is made), a CRC32 of the table's page digests, and then its
  ``RestoreOpRecord`` fields, or the exception that sent the request
  down the ladder;
* a fork: the node, the segments it promoted and ``promoted_bytes``;

then one line per request (``report_to_dict(..., include_requests=True)``
rows, start rung included), every scalar ``RunMetrics`` counter, and
the report's remaining totals.

Limit: no checkpoint is ever demoted, so none is promoted either.  A
checkpoint demotes only when its owner is purged while pinned, off a
crashed node; keep-alive spares pinned bases, eviction takes only
unpinned ones, and a crash purge is excluded.  The two zeros are frozen
with the other counters.

``python -m tests.platform.test_data_plane_golden --write`` regenerates
the file through the same :func:`record_run` the test calls.  A PR that
means to move a decision edits the JSON in the same diff.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
import zlib

import numpy as np
import pytest

from repro.core.agent import DedupAgent, PageKind
from repro.core.policy import MedesPolicyConfig
from repro.faults.schedule import FaultSchedule, FaultsConfig, LinkPartition, NodeCrash
from repro.platform.config import ClusterConfig
from repro.platform.platform import Platform, PlatformKind, build_platform
from repro.platform.report_io import report_to_dict
from repro.storage.tiers import StorageConfig, StorageTier
from repro.templates.catalog import TemplateConfig
from repro.tenancy.domains import DedupDomainMode, TenantConfig
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Trace
from tests.conftest import check_every_instant

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "data_plane_run.json"

#: Two tenants, four functions.
TENANT_OF = {"Vanilla": "alice", "LinAlg": "alice", "FeatureGen": "bob", "ImagePro": "bob"}


def build_scenario() -> tuple[Platform, Trace]:
    """The platform, every feature on, and the 30-minute trace it replays."""
    suite = FunctionBenchSuite.subset(list(TENANT_OF))
    trace = AzureTraceGenerator(seed=11, rate_scale=4).generate(
        30, suite.names(), tenant_of=TENANT_OF
    )
    duration_ms = trace.duration_ms
    faults = FaultsConfig(
        schedule=FaultSchedule(
            node_crashes=(
                NodeCrash(at_ms=0.5 * duration_ms, node_id=1, restart_at_ms=0.6 * duration_ms),
            ),
            # Node 1's restores cannot read node 0's bases: the restore
            # fails and the request falls back to a cold start.
            link_partitions=(
                LinkPartition(at_ms=0.2 * duration_ms, peer=0, heal_at_ms=0.3 * duration_ms),
            ),
        ),
        rpc_failure_prob=0.02,
        seed=5,
    )
    config = ClusterConfig(
        nodes=2,
        node_memory_mb=128.0,
        content_scale=1.0 / 256.0,
        seed=5,
        verify_restores=True,
        dedup_domains=TenantConfig(mode=DedupDomainMode.PER_TENANT),
        registry_shards=2,
        checkpoint_tiering=True,
        storage=StorageConfig(prefetch=True),
        template_sharing=True,
        templates=TemplateConfig(pool_mb=8.0),
        parallel_data_plane=True,
        faults=faults,
    )
    platform = build_platform(
        PlatformKind.MEDES,
        config,
        suite,
        # A parked table lives one keep-dedup window in DRAM and, parked
        # on SSD by its expiry, one more: 60 s each lets the trace's
        # arrivals restore some (prefetched, and failing over to cold
        # during the partition).
        medes=MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0, keep_dedup_ms=60_000.0),
    )
    return platform, trace


def _dedup_line(agent: DedupAgent, outcome) -> list:
    table, timings = outcome.table, outcome.timings
    pages = unique = 0
    refs = zip(table.base_checkpoint.tolist(), table.base_node.tolist(), table.base_page.tolist())
    patched = dict(zip(table.patched.tolist(), zip(refs, table.patches)))
    local = sum(node_id == agent.node_id for node_id in table.base_node.tolist())
    remote = len(table.patches) - local
    for index, code in enumerate(table.entries.tolist()):
        kind = PageKind(code)
        ref = patch_fields = ()
        if kind is PageKind.PATCHED:
            ref, patch = patched[index]
            patch_fields = (patch.size_bytes, zlib.crc32(patch.blob))
        # The kind's old string value keeps the frozen hashes.
        pages = zlib.crc32(repr((index, kind.name.lower(), ref, patch_fields)).encode(), pages)
    unique_index = np.flatnonzero(table.entries == PageKind.UNIQUE).tolist()
    for index, page in zip(unique_index, table.unique):
        unique = zlib.crc32(page.tobytes(), zlib.crc32(index.to_bytes(4, "little"), unique))
    stats = table.stats
    return [
        stats.zero_pages,
        stats.unique_pages,
        local,
        remote,
        pages,
        unique,
        timings.checkpoint_ms,
        timings.fingerprint_ms,
        timings.lookup_ms,
        timings.base_read_ms,
        timings.patch_ms,
        timings.retry_ms,
        timings.retries,
        timings.total_ms,
    ]


def _tier_reads(agent: DedupAgent, table) -> list[int]:
    """Patched pages a restore of ``table`` reads from local DRAM, peer
    DRAM, the far-memory pool and SSD, by where each base is now."""
    reads = dict.fromkeys(("local", "peer", StorageTier.REMOTE_DRAM, StorageTier.LOCAL_SSD), 0)
    for checkpoint_id in table.base_checkpoint.tolist():
        checkpoint = agent.store.get(checkpoint_id)
        if checkpoint.tier is not StorageTier.NODE_DRAM:
            reads[checkpoint.tier] += 1
        elif checkpoint.node_id == agent.node_id:
            reads["local"] += 1
        else:
            reads["peer"] += 1
    return list(reads.values())


def record_run() -> dict:
    """Replay the scenario, checking every instant; its frozen form."""
    platform, trace = build_scenario()
    instants = check_every_instant(platform)
    ops: list[list] = []
    restored: list[list] = []
    real_dedup, real_restore, real_fork = (
        DedupAgent.dedup,
        DedupAgent.restore,
        DedupAgent.fork_restore,
    )

    def dedup(agent, sandbox):
        line = ["dedup", sandbox.sandbox_id, agent.node_id]
        ops.append(line)
        try:
            outcome = real_dedup(agent, sandbox)
        except Exception as exc:
            line.append(type(exc).__name__)
            raise
        line.extend(_dedup_line(agent, outcome))
        return outcome

    def restore(agent, table, **kwargs):
        line = ["restore", agent.node_id, *_tier_reads(agent, table)]
        line.append(zlib.crc32(table.page_digests.tobytes()))
        ops.append(line)
        try:
            outcome = real_restore(agent, table, **kwargs)
        except Exception as exc:
            line.append(type(exc).__name__)
            raise
        restored.append(line)
        return outcome

    def fork_restore(agent, table, **kwargs):
        line = ["fork", agent.node_id, table.function]
        ops.append(line)
        try:
            outcome = real_fork(agent, table, **kwargs)
        except Exception as exc:
            line.append(type(exc).__name__)
            raise
        line.append([[s.segment_id, *s.key] for s in outcome.promoted])
        line.append(outcome.promoted_bytes)
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DedupAgent, "dedup", dedup)
        patch.setattr(DedupAgent, "restore", restore)
        patch.setattr(DedupAgent, "fork_restore", fork_restore)
        report = platform.run(trace)

    metrics = report.metrics
    # Each restore that returned became the next RestoreOpRecord.
    assert len(restored) == len(metrics.restore_ops)
    for line, record in zip(restored, metrics.restore_ops):
        line.extend(dataclasses.astuple(record))
    flat = report_to_dict(report, include_requests=True)
    requests = [list(row.values()) for row in flat["metrics"].pop("requests")]
    counters = {
        field.name: getattr(metrics, field.name)
        for field in dataclasses.fields(metrics)
        if type(getattr(metrics, field.name)) in (int, float)
    }
    run = {
        "instants": len(instants),
        "ops": ops,
        "requests": requests,
        "counters": counters,
        "totals": flat,
    }
    # Through JSON, so a run compares equal to the file it would write.
    return json.loads(dumps(run))


def dumps(run: dict) -> str:
    """The golden's text: one line per op and per request."""
    parts = []
    for key, value in run.items():
        if isinstance(value, list):
            body = ",\n".join(f"  {json.dumps(item)}" for item in value)
            text = f"[\n{body}\n ]"
        else:
            text = json.dumps(value, indent=1, sort_keys=True).replace("\n", "\n ")
        parts.append(f" {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


@pytest.fixture(scope="module")
def run() -> dict:
    return record_run()


def test_replay_matches_golden(run):
    golden = json.loads(GOLDEN.read_text())
    assert list(run) == list(golden)
    for key, expected in golden.items():
        if isinstance(expected, list):
            # Line by line, so a failure shows the first moved decision.
            for index, (got, want) in enumerate(zip(run[key], expected)):
                assert (key, index, got) == (key, index, want)
            assert len(run[key]) == len(expected)
        else:
            assert run[key] == expected


def test_scenario_reaches_every_rung(run):
    """The golden cannot go vacuous: each path it freezes was taken."""
    counters = run["counters"]
    dedups = [line for line in run["ops"] if line[0] == "dedup" and len(line) > 4]
    restores = [line for line in run["ops"] if line[0] == "restore"]
    forks = [line for line in run["ops"] if line[0] == "fork" and len(line) > 4]
    assert sum(line[5] for line in dedups) > 0, "pages patched against a local base"
    assert sum(line[6] for line in dedups) > 0, "pages patched against a remote one"
    assert len(restores) > counters["restore_cold_fallbacks"] > 0
    assert counters["prefetched_restores"] > 0
    assert any(line[3] for line in restores), "a restore reads a peer's DRAM"
    assert any(line[-1] for line in forks), "a fork promotes a segment"
    for name in (
        "table_demotions",
        "table_promotions",
        "evictions",
        "rpc_retries",
        "crash_purged_sandboxes",
        "template_promotions",
    ):
        assert counters[name] > 0, name
    assert run["instants"] > len(run["requests"])


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(f"usage: python -m {__spec__.name} --write", file=sys.stderr)
        return 2
    run = record_run()
    GOLDEN.write_text(dumps(run))
    print(f"wrote {GOLDEN} ({len(run['ops'])} ops, {len(run['requests'])} requests)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
