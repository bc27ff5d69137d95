"""The fault injector: drives a :class:`FaultSchedule` off the sim clock.

Every fault and heal is an ordinary simulator event, so injected chaos
interleaves deterministically with the platform's own timers.  The
injector owns the *mechanics* of each fault — flipping fabric and health
state, dropping shard tables, charging the shard rebuild — and delegates
the *policy* of recovery (refcount reconciliation, re-homing, queue
re-dispatch) to the controller's ``on_node_crash`` / ``on_fault_heal``
hooks.

Shard recovery models the paper's chain-replicated controller: a lost
shard's table is re-derivable state, rebuilt by re-registering every
surviving base checkpoint's fingerprints.  The rebuild is charged real
time (the shard's share of the cluster-wide re-registration cost) and
the shard only serves again once it completes — so MTTR for a shard
outage includes the rebuild, and the warm-only degradation window is
correspondingly longer than the raw outage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._util import hash_bytes
from repro.core.registry import PageRef
from repro.memory.fingerprint import batch_page_fingerprints

if TYPE_CHECKING:
    from repro.controller.controller import ClusterController
    from repro.faults.health import FaultRuntime
    from repro.faults.schedule import LinkDegradation, LinkPartition, NodeCrash, ShardOutage
    from repro.platform.config import ClusterConfig
    from repro.platform.metrics import RunMetrics
    from repro.sandbox.checkpoint import CheckpointStore
    from repro.sim.engine import Simulator
    from repro.sim.network import RdmaFabric


class FaultInjector:
    """Schedules and executes one run's fault plan."""

    def __init__(
        self,
        *,
        sim: Simulator,
        config: ClusterConfig,
        runtime: FaultRuntime,
        fabric: RdmaFabric,
        registry,
        controller: ClusterController,
        store: CheckpointStore,
        metrics: RunMetrics,
    ):
        self.sim = sim
        self.config = config
        self.runtime = runtime
        self.fabric = fabric
        self.registry = registry
        self.controller = controller
        self.store = store
        self.metrics = metrics
        self._armed = False

    def arm(self) -> None:
        """Schedule every fault/heal of the configured plan (idempotent)."""
        if self._armed:
            return
        self._armed = True
        schedule = self.runtime.config.schedule
        for crash in schedule.node_crashes:
            self.sim.at(crash.at_ms, lambda c=crash: self._crash_node(c))
            if crash.restart_at_ms is not None:
                self.sim.at(crash.restart_at_ms, lambda c=crash: self._restart_node(c))
        for outage in schedule.shard_outages:
            self.sim.at(outage.at_ms, lambda o=outage: self._shard_down(o))
            self.sim.at(outage.heal_at_ms, lambda o=outage: self._shard_heal(o))
        for link in schedule.link_degradations:
            self.sim.at(link.at_ms, lambda f=link: self._degrade_link(f))
            self.sim.at(link.heal_at_ms, lambda f=link: self._heal_degraded(f))
        for link in schedule.link_partitions:
            self.sim.at(link.at_ms, lambda f=link: self._partition_link(f))
            self.sim.at(link.heal_at_ms, lambda f=link: self._heal_partition(f))

    # ----------------------------------------------------------- recording

    def _record(self, kind: str, domain: str) -> None:
        """Append the fault event and an availability sample at `now`."""
        # Imported here, not at module scope: the fault layer sits below
        # repro.platform in the import graph (agents import faults), and
        # repro.platform.metrics pulls the whole platform package in.
        from repro.platform.metrics import AvailabilitySample, FaultEventRecord

        health = self.runtime.health
        self.metrics.fault_events.append(
            FaultEventRecord(time_ms=self.sim.now, kind=kind, domain=domain)
        )
        self.metrics.availability_timeline.append(
            AvailabilitySample(
                time_ms=self.sim.now,
                nodes_up=health.nodes_up,
                shards_up=health.shards_up,
                degraded_links=health.impaired_links,
            )
        )

    # --------------------------------------------------------- node faults

    def _crash_node(self, crash: NodeCrash) -> None:
        health = self.runtime.health
        health.down_nodes.add(crash.node_id)
        self.fabric.fail_peer(crash.node_id)
        self._record("node-crash", f"node:{crash.node_id}")
        self.controller.on_node_crash(crash.node_id)

    def _restart_node(self, crash: NodeCrash) -> None:
        health = self.runtime.health
        health.down_nodes.discard(crash.node_id)
        # A concurrent link partition keeps the fabric path down even
        # though the node itself is back.
        if crash.node_id not in health.partitioned_links:
            self.fabric.restore_peer(crash.node_id)
        self._record("node-restored", f"node:{crash.node_id}")
        self.controller.on_fault_heal()

    # -------------------------------------------------------- shard faults

    def _shard_down(self, outage: ShardOutage) -> None:
        self.runtime.health.down_shards.add(outage.shard)
        self.registry.drop_shard(outage.shard)
        self._record("shard-down", f"shard:{outage.shard}")

    def _shard_heal(self, outage: ShardOutage) -> None:
        # The replacement shard comes up empty and must re-ingest its
        # slice of the digest space before serving; charge that rebuild
        # and only mark the shard healthy once it completes.
        rebuild_ms = self._rebuild_cost_ms()
        self.metrics.shard_rebuilds += 1
        self.metrics.shard_rebuild_ms += rebuild_ms
        self.sim.after(rebuild_ms, lambda: self._finish_shard_heal(outage.shard))

    def _rebuild_cost_ms(self) -> float:
        """One shard's share of re-registering every surviving base."""
        total = 0.0
        for checkpoint in self.store:
            if checkpoint.node_id in self.runtime.health.down_nodes:
                continue
            full_pages = max(
                1, round(checkpoint.image.num_pages / self.config.content_scale)
            )
            total += self.config.costs.register_ms(full_pages)
        return total / self.registry.n_shards

    def _finish_shard_heal(self, shard: int) -> None:
        # Re-register every surviving checkpoint's fingerprints and page
        # locations.  Registration is idempotent at the bucket level, so
        # shards that never went down absorb the replay as no-ops while
        # the rebuilt shard repopulates its slice of the digest space.
        for checkpoint in list(self.store):
            if checkpoint.node_id in self.runtime.health.down_nodes:
                continue
            if not checkpoint.registered:
                continue
            image = checkpoint.image
            fingerprints = batch_page_fingerprints(
                image.data, image.page_size, self.config.fingerprint
            )
            refs = [
                PageRef(checkpoint.checkpoint_id, checkpoint.node_id, index)
                for index in range(len(fingerprints))
            ]
            self.registry.register_pages(refs, fingerprints, checkpoint.domain)
            for index, ref in enumerate(refs):
                self.registry.register_page_location(
                    ref, hash_bytes(image.page_bytes(index)), checkpoint.domain
                )
        self.runtime.health.down_shards.discard(shard)
        self._record("shard-restored", f"shard:{shard}")
        self.controller.on_fault_heal()

    # --------------------------------------------------------- link faults

    def _degrade_link(self, link: LinkDegradation) -> None:
        self.fabric.degrade_peer(link.peer, link.latency_factor)
        self.runtime.health.degraded_links.add(link.peer)
        self._record("link-degraded", f"link:{link.peer}")

    def _heal_degraded(self, link: LinkDegradation) -> None:
        self.fabric.heal_peer(link.peer)
        self.runtime.health.degraded_links.discard(link.peer)
        self._record("link-restored", f"link:{link.peer}")

    def _partition_link(self, link: LinkPartition) -> None:
        self.runtime.health.partitioned_links.add(link.peer)
        self.fabric.fail_peer(link.peer)
        self._record("link-partitioned", f"link:{link.peer}")

    def _heal_partition(self, link: LinkPartition) -> None:
        health = self.runtime.health
        health.partitioned_links.discard(link.peer)
        # Don't resurrect the fabric path of a peer that crashed while
        # partitioned — the crash owns that state until restart.
        if link.peer not in health.down_nodes:
            self.fabric.restore_peer(link.peer)
        self._record("link-restored", f"link:{link.peer}")
        self.controller.on_fault_heal()
