"""Fault schedules: the deterministic chaos plan of one run.

A :class:`FaultSchedule` is a static, validated description of every
injected fault — node crashes (optionally followed by a restart),
registry-shard outages (data loss, then rebuild from surviving agents),
and link faults (latency degradation or full partition).  Together with
the per-op transient-RPC failure probability it forms
:class:`FaultsConfig`, the value of ``ClusterConfig.faults``.

Determinism contract: the schedule carries only absolute simulated
times; the only randomness anywhere in the fault layer flows through the
counter-keyed streams of :class:`~repro.faults.retry.TransientFaults`.
A run under a fixed config and trace therefore reproduces bit-for-bit —
including every crash, retry and jittered backoff.  The layer is always
built; an empty ``FaultsConfig()`` (the default) injects nothing, and
the control-plane golden pins such runs to their pre-fault-layer output.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop crash of one worker node, with an optional restart.

    Everything resident on the node — sandboxes, base-checkpoint content
    not in far memory — is lost at ``at_ms``.  A restart brings back an
    *empty* node (capacity only); it does not resurrect state.
    """

    at_ms: float
    node_id: int
    restart_at_ms: float | None = None

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("crash time must be non-negative")
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        if self.restart_at_ms is not None and self.restart_at_ms <= self.at_ms:
            raise ValueError("restart must come strictly after the crash")


@dataclass(frozen=True)
class ShardOutage:
    """Loss of one fingerprint-registry shard, healed at ``heal_at_ms``.

    The shard's table content is lost (modelling a controller-replica
    failure past its replication factor); on heal it is rebuilt from the
    surviving agents' base checkpoints, and only serves again once the
    charged rebuild completes.
    """

    at_ms: float
    shard: int
    heal_at_ms: float

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("outage time must be non-negative")
        if self.shard < 0:
            raise ValueError("shard index must be non-negative")
        if self.heal_at_ms <= self.at_ms:
            raise ValueError("heal must come strictly after the outage")


@dataclass(frozen=True)
class LinkDegradation:
    """Slow link to ``peer``: remote reads take ``latency_factor`` longer."""

    at_ms: float
    peer: int
    heal_at_ms: float
    latency_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("degradation time must be non-negative")
        if self.heal_at_ms <= self.at_ms:
            raise ValueError("heal must come strictly after the degradation")
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1")


@dataclass(frozen=True)
class LinkPartition:
    """Full partition of ``peer`` from the fabric (node itself stays up)."""

    at_ms: float
    peer: int
    heal_at_ms: float

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("partition time must be non-negative")
        if self.heal_at_ms <= self.at_ms:
            raise ValueError("heal must come strictly after the partition")


def _check_disjoint(intervals: list[tuple[float, float]], what: str) -> None:
    intervals.sort()
    for (_, end), (start, _) in zip(intervals, intervals[1:]):
        if start < end:
            raise ValueError(f"overlapping {what} fault intervals")


@dataclass(frozen=True)
class FaultSchedule:
    """Every scheduled fault of a run, validated for sanity.

    Per-domain fault intervals must not overlap (a node cannot crash
    while already down); faults of *different* kinds on the same node
    may coexist — the injector resolves the interactions.
    """

    node_crashes: tuple[NodeCrash, ...] = ()
    shard_outages: tuple[ShardOutage, ...] = ()
    link_degradations: tuple[LinkDegradation, ...] = ()
    link_partitions: tuple[LinkPartition, ...] = ()

    def __post_init__(self) -> None:
        by_node: dict[int, list[tuple[float, float]]] = {}
        for crash in self.node_crashes:
            restart = crash.restart_at_ms
            end = float("inf") if restart is None else restart
            by_node.setdefault(crash.node_id, []).append((crash.at_ms, end))
        for node_id, intervals in by_node.items():
            _check_disjoint(intervals, f"node {node_id} crash")
        by_shard: dict[int, list[tuple[float, float]]] = {}
        for outage in self.shard_outages:
            by_shard.setdefault(outage.shard, []).append(
                (outage.at_ms, outage.heal_at_ms)
            )
        for shard, intervals in by_shard.items():
            _check_disjoint(intervals, f"shard {shard} outage")
        by_link: dict[int, list[tuple[float, float]]] = {}
        for link in self.link_degradations:
            by_link.setdefault(link.peer, []).append((link.at_ms, link.heal_at_ms))
        for part in self.link_partitions:
            by_link.setdefault(part.peer, []).append((part.at_ms, part.heal_at_ms))
        for peer, intervals in by_link.items():
            _check_disjoint(intervals, f"link {peer}")

    @property
    def empty(self) -> bool:
        """True when the schedule injects nothing."""
        return not (
            self.node_crashes
            or self.shard_outages
            or self.link_degradations
            or self.link_partitions
        )


@dataclass(frozen=True)
class FaultsConfig:
    """The ``ClusterConfig.faults`` knob.

    The default, an empty ``FaultsConfig()``, injects nothing.  Retries
    follow the constants of :mod:`repro.faults.retry`.
    """

    schedule: FaultSchedule = field(default_factory=FaultSchedule)
    rpc_failure_prob: float = 0.0
    """Per-attempt transient failure probability of remote RPCs."""

    seed: int = 0
    """Extra seed mixed into the transient-fault random streams."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.rpc_failure_prob < 1.0:
            raise ValueError("rpc_failure_prob must be in [0, 1)")
