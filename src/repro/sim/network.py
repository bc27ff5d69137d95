"""RDMA fabric cost model.

Medes restores fetch base pages from remote machines with one-sided RDMA
reads (Section 4.2), which cost no remote CPU and land in the tens of
microseconds.  The simulator needs only the *latency* of such transfers,
which this model derives from per-operation latency plus line-rate
serialisation, with batching/pipelining across many page reads from the
same peer (QP pipelining keeps only the first read paying full RTT).

Local reads (base page on the same node) bypass the fabric entirely and
pay a small memory-copy cost.
"""

from __future__ import annotations

from dataclasses import dataclass


# Fabric constants of the paper's 10 Gbps testbed (Section 7.1).

#: One-sided READ latency for the first operation to a peer.
READ_LATENCY_US = 5.0
#: Incremental cost of each further pipelined READ to the same peer.
PIPELINED_OP_US = 0.6
#: Line rate used for payload serialisation.
BANDWIDTH_GBPS = 10.0
#: Cost of a local memory copy, per KiB.
LOCAL_COPY_US_PER_KB = 0.05


@dataclass
class TransferStats:
    """Aggregate counters kept by the fabric (for overhead reporting)."""

    remote_reads: int = 0
    remote_bytes: int = 0
    local_reads: int = 0
    local_bytes: int = 0
    failed_reads: int = 0
    degraded_reads: int = 0


class PeerUnavailable(RuntimeError):
    """A one-sided read targeted a peer that is currently unreachable.

    Raised before any cost is charged; callers (the dedup agent and, one
    level up, the controller) decide the fallback — for restores this
    means falling back to a cold start (paper Section 4.1.3 discusses
    reducing the impact of base-sandbox unavailability).
    """

    def __init__(self, peer: object):
        super().__init__(f"peer {peer} unreachable")
        self.peer = peer


class RdmaFabric:
    """Cost model for base-page reads during dedup and restore ops."""

    def __init__(self) -> None:
        self.stats = TransferStats()
        self._failed_peers: set = set()
        self._degraded: dict = {}

    # ------------------------------------------------------------ failures

    def fail_peer(self, peer: object) -> None:
        """Mark a node unreachable over the fabric (failure injection)."""
        self._failed_peers.add(peer)

    def restore_peer(self, peer: object) -> None:
        """Bring a failed node back."""
        self._failed_peers.discard(peer)

    def peer_available(self, peer: object) -> bool:
        return peer not in self._failed_peers

    def degrade_peer(self, peer: object, factor: float) -> None:
        """Slow the link to ``peer``: remote reads cost ``factor`` times more."""
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        self._degraded[peer] = factor

    def heal_peer(self, peer: object) -> None:
        """Restore the link to ``peer`` to full speed."""
        self._degraded.pop(peer, None)

    def link_factor(self, peer: object) -> float:
        """Current latency multiplier of the link to ``peer``."""
        return self._degraded.get(peer, 1.0)

    def require_peer(self, peer: object) -> None:
        """Raise :class:`PeerUnavailable` if ``peer`` is unreachable.

        For callers that charge non-fabric costs against a peer's local
        storage (e.g. its SSD) and must share the fabric's failure
        domain and ``failed_reads`` accounting.  Counts one failed read
        per call, matching the once-per-batch rule of
        :meth:`batch_read_ms`."""
        self._check_peer(peer)

    def _check_peer(self, peer: object) -> None:
        if peer in self._failed_peers:
            self.stats.failed_reads += 1
            raise PeerUnavailable(peer)

    def _serialize_ms(self, nbytes: int) -> float:
        bits = nbytes * 8
        return bits / (BANDWIDTH_GBPS * 1e9) * 1e3

    def read_ms(self, nbytes: int, *, local: bool) -> float:
        """Latency of a single read of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("negative read size")
        if local:
            self.stats.local_reads += 1
            self.stats.local_bytes += nbytes
            return (nbytes / 1024) * LOCAL_COPY_US_PER_KB / 1e3
        self.stats.remote_reads += 1
        self.stats.remote_bytes += nbytes
        return READ_LATENCY_US / 1e3 + self._serialize_ms(nbytes)

    def batch_read_ms(self, reads_by_peer: dict[object, tuple[int, int]], *, local_peer: object) -> float:
        """Latency of a batched multi-peer page fetch.

        Args:
            reads_by_peer: peer -> (op_count, total_bytes).
            local_peer: the peer identity considered local (no fabric).

        Reads to distinct peers proceed in parallel; within a peer, the
        first op pays full latency and the rest pipeline.  The result is
        the slowest peer's completion time.
        """
        # Validate reachability before charging any cost: a restore either
        # proceeds in full or fails fast to its fallback.  Failed-read
        # accounting is ONCE PER BATCH — an aborted batch increments
        # ``failed_reads`` exactly once, no matter how many of its peers
        # are down nor how many ops targeted them, and the check-and-count
        # is atomic within this call, so a ``restore_peer`` between two
        # batches can never produce a half-counted batch.
        unreachable = [
            peer
            for peer, (ops, _nbytes) in reads_by_peer.items()
            if ops > 0 and peer != local_peer and peer in self._failed_peers
        ]
        if unreachable:
            self.stats.failed_reads += 1
            raise PeerUnavailable(unreachable[0])
        worst = 0.0
        for peer, (ops, nbytes) in reads_by_peer.items():
            if ops < 0 or nbytes < 0:
                raise ValueError("negative op count or byte count")
            if ops == 0:
                continue
            if peer == local_peer:
                self.stats.local_reads += ops
                self.stats.local_bytes += nbytes
                cost = (nbytes / 1024) * LOCAL_COPY_US_PER_KB / 1e3
            else:
                self.stats.remote_reads += ops
                self.stats.remote_bytes += nbytes
                cost = (
                    READ_LATENCY_US / 1e3
                    + (ops - 1) * PIPELINED_OP_US / 1e3
                    + self._serialize_ms(nbytes)
                )
                factor = self._degraded.get(peer)
                if factor is not None:
                    cost *= factor
                    self.stats.degraded_reads += ops
            worst = max(worst, cost)
        return worst
