"""The storage-tier model: tiers, capacities, and a calibrated cost model.

Medes pins every base checkpoint in node DRAM for as long as any dedup
page table references it, so under memory pressure the controller's only
relief valve is purging sandboxes — and eating the cold starts that
Figures 10-11 measure.  This module models the slower-but-cheaper places
that frozen state can *demote* to instead of dying:

* ``NODE_DRAM`` — where checkpoints are born: RDMA-registered memory on
  the owning worker, read at fabric (or local-copy) cost.
* ``REMOTE_DRAM`` — a disaggregated fabric-attached memory pool (the
  TrEnv/CXL-style far-memory tier): DRAM latency plus a fabric hop, a
  single cluster-wide capacity.
* ``LOCAL_SSD`` — the worker's NVMe drive: per-node capacity, read cost
  dominated by device latency + sequential bandwidth.  Parked tables
  (dedup patch tables, template deltas) also land here.

Costs are charged per *batched* operation: a restore issues one
sequential read per tier channel, so a transfer of ``n`` bytes pays one
device latency plus ``n / bandwidth`` — mirroring how
:meth:`repro.sim.network.RdmaFabric.batch_read_ms` charges pipelined
fabric reads.  Defaults are calibrated to commodity parts (~100 us NVMe
read latency, sequential bandwidth below the 10 Gbps fabric line rate,
writes slower than reads), keeping the tier ordering
``NODE_DRAM < REMOTE_DRAM < LOCAL_SSD`` in fetch cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro._util import MIB


class StorageTier(enum.Enum):
    """Where a piece of frozen state (checkpoint / patch table) resides."""

    NODE_DRAM = "node-dram"
    """RDMA-registered memory of the owning worker node."""

    REMOTE_DRAM = "remote-dram"
    """Disaggregated fabric-attached memory pool (cluster-wide)."""

    LOCAL_SSD = "local-ssd"
    """The owning worker's NVMe drive (per-node capacity)."""


@dataclass(frozen=True)
class StorageConfig:
    """Capacities and device timings of the non-DRAM tiers."""

    remote_dram_mb: float = 2048.0
    """Cluster-wide capacity of the fabric-attached memory pool."""

    remote_dram_latency_us: float = 10.0
    """Per-batched-read latency of the far-memory pool (fabric hop)."""

    remote_dram_gbps: float = 10.0
    """Line rate of the far-memory fabric (payload serialisation)."""

    ssd_capacity_mb: float = 8192.0
    """Per-node NVMe capacity available for demoted state."""

    ssd_read_latency_us: float = 100.0
    """Device latency of one batched NVMe read."""

    ssd_read_mb_per_s: float = 800.0
    """Sequential NVMe read bandwidth."""

    ssd_write_mb_per_s: float = 400.0
    """Sequential NVMe write bandwidth (demotion cost)."""

    prefetch: bool = True
    """Record restore working sets and prefetch them on later restores."""

    def __post_init__(self) -> None:
        positive = (
            self.remote_dram_latency_us,
            self.remote_dram_gbps,
            self.ssd_read_latency_us,
            self.ssd_read_mb_per_s,
            self.ssd_write_mb_per_s,
        )
        if min(positive) <= 0:
            raise ValueError("storage tier timings must be positive")
        if self.remote_dram_mb < 0 or self.ssd_capacity_mb < 0:
            raise ValueError("tier capacities must be non-negative")

    # ------------------------------------------------------------- costs

    @property
    def remote_dram_capacity_bytes(self) -> int:
        return int(self.remote_dram_mb * MIB)

    @property
    def ssd_capacity_bytes(self) -> int:
        return int(self.ssd_capacity_mb * MIB)

    def remote_dram_read_ms(self, nbytes: int) -> float:
        """One batched read of ``nbytes`` from the far-memory pool."""
        if nbytes < 0:
            raise ValueError("negative read size")
        if nbytes == 0:
            return 0.0
        serialize = nbytes * 8 / (self.remote_dram_gbps * 1e9) * 1e3
        return self.remote_dram_latency_us / 1e3 + serialize

    def remote_dram_write_ms(self, nbytes: int) -> float:
        """Demoting ``nbytes`` into the far-memory pool (symmetric link)."""
        return self.remote_dram_read_ms(nbytes)

    def ssd_read_ms(self, nbytes: int) -> float:
        """One batched sequential read of ``nbytes`` from NVMe."""
        if nbytes < 0:
            raise ValueError("negative read size")
        if nbytes == 0:
            return 0.0
        return self.ssd_read_latency_us / 1e3 + nbytes / (self.ssd_read_mb_per_s * MIB) * 1e3

    def ssd_write_ms(self, nbytes: int) -> float:
        """One batched sequential write of ``nbytes`` to NVMe."""
        if nbytes < 0:
            raise ValueError("negative write size")
        if nbytes == 0:
            return 0.0
        return self.ssd_read_latency_us / 1e3 + nbytes / (self.ssd_write_mb_per_s * MIB) * 1e3


class TierCapacityError(RuntimeError):
    """A charge would exceed a tier's capacity (callers check ``fits``)."""


@dataclass
class TierAccount:
    """Capacity accounting for one tier (or one node's slice of it)."""

    capacity_bytes: int
    used_bytes: int = 0
    charges: int = field(default=0, repr=False)
    """Lifetime number of charge operations (observability)."""

    def fits(self, nbytes: int) -> bool:
        return self.used_bytes + nbytes <= self.capacity_bytes

    def charge(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("negative tier charge")
        if not self.fits(nbytes):
            raise TierCapacityError(
                f"tier charge of {nbytes} exceeds capacity "
                f"({self.used_bytes}/{self.capacity_bytes})"
            )
        self.used_bytes += nbytes
        self.charges += 1

    def release(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("negative tier release")
        if self.used_bytes - nbytes < 0:
            raise RuntimeError(
                f"tier accounting underflow ({self.used_bytes} - {nbytes})"
            )
        self.used_bytes -= nbytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes
