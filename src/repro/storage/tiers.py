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
fabric reads.  The timings are constants calibrated to commodity parts
(~100 us NVMe read latency, sequential bandwidth below the 10 Gbps
fabric line rate, writes slower than reads), keeping the tier ordering
``NODE_DRAM < REMOTE_DRAM < LOCAL_SSD`` in fetch cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro._util import MIB


class StorageTier(enum.Enum):
    """Where a piece of frozen state (checkpoint / patch table) resides."""

    NODE_DRAM = "node-dram"
    """RDMA-registered memory of the owning worker node."""

    REMOTE_DRAM = "remote-dram"
    """Disaggregated fabric-attached memory pool (cluster-wide)."""

    LOCAL_SSD = "local-ssd"
    """The owning worker's NVMe drive (per-node capacity)."""


#: Device timings of the non-DRAM tiers (commodity parts, see above).
REMOTE_DRAM_LATENCY_US = 10.0
"""Per-batched-read latency of the far-memory pool (fabric hop)."""
REMOTE_DRAM_GBPS = 10.0
"""Line rate of the far-memory fabric (payload serialisation)."""
SSD_READ_LATENCY_US = 100.0
"""Device latency of one batched NVMe read (writes pay it too)."""
SSD_READ_MB_PER_S = 800.0
"""Sequential NVMe read bandwidth."""
SSD_WRITE_MB_PER_S = 400.0
"""Sequential NVMe write bandwidth (parking cost)."""


def remote_dram_read_ms(nbytes: int) -> float:
    """One batched read of ``nbytes`` from the far-memory pool; a write
    costs the same (the link is symmetric)."""
    if nbytes < 0:
        raise ValueError("negative transfer size")
    if nbytes == 0:
        return 0.0
    return REMOTE_DRAM_LATENCY_US / 1e3 + nbytes * 8 / (REMOTE_DRAM_GBPS * 1e9) * 1e3


def ssd_read_ms(nbytes: int) -> float:
    """One batched sequential read of ``nbytes`` from NVMe."""
    if nbytes < 0:
        raise ValueError("negative transfer size")
    if nbytes == 0:
        return 0.0
    return SSD_READ_LATENCY_US / 1e3 + nbytes / (SSD_READ_MB_PER_S * MIB) * 1e3


def ssd_write_ms(nbytes: int) -> float:
    """One batched sequential write of ``nbytes`` to NVMe."""
    if nbytes < 0:
        raise ValueError("negative transfer size")
    if nbytes == 0:
        return 0.0
    return SSD_READ_LATENCY_US / 1e3 + nbytes / (SSD_WRITE_MB_PER_S * MIB) * 1e3


@dataclass(frozen=True)
class StorageConfig:
    """Capacities of the non-DRAM tiers, and whether restores prefetch."""

    remote_dram_mb: float = 2048.0
    """Cluster-wide capacity of the fabric-attached memory pool."""

    ssd_capacity_mb: float = 8192.0
    """Per-node NVMe capacity available for demoted state."""

    prefetch: bool = True
    """Record restore working sets and prefetch them on later restores."""

    def __post_init__(self) -> None:
        if self.remote_dram_mb < 0 or self.ssd_capacity_mb < 0:
            raise ValueError("tier capacities must be non-negative")

    @property
    def remote_dram_capacity_bytes(self) -> int:
        return int(self.remote_dram_mb * MIB)

    @property
    def ssd_capacity_bytes(self) -> int:
        return int(self.ssd_capacity_mb * MIB)


class TierCapacityError(RuntimeError):
    """A charge would exceed a tier's capacity (callers check ``fits``)."""


@dataclass
class TierAccount:
    """Capacity accounting for one tier (or one node's slice of it)."""

    capacity_bytes: int
    used_bytes: int = 0

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

    def release(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("negative tier release")
        if self.used_bytes - nbytes < 0:
            raise RuntimeError(
                f"tier accounting underflow ({self.used_bytes} - {nbytes})"
            )
        self.used_bytes -= nbytes
