"""Cluster health state shared by the injector, controller and agents.

:class:`FaultDomainHealth` is the single source of truth for which
failure domains are currently impaired: down nodes, down registry
shards, and degraded/partitioned links.  The injector mutates it; the
controller and policy engine consult it to place work, skip unreachable
replicas, and degrade the fleet to warm-only while the registry is
unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.faults.retry import TransientFaults
    from repro.faults.schedule import FaultsConfig


class RegistryUnavailable(RuntimeError):
    """A registry RPC could not be served (shard down or retries exhausted).

    The caller must abandon the dedup op and leave the sandbox warm —
    degradation, never corruption."""


class FaultDomainHealth:
    """Mutable health bitmap over the cluster's failure domains."""

    def __init__(self) -> None:
        self.down_nodes: set[int] = set()
        self.down_shards: set[int] = set()
        self.partitioned_links: set[int] = set()

    def node_up(self, node_id: int) -> bool:
        return node_id not in self.down_nodes

    def registry_available(self) -> bool:
        """Whether new dedup ops may be admitted (all shards serving)."""
        return not self.down_shards


@dataclass
class FaultRuntime:
    """The live fault layer of one platform instance.

    Bundles the static config with the mutable health state and the
    transient-RPC model, so the controller and agents take a single
    handle.  Every platform builds one; an empty config injects nothing."""

    config: FaultsConfig
    health: FaultDomainHealth
    transients: TransientFaults
