"""Discrete-event simulation substrate: the event engine and the RDMA fabric."""

from repro.sim.engine import SimulationError, Simulator, Timer
from repro.sim.network import PeerUnavailable, RdmaFabric, TransferStats

__all__ = [
    "PeerUnavailable",
    "RdmaFabric",
    "SimulationError",
    "Simulator",
    "Timer",
    "TransferStats",
]
