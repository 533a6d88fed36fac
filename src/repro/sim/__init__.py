"""Discrete-event simulation engine.

This package provides the generic simulation substrate used to model the
heterogeneous CPU-GPU cluster: a deterministic event loop
(:class:`~repro.sim.engine.Simulator`), cooperative processes expressed as
Python generators (:class:`~repro.sim.process.Process`), and contended
resources (:class:`~repro.sim.resources.CapacityResource` for discrete slots
such as CPU cores and GPU devices, and
:class:`~repro.sim.resources.BandwidthResource` for processor-shared channels
such as disks, network links, and the PCIe bus).

The engine is intentionally independent of the paper's domain so it can be
tested in isolation and reused by any experiment.
"""

from repro.sim.engine import (
    ScheduledEvent,
    SimEngine,
    SimulationError,
    Simulator,
)
from repro.sim.events import SimEvent
from repro.sim.process import (
    Acquire,
    AllOf,
    Process,
    Release,
    Timeout,
    Transfer,
    WaitEvent,
)
from repro.sim.resources import BandwidthResource, CapacityResource

__all__ = [
    "Acquire",
    "AllOf",
    "BandwidthResource",
    "CapacityResource",
    "Process",
    "Release",
    "ScheduledEvent",
    "SimEngine",
    "SimEvent",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Transfer",
    "WaitEvent",
]
