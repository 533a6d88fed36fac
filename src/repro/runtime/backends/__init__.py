"""Execution backends for the task runtime.

* :class:`~repro.runtime.backends.simulated.SimulatedExecutor` — runs the
  workflow on the discrete-event cluster model, producing paper-scale
  timing traces without paper-scale data.
* :class:`~repro.runtime.backends.inprocess.InProcessExecutor` — really
  executes the task functions on NumPy data, for correctness testing of
  the algorithms and the DAG machinery.
"""

from repro.runtime.backends.inprocess import InProcessExecutor
from repro.runtime.backends.simulated import SimulatedExecutor

__all__ = ["InProcessExecutor", "SimulatedExecutor"]
