"""A PyCOMPSs-like distributed task-based runtime.

The runtime mirrors the processing pipeline of the paper's Figure 3:

1. **Code submission** — the application submits tasks through
   :meth:`Runtime.submit` (or the :func:`task` decorator sugar).
2. **DAG creation** — data dependencies between tasks are detected
   automatically from the :class:`DataRef` arguments each task consumes and
   produces, yielding a :class:`TaskGraph` whose width/height expose the
   degrees of task parallelism and dependency (§3.1).
3. **Task scheduling** — a pluggable policy (task generation order or data
   locality, §3.2) assigns dependency-free tasks to cluster resources.
4. **Task execution** — each task runs its Figure-4 stages on either a CPU
   core or a GPU device (plus a host core for (de-)serialization).
5. **Data access** — blocks are read from / written to the configured
   storage architecture (local or shared disk, §3.4).

Two interchangeable backends execute a workflow: the *simulated* backend
runs the stages on a discrete-event model of the cluster and produces
timing traces at paper scale, while the *in-process* backend really
executes the task functions on NumPy data for correctness testing.
"""

from repro.runtime.data import DataRef
from repro.runtime.dag import DuplicateProducerError, TaskGraph
from repro.runtime.runtime import Runtime, RuntimeConfig, WorkflowResult
from repro.runtime.scheduler import SchedulingPolicy
from repro.runtime.task import Task, task

__all__ = [
    "DataRef",
    "DuplicateProducerError",
    "Runtime",
    "RuntimeConfig",
    "SchedulingPolicy",
    "Task",
    "TaskGraph",
    "WorkflowResult",
    "task",
]
