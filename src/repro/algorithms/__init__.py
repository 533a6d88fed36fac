"""The paper's workloads (§4.4.4).

Two families of task-based algorithms:

* **Fully parallelizable** — every task's user code is thread-parallel:
  blocked matrix multiplication (:class:`MatmulWorkflow`, dislib-style
  ``matmul_func`` O(N^3) + ``add_func`` O(N) tasks) and its Fused
  Multiply-Add variant (:class:`MatmulFmaWorkflow`, the COMPSs sample used
  for the generalizability experiment of §5.5.1).
* **Partially parallelizable** — tasks mix serial and parallel fractions:
  distributed K-means (:class:`KMeansWorkflow`, ``partial_sum`` tasks of
  complexity O(M N K^2) plus a serial merge per iteration).

Each workflow both *submits real task functions* (NumPy, for the
in-process correctness backend) and *annotates every task with a
:class:`~repro.perfmodel.TaskCost`* (for the simulated backend).
"""

from repro.algorithms.generated import GeneratedDagWorkflow
from repro.algorithms.kmeans import KMeansWorkflow, kmeans_reference
from repro.algorithms.matmul import MatmulWorkflow
from repro.algorithms.matmul_fma import MatmulFmaWorkflow
from repro.algorithms.synthetic import SyntheticWorkflow

__all__ = [
    "GeneratedDagWorkflow",
    "KMeansWorkflow",
    "MatmulFmaWorkflow",
    "MatmulWorkflow",
    "SyntheticWorkflow",
    "kmeans_reference",
]
