"""WfBench-style generated workflows: parameterised synthetic DAGs.

WfBench (Coleman et al., arXiv:2210.03170) generates workflow benchmarks
whose *shape* (width, depth, fan-in) and *per-task footprint* (compute
and data volume) are free parameters, so schedulers and runtimes can be
stressed far beyond the task counts of any one real application.  This
module provides the same idea for the simulated runtime: a deterministic
generator that grows a layered DAG of compute tasks with seeded random
cross-level edges and per-task cost profiles.

The generator is used three ways in this repository:

* the simulator throughput floors run a *wide* generated DAG, a shape
  no paper figure covers;
* the golden-trace equivalence suite replays small generated DAGs across
  every scheduling policy;
* Hypothesis property tests compare the executor's incremental ready-set
  and locality-index state against from-scratch recomputation on random
  generated DAGs.

Everything is driven by one integer seed; the same seed always yields the
same DAG, the same costs, and therefore (on the deterministic simulated
backend) the same trace, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel import TaskCost
from repro.runtime import DataRef, Runtime

_ELEM = 8


def generated_stage_cost(
    input_bytes: int,
    output_bytes: int,
    flops_per_byte: float,
    parallel_ratio: float,
) -> TaskCost:
    """Cost profile of one generated task from its data footprint.

    The FLOP budget is proportional to the bytes read; ``parallel_ratio``
    splits it between the serial and parallel fractions, mirroring
    :mod:`repro.algorithms.synthetic`.
    """
    if not 0.0 <= parallel_ratio <= 1.0:
        raise ValueError("parallel_ratio must be in [0, 1]")
    if flops_per_byte < 0:
        raise ValueError("flops_per_byte must be non-negative")
    total_flops = flops_per_byte * input_bytes
    parallel_flops = total_flops * parallel_ratio
    elements = max(input_bytes // _ELEM, 1)
    return TaskCost(
        serial_flops=total_flops - parallel_flops,
        parallel_flops=parallel_flops,
        parallel_items=float(elements) if parallel_flops else 0.0,
        arithmetic_intensity=max(flops_per_byte * parallel_ratio / 2.0, 1e-6),
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        host_device_bytes=(input_bytes + output_bytes) if parallel_flops else 0,
        gpu_memory_bytes=input_bytes + output_bytes,
        host_memory_bytes=input_bytes + output_bytes,
    )


class GeneratedDagWorkflow:
    """A layered random DAG with seeded shape and cost parameters.

    Parameters
    ----------
    width:
        Tasks per level (the DAG's parallel width).
    depth:
        Number of task levels.
    fan_in:
        Inputs per task, sampled (with the workflow's seed) from the
        previous level's outputs; level 0 reads the registered input
        blocks.  Capped at the width.
    block_mb:
        Size of every data block moved between levels, in MiB.
    flops_per_byte:
        Compute budget per input byte (sets task weight).
    parallel_ratio:
        Fraction of the FLOP budget in the parallel (GPU-eligible)
        fraction; 0 makes every task serial-only.
    sink:
        Append one final task consuming every last-level output, turning
        the wide DAG into a funnel (adds a synchronisation point).
    seed:
        Drives edge sampling; same seed, same DAG.
    """

    name = "generated"
    parallel_task_types = frozenset({"gen_stage"})
    primary_task_type = "gen_stage"

    def __init__(
        self,
        width: int = 64,
        depth: int = 4,
        fan_in: int = 3,
        block_mb: float = 4.0,
        flops_per_byte: float = 50.0,
        parallel_ratio: float = 0.8,
        sink: bool = True,
        seed: int = 0,
    ) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if fan_in < 1:
            raise ValueError("fan_in must be >= 1")
        if block_mb <= 0:
            raise ValueError("block_mb must be positive")
        self.width = width
        self.depth = depth
        self.fan_in = min(fan_in, width)
        self.block_bytes = int(block_mb * 2**20)
        self.flops_per_byte = flops_per_byte
        self.parallel_ratio = parallel_ratio
        self.sink = sink
        self.seed = seed

    @property
    def num_tasks(self) -> int:
        """Tasks the generator will submit."""
        return self.width * self.depth + (1 if self.sink else 0)

    @property
    def block_mb(self) -> float:
        """Block size label, for table axes."""
        return self.block_bytes / 2**20

    def build(self, runtime: Runtime) -> DataRef | list[DataRef]:
        """Submit the generated DAG; returns the terminal ref(s)."""
        rng = np.random.default_rng(self.seed)
        stage_cost = generated_stage_cost(
            input_bytes=self.fan_in * self.block_bytes,
            output_bytes=self.block_bytes,
            flops_per_byte=self.flops_per_byte,
            parallel_ratio=self.parallel_ratio,
        )
        previous: list[DataRef] = [
            runtime.register_input(self.block_bytes, name=f"gen_in{i}")
            for i in range(self.width)
        ]
        for _ in range(self.depth):
            current: list[DataRef] = []
            for _ in range(self.width):
                picks = rng.choice(len(previous), size=self.fan_in, replace=False)
                inputs = [previous[int(p)] for p in sorted(picks)]
                (out,) = runtime.submit(
                    name="gen_stage",
                    inputs=inputs,
                    cost=stage_cost,
                    output_bytes=[self.block_bytes],
                )
                current.append(out)
            previous = current
        if not self.sink:
            return previous
        sink_cost = generated_stage_cost(
            input_bytes=self.width * self.block_bytes,
            output_bytes=self.block_bytes,
            flops_per_byte=self.flops_per_byte,
            parallel_ratio=0.0,
        )
        (final,) = runtime.submit(
            name="gen_sink",
            inputs=previous,
            cost=sink_cost,
            output_bytes=[self.block_bytes],
        )
        return final

    def task_costs(self) -> dict[str, TaskCost]:
        """Per-task-type costs for analytic experiments."""
        return {
            "gen_stage": generated_stage_cost(
                input_bytes=self.fan_in * self.block_bytes,
                output_bytes=self.block_bytes,
                flops_per_byte=self.flops_per_byte,
                parallel_ratio=self.parallel_ratio,
            )
        }
