"""Discrete-event execution of a workflow on the simulated cluster.

This backend reproduces the paper's execution pipeline end to end:

* a **dispatcher** process applies the scheduling policy to the ready
  queue, reserves a CPU core (plus a GPU device for GPU-eligible tasks in
  GPU mode), pays the per-task dispatch latency, and launches a task
  process — serialising scheduling decisions exactly like the PyCOMPSs
  master;
* each **task process** walks the Figure-4 stages: deserialization
  (storage read through the contended disk/network channels plus CPU-side
  decode), serial fraction, parallel fraction (CPU core or GPU device),
  CPU-GPU communication over the node's PCIe channel, and serialization
  back to storage;
* every stage emits trace records, from which the §4.2 metrics are
  aggregated.

When the DAG's width is 1 the workflow is not distributed at all — the
single task chain runs on the master with in-memory data, so storage and
(de-)serialization stages are skipped.  This mirrors the paper's
observation that the maximum block size incurs "neither task distribution
nor any overhead caused by it" (§5.3).

With a :class:`~repro.faults.FaultPlan` the same pipeline grows a failure
path: task attempts can crash at stage boundaries, nodes can die at a
simulated timestamp (killing resident tasks and leaving the schedulable
cluster), device allocations can fail at run time, and stragglers stretch
compute stages.  A :class:`~repro.faults.RetryPolicy` governs recovery —
re-queueing with exponential backoff, GPU-to-CPU fallback, failed-node
blacklisting — and every try is recorded as a
:class:`~repro.tracing.TaskAttempt`.

With ``RetryPolicy(recover_lost_blocks=True)`` the failure path grows
lineage-based recovery: a node failure marks the blocks it held as lost,
and when the dispatcher selects a task whose inputs are lost it walks the
DAG backwards, resurrects the minimal set of committed ancestors that can
recompute them, and re-enqueues those before the consumer runs.  The
authoritative copy of a block lives with its producer node (matching the
locality model); workflow inputs and refs persisted by a
:class:`~repro.faults.CheckpointPolicy` are durable and terminate the
lineage walk.  A :attr:`~repro.faults.RetryPolicy.speculation_factor`
additionally launches backup attempts for stragglers, and a
:attr:`~repro.faults.RetryPolicy.blacklist_cooldown` reboots blacklisted
nodes back into scheduling.  All of it is opt-in: with the recovery knobs
at their defaults the schedule and trace are bit-identical to the
pre-recovery executor.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Generator

import numpy as _np

from repro.faults import (
    CheckpointPolicy,
    FaultError,
    FaultPlan,
    InjectedGpuOomError,
    NodeFailureError,
    RecoveryMetrics,
    RetryPolicy,
    SpeculationCancelledError,
    TaskCrashError,
    TaskDeadlineError,
)
from repro.hardware import SimulatedCluster, StorageKind
from repro.perfmodel import CostModel, TaskCost
from repro.runtime.dag import TaskGraph
from repro.runtime.locality import LocalityIndex
from repro.runtime.scheduler import Scheduler, SchedulingPolicy, make_scheduler
from repro.runtime.task import Task
from repro.sim import (
    Process,
    SimEvent,
    Simulator,
    Timeout,
    Transfer,
    WaitEvent,
)
from repro.tracing import ATTEMPT_OK, Stage, Trace

@dataclass(frozen=True)
class ResourceStats:
    """Aggregate utilisation of the contended cluster resources."""

    peak_cores_in_use: int
    peak_gpus_in_use: int
    network_bytes: float
    shared_disk_read_bytes: float
    shared_disk_write_bytes: float
    local_disk_read_bytes: float
    local_disk_write_bytes: float
    pcie_bytes: float
    peak_concurrent_shared_reads: int


_ZERO_COST = TaskCost(
    serial_flops=0.0,
    parallel_flops=0.0,
    parallel_items=0.0,
    arithmetic_intensity=0.0,
    input_bytes=0,
    output_bytes=0,
    host_device_bytes=0,
    gpu_memory_bytes=0,
)

#: Per-task lifecycle bits of the executor's structure-of-arrays state
#: (``SimulatedExecutor._state``, a uint8 array indexed by task id).
#: ``_RUNNING`` mirrors key membership of the ``_running`` attempt map.
_COMMITTED = 0x01
_FAILED = 0x02
_RUNNING = 0x04
_BACKING_OFF = 0x08
#: Tasks carrying any of these bits are off-limits to the dependency
#: accounting: their indegree counters are frozen until recovery (if
#: ever) rebases them on live state.
_SETTLED_OR_RUNNING = _COMMITTED | _FAILED | _RUNNING
_SETTLED = _COMMITTED | _FAILED


class _ReadyView:
    """Lazy, ordered view of the ready queue as Task objects.

    The generation-order policy only inspects the head of the queue, so
    materialising the whole list on every dispatch would make dispatching
    O(n^2); this view resolves tasks on demand.
    """

    def __init__(self, executor: "SimulatedExecutor") -> None:
        self._executor = executor

    def __len__(self) -> int:
        return len(self._executor._ready)

    def __getitem__(self, index):
        ready = self._executor._ready
        graph = self._executor._graph
        if isinstance(index, slice):
            return [graph.task(task_id) for task_id in ready[index]]
        return graph.task(ready[index])

    def __iter__(self):
        # Policies never mutate the ready queue while selecting, so
        # iterating the live list directly is safe and avoids an O(ready)
        # copy on every dispatch round.
        graph = self._executor._graph
        for task_id in self._executor._ready:
            yield graph.task(task_id)


class _ClusterView:
    """Read-only cluster view handed to scheduling policies."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        cpu_cores_per_task: int = 1,
        blacklist: set[int] | None = None,
        locality_index: LocalityIndex | None = None,
        lost_refs: set[int] | None = None,
    ) -> None:
        self._cluster = cluster
        self._cpu_cores_per_task = cpu_cores_per_task
        self._blacklist = blacklist if blacklist is not None else set()
        #: O(1) per-(task, node) locality scores over the ready set; only
        #: maintained when the data-locality policy is active.
        self.locality_index = locality_index
        #: Ref ids whose blocks died with a node; shared with the executor
        #: so locality credit stops even if the node later reboots.
        self._lost_refs = lost_refs if lost_refs is not None else set()

    def num_nodes(self) -> int:
        return len(self._cluster.nodes)

    def is_blacklisted(self, node: int) -> bool:
        """Whether recovery has excluded ``node`` from scheduling."""
        return node in self._blacklist

    def resident_node(self, ref) -> int | None:
        """The node whose local disk currently holds ``ref``'s block.

        ``home_node`` records where the block *landed*; the block stays
        resident there until the node fails, at which point it is lost
        (``None``) and must not earn locality credit anymore — including
        after a :attr:`~repro.faults.RetryPolicy.blacklist_cooldown`
        reboot, because a rebooted node never resurrects data.  A home
        outside the cluster (possible when refs were registered against a
        larger cluster) resolves to ``None`` as well.
        """
        node = ref.home_node
        nodes = self._cluster.nodes
        if (
            0 <= node < len(nodes)
            and nodes[node].alive
            and ref.ref_id not in self._lost_refs
        ):
            return node
        return None

    def has_free_slot(self, node: int, needs_gpu: bool, ram_bytes: int = 0) -> bool:
        n = self._cluster.nodes[node]
        if not n.alive:
            return False
        cores_needed = 1 if needs_gpu else self._cpu_cores_per_task
        if n.cores.available < cores_needed:
            return False
        if needs_gpu and n.gpus.available < 1:
            return False
        if ram_bytes > n.ram_free:
            return False
        return True


class SimulatedExecutor:
    """Executes one workflow on a fresh simulated cluster."""

    #: Chunks of the staged host-to-device pipeline when overlap is on.
    PIPELINE_STAGES = 8

    def __init__(
        self,
        cluster_spec,
        storage: StorageKind,
        scheduling: SchedulingPolicy,
        use_gpu: bool,
        comm_overlap: bool = False,
        cpu_threads: int = 1,
        gpu_task_types: frozenset[str] | None = None,
        jitter_sigma: float = 0.0,
        jitter_seed: int = 0,
        warmup_overhead: float = 0.0,
        gpu_overflow: bool = False,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
    ) -> None:
        if cpu_threads < 1:
            raise ValueError("cpu_threads must be >= 1")
        if jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        if warmup_overhead < 0:
            raise ValueError("warmup_overhead must be non-negative")
        if cpu_threads > cluster_spec.node.cpu.cores_per_node:
            raise ValueError(
                "cpu_threads cannot exceed the cores of one node"
            )
        if fault_plan is not None:
            for fault in fault_plan.node_faults:
                if fault.node >= cluster_spec.num_nodes:
                    raise ValueError(
                        f"fault plan kills node {fault.node} but the cluster "
                        f"has {cluster_spec.num_nodes} nodes"
                    )
        self.cluster_spec = cluster_spec
        self.storage = storage
        self.scheduling = scheduling
        self.use_gpu = use_gpu
        self.comm_overlap = comm_overlap
        self.cpu_threads = cpu_threads
        #: Hybrid mode: when set, only these task types use GPU devices
        #: (the rest run on CPU cores even in GPU mode).
        self.gpu_task_types = gpu_task_types
        self.jitter_sigma = jitter_sigma
        self.jitter_seed = jitter_seed
        self.warmup_overhead = warmup_overhead
        #: Heterogeneous execution (a mitigation the paper's §2 survey
        #: lists): when all GPU devices are busy, a GPU-eligible task may
        #: overflow to a free CPU core if that is expected to finish
        #: sooner than queueing for a device.
        self.gpu_overflow = gpu_overflow
        #: Injected failures (``None`` = fault-free execution).
        self.fault_plan = fault_plan
        #: Recovery rules; defaults to :class:`~repro.faults.RetryPolicy`.
        self.retry_policy = retry_policy or RetryPolicy()
        #: Barrier checkpointing of task outputs to shared storage
        #: (``None`` = no checkpoints; lineage recomputation walks all the
        #: way back to workflow inputs).
        self.checkpoint_policy = checkpoint_policy
        #: Recovery cost accounting for the last :meth:`execute` run.
        self.recovery_metrics = RecoveryMetrics()
        #: Permanently failed task ids (retries exhausted, failed
        #: dependencies, or stranded without schedulable nodes); set by
        #: :meth:`execute`.
        self.failed_task_ids: tuple[int, ...] = ()
        self.cost_model = CostModel(cluster_spec)

    def _jitter(self, duration: float) -> float:
        """Scale a compute-stage duration by the run's log-normal noise."""
        if self.jitter_sigma == 0.0 or duration == 0.0:
            return duration
        return duration * float(self._rng.lognormal(0.0, self.jitter_sigma))

    def _gpu_intended(self, task: Task) -> bool:
        """Static device intent (processor-type factor + hybrid per-type
        placement), before any overflow decision."""
        if not self.use_gpu or not task.gpu_eligible:
            return False
        if self.gpu_task_types is not None and task.name not in self.gpu_task_types:
            return False
        return True

    def _task_on_gpu(self, task: Task) -> bool:
        """Device decision for one task at dispatch time.

        Recovery can force a task to CPU (``_forced_cpu``) after a runtime
        GPU OOM or the loss of the last GPU node.  With ``gpu_overflow``
        on, a GPU-intended task falls back to a CPU core when (a) its
        working set cannot fit the device at all, or (b) every device is
        busy and running on a core is expected to finish sooner than
        queueing: the expected device wait is approximated as
        (GPU-intended ready tasks / total devices) x the task's own device
        time.
        """
        if not self._gpu_intended(task):
            return False
        if task.task_id in self._forced_cpu:
            return False
        if not self.gpu_overflow:
            return True
        cost = task.cost or _ZERO_COST
        if cost.gpu_memory_bytes > self.cluster_spec.node.gpu.memory_bytes:
            return False
        if any(
            node.alive and node.gpus.available > 0 for node in self.cluster.nodes
        ):
            return True
        gpu_time = self.cost_model.user_code_time(cost, use_gpu=True)
        cpu_time = self.cost_model.user_code_time(cost, use_gpu=False)
        ready_gpu = self._ready_gpu_intended
        expected_wait = (ready_gpu / max(self.cluster_spec.total_gpus, 1)) * gpu_time
        return gpu_time + expected_wait <= cpu_time

    # ------------------------------------------------------------- driving
    def execute(self, graph: TaskGraph) -> Trace:
        """Run the workflow to completion; returns the trace.

        Raises :class:`~repro.hardware.GpuOutOfMemoryError` or
        :class:`~repro.hardware.HostOutOfMemoryError` up front when any
        task's working set cannot fit, matching the paper's "GPU OOM"
        regions (the run never starts).

        With a fault plan, tasks whose retries are exhausted (or that
        depend on such a task, or that strand when every node is gone) end
        up in :attr:`failed_task_ids` instead of aborting the simulation.
        """
        self._precheck_memory(graph)
        self._rng = _np.random.default_rng(self.jitter_seed)
        self._warmed_cores: set[tuple[int, int]] = set()
        self.sim = Simulator()
        self.cluster = SimulatedCluster(self.sim, self.cluster_spec)
        self.trace = Trace()
        self.scheduler: Scheduler = make_scheduler(self.scheduling)
        self._blacklist: set[int] = set()
        self._locality_index = (
            LocalityIndex()
            if self.scheduling is SchedulingPolicy.DATA_LOCALITY
            else None
        )
        #: Ref ids of blocks destroyed by node failures.  Tracked per ref
        #: and independently of node liveness: a node rebooted after a
        #: blacklist cooldown never resurrects the data it lost, and a
        #: recomputed block leaves the set only when its producer commits
        #: again (re-homing the ref).
        self._lost_refs: set[int] = set()
        self._view = _ClusterView(
            self.cluster,
            self.cpu_threads,
            self._blacklist,
            self._locality_index,
            self._lost_refs,
        )
        self._graph = graph
        tasks = graph.tasks()
        #: Per-task bookkeeping lives in dense arrays indexed by task id
        #: (ids are contiguous through the submit API; hand-built sparse
        #: graphs just leave sentinel holes).  Structure-of-arrays state
        #: replaces the former dict/set-per-concern layout: a million
        #: int32/uint8 slots beat a million boxed dict entries both on
        #: memory and on the per-commit successor walk.
        size = 1 + max((t.task_id for t in tasks), default=-1)
        levels_map = graph.levels()
        self._levels = _np.zeros(size, dtype=_np.int32)
        if levels_map:
            self._levels[list(levels_map)] = list(levels_map.values())
            level_counts = _np.bincount(
                _np.fromiter(levels_map.values(), dtype=_np.int64)
            )
            self._no_distribution = int(level_counts.max()) == 1
        else:
            self._no_distribution = False
        self._indegree = _np.full(size, -1, dtype=_np.int32)
        for t in tasks:
            self._indegree[t.task_id] = len(graph.predecessor_ids(t.task_id))
        #: Lifecycle bit flags per task (``_COMMITTED``..``_BACKING_OFF``);
        #: id holes stay 0 and are never reachable through graph edges.
        #: A bytearray rather than a numpy array: the hot paths touch one
        #: element at a time, where unboxed byte access is ~3x faster
        #: than numpy scalar indexing; whole-array scans view the same
        #: buffer through ``_np.frombuffer`` (zero copy).
        self._state = bytearray(size)
        self._attempt_counts = _np.zeros(size, dtype=_np.int32)
        #: Device intent is static per task (policy flags only), so the
        #: GPU-overflow wait estimate can count ready GPU-intended tasks
        #: with an incrementally maintained counter instead of scanning
        #: the ready queue on every dispatch decision.
        self._gpu_intended_ids = {
            t.task_id for t in tasks if self._gpu_intended(t)
        }
        self._ready: list[int] = []
        self._ready_gpu_intended = 0
        for task_id in _np.flatnonzero(self._indegree == 0).tolist():
            self._ready_insert(task_id)
        self._completed = 0
        self._failed_count = 0
        self._total = graph.num_tasks
        self._wake: SimEvent | None = None
        self._free_cores = {
            node.index: list(range(node.cores.capacity))
            for node in self.cluster.nodes
        }
        self._dispatch_latency = self.cluster_spec.scheduling_latency[
            self.scheduling.value
        ]
        self._forced_cpu: set[int] = set()
        #: task_id -> {attempt -> (process, node)}.  Usually at most one
        #: attempt per task; speculation races hold two.  Key membership
        #: is mirrored in the ``_RUNNING`` state bit for the hot paths.
        self._running: dict[int, dict[int, tuple[Process, int]]] = {}
        policy = self.retry_policy
        #: Lineage recomputation of lost blocks (opt-in; all recovery
        #: state below stays empty when disabled, preserving the
        #: pre-recovery schedule bit-for-bit).
        self._recovery_on = policy.recover_lost_blocks
        #: Ref ids persisted to shared storage by the checkpoint policy;
        #: durable against node loss, so lineage walks stop there.
        self._checkpointed_refs: set[int] = set()
        #: Resurrected tasks whose recomputation has not committed yet
        #: (their next successful attempt bills recompute_seconds).
        self._resurrected_dirty: set[int] = set()
        #: (task_id, attempt) pairs launched as speculative backups.
        self._speculative_attempts: set[tuple[int, int]] = set()
        #: Sorted committed durations per task type (speculation medians).
        self._type_durations: dict[str, list[float]] = {}
        self.recovery_metrics = RecoveryMetrics()
        self._record_attempts = (
            self.fault_plan is not None or policy.speculation_enabled
        )
        if self.fault_plan is not None:
            for fault in self.fault_plan.node_faults:
                Process(
                    self.sim,
                    self._node_killer(fault),
                    name=f"nodefault{fault.node}",
                )
        self._batch_dispatch = self._batch_dispatch_eligible(graph)
        self._prewarm_cost_model(graph)
        Process(self.sim, self._dispatcher(), name="dispatcher")
        self.sim.run()
        stranded = [
            t.task_id for t in tasks if not self._state[t.task_id] & _SETTLED
        ]
        if stranded:
            if self.fault_plan is None:
                raise RuntimeError(
                    f"simulation deadlocked: {self._completed}/{self._total} "
                    "tasks completed"
                )
            # No schedulable node left (or the dispatcher starved): the
            # workflow cannot make progress, so the remainder fails.
            for task_id in stranded:
                self._state[task_id] |= _FAILED
            self._failed_count += len(stranded)
        self.failed_task_ids = tuple(
            _np.flatnonzero(self._state_view() & _FAILED).tolist()
        )
        return self.trace

    def resource_stats(self) -> ResourceStats:
        """Utilisation counters collected during :meth:`execute`."""
        nodes = self.cluster.nodes
        return ResourceStats(
            peak_cores_in_use=sum(n.cores.peak_in_use for n in nodes),
            peak_gpus_in_use=sum(n.gpus.peak_in_use for n in nodes),
            network_bytes=self.cluster.network.bytes_transferred,
            shared_disk_read_bytes=self.cluster.shared_disk_read.bytes_transferred,
            shared_disk_write_bytes=self.cluster.shared_disk_write.bytes_transferred,
            local_disk_read_bytes=sum(
                n.disk_read.bytes_transferred for n in nodes
            ),
            local_disk_write_bytes=sum(
                n.disk_write.bytes_transferred for n in nodes
            ),
            pcie_bytes=sum(n.pcie.bytes_transferred for n in nodes),
            peak_concurrent_shared_reads=self.cluster.shared_disk_read.peak_jobs,
        )

    def _precheck_memory(self, graph: TaskGraph) -> None:
        # Large DAGs draw their costs from small palettes: check each
        # distinct (cost, device intent) pair once, in first-seen order,
        # so the first violating task still raises first.
        checked: set[tuple[TaskCost, bool]] = set()
        for task in graph.tasks():
            cost = task.cost or _ZERO_COST
            check_gpu = self._gpu_intended(task) and not self.gpu_overflow
            key = (cost, check_gpu)
            if key in checked:
                continue
            checked.add(key)
            self.cost_model.check_host_memory(cost)
            if check_gpu:
                self.cost_model.check_gpu_memory(cost)

    # ------------------------------------------------------ ready-set state
    def _state_view(self) -> "_np.ndarray":
        """Zero-copy uint8 view of the lifecycle flags, for array scans."""
        return _np.frombuffer(self._state, dtype=_np.uint8)

    def _ready_insert(self, task_id: int) -> None:
        """Add one newly runnable task, maintaining the derived state.

        All derived dispatch state — the GPU-intended counter and the
        per-node locality-bytes index — is updated here and in
        :meth:`_ready_remove`, so it always equals a from-scratch
        recomputation over the ready queue (the equivalence the property
        tests assert).
        """
        bisect.insort(self._ready, task_id)
        if task_id in self._gpu_intended_ids:
            self._ready_gpu_intended += 1
        if self._locality_index is not None:
            self._locality_index.add(
                self._graph.task(task_id), self._view.resident_node
            )

    def _ready_remove(self, task_id: int) -> bool:
        """Drop a task from the ready queue; ``False`` if it wasn't there."""
        position = bisect.bisect_left(self._ready, task_id)
        if position >= len(self._ready) or self._ready[position] != task_id:
            return False
        del self._ready[position]
        if task_id in self._gpu_intended_ids:
            self._ready_gpu_intended -= 1
        if self._locality_index is not None:
            self._locality_index.discard(task_id)
        return True

    # ----------------------------------------------------------- dispatcher
    def _outstanding(self) -> int:
        """Tasks that are neither committed nor permanently failed."""
        return self._total - self._completed - self._failed_count

    def _wake_dispatcher(self) -> None:
        if self._wake is not None and not self._wake.fired:
            self._wake.succeed()

    # ---------------------------------------------------- batched dispatch
    #: Test-only override: force every dispatch through the interleaved
    #: :meth:`_dispatch_loop` even when the run qualifies for batched
    #: ready-set drains.  The differential harness monkeypatches this to
    #: prove both dispatch modes produce bit-identical traces now that
    #: the legacy kernel they were originally compared against is gone.
    _force_dispatch_loop = False

    def _batch_dispatch_eligible(self, graph: TaskGraph) -> bool:
        """Whether this run may drain ready batches without yielding.

        The batched dispatcher skips the per-task
        ``Timeout(dispatch latency)`` and launches a whole same-instant
        ready batch from one scheduler activation.  That is provably
        trace-identical to the interleaved dispatcher only when

        * the per-decision latency is exactly zero (otherwise decisions
          occupy distinct simulated instants by construction),
        * no fault/recovery machinery can interleave with the drain
          (fault plans, speculation watchdogs, task deadlines and
          checkpoint barriers all schedule their own events around
          dispatch), and
        * every task's first suspension is strictly in the future
          (:meth:`_task_batch_safe`), so a freshly launched task cannot
          complete — and mutate the ready set — in the same instant its
          siblings are still being placed.  Staged-pipeline GPU overlap
          is excluded for the same reason: its fill sub-process starts at
          the launch instant.

        Every other configuration falls back to the interleaved dispatch
        loop, the mode the recorded oracle digests were produced under.
        """
        policy = self.retry_policy
        return (
            not self._force_dispatch_loop
            and self.fault_plan is None
            and not policy.speculation_enabled
            and policy.task_deadline is None
            and self.checkpoint_policy is None
            and self._dispatch_latency == 0.0
            and not (self.use_gpu and self.comm_overlap)
            and (
                self.scheduling is not SchedulingPolicy.DATA_LOCALITY
                or self.cluster_spec.locality_scan_seconds_per_task == 0.0
            )
            and all(self._task_batch_safe(task) for task in graph.tasks())
        )

    def _task_batch_safe(self, task: Task) -> bool:
        """Whether the task's first suspension is strictly in the future.

        A task whose stage walk yields nothing (or only zero-delay
        timeouts) before completing would commit synchronously at its
        launch instant, changing scheduler-visible state mid-drain; any
        positive-size read, decode, compute fraction, encode or write
        guarantees the walk leaves the launch instant first.  Warm-up
        overhead is ignored — it only covers the first task per core.
        """
        cost = task.cost or _ZERO_COST
        if cost.serial_flops > 0 or cost.parallel_flops > 0:
            return True
        if not self._no_distribution:
            if cost.input_bytes > 0 or cost.output_bytes > 0:
                return True
            if any(ref.size_bytes > 0 for ref in task.inputs):
                return True
        return False

    def _prewarm_cost_model(self, graph: TaskGraph) -> None:
        """Fill the stage-time memo for the whole DAG in two batched calls.

        One vectorized evaluation per device intent replaces the first
        per-task cache miss of every distinct cost profile.  GPU profiles
        the scalar path would reject (zero device rate with a non-trivial
        parallel fraction) are skipped by ``stage_times_batch`` so the
        ``ValueError`` still surfaces at dispatch time, not here.
        """
        cpu_costs = {}
        gpu_costs = {}
        for task in graph.tasks():
            if self._gpu_intended(task):
                gpu_costs[task.cost or _ZERO_COST] = None
            else:
                cpu_costs[task.cost or _ZERO_COST] = None
        # Deduplicate via dict keys before handing off: million-task DAGs
        # draw their costs from small palettes, and the batch evaluator's
        # own per-element dedup loop runs in Python.
        if cpu_costs:
            self.cost_model.stage_times_batch(
                list(cpu_costs), False, self.cpu_threads
            )
        if gpu_costs:
            self.cost_model.stage_times_batch(
                list(gpu_costs), True, self.cpu_threads
            )

    def _reserve_assignment(self, assignment) -> tuple[Task, int, int, bool]:
        """Commit one placement (no simulated time passes).

        The one reservation sequence of both dispatch modes — cores, GPU
        device slot, RAM, core slot, ready-set removal — so scheduler
        decisions made after this one observe the same cluster state
        whether the ready set is drained or dispatched one at a time.
        """
        task = assignment.task
        node = self.cluster.nodes[assignment.node]
        task_on_gpu = self._task_on_gpu(task)
        cores_needed = 1 if task_on_gpu else self.cpu_threads
        if not node.cores.try_request(cores_needed):
            raise RuntimeError("scheduler chose a node without free cores")
        if task_on_gpu and not node.gpus.try_request(1):
            node.cores.release(cores_needed)
            raise RuntimeError("scheduler chose a node without free GPUs")
        task_ram = task.cost.host_memory_bytes if task.cost else 0
        node.reserve_ram(task_ram)
        core_slot = self._free_cores[node.index].pop()
        self._ready_remove(task.task_id)
        return task, node.index, core_slot, task_on_gpu

    def _launch(
        self,
        task: Task,
        node_index: int,
        core_slot: int,
        task_on_gpu: bool,
        autostart: bool = True,
    ) -> tuple[Process, int]:
        """Start the next attempt of a reserved task; returns it and its
        attempt number."""
        attempt = int(self._attempt_counts[task.task_id]) + 1
        self._attempt_counts[task.task_id] = attempt
        process = Process(
            self.sim,
            self._run_task(task, node_index, core_slot, task_on_gpu, attempt),
            name=f"task{task.task_id}",
            autostart=autostart,
        )
        self._running.setdefault(task.task_id, {})[attempt] = (process, node_index)
        self._state[task.task_id] |= _RUNNING
        return process, attempt

    def _drain_ready_batch(self, ready_view) -> None:
        """Launch every placeable ready task at the current instant.

        One ``select_batch`` call makes all placement decisions (each
        observing the reservations of the previous ones), one
        ``stage_times_batch`` call per device flag prewarms any cost
        profiles the batch introduces, and the task processes are then
        created in decision order — the same relative launch order the
        interleaved loop produces.
        """
        batch: list[tuple[Task, int, int, bool]] = []
        self.scheduler.select_batch(
            ready_view,
            self._view,
            self._task_on_gpu,
            lambda assignment: batch.append(self._reserve_assignment(assignment)),
        )
        if not batch:
            return
        if len(batch) >= 16:
            # Worth a vectorized evaluation; smaller batches ride the
            # memoized scalar path (the whole DAG was prewarmed at
            # execute start, so misses only occur when a GPU-intended
            # task overflowed to CPU).
            cpu_costs = [t.cost or _ZERO_COST for t, _, _, g in batch if not g]
            gpu_costs = [t.cost or _ZERO_COST for t, _, _, g in batch if g]
            if cpu_costs:
                self.cost_model.stage_times_batch(cpu_costs, False, self.cpu_threads)
            if gpu_costs:
                self.cost_model.stage_times_batch(gpu_costs, True, self.cpu_threads)
        launched = [self._launch(*placed, autostart=False)[0] for placed in batch]
        # Run each process to its first suspension point now instead of
        # through a zero-delay event per task.  Legal because the drain
        # only runs when no other event shares this instant, so these
        # resumes would have been the very next events in creation order
        # anyway; _task_batch_safe guarantees none of them completes (or
        # touches scheduler-visible state) before suspending.
        for process in launched:
            process.start_now()

    def _dispatcher(self) -> Generator:
        ready_view = _ReadyView(self)
        policy = self.retry_policy
        sim = self.sim
        batch_mode = self._batch_dispatch
        while self._outstanding() > 0:
            if (
                batch_mode
                and self._ready
                and sim.cascade_depth == 0
                and sim.peek_time() != sim.now
            ):
                # No other pending event shares this instant — neither in
                # the event queue nor in a resource completion cascade
                # still firing callbacks — so the whole ready set can be
                # drained in one activation.  Any same-instant contender
                # falls through to the interleaved loop below, which
                # preserves the event ordering the oracle traces recorded.
                self._drain_ready_batch(ready_view)
            else:
                yield from self._dispatch_loop(ready_view, policy)
            if self._outstanding() > 0:
                self._wake = SimEvent(name="dispatcher.wake")
                yield WaitEvent(self._wake)

    def _dispatch_loop(self, ready_view, policy) -> Generator:
        """Interleaved dispatch: one decision, one latency yield, one launch."""
        while True:
            assignment = self.scheduler.select(
                ready_view, self._view, self._task_on_gpu
            )
            if assignment is None:
                break
            task = assignment.task
            if (
                self._recovery_on
                and self._lost_refs
                and any(r.ref_id in self._lost_refs for r in task.inputs)
            ):
                # An input block died with its node: recover the
                # lineage instead of dispatching a task that cannot
                # read its inputs.
                self._recover_inputs(task)
                continue
            placed = self._reserve_assignment(assignment)
            yield Timeout(self._dispatch_latency + self._scan_latency())
            _process, attempt = self._launch(*placed)
            if policy.speculation_enabled:
                median = self._median_duration(task.name)
                if median is not None:
                    Process(
                        self.sim,
                        self._speculation_watchdog(
                            task, attempt, median * policy.speculation_factor
                        ),
                        name=f"spec{task.task_id}",
                    )

    def _scan_latency(self) -> float:
        """Queue-length-dependent decision cost of the locality policy."""
        if self.scheduling is not SchedulingPolicy.DATA_LOCALITY:
            return 0.0
        scanned = min(len(self._ready), self.cluster_spec.locality_scan_cap)
        return scanned * self.cluster_spec.locality_scan_seconds_per_task

    def _on_task_done(self, task: Task) -> None:
        self._completed += 1
        state = self._state
        indegree = self._indegree
        for sid in self._graph.successor_ids(task.task_id):
            # The live-indegree invariant — indegree equals the number of
            # non-committed predecessors — only covers tasks that are
            # still *waiting*.  Committed, failed, and in-flight
            # successors (all impossible without lineage recovery) keep
            # their counters untouched; a recovery pass recomputes them
            # if they ever matter again.
            if state[sid] & _SETTLED_OR_RUNNING:
                continue
            indegree[sid] -= 1
            if indegree[sid] == 0 and not state[sid] & _BACKING_OFF:
                self._ready_insert(sid)
        if self._ready or self._outstanding() == 0:
            # Nothing became runnable and work remains in flight: the
            # dispatcher would wake, find an empty queue, and re-arm.
            # Skipping the no-op wake removes one event round-trip per
            # commit without changing any scheduling decision.
            self._wake_dispatcher()

    # ------------------------------------------------------ lineage recovery
    def _live_indegree(self, task_id: int) -> int:
        """Predecessors whose outputs do not exist (non-committed)."""
        state = self._state
        return sum(
            1
            for pid in self._graph.predecessor_ids(task_id)
            if not state[pid] & _COMMITTED
        )

    def _recover_inputs(self, consumer: Task) -> None:
        """Resurrect the lineage that recomputes ``consumer``'s lost inputs.

        Walks producer edges backwards from every lost input ref,
        collecting committed ancestors whose outputs are gone; the walk
        terminates at durable refs (workflow inputs, checkpointed blocks,
        blocks still resident on a live node) and at ancestors that are
        already pending again from an earlier recovery pass.  The
        resurrected set leaves ``_committed``, re-enters the dependency
        accounting, and the ready queue picks it up in task-id order.

        If the walk reaches a permanently failed producer the lineage is
        unrecoverable and ``consumer`` fails instead (cascading to its
        dependents) — failing fast beats deadlocking the dispatcher.
        """
        graph = self._graph
        state = self._state
        resurrect: set[int] = set()
        stack = [
            ref.ref_id for ref in consumer.inputs if ref.ref_id in self._lost_refs
        ]
        while stack:
            ref_id = stack.pop()
            producer_id = graph.producer_of(ref_id)
            if producer_id is None:
                # Workflow input: durable by definition (never lost, but
                # kept defensive so a bad plan cannot loop the walk).
                continue
            if state[producer_id] & _FAILED:
                self._fail_permanently(consumer)
                return
            if producer_id in resurrect or not state[producer_id] & _COMMITTED:
                # Already queued this pass, or already pending again
                # (ready / running / backing off) from an earlier pass.
                continue
            resurrect.add(producer_id)
            for ref in graph.task(producer_id).inputs:
                if ref.ref_id in self._lost_refs:
                    stack.append(ref.ref_id)
        now = self.sim.now
        for task_id in sorted(resurrect):
            state[task_id] &= 0xFF ^ _COMMITTED
            self._completed -= 1
            self._resurrected_dirty.add(task_id)
            self.recovery_metrics.tasks_resurrected += 1
            resurrected = graph.task(task_id)
            # Zero-duration master-side marker: the moment recovery
            # decided to recompute this task (its re-execution then shows
            # up as a second TaskRecord with a higher attempt number).
            self.trace.add_stage_row(
                task_id,
                resurrected.name,
                Stage.RECOMPUTE,
                now,
                now,
                -1,
                -1,
                self._levels[task_id],
                False,
                int(self._attempt_counts[task_id]) or 1,
            )
        # Re-establish the live-indegree invariant.  The consumer and the
        # resurrected tasks are recomputed from scratch; every other
        # waiting successor of a resurrected task gains one edge per
        # resurrected predecessor.
        self._ready_remove(consumer.task_id)
        self._indegree[consumer.task_id] = self._live_indegree(consumer.task_id)
        for task_id in sorted(resurrect):
            self._indegree[task_id] = self._live_indegree(task_id)
            for sid in graph.successor_ids(task_id):
                if (
                    sid == consumer.task_id
                    or sid in resurrect
                    or state[sid] & _SETTLED_OR_RUNNING
                ):
                    continue
                self._ready_remove(sid)
                self._indegree[sid] += 1
        for task_id in sorted(resurrect):
            if self._indegree[task_id] == 0:
                self._ready_insert(task_id)
        self._wake_dispatcher()

    # ---------------------------------------------------------- speculation
    def _note_duration(self, task_type: str, duration: float) -> None:
        """Record a committed attempt duration for the running median."""
        bisect.insort(self._type_durations.setdefault(task_type, []), duration)

    def _median_duration(self, task_type: str) -> float | None:
        """Running median of committed durations; ``None`` below the
        ``speculation_min_samples`` threshold (too little evidence to
        call anything a straggler)."""
        durations = self._type_durations.get(task_type)
        if (
            durations is None
            or len(durations) < self.retry_policy.speculation_min_samples
        ):
            return None
        mid = len(durations) // 2
        if len(durations) % 2:
            return durations[mid]
        return 0.5 * (durations[mid - 1] + durations[mid])

    def _speculation_watchdog(
        self, task: Task, primary_attempt: int, delay: float
    ) -> Generator:
        """Launch a backup attempt if the primary is still running late.

        Armed at dispatch with ``speculation_factor x`` the running
        median of the task type; when it fires and the watched attempt is
        still the only one in flight, a backup launches on the
        lowest-indexed other node with a free slot.  First finisher wins
        (``_run_task`` cancels the sibling); no free slot elsewhere means
        no speculation this round.
        """
        yield Timeout(delay)
        if self._state[task.task_id] & _SETTLED:
            return
        attempts = self._running.get(task.task_id)
        if attempts is None or set(attempts) != {primary_attempt}:
            return
        _process, primary_node = attempts[primary_attempt]
        task_on_gpu = self._task_on_gpu(task)
        task_ram = task.cost.host_memory_bytes if task.cost else 0
        backup_node = None
        for index in range(len(self.cluster.nodes)):
            if index == primary_node or self._view.is_blacklisted(index):
                continue
            if self._view.has_free_slot(index, task_on_gpu, task_ram):
                backup_node = index
                break
        if backup_node is None:
            return
        node = self.cluster.nodes[backup_node]
        cores_needed = 1 if task_on_gpu else self.cpu_threads
        if not node.cores.try_request(cores_needed):
            return
        if task_on_gpu and not node.gpus.try_request(1):
            node.cores.release(cores_needed)
            return
        node.reserve_ram(task_ram)
        core_slot = self._free_cores[backup_node].pop()
        backup_attempt = int(self._attempt_counts[task.task_id]) + 1
        self._attempt_counts[task.task_id] = backup_attempt
        now = self.sim.now
        # Zero-duration master-side marker: the speculation decision.
        self.trace.add_stage_row(
            task.task_id,
            task.name,
            Stage.SPECULATIVE,
            now,
            now,
            -1,
            -1,
            self._levels[task.task_id],
            task_on_gpu,
            backup_attempt,
        )
        self._speculative_attempts.add((task.task_id, backup_attempt))
        self.recovery_metrics.speculative_launches += 1
        process = Process(
            self.sim,
            self._run_task(task, backup_node, core_slot, task_on_gpu, backup_attempt),
            name=f"task{task.task_id}b{backup_attempt}",
        )
        self._running[task.task_id][backup_attempt] = (process, backup_node)

    # ----------------------------------------------------------- fault path
    def _node_killer(self, fault) -> Generator:
        """Fail one node at its planned timestamp.

        All resident task processes are interrupted (they fail with a
        ``node_failure`` outcome and re-enter the retry path), the blocks
        the node held become lost, and the node is blacklisted from
        scheduling when the policy says so — permanently, or until a
        ``blacklist_cooldown`` reboot.
        """
        if fault.at_time > 0:
            yield Timeout(fault.at_time)
        node = self.cluster.nodes[fault.node]
        if not node.alive:
            return
        node.fail()
        if self._locality_index is not None:
            # Blocks on the dead node are gone: ready tasks must stop
            # earning locality credit for them (mirrors resident_node
            # resolving to None for refs homed on a dead node).
            self._locality_index.drop_node(fault.node)
        if self.retry_policy.blacklist_failed_nodes:
            self._blacklist.add(fault.node)
        # Every committed output homed here is destroyed, except blocks
        # the checkpoint policy persisted to shared storage.
        for task_id in _np.flatnonzero(self._state_view() & _COMMITTED).tolist():
            for ref in self._graph.task(task_id).outputs:
                if (
                    ref.home_node == fault.node
                    and ref.ref_id not in self._lost_refs
                    and ref.ref_id not in self._checkpointed_refs
                ):
                    self._lost_refs.add(ref.ref_id)
                    self.recovery_metrics.blocks_lost += 1
        for attempts in list(self._running.values()):
            for process, node_index in list(attempts.values()):
                if (
                    node_index == fault.node
                    and process.started
                    and not process.done.fired
                ):
                    process.interrupt(NodeFailureError(fault.node))
        if self.retry_policy.blacklist_cooldown is not None:
            Process(
                self.sim,
                self._node_rebooter(fault.node),
                name=f"nodereboot{fault.node}",
            )
        self._wake_dispatcher()

    def _node_rebooter(self, node_index: int) -> Generator:
        """Return a failed node to service after the blacklist cooldown.

        The reboot restores schedulability only: cores and devices come
        back cold (warm-up overhead applies again) and every block the
        node held stays in ``_lost_refs``.
        """
        yield Timeout(self.retry_policy.blacklist_cooldown)
        node = self.cluster.nodes[node_index]
        if node.alive:
            return
        node.recover()
        self._blacklist.discard(node_index)
        self._warmed_cores = {
            (warm_node, core)
            for (warm_node, core) in sorted(self._warmed_cores)
            if warm_node != node_index
        }
        self._wake_dispatcher()

    def _check_fault(
        self,
        task: Task,
        attempt: int,
        stage: Stage,
        planned_crash: Stage | None,
        attempt_start: float,
    ) -> None:
        """Raise at a stage boundary if the attempt dies here."""
        if planned_crash is stage:
            raise TaskCrashError(task.task_id, stage)
        deadline = self.retry_policy.task_deadline
        if deadline is not None and self.sim.now - attempt_start > deadline:
            raise TaskDeadlineError(task.task_id, deadline)

    def _handle_failure(
        self,
        task: Task,
        failure: FaultError,
        attempt: int,
        level: int,
        task_on_gpu: bool,
    ) -> None:
        """Recovery decision after a failed attempt: retry or give up."""
        policy = self.retry_policy
        if policy.gpu_fallback_to_cpu and task_on_gpu:
            if isinstance(failure, InjectedGpuOomError):
                self._forced_cpu.add(task.task_id)
            elif isinstance(failure, NodeFailureError) and not any(
                node.alive and node.gpus.capacity > 0
                for node in self.cluster.nodes
            ):
                # The last GPU-bearing node is gone: degrade to CPU.
                self._forced_cpu.add(task.task_id)
        if task.task_id in self._running:
            # A concurrent speculative attempt is still in flight; it
            # carries the task, so this failure needs no retry of its own.
            return
        if attempt < policy.max_attempts:
            rng = (
                self.fault_plan.rng_for("backoff", task.task_id, attempt)
                if self.fault_plan is not None
                else None
            )
            delay = policy.backoff_delay(attempt, rng)
            Process(
                self.sim,
                self._requeue_after(task, delay, attempt, level),
                name=f"retry{task.task_id}",
            )
        else:
            self._fail_permanently(task)

    def _requeue_after(
        self, task: Task, delay: float, failed_attempt: int, level: int
    ) -> Generator:
        """Master-side backoff, then put the task back on the ready queue."""
        start = self.sim.now
        self._state[task.task_id] |= _BACKING_OFF
        if self._recovery_on:
            # A recovery pass that ran while this attempt was in flight
            # skipped the counter (in-flight tasks hold their inputs), so
            # it may be stale relative to resurrected producers.  Rebase
            # it on live state now that the task is visible to the commit
            # path again; from here on commits decrement it as usual.
            self._indegree[task.task_id] = self._live_indegree(task.task_id)
        if delay > 0:
            yield Timeout(delay)
            # The wait occupies no core; node/core -1 marks it master-side.
            self.trace.add_stage_row(
                task.task_id,
                task.name,
                Stage.RETRY_WAIT,
                start,
                self.sim.now,
                -1,
                -1,
                level,
                False,
                failed_attempt,
            )
        self._state[task.task_id] &= 0xFF ^ _BACKING_OFF
        if self._state[task.task_id] & _FAILED or self._indegree[task.task_id] != 0:
            # A recovery pass failed this task (lineage unrecoverable) or
            # resurrected one of its inputs' producers while the backoff
            # timer ran; the commit path re-inserts it when ready.
            return
        self._ready_insert(task.task_id)
        self._wake_dispatcher()

    def _fail_permanently(self, task: Task) -> None:
        """Mark a task and every transitive dependent as failed.

        Dependents that already committed keep their outputs (an
        in-flight execution holds its inputs, so data they produced is
        real); dependents still running are spared for the same reason —
        if their own attempt later fails, their retry path decides.
        """
        stack = [task.task_id]
        state = self._state
        while stack:
            task_id = stack.pop()
            if state[task_id] & _SETTLED_OR_RUNNING:
                continue
            state[task_id] |= _FAILED
            self._failed_count += 1
            self._ready_remove(task_id)
            stack.extend(self._graph.successor_ids(task_id))
        self._wake_dispatcher()

    # -------------------------------------------------------- task process
    def _run_task(
        self,
        task: Task,
        node_index: int,
        core_slot: int,
        task_on_gpu: bool,
        attempt: int,
    ) -> Generator:
        node = self.cluster.nodes[node_index]
        cost = task.cost or _ZERO_COST
        level = self._levels[task.task_id]
        task_start = self.sim.now
        failure: FaultError | None = None
        try:
            if not node.alive:
                # Dispatched in the same instant the node died.
                raise NodeFailureError(node_index)
            if self._state[task.task_id] & _COMMITTED:
                # A speculative sibling won the race before this attempt
                # even started (an unstarted process cannot be
                # interrupted, so the loser cancels itself here and the
                # normal bookkeeping below returns its resources).
                raise SpeculationCancelledError(task.task_id)
            yield from self._attempt_stages(
                task, node, core_slot, task_on_gpu, attempt, task_start
            )
        except FaultError as error:
            failure = error

        # --- resource bookkeeping (both outcomes) -----------------------
        attempts = self._running.get(task.task_id)
        if attempts is not None:
            attempts.pop(attempt, None)
            if not attempts:
                del self._running[task.task_id]
                self._state[task.task_id] &= 0xFF ^ _RUNNING
        self._free_cores[node_index].append(core_slot)
        node.cores.release(1 if task_on_gpu else self.cpu_threads)
        node.release_ram(cost.host_memory_bytes if task.cost else 0)
        if task_on_gpu:
            node.gpus.release(1)

        if failure is None:
            siblings = self._running.pop(task.task_id, None)
            self._state[task.task_id] &= 0xFF ^ _RUNNING
            if siblings is not None:
                # First finisher wins the speculative race: cancel every
                # still-running sibling attempt (an unstarted one cancels
                # itself through the committed check above).
                for process, _sibling_node in siblings.values():
                    if process.started and not process.done.fired:
                        process.interrupt(SpeculationCancelledError(task.task_id))
            for ref in task.outputs:
                ref.home_node = node_index
            self._state[task.task_id] |= _COMMITTED
            if self._lost_refs:
                # A recomputed block exists again, homed on this node.
                for ref in task.outputs:
                    self._lost_refs.discard(ref.ref_id)
            if (task.task_id, attempt) in self._speculative_attempts:
                self.recovery_metrics.speculation_wins += 1
            if task.task_id in self._resurrected_dirty:
                self._resurrected_dirty.discard(task.task_id)
                self.recovery_metrics.recompute_seconds += self.sim.now - task_start
            if self.retry_policy.speculation_enabled:
                self._note_duration(task.name, self.sim.now - task_start)
            self.trace.add_task_row(
                task.task_id,
                task.name,
                task_start,
                self.sim.now,
                node_index,
                core_slot,
                level,
                task_on_gpu,
                attempt,
            )
            if self._record_attempts:
                self.trace.add_attempt_row(
                    task.task_id,
                    task.name,
                    attempt,
                    task_start,
                    self.sim.now,
                    node_index,
                    core_slot,
                    level,
                    task_on_gpu,
                    ATTEMPT_OK,
                )
            self._on_task_done(task)
        else:
            now = self.sim.now
            self.trace.add_stage_row(
                task.task_id,
                task.name,
                Stage.FAILURE,
                now,
                now,
                node_index,
                core_slot,
                level,
                task_on_gpu,
                attempt,
            )
            if self._record_attempts:
                self.trace.add_attempt_row(
                    task.task_id,
                    task.name,
                    attempt,
                    task_start,
                    now,
                    node_index,
                    core_slot,
                    level,
                    task_on_gpu,
                    failure.kind,
                )
            if isinstance(failure, SpeculationCancelledError):
                # Not a real failure: the task committed through a
                # sibling attempt, so no retry — just hand the freed
                # resources back to the dispatcher.
                if (task.task_id, attempt) in self._speculative_attempts:
                    self.recovery_metrics.speculation_losses += 1
                self._wake_dispatcher()
            else:
                self._handle_failure(task, failure, attempt, level, task_on_gpu)

    def _attempt_stages(
        self,
        task: Task,
        node,
        core_slot: int,
        task_on_gpu: bool,
        attempt: int,
        attempt_start: float,
    ) -> Generator:
        """One attempt's walk through the Figure-4 stages."""
        node_index = node.index
        cost = task.cost or _ZERO_COST
        #: One memoized lookup covers every closed-form stage duration of
        #: this attempt; jitter and straggler factors are applied per
        #: attempt on top of the cached base values.
        times = self.cost_model.stage_times(cost, task_on_gpu, self.cpu_threads)
        level = self._levels[task.task_id]
        plan = self.fault_plan
        planned_crash = (
            plan.crash_stage_for(task.task_id, task.name, attempt)
            if plan is not None
            else None
        )
        straggle = (
            plan.straggler_factor(task.name, node_index)
            if plan is not None
            else 1.0
        )

        def record(stage: Stage, start: float) -> None:
            self.trace.add_stage_row(
                task.task_id,
                task.name,
                stage,
                start,
                self.sim.now,
                node_index,
                core_slot,
                level,
                task_on_gpu,
                attempt,
            )

        #: With no planned crash and no deadline a checkpoint can never
        #: raise; skipping the call (four per task) keeps the fault-free
        #: hot path free of pure-overhead function calls.
        deadline = self.retry_policy.task_deadline
        faultable = planned_crash is not None or deadline is not None

        def checkpoint(stage: Stage) -> None:
            self._check_fault(task, attempt, stage, planned_crash, attempt_start)

        # --- warm-up: first task on a core loads modules / compiles -----
        if self.warmup_overhead > 0 and (node_index, core_slot) not in self._warmed_cores:
            self._warmed_cores.add((node_index, core_slot))
            start = self.sim.now
            yield Timeout(self.warmup_overhead)
            record(Stage.SCHEDULING, start)

        # --- deserialization: storage read + CPU-side decode ------------
        if not self._no_distribution:
            start = self.sim.now
            for ref in task.inputs:
                if ref.ref_id in self._checkpointed_refs and not self._node_alive(
                    ref.home_node
                ):
                    # The producer's copy died with its node; the durable
                    # checkpoint on shared storage serves the read.
                    yield from self._read_checkpoint(ref.size_bytes)
                else:
                    yield from self._read_input(
                        node_index, ref.home_node, ref.size_bytes
                    )
            decode = self._jitter(times.deserialization_cpu)
            if decode > 0:
                yield Timeout(decode)
            if self.sim.now > start:
                # Zero-byte inputs with a zero decode cost did nothing —
                # don't log an empty stage (plain dependency-only DAGs
                # would otherwise pay two no-op records per task).
                record(Stage.DESERIALIZATION, start)
            if faultable:
                checkpoint(Stage.DESERIALIZATION)

        # --- serial fraction --------------------------------------------
        serial = self._jitter(times.serial_fraction) * straggle
        if serial > 0:
            start = self.sim.now
            yield Timeout(serial)
            record(Stage.SERIAL_FRACTION, start)
        if faultable:
            checkpoint(Stage.SERIAL_FRACTION)

        # --- parallel fraction (+ CPU-GPU communication on GPU) ---------
        if task_on_gpu:
            if plan is not None and plan.gpu_oom_for(
                task.task_id, task.name, attempt
            ):
                raise InjectedGpuOomError(task.task_id)
            device = node.claim_gpu()
            device.allocate(cost.gpu_memory_bytes)
            try:
                d2h = min(cost.output_bytes, cost.host_device_bytes)
                h2d = cost.host_device_bytes - d2h
                pf = self._jitter(times.parallel_fraction) * straggle
                if self.comm_overlap and h2d > 0 and pf > 0:
                    yield from self._overlapped_gpu_phase(node, h2d, pf, record)
                else:
                    if h2d > 0:
                        start = self.sim.now
                        yield Transfer(node.pcie, h2d)
                        record(Stage.CPU_GPU_COMM, start)
                    if pf > 0:
                        start = self.sim.now
                        yield Timeout(pf)
                        record(Stage.PARALLEL_FRACTION, start)
                if d2h > 0:
                    start = self.sim.now
                    yield Transfer(node.pcie, d2h)
                    record(Stage.CPU_GPU_COMM, start)
            finally:
                device.release(cost.gpu_memory_bytes)
        else:
            pf = self._jitter(times.parallel_fraction) * straggle
            if pf > 0:
                start = self.sim.now
                yield Timeout(pf)
                record(Stage.PARALLEL_FRACTION, start)
        if faultable:
            checkpoint(Stage.PARALLEL_FRACTION)

        # --- serialization: CPU-side encode + storage write --------------
        if not self._no_distribution:
            start = self.sim.now
            encode = self._jitter(times.serialization_cpu)
            if encode > 0:
                yield Timeout(encode)
            if cost.output_bytes > 0:
                yield from self._write_output(node_index, cost.output_bytes)
            if self.sim.now > start:
                record(Stage.SERIALIZATION, start)
            if faultable:
                checkpoint(Stage.SERIALIZATION)

        # --- checkpoint write: persist outputs to shared storage ---------
        if (
            self.checkpoint_policy is not None
            and not self._no_distribution
            and self.checkpoint_policy.applies(task.name, level)
        ):
            start = self.sim.now
            nbytes = sum(ref.size_bytes for ref in task.outputs)
            if nbytes > 0:
                # The GPFS round-trip regardless of the working storage
                # backend: checkpoints exist to survive local-disk loss.
                yield Transfer(self.cluster.network, nbytes)
                yield Transfer(self.cluster.shared_disk_write, nbytes)
            for ref in task.outputs:
                self._checkpointed_refs.add(ref.ref_id)
            record(Stage.CHECKPOINT_WRITE, start)
            self.recovery_metrics.checkpoint_writes += 1
            self.recovery_metrics.checkpoint_write_seconds += self.sim.now - start

    def _overlapped_gpu_phase(self, node, h2d: int, pf: float, record) -> Generator:
        """Staged-pipeline host-to-device transfer overlapping the kernel.

        The transfer streams in :attr:`PIPELINE_STAGES` chunks; the kernel
        starts once the first chunk has landed and the two proceed
        concurrently.  Only the *exposed* communication (pipeline fill and
        any post-kernel drain) is recorded as CPU-GPU communication, which
        is what Python-side timers would observe.
        """
        pcie = self.cluster_spec.node.interconnect
        fill_start = self.sim.now
        transfer = Process(
            self.sim,
            self._stream_h2d(node, h2d),
            name="h2d-pipeline",
        )
        fill = pcie.latency + (h2d / self.PIPELINE_STAGES) / pcie.bandwidth_per_transfer
        yield Timeout(fill)
        record(Stage.CPU_GPU_COMM, fill_start)
        kernel_start = self.sim.now
        yield Timeout(pf)
        record(Stage.PARALLEL_FRACTION, kernel_start)
        drain_start = self.sim.now
        yield WaitEvent(transfer.done)
        if self.sim.now > drain_start:
            record(Stage.CPU_GPU_COMM, drain_start)

    def _stream_h2d(self, node, nbytes: int) -> Generator:
        yield Transfer(node.pcie, nbytes)

    # ------------------------------------------------------------- storage
    def _node_alive(self, node_index: int) -> bool:
        nodes = self.cluster.nodes
        return 0 <= node_index < len(nodes) and nodes[node_index].alive

    def _read_checkpoint(self, nbytes: int) -> Generator:
        """Read a checkpointed block back from shared storage (GPFS)."""
        if nbytes <= 0:
            return
        yield Transfer(self.cluster.network, nbytes)
        yield Transfer(self.cluster.shared_disk_read, nbytes)

    def _read_input(self, node_index: int, home_node: int, nbytes: int) -> Generator:
        if nbytes <= 0:
            return
        if self.storage is StorageKind.SHARED:
            yield Transfer(self.cluster.network, nbytes)
            yield Transfer(self.cluster.shared_disk_read, nbytes)
        else:
            owner = self.cluster.nodes[home_node]
            yield Transfer(owner.disk_read, nbytes)
            if home_node != node_index:
                yield Transfer(self.cluster.network, nbytes)

    def _write_output(self, node_index: int, nbytes: int) -> Generator:
        if nbytes <= 0:
            return
        if self.storage is StorageKind.SHARED:
            yield Transfer(self.cluster.network, nbytes)
            yield Transfer(self.cluster.shared_disk_write, nbytes)
        else:
            yield Transfer(self.cluster.nodes[node_index].disk_write, nbytes)
