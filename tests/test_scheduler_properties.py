"""Property-based tests for the scheduling policies.

Rather than enumerating cluster states by hand, Hypothesis generates
random ready queues, node capacities, and dead nodes, and asserts the
contracts every policy must honour:

* an :class:`Assignment` always targets a node with a free slot;
* a dead node is never chosen, whatever the policy;
* ``GenerationOrderScheduler`` always dispatches the head of the queue;
* round-robin node choice wraps around and spreads consecutive picks;
* ``DataLocalityScheduler`` breaks all-zero locality ties round-robin
  instead of piling every tie onto node 0 (regression for the
  tie-breaking fix);
* reading the heads of a :class:`~repro.runtime.scheduler.ReadyParts`
  partition (or of a plain queue grouped by requirement), with its
  per-call requirement memo and saturated-cluster early exit, it makes
  exactly the decisions of a reference that probes every
  ``(task, node)`` pair, on stubs that honour cores, GPUs, RAM and dead
  nodes, under index, resolver and ``home_node`` scoring;
* the fast dispatch path's incrementally maintained state — the ready
  queue, the GPU-intended counter, the per-node
  :class:`~repro.runtime.locality.LocalityIndex` and the ready parts —
  equals a from-scratch recomputation after **every** ready-set
  mutation of a full simulated run (random generated DAGs, with and
  without injected faults, GPU overflow and GPU-to-CPU fallback), and a
  ready task's part never changes;
* locality scoring resolves input bytes against *current* block
  residency, so a stale ``home_node`` (block moved or evicted since the
  ref was written) earns no credit.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import GeneratedDagWorkflow
from repro.faults import FaultPlan, GpuOomFault, NodeFault, RetryPolicy
from repro.hardware import StorageKind
from repro.perfmodel import TaskCost
from repro.runtime import DataRef, Runtime, RuntimeConfig, SchedulingPolicy, Task
from repro.runtime.backends.simulated import _ZERO_COST, SimulatedExecutor
from repro.runtime.locality import LocalityIndex
from repro.runtime.scheduler import (
    Assignment,
    DataLocalityScheduler,
    GenerationOrderScheduler,
    LifoScheduler,
    ReadyParts,
    make_scheduler,
    node_usable,
    task_ram_bytes,
)


class FakeCluster:
    """A ClusterView stub with per-node availability and dead nodes.

    Like the simulated executor's view, a dead node never has a free
    slot, whatever its cores and devices.
    """

    def __init__(self, free_cores, free_gpus=None, dead=()):
        self.free_cores = list(free_cores)
        self.free_gpus = list(free_gpus or [1] * len(free_cores))
        self.dead = set(dead)

    def num_nodes(self):
        return len(self.free_cores)

    def has_free_slot(self, node, needs_gpu, ram_bytes=0):
        if node in self.dead or self.free_cores[node] < 1:
            return False
        if needs_gpu and self.free_gpus[node] < 1:
            return False
        return True


def _task(task_id, input_homes=()):
    cost = TaskCost(
        serial_flops=1.0,
        parallel_flops=0.0,
        parallel_items=0.0,
        arithmetic_intensity=1.0,
        input_bytes=100,
        output_bytes=10,
        host_device_bytes=0,
        gpu_memory_bytes=0,
    )
    return Task(
        task_id=task_id,
        name=f"t{task_id}",
        inputs=tuple(DataRef(size_bytes=100, home_node=h) for h in input_homes),
        outputs=(DataRef(size_bytes=10),),
        cost=cost,
    )


def _never_gpu(task):
    return False


@st.composite
def cluster_and_ready(draw):
    """A random cluster state plus a random ready queue."""
    n = draw(st.integers(min_value=1, max_value=6))
    free_cores = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n)
    )
    free_gpus = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    dead = draw(st.sets(st.integers(0, n - 1), max_size=n))
    cluster = FakeCluster(free_cores, free_gpus, dead)
    num_ready = draw(st.integers(0, 8))
    ready = [
        _task(i, input_homes=draw(st.lists(st.integers(0, n - 1), max_size=3)))
        for i in range(num_ready)
    ]
    return cluster, ready


ALL_POLICIES = list(SchedulingPolicy)


@settings(max_examples=60, deadline=None)
@given(state=cluster_and_ready(), policy=st.sampled_from(ALL_POLICIES))
def test_assignment_targets_free_non_blacklisted_node(state, policy):
    cluster, ready = state
    scheduler = make_scheduler(policy)
    choice = scheduler.select(ready, cluster, _never_gpu)
    if choice is None:
        return
    assert choice.task in ready
    assert cluster.has_free_slot(choice.node, False)
    assert choice.node not in cluster.dead


@settings(max_examples=60, deadline=None)
@given(state=cluster_and_ready(), policy=st.sampled_from(ALL_POLICIES))
def test_none_only_when_no_placement_exists(state, policy):
    # A scheduler may only give up when every (queue-head, node) pairing
    # it considers is infeasible; with a uniformly usable node and a
    # non-empty queue it must place something.
    cluster, ready = state
    usable = [
        node
        for node in range(cluster.num_nodes())
        if cluster.has_free_slot(node, False)
    ]
    scheduler = make_scheduler(policy)
    choice = scheduler.select(ready, cluster, _never_gpu)
    if ready and usable:
        assert choice is not None


@settings(max_examples=60, deadline=None)
@given(state=cluster_and_ready())
def test_generation_order_always_picks_queue_head(state):
    cluster, ready = state
    scheduler = GenerationOrderScheduler()
    choice = scheduler.select(ready, cluster, _never_gpu)
    if choice is not None:
        assert choice.task is ready[0]


@settings(max_examples=60, deadline=None)
@given(state=cluster_and_ready())
def test_lifo_always_picks_queue_tail(state):
    cluster, ready = state
    scheduler = LifoScheduler()
    choice = scheduler.select(ready, cluster, _never_gpu)
    if choice is not None:
        assert choice.task is ready[-1]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), picks=st.integers(2, 20))
def test_round_robin_wraps_around(n, picks):
    # With every node free, consecutive picks cycle 0, 1, ..., n-1, 0, ...
    scheduler = GenerationOrderScheduler()
    cluster = FakeCluster([10] * n)
    nodes = [
        scheduler.select([_task(i)], cluster, _never_gpu).node
        for i in range(picks)
    ]
    assert nodes == [i % n for i in range(picks)]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), picks=st.integers(2, 20))
def test_locality_all_zero_ties_round_robin(n, picks):
    # Regression: tasks with no local input bytes anywhere used to land on
    # node 0 every time; ties must now rotate like generation order.
    scheduler = DataLocalityScheduler()
    cluster = FakeCluster([10] * n)
    nodes = [
        scheduler.select([_task(i)], cluster, _never_gpu).node
        for i in range(picks)
    ]
    assert nodes == [i % n for i in range(picks)]
    assert len(set(nodes)) == min(n, picks)


@settings(max_examples=60, deadline=None)
@given(state=cluster_and_ready())
def test_locality_still_prefers_owner_over_rotation(state):
    # The tie-break fix must not weaken the policy itself: when one node
    # holds strictly more of the head task's bytes than all others and is
    # usable, it wins regardless of the rotation cursor.
    cluster, ready = state
    if not ready:
        return
    owner = 0
    if cluster.num_nodes() > 0:
        task = _task(99, input_homes=[owner, owner])
        scheduler = DataLocalityScheduler()
        choice = scheduler.select([task], cluster, _never_gpu)
        if cluster.has_free_slot(owner, False):
            assert choice is not None and choice.node == owner


def test_blacklisted_preferred_owner_falls_back():
    # Deterministic regression: the owner node is dead, so the locality
    # policy must place the task elsewhere.
    scheduler = DataLocalityScheduler()
    cluster = FakeCluster([1, 1, 1], dead={2})
    choice = scheduler.select([_task(0, input_homes=[2])], cluster, _never_gpu)
    assert choice is not None
    assert choice.node != 2


# ------------------------------------------------------- residency resolution


class ResolvingCluster(FakeCluster):
    """A view whose ``resident_node`` may disagree with ``ref.home_node``,
    modelling blocks that moved or were evicted since the ref was written."""

    def __init__(self, free_cores, residency, **kwargs):
        super().__init__(free_cores, **kwargs)
        self._residency = residency

    def resident_node(self, ref):
        return self._residency(ref)


def test_locality_scores_against_residency_not_stale_home():
    # Regression (moved block): the ref still records home_node=1, but the
    # block now lives on node 2 — the resolver, not the stale home, must
    # earn the locality credit.
    scheduler = DataLocalityScheduler()
    cluster = ResolvingCluster([1, 1, 1], residency=lambda ref: 2)
    choice = scheduler.select([_task(0, input_homes=[1, 1])], cluster, _never_gpu)
    assert choice is not None
    assert choice.node == 2


def test_locality_gives_no_credit_for_evicted_blocks():
    # Regression (evicted block): the resolver reports every input as
    # off-cluster, so the stale home_node=2 must not attract the task;
    # an all-zero tie falls back to the round-robin cursor (node 0).
    scheduler = DataLocalityScheduler()
    cluster = ResolvingCluster([1, 1, 1], residency=lambda ref: None)
    choice = scheduler.select([_task(0, input_homes=[2, 2])], cluster, _never_gpu)
    assert choice is not None
    assert choice.node == 0


def test_index_scores_win_over_both_home_and_resolver():
    # When the view maintains a LocalityIndex the scheduler must read it
    # (O(1)) instead of re-resolving; give the three sources three
    # different answers and check the index one wins.
    index = LocalityIndex()
    task = _task(0, input_homes=[1])
    index.add(task, lambda ref: 2)

    cluster = ResolvingCluster([1, 1, 1], residency=lambda ref: 0)
    cluster.locality_index = index
    choice = DataLocalityScheduler().select([task], cluster, _never_gpu)
    assert choice is not None
    assert choice.node == 2


# ------------------------------------------- data-locality decision exactness


class ReferenceLocalityScheduler:
    """The straightforward data-locality policy: probe every
    ``(task, node)`` pair of the ready queue, score every usable node."""

    def __init__(self):
        self._next_node = 0

    def select(self, ready, cluster, requires_gpu):
        n = cluster.num_nodes()
        index = getattr(cluster, "locality_index", None)
        resolve = getattr(cluster, "resident_node", None)
        for task in ready:
            best_node = None
            best_bytes = -1
            needs_gpu = requires_gpu(task)
            ram_bytes = task_ram_bytes(task)
            by_node = index.bytes_map(task.task_id) if index is not None else None
            for offset in range(n):
                node = (self._next_node + offset) % n
                if not node_usable(cluster, node, needs_gpu, ram_bytes):
                    continue
                if by_node is not None:
                    local_bytes = by_node.get(node, 0)
                elif resolve is not None:
                    local_bytes = sum(
                        ref.size_bytes for ref in task.inputs if resolve(ref) == node
                    )
                else:
                    local_bytes = sum(
                        ref.size_bytes for ref in task.inputs if ref.home_node == node
                    )
                if local_bytes > best_bytes:
                    best_bytes = local_bytes
                    best_node = node
            if best_node is not None:
                self._next_node = (best_node + 1) % n
                return Assignment(task=task, node=best_node)
        return None


class RamCluster(FakeCluster):
    """A stub that honours per-node cores, GPUs, RAM and dead nodes.

    Like the simulated executor's view, a CPU task takes ``cpu_cores``
    cores and a GPU task one core plus one device, so a node may have a
    slot for one kind of task and not the other.
    """

    def __init__(self, free_cores, free_gpus, free_ram, dead, cpu_cores):
        super().__init__(free_cores, free_gpus, dead)
        self.free_ram = list(free_ram)
        self.cpu_cores = cpu_cores

    def has_free_slot(self, node, needs_gpu, ram_bytes=0):
        return (
            node not in self.dead
            and self.free_cores[node] >= (1 if needs_gpu else self.cpu_cores)
            and (not needs_gpu or self.free_gpus[node] >= 1)
            and ram_bytes <= self.free_ram[node]
        )

    def claim(self, node, needs_gpu, ram_bytes, sign=1):
        self.free_cores[node] -= sign * (1 if needs_gpu else self.cpu_cores)
        if needs_gpu:
            self.free_gpus[node] -= sign
        self.free_ram[node] -= sign * ram_bytes


@st.composite
def locality_runs(draw):
    """A cluster, a task pool and a release schedule for a dispatch run."""
    n = draw(st.integers(1, 5))
    cluster = RamCluster(
        free_cores=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        free_gpus=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        free_ram=draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
        dead=draw(st.sets(st.integers(0, n - 1), max_size=n - 1)),
        cpu_cores=draw(st.integers(1, 2)),
    )
    tasks = []
    for task_id in range(draw(st.integers(1, 14))):
        homes = draw(st.lists(st.integers(0, n), max_size=3))  # n: off-cluster
        # Two costs per (GPU, RAM) requirement: parts that share one.
        cost = dataclasses.replace(
            _task(0).cost,
            serial_flops=draw(st.sampled_from([1.0, 2.0])),
            host_memory_bytes=draw(st.sampled_from([0, 1, 2, 4])),
        )
        tasks.append(
            Task(
                task_id=task_id,
                name=f"t{task_id}",
                inputs=tuple(
                    DataRef(size_bytes=draw(st.sampled_from([50, 100])), home_node=h)
                    for h in homes
                ),
                outputs=(DataRef(size_bytes=10),),
                cost=cost,
            )
        )
    gpu_ids = draw(st.sets(st.sampled_from([t.task_id for t in tasks])))
    moved = draw(st.dictionaries(st.integers(0, 40), st.integers(0, n)))
    releases = draw(st.lists(st.integers(0, 13), max_size=6))
    return cluster, tasks, gpu_ids, moved, releases


@settings(max_examples=150, deadline=None)
@given(run=locality_runs(), scoring=st.sampled_from(["index", "resolver", "home"]))
def test_locality_decisions_equal_probe_every_pair_reference(run, scoring):
    # Reading part heads instead of the queue, the per-call requirement
    # memo and the saturated-cluster early exit must not change a single
    # decision.  The fast policy reads a ReadyParts kept up to date by
    # the add and remove calls the executor makes, keyed the executor's
    # way, by (cost, GPU intent); a second one groups the plain queue by
    # requirement.  All three policies see the same cluster at every
    # step, each pick is reserved before the next select (so the cursors
    # move), and after each round runs dry one running task releases
    # its slot and RAM.
    cluster, tasks, gpu_ids, moved, releases = run
    n = cluster.num_nodes()

    def resolve(ref):
        # Some blocks moved (possibly off-cluster) since the ref was made.
        node = moved.get(ref.ref_id % 41, ref.home_node)
        return node if node < n else None

    def requires_gpu(task):
        return task.task_id in gpu_ids

    if scoring == "resolver":
        cluster.resident_node = resolve
    if scoring == "index":
        # The index outranks the view's resolver, so give them different
        # answers: a policy that skips the index scores differently.
        cluster.resident_node = lambda ref: None
        cluster.locality_index = LocalityIndex()
        for task in tasks:
            cluster.locality_index.add(task, resolve)

    parts = ReadyParts({task.task_id: task for task in tasks}.__getitem__)
    part_of = {
        task.task_id: parts.part((task.cost, task.task_id in gpu_ids))
        for task in tasks
    }
    for task in tasks:
        parts.add(task.task_id, part_of[task.task_id])

    def decision(assignment):
        if assignment is None:
            return None
        return assignment.task.task_id, assignment.node

    fast, grouped = DataLocalityScheduler(), DataLocalityScheduler()
    reference = ReferenceLocalityScheduler()
    ready, running = list(tasks), []
    for release in [None, *releases]:
        if release is not None and running:
            task, node = running.pop(release % len(running))
            cluster.claim(node, requires_gpu(task), task_ram_bytes(task), sign=-1)
        while True:
            choice = fast.select(parts, cluster, requires_gpu)
            want = decision(reference.select(ready, cluster, requires_gpu))
            assert decision(choice) == want
            assert decision(grouped.select(ready, cluster, requires_gpu)) == want
            if choice is None:
                break
            cluster.claim(choice.node, requires_gpu(choice.task),
                          task_ram_bytes(choice.task))
            ready.remove(choice.task)
            parts.remove(choice.task.task_id, part_of[choice.task.task_id])
            if scoring == "index":
                cluster.locality_index.discard(choice.task.task_id)
            running.append((choice.task, choice.node))
    assert len(parts) == len(ready)
    assert fast._next_node == grouped._next_node == reference._next_node


# ------------------------------------------------- locality-index equivalence


@st.composite
def index_op_sequences(draw):
    """Random interleavings of add / discard / node-failure operations."""
    n_nodes = draw(st.integers(1, 4))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    st.integers(0, 9),
                    st.lists(st.integers(0, n_nodes - 1), max_size=4),
                ),
                st.tuples(st.just("discard"), st.integers(0, 9)),
                st.tuples(st.just("drop"), st.integers(0, n_nodes - 1)),
            ),
            max_size=24,
        )
    )
    return n_nodes, ops


@settings(max_examples=80, deadline=None)
@given(state=index_op_sequences())
def test_locality_index_equals_recompute_after_every_op(state):
    # The index's incremental state must equal summing each indexed
    # task's inputs from scratch against current residency, after every
    # single mutation — including node failures purging resident bytes.
    _, ops = state
    index = LocalityIndex()
    tasks: dict[int, Task] = {}
    indexed: set[int] = set()
    dead: set[int] = set()

    def resolve(ref):
        return ref.home_node if ref.home_node not in dead else None

    for op in ops:
        if op[0] == "add":
            _, task_id, homes = op
            if task_id in indexed:
                continue  # ready-set ids are unique at any instant
            task = _task(task_id, input_homes=homes)
            tasks[task_id] = task
            indexed.add(task_id)
            index.add(task, resolve)
        elif op[0] == "discard":
            indexed.discard(op[1])
            index.discard(op[1])
        else:
            dead.add(op[1])
            index.drop_node(op[1])
        expected = {
            task_id: {
                node: total
                for node, total in _bytes_by_node(tasks[task_id], resolve).items()
            }
            for task_id in indexed
        }
        actual = index.snapshot()
        # A task whose inputs all died keeps an (empty) entry; both sides
        # score identically, so compare non-empty maps plus membership.
        assert set(actual) == indexed
        assert {t: m for t, m in actual.items() if m} == {
            t: m for t, m in expected.items() if m
        }
        for task_id in indexed:
            for node in range(4):
                assert index.bytes_for(task_id, node) == expected[task_id].get(
                    node, 0
                )


def _bytes_by_node(task, resolve):
    by_node: dict[int, int] = {}
    for ref in task.inputs:
        node = resolve(ref)
        if node is not None:
            by_node[node] = by_node.get(node, 0) + ref.size_bytes
    return by_node


# ------------------------------------------- executor-level state equivalence


class CheckedExecutor(SimulatedExecutor):
    """Re-derives the fast dispatch path's state from scratch after every
    ready-set mutation and asserts it matches the incremental version."""

    checks = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: task id -> the part number it was last filed in.
        self.filed_in: dict[int, int] = {}

    def _check_state(self) -> None:
        self.checks += 1
        assert self._ready == sorted(set(self._ready))
        expected_gpu = sum(
            1 for task_id in self._ready if task_id in self._gpu_intended_ids
        )
        assert self._ready_gpu_intended == expected_gpu
        if self._locality_index is None:
            assert self._ready_parts is None
            return
        # Every part, rebuilt from scratch: the ready tasks grouped by
        # what the device decision and the RAM requirement read now.
        # (``_forced_cpu`` does not exist yet while ``execute`` files the
        # first ready tasks.)
        forced_cpu = getattr(self, "_forced_cpu", set())
        rebuilt: dict = {}
        for task_id in self._ready:
            task = self._graph.task(task_id)
            intent = (
                task_id in self._gpu_intended_ids
                and task_id not in forced_cpu
            )
            rebuilt.setdefault((task.cost or _ZERO_COST, intent), []).append(
                task_id
            )
        parts = self._ready_parts
        kept = {
            key: parts._parts[part]
            for key, part in parts._numbers.items()
            if parts._parts[part]
        }
        assert kept == rebuilt
        # A ready task stays in the part it was filed in.
        for task_id in self._ready:
            assert self._part_of[task_id] == self.filed_in[task_id]
        expected = {
            task_id: _bytes_by_node(
                self._graph.task(task_id), self._view.resident_node
            )
            for task_id in self._ready
        }
        actual = self._locality_index.snapshot()
        assert set(actual) == set(self._ready)
        assert {t: m for t, m in actual.items() if m} == {
            t: m for t, m in expected.items() if m
        }

    def _ready_insert(self, task_id):
        if self._ready_parts is not None:
            self.filed_in[task_id] = self._part_of[task_id]
        super()._ready_insert(task_id)
        self._check_state()

    def _ready_remove(self, task_id):
        removed = super()._ready_remove(task_id)
        self._check_state()
        return removed


@settings(max_examples=20, deadline=None)
@given(
    width=st.integers(2, 5),
    depth=st.integers(2, 4),
    fan_in=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    policy=st.sampled_from(
        [SchedulingPolicy.DATA_LOCALITY, SchedulingPolicy.GENERATION_ORDER]
    ),
    use_gpu=st.booleans(),
    gpu_overflow=st.booleans(),
    faults=st.booleans(),
    gpu_oom_ids=st.sets(st.integers(0, 20), max_size=4),
)
def test_incremental_dispatch_state_equals_recompute(
    width, depth, fan_in, seed, policy, use_gpu, gpu_overflow, faults,
    gpu_oom_ids,
):
    # Full simulated runs over random generated DAGs: after every
    # completion event (and every dispatch) the incrementally maintained
    # ready set, GPU-intended counter, locality index and ready parts
    # must equal a from-scratch recomputation — with faults, that
    # includes node deaths purging the index mid-run.  GPU overflow makes
    # the device decision depend on cluster state; a runtime GPU OOM with
    # GPU-to-CPU fallback forces the retry onto a CPU core, re-filing the
    # task under a new part while it is not ready.
    fault_plan = None
    if faults or gpu_oom_ids:
        fault_plan = FaultPlan(
            node_faults=(NodeFault(node=1, at_time=0.05),) if faults else (),
            gpu_ooms=tuple(GpuOomFault(task_id=i) for i in sorted(gpu_oom_ids)),
            crash_probability=0.05 if faults else 0.0,
            seed=seed % 97,
        )
    config = RuntimeConfig(
        storage=StorageKind.LOCAL,
        scheduling=policy,
        use_gpu=use_gpu,
        gpu_overflow_to_cpu=gpu_overflow,
        fault_plan=fault_plan,
        retry_policy=(
            RetryPolicy(max_attempts=2, backoff_base=0.01, gpu_fallback_to_cpu=True)
            if fault_plan is not None
            else None
        ),
    )
    runtime = Runtime(config)
    GeneratedDagWorkflow(
        width=width, depth=depth, fan_in=fan_in, block_mb=1.0, seed=seed
    ).build(runtime)
    executor = CheckedExecutor(config)
    executor.execute(runtime.graph)
    assert executor.checks >= width * depth
