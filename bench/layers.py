"""Per-layer attribution for the traced benchmark run (``--trace 1``).

The benchmark never edits the program to measure it.  A traced run
replaces each layer's public entry points -- class attributes and the
module globals their callers look up -- with wrappers that time the
call, and puts every original back in a ``finally``.  Timing nests: a
wrapped call's *self time* is its duration minus the time covered by the
wrapped calls it made, so the self times of every layer inside a timed
region add up to that region's wall clock.  Whatever is left is the
``bench`` layer's own self time (glue between the entry points), which
``trace.coverage`` reports as the share the layers did not explain.

Coarse entry points (a whole execution, a cache lookup, a ledger write)
are kept as spans and written out as a Chrome trace-event file.  Hot
entry points (a trace append, a scheduler probe) are only summed: keeping
one span per call would cost more memory than the simulation itself.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

#: Layer of the benchmark's own timed regions; its self time is the part
#: of the timed wall no program layer accounts for.
BENCH = "bench"
#: Layer of the figure runners (``run_fig*``) and their ``render()``,
#: timed by the benchmark around its own calls to them.
EXPERIMENTS = "core.experiments"


@dataclass(frozen=True)
class Span:
    """One kept call: where it sat in the call tree and what it cost."""

    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    self_time: float
    workload: str
    pass_id: str
    op: str


class Tracer:
    """Span stack plus per-entry totals for one traced pass.

    ``pass_id`` and ``op`` are set by the workload before each pass and
    operation so kept spans can be grouped by them.  ``clock`` is
    injectable so the self-time arithmetic can be checked on synthetic
    timings.
    """

    def __init__(
        self, workload: str, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.workload = workload
        self.clock = clock
        self.pass_id = ""
        self.op = ""
        self.spans: list[Span] = []
        #: entry name -> calls, inclusive seconds, self seconds, layer.
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        #: Counters that are not call counts (events, bytes, hits, ...).
        self.counts: dict[str, float] = defaultdict(int)
        # One frame per open call: [seconds covered by children, span id].
        self._stack: list[list] = []
        self._next_id = 0

    def call(self, layer: str, name: str, keep: bool, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` as one timed call of ``name``."""
        stack = self._stack
        frame = [0.0, None]
        if keep:
            frame[1] = self._next_id
            self._next_id += 1
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            own = duration - frame[0]
            if stack:
                stack[-1][0] += duration
            self.calls[name] += 1
            self.inclusive[name] += duration
            self.own[name] += own
            self.layer_of[name] = layer
            if keep:
                parent = next(
                    (f[1] for f in reversed(stack) if f[1] is not None), None
                )
                self.spans.append(
                    Span(frame[1], name, layer, start, end, parent, own,
                         self.workload, self.pass_id, self.op)
                )

    def layer_self(self, layer: str) -> float:
        """Self seconds of every entry point of one layer."""
        return sum(self.own[n] for n, of in self.layer_of.items() if of == layer)

    def coverage(self) -> float:
        """Share of the timed regions' wall that program layers explain."""
        timed = self.inclusive.get("timed", 0.0)
        return 1.0 - self.own.get("timed", 0.0) / timed if timed else 0.0


# ------------------------------------------------------------ entry points


@dataclass(frozen=True)
class Entry:
    """One patched attribute and the workloads it must fire on."""

    module: str
    owner: str | None  # class name, or None for a module global
    attr: str
    layer: str
    group: str  # "sim" or "core": which traced pass installs it
    keep: bool = False
    fires_on: frozenset[str] = field(default_factory=frozenset)

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


def _on(*workloads: str) -> frozenset[str]:
    return frozenset(workloads)


#: Workloads that simulate; ``warm`` only builds Fig 6's DAGs, never runs one.
_SIM = _on("figures", "locality", "paper", "replay")
_SIM_DATA = _on("figures", "locality", "paper")
_SWEEP = _on("figures", "warm")

#: Every wrapped entry point, its layer, and the workloads that reach it.
#: ``fires_on`` is the prediction the test suite checks: an entry point a
#: workload is mapped to but never calls means the program bypassed it.
ENTRIES: tuple[Entry, ...] = (
    Entry("repro.runtime.runtime", "Runtime", "submit", "runtime.dag", "sim",
          fires_on=_SIM | {"warm"}),
    Entry("repro.algorithms", "MatmulWorkflow", "build", "runtime.dag", "sim",
          keep=True, fires_on=_on("figures", "warm", "locality", "paper")),
    Entry("repro.algorithms", "MatmulFmaWorkflow", "build", "runtime.dag",
          "sim", keep=True, fires_on=_on("figures", "paper")),
    Entry("repro.algorithms", "KMeansWorkflow", "build", "runtime.dag", "sim",
          keep=True, fires_on=_on("figures", "warm", "paper")),
    Entry("repro.runtime.backends.simulated", "SimulatedExecutor", "execute",
          "runtime.executor", "sim", keep=True, fires_on=_SIM),
    Entry("repro.sim.engine", "SimEngine", "run", "sim.engine", "sim",
          keep=True, fires_on=_SIM),
    Entry("repro.sim.engine", "SimEngine", "schedule", "sim.engine", "sim",
          fires_on=_SIM),
    Entry("repro.runtime.scheduler", None, "node_usable", "runtime.scheduler",
          "sim", fires_on=_SIM),
    Entry("repro.runtime.scheduler", "Scheduler", "select_batch",
          "runtime.scheduler", "sim", fires_on=_on("replay")),
    Entry("repro.runtime.scheduler", "GenerationOrderScheduler", "select",
          "runtime.scheduler", "sim", fires_on=_SIM - {"locality"}),
    Entry("repro.runtime.scheduler", "LifoScheduler", "select",
          "runtime.scheduler", "sim"),
    Entry("repro.runtime.scheduler", "DataLocalityScheduler", "select",
          "runtime.scheduler", "sim", fires_on=_on("figures", "locality")),
    Entry("repro.runtime.locality", "LocalityIndex", "add", "runtime.locality",
          "sim", fires_on=_on("figures", "locality")),
    Entry("repro.runtime.locality", "LocalityIndex", "discard",
          "runtime.locality", "sim", fires_on=_on("figures", "locality")),
    Entry("repro.runtime.locality", "LocalityIndex", "bytes_map",
          "runtime.locality", "sim", fires_on=_on("figures", "locality")),
    Entry("repro.perfmodel.costmodel", "CostModel", "stage_times", "perfmodel",
          "sim", fires_on=_SIM),
    Entry("repro.perfmodel.costmodel", "CostModel", "stage_times_batch",
          "perfmodel", "sim", fires_on=_SIM),
    Entry("repro.sim.resources", "BandwidthResource", "submit",
          "sim.resources", "sim", fires_on=_SIM_DATA),
    Entry("repro.sim.resources", "CapacityResource", "request",
          "sim.resources", "sim"),
    Entry("repro.sim.resources", "CapacityResource", "try_request",
          "sim.resources", "sim", fires_on=_SIM),
    Entry("repro.sim.resources", "CapacityResource", "release",
          "sim.resources", "sim", fires_on=_SIM),
    Entry("repro.tracing.trace", "Trace", "add_stage_row", "tracing", "sim",
          fires_on=_SIM),
    Entry("repro.tracing.trace", "Trace", "add_task_row", "tracing", "sim",
          fires_on=_SIM),
    Entry("repro.tracing.trace", "Trace", "add_attempt_row", "tracing", "sim",
          fires_on=_on("paper")),
    # The cell metrics and digest a sweep computes from each trace, looked
    # up as module globals of the runner that calls them.
    Entry("repro.core.experiments.runners", None, "user_code_metrics",
          "tracing", "sim", fires_on=_on("figures")),
    Entry("repro.core.experiments.runners", None, "data_movement_metrics",
          "tracing", "sim", fires_on=_on("figures")),
    Entry("repro.core.experiments.runners", None, "parallel_task_metrics",
          "tracing", "sim", fires_on=_on("figures")),
    Entry("repro.core.experiments.runners", None, "trace_digest", "tracing",
          "sim", fires_on=_on("figures")),
    Entry("repro.core.experiments.engine", "SweepEngine", "run_cells",
          "core.sweep", "core", keep=True, fires_on=_SWEEP),
    Entry("repro.core.experiments.engine", None, "cell_digest", "core.sweep",
          "core", fires_on=_SWEEP),
    Entry("repro.core.experiments.engine", None, "model_fingerprint",
          "core.sweep", "core", keep=True, fires_on=_SWEEP),
    Entry("repro.core.experiments.cache", "SweepCache", "get", "core.cache",
          "core", keep=True, fires_on=_SWEEP),
    Entry("repro.core.experiments.cache", "SweepCache", "put", "core.cache",
          "core", keep=True, fires_on=_on("figures")),
    Entry("repro.core.experiments.cache", "SweepCache", "prune", "core.cache",
          "core", keep=True, fires_on=_SWEEP),
    Entry("repro.core.ledger", "ExecutionLedger", "append", "core.ledger",
          "core", keep=True, fires_on=_SWEEP),
    Entry("repro.core.shard", "ShardPool", "run", "core.shard", "core",
          keep=True, fires_on=_on("figures")),
    Entry("repro.core.shard", "ShardPool", "close", "core.shard", "core",
          keep=True, fires_on=_on("figures")),
)

_AGGREGATES = ("user_code_metrics", "data_movement_metrics",
               "parallel_task_metrics", "trace_digest")
_SELECTS = tuple(e.name for e in ENTRIES if e.attr == "select")


def _current(owner, attr: str):
    # A class's own attribute, not one inherited from a base class.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _resolve(entry: Entry):
    import importlib

    module = importlib.import_module(entry.module)
    return module if entry.owner is None else getattr(module, entry.owner)


def _wrapper(tracer: Tracer, entry: Entry, original):
    """The replacement for one entry point."""
    layer, name, keep, call = entry.layer, entry.name, entry.keep, tracer.call
    counts, calls = tracer.counts, tracer.calls

    if entry.attr in ("node_usable", "schedule"):
        # Called per probe / per event: a count is all that is affordable,
        # so their time stays in the caller's self time.
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted
    if name == "SimEngine.run":
        def run(self, *args, **kwargs):
            before = self.processed_events
            try:
                return call(layer, name, keep, original, (self, *args), kwargs)
            finally:
                counts["engine.events"] += self.processed_events - before

        return run
    if entry.attr == "select":
        def select(*args, **kwargs):
            assignment = call(layer, name, keep, original, args, kwargs)
            if assignment is not None:
                counts["scheduler.decisions"] += 1
            return assignment

        return select
    if name == "BandwidthResource.submit":
        def submit(self, nbytes, *args, **kwargs):
            counts["resources.bytes"] += nbytes
            return call(layer, name, keep, original, (self, nbytes, *args), kwargs)

        return submit
    if entry.owner == "CostModel":
        # A call that adds no key to the model's memo is a hit; the keys
        # are mirrored here because the memo itself is private.
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        def memoized(self, wanted, args):
            keys = seen.setdefault(self, set())
            if wanted <= keys:
                counts["costmodel.hits"] += 1
            out = call(layer, name, keep, original, (self, *args))
            keys.update(wanted)
            return out

        if entry.attr == "stage_times_batch":
            def stage_times_batch(self, costs, use_gpu, threads=1):
                wanted = {(c, use_gpu, threads) for c in costs}
                return memoized(self, wanted, (costs, use_gpu, threads))

            return stage_times_batch

        def stage_times(self, cost, use_gpu, threads=1):
            wanted = {(cost, use_gpu, threads)}
            return memoized(self, wanted, (cost, use_gpu, threads))

        return stage_times
    if name == "SweepEngine.run_cells":
        def run_cells(self, specs):
            stats = self.stats
            before = (stats.cells, stats.executed, stats.memo_hits)
            try:
                return call(layer, name, keep, original, (self, specs))
            finally:
                counts["sweep.cells"] += stats.cells - before[0]
                counts["sweep.executed"] += stats.executed - before[1]
                counts["sweep.dedup"] += stats.memo_hits - before[2]

        return run_cells
    if name == "SweepCache.get":
        def get(self, digest):
            record = call(layer, name, keep, original, (self, digest))
            if record is not None:
                counts["cache.hits"] += 1
            return record

        return get

    def timed(*args, **kwargs):
        return call(layer, name, keep, original, args, kwargs)

    return timed


@contextmanager
def installed(tracer: Tracer, groups: tuple[str, ...] = ("sim", "core")):
    """Wrap every entry point of ``groups``; restore them all on exit."""
    patched: list[tuple[object, str, object]] = []
    try:
        for entry in ENTRIES:
            if entry.group not in groups:
                continue
            owner = _resolve(entry)
            original = _current(owner, entry.attr)
            setattr(owner, entry.attr, _wrapper(tracer, entry, original))
            patched.append((owner, entry.attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def originals() -> dict[str, object]:
    """The current value of every entry point (for restore checks)."""
    return {
        f"{entry.module}:{entry.name}": _current(_resolve(entry), entry.attr)
        for entry in ENTRIES
    }


# ---------------------------------------------------------------- metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_metrics(t: Tracer) -> dict[str, float]:
    """Metrics of the simulator layers (``sim`` group)."""
    c, calls, own, inc = t.counts, t.calls, t.own, t.inclusive
    decisions = c["scheduler.decisions"]
    probes = calls["node_usable"]
    events = c["engine.events"]
    engine_self = t.layer_self("sim.engine")
    cm_calls = calls["CostModel.stage_times"]
    cm_batch = calls["CostModel.stage_times_batch"]
    return {
        "dag.submit_calls": calls["Runtime.submit"],
        "dag.build_s": t.layer_self("runtime.dag"),
        "executor.runs": calls["SimulatedExecutor.execute"],
        "executor.execute_s": inc["SimulatedExecutor.execute"],
        "executor.init_s": t.layer_self("runtime.executor"),
        "engine.events": events,
        "engine.schedule_calls": calls["SimEngine.schedule"],
        "engine.run_self_s": engine_self,
        "engine.us_per_event": 1e6 * _ratio(engine_self, events),
        "scheduler.select_calls": sum(calls[n] for n in _SELECTS),
        "scheduler.batch_calls": calls["Scheduler.select_batch"],
        "scheduler.decisions": decisions,
        "scheduler.select_s": t.layer_self("runtime.scheduler"),
        "scheduler.probes": probes,
        "scheduler.probes_per_decision": _ratio(probes, decisions),
        "locality.index_calls": sum(
            calls[f"LocalityIndex.{a}"] for a in ("add", "discard", "bytes_map")
        ),
        "locality.index_s": t.layer_self("runtime.locality"),
        "costmodel.calls": cm_calls,
        "costmodel.s": own["CostModel.stage_times"],
        "costmodel.batch_calls": cm_batch,
        "costmodel.batch_s": own["CostModel.stage_times_batch"],
        "costmodel.memo_hit_ratio": _ratio(c["costmodel.hits"], cm_calls + cm_batch),
        "resources.transfers": calls["BandwidthResource.submit"],
        "resources.bytes": c["resources.bytes"],
        "resources.submit_s": own["BandwidthResource.submit"],
        "resources.capacity_ops": sum(
            calls[f"CapacityResource.{a}"]
            for a in ("request", "try_request", "release")
        ),
        "resources.capacity_s": sum(
            own[f"CapacityResource.{a}"]
            for a in ("request", "try_request", "release")
        ),
        "trace.appends": sum(
            calls[f"Trace.{a}"]
            for a in ("add_stage_row", "add_task_row", "add_attempt_row")
        ),
        "trace.append_s": sum(
            own[f"Trace.{a}"]
            for a in ("add_stage_row", "add_task_row", "add_attempt_row")
        ),
        "trace.aggregate_s": sum(own[a] for a in _AGGREGATES),
    }


def core_metrics(t: Tracer, workers: int = 0, busy: float = 0.0) -> dict[str, float]:
    """Metrics of the host layers (``core`` group).

    ``busy`` is the executed-cell wall the sweep's workers reported
    (``SweepStats.executed_wall``) for a pass over ``workers`` workers.
    """
    c, calls, own, inc = t.counts, t.calls, t.own, t.inclusive
    gets = calls["SweepCache.get"]
    run_s = inc["ShardPool.run"]
    capacity = run_s * workers
    return {
        "experiments.self_s": t.layer_self(EXPERIMENTS),
        "sweep.cells": c["sweep.cells"],
        "sweep.executed": c["sweep.executed"],
        "sweep.dedup_ratio": _ratio(c["sweep.dedup"], c["sweep.cells"]),
        "sweep.run_cells_self_s": own["SweepEngine.run_cells"],
        "sweep.digest_s": own["cell_digest"],
        "sweep.fingerprint_s": own["model_fingerprint"],
        "cache.gets": gets,
        "cache.get_s": own["SweepCache.get"],
        "cache.hit_ratio": _ratio(c["cache.hits"], gets),
        "cache.puts": calls["SweepCache.put"],
        "cache.put_s": own["SweepCache.put"],
        "cache.prune_s": own["SweepCache.prune"],
        "ledger.appends": calls["ExecutionLedger.append"],
        "ledger.append_s": own["ExecutionLedger.append"],
        "shard.run_s": run_s,
        "shard.close_s": inc["ShardPool.close"],
        "shard.worker_busy_s": busy if workers else 0.0,
        "shard.utilisation": _ratio(busy, capacity),
        "shard.idle_s": max(capacity - busy, 0.0),
    }


# ----------------------------------------------------------------- export


def chrome_trace(tracers: list[Tracer], path: os.PathLike, metrics: dict) -> None:
    """Write kept spans as a Chrome trace-event file (opens in Perfetto).

    One track per traced pass; each slice carries its layer, parent span,
    operation and self time.  The per-layer metrics ride along under
    ``otherData``.
    """
    spans = [s for t in tracers for s in t.spans]
    origin = min((s.start for s in spans), default=0.0)
    pid = os.getpid()
    tracks: dict[str, int] = {}
    events = []
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        tid = tracks.setdefault(span.pass_id, len(tracks) + 1)
        events.append({
            "name": span.name, "cat": span.layer, "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": pid, "tid": tid,
            "args": {"span": span.span_id, "parent": span.parent,
                     "workload": span.workload, "pass": span.pass_id,
                     "op": span.op, "self_us": span.self_time * 1e6},
        })
    for pass_id, tid in tracks.items():
        events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                       "args": {"name": f"pass {pass_id}"}})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": metrics}, handle)
