"""Workload process of the repository benchmark.

``bench/run.py`` starts one fresh interpreter per workload running this
file.  It prints one JSON object as its last line: the raw per-pass
samples, every operation's trace digest, the peak memory and, for a
traced run, the per-layer metrics.  ``--warm-pass DIR`` is the one-shot
process each ``warm`` pass starts: it re-runs the figure runners against
the sweep cache in ``DIR``, as a user re-running ``repro figures all``.

Each workload is a closed loop: the next operation starts when the
previous one has finished.  Untraced runs repeat passes until
``--seconds`` is spent (at least one pass); traced runs do a fixed amount
of work, one untraced reference pass and one traced pass, so every count
they report repeats exactly.  Inputs depend on ``--seed`` only where the
workload says so (``paper`` jitter, ``replay`` DAG).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("figures", "warm", "locality", "paper", "replay")
#: Sweep fan-out: at most two processes, and no more than the cores.
JOBS = min(2, os.cpu_count() or 1)
clock = time.perf_counter


def load_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"repro was imported from {repro.__file__}, not {SRC}")
    return repro


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _region(tracer, layer: str, name: str, fn, *args):
    """``fn(*args)``, kept as a span of ``layer`` when traced."""
    if tracer is None:
        return fn(*args)
    return tracer.call(layer, name, True, fn, args)


class Budget:
    """Closed-loop pass budget: at least ``minimum`` passes, then another
    pass only if it still fits in ``seconds``."""

    def __init__(self, seconds: float, minimum: int = 1) -> None:
        self.seconds = seconds
        self.minimum = minimum
        self.started = clock()

    def another(self, done: int, last_pass: float) -> bool:
        return (done < self.minimum
                or clock() - self.started + last_pass <= self.seconds)


# ---------------------------------------------------------------- figures


def figure_runners(engine, quick: bool) -> list[tuple[str, Callable]]:
    """The ``repro figures all`` runners, minus Fig 11 and the grid-16
    locality cells of Fig 10 (those belong to the ``locality`` workload)."""
    from repro.core import factors_table
    from repro.core import experiments as exp
    from repro.core.experiments.fig10 import KMEANS_GRIDS

    if quick:
        return [
            ("fig6", exp.run_fig6),
            ("fig10", lambda: exp.run_fig10_for(
                "matmul", "matmul_128mb", (2, 1), engine=engine)),
            ("fig12", lambda: exp.run_fig12(
                dataset_key="matmul_128mb", grids=(2,), engine=engine)),
            ("table1", factors_table),
        ]
    return [
        ("fig1", lambda: exp.run_fig1(engine=engine)),
        ("fig6", exp.run_fig6),
        ("fig7", lambda: exp.run_fig7(engine=engine)),
        ("fig8", lambda: exp.run_fig8(engine=engine)),
        ("fig9a", lambda: exp.run_fig9a(engine=engine)),
        ("fig9b", lambda: exp.run_fig9b(engine=engine)),
        ("fig10-matmul", lambda: exp.run_fig10_for(
            "matmul", "matmul_8gb", (8, 4, 2, 1), engine=engine)),
        ("fig10-kmeans", lambda: exp.run_fig10_for(
            "kmeans", "kmeans_10gb", KMEANS_GRIDS, engine=engine)),
        ("fig12", lambda: exp.run_fig12(engine=engine)),
        ("table1", factors_table),
    ]


def render_op(quick: bool) -> str:
    return "render:quick" if quick else "render:full"


def figures_pass(cache_dir: Path, jobs: int, quick: bool, tracer=None):
    """One ``figures all``-style pass: engine set-up, then runners + render.

    Returns the pass sample, the rendered text and the engine's stats.
    """
    from repro.core.experiments import SweepEngine

    gc.collect()
    started = clock()
    engine = _region(tracer, "core.sweep", "setup", SweepEngine, jobs, cache_dir)
    setup = clock() - started

    def body() -> str:
        try:
            parts = []
            for name, runner in figure_runners(engine, quick):
                if tracer is not None:
                    tracer.op = name
                # The runners and their renderers are the experiments
                # layer: cell specs in, tables out.
                result = _region(tracer, layers.EXPERIMENTS, "runner", runner)
                panels = result if isinstance(result, tuple) else (result,)
                parts.extend(_region(tracer, layers.EXPERIMENTS, "render",
                                     panel.render) for panel in panels)
            return "\n\n".join(parts)
        finally:
            engine.close()

    started = clock()
    text = _region(tracer, layers.BENCH, "timed", body)
    return {"wall": clock() - started, "setup": setup}, text, engine.stats


def cold_pass(cache_dir: Path, jobs: int, quick: bool, tracer=None):
    """A figures pass against an empty cache; operations are the render
    and every cell the pass executed, checked by its trace digest."""
    sample, text, stats = figures_pass(cache_dir, jobs, quick, tracer)
    ops = [{"op": render_op(quick), "digest": _sha(text), "ok": True}]
    tasks = 0
    for path in sorted(cache_dir.glob("*/*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        metrics = record["metrics"]
        spec = json.dumps(record["spec"], sort_keys=True, separators=(",", ":"))
        ops.append({"op": f"cell:{spec}", "digest": metrics["trace_digest"],
                    "ok": True})
        if metrics["status"] == "ok":
            tasks += metrics["num_tasks"]
    ops[0]["ok"] = len(ops) - 1 == stats.executed
    sample["tasks"] = tasks
    return sample, ops, stats


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def figures(args, scratch: Path) -> dict:
    if args.trace:
        tracer_a = layers.Tracer("figures")
        tracer_a.pass_id = f"cold-jobs{JOBS}"
        # Workers cannot be reached by wrappers, so this pass only traces
        # the host layers on the parent side.
        with layers.installed(tracer_a, ("core",)):
            traced_a, ops_a, stats_a = cold_pass(
                scratch / "a", JOBS, args.quick, tracer_a)
        reference, ops_r, _ = cold_pass(scratch / "r", 1, args.quick)
        tracer_b = layers.Tracer("figures")
        tracer_b.pass_id = "cold-jobs1"
        with layers.installed(tracer_b):
            traced_b, ops_b, _ = cold_pass(scratch / "b", 1, args.quick, tracer_b)
        # The serial pass sees every host layer in-process (workers write
        # the cache on the parallel path); the pool itself only exists in
        # the parallel pass.
        pool = layers.core_metrics(tracer_a, JOBS, stats_a.executed_wall)
        metrics = {
            **traced_metrics(tracer_b, reference, traced_b),
            **{k: v for k, v in pool.items() if k.startswith("shard.")},
            "trace.coverage": min(tracer_a.coverage(), tracer_b.coverage()),
        }
        return traced_result(args, [tracer_a, tracer_b], metrics,
                             [traced_a, reference, traced_b], ops_a + ops_r + ops_b)
    budget = Budget(args.seconds)
    passes, ops = [], []
    while True:
        cache = scratch / f"cold-{len(passes)}"
        sample, pass_ops, _ = cold_pass(cache, JOBS, args.quick)
        shutil.rmtree(cache)
        passes.append(sample)
        ops += pass_ops
        if not budget.another(len(passes), sample["wall"] + sample["setup"]):
            break
    # The pool's workers are reaped children: add the largest one's peak
    # once per worker.
    rss = peak_rss_mb() + JOBS * peak_rss_mb(children=True)
    return {"passes": passes, "ops": ops, "peak_rss_mb": rss}


def warm_pass_main(cache_dir: Path, quick: bool) -> None:
    """Body of one fresh-interpreter warm pass (``--warm-pass``)."""
    sample, text, stats = figures_pass(cache_dir, JOBS, quick)
    print(json.dumps({"setup": sample["setup"], "render": _sha(text),
                      "executed": stats.executed, "rss": peak_rss_mb()}))


def warm(args, scratch: Path) -> dict:
    cache = scratch / "cache"
    fill, fill_ops, _ = cold_pass(cache, JOBS, args.quick)
    if args.trace:
        reference, text, _ = figures_pass(cache, JOBS, args.quick)
        tracer = layers.Tracer("warm")
        tracer.pass_id = "warm-in-process"
        with layers.installed(tracer):
            traced, traced_text, _ = figures_pass(cache, JOBS, args.quick, tracer)
        metrics = traced_metrics(tracer, reference, traced)
        ops = fill_ops[:1] + [
            {"op": render_op(args.quick), "digest": _sha(t), "ok": True}
            for t in (text, traced_text)
        ]
        return traced_result(args, [tracer], metrics, [reference, traced], ops)
    command = [sys.executable, str(Path(__file__).resolve()),
               "--warm-pass", str(cache)] + (["--quick"] if args.quick else [])
    budget = Budget(args.seconds, minimum=3)
    passes, ops, rss = [], fill_ops[:1], 0.0
    while True:
        started = clock()
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=False)
        wall = clock() - started
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            ops.append({"op": render_op(args.quick), "digest": "", "ok": False,
                        "error": f"warm pass exited {proc.returncode}"})
            break
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        passes.append({"wall": wall, "setup": child["setup"],
                       "tasks": fill["tasks"]})
        # A warm pass that had to simulate anything is not warm.
        ops.append({"op": render_op(args.quick), "digest": child["render"],
                    "ok": child["executed"] == 0})
        rss = max(rss, child["rss"])
        if not budget.another(len(passes), wall):
            break
    return {"passes": passes, "ops": ops, "peak_rss_mb": rss}


# ---------------------------------------------------------- run workloads


@dataclass(frozen=True)
class RunOp:
    """One workflow execution: its configuration and how to build it."""

    op_id: str
    config: object
    workflow: Callable[[], object]
    #: Fault-free runs commit exactly one task record per task.
    exact_tasks: bool = True


def replay_config():
    """The zero-overhead 8-node cluster replays run against: no
    scheduling latency and no locality scan cost, so only the kernel
    (dependency resolution, dispatch, event heap, trace) is measured."""
    import dataclasses

    from repro.hardware import StorageKind, minotauro
    from repro.runtime import RuntimeConfig, SchedulingPolicy

    cluster = dataclasses.replace(
        minotauro(num_nodes=8),
        scheduling_latency={policy: 0.0 for policy in SchedulingPolicy},
        locality_scan_seconds_per_task=0.0,
    )
    return RuntimeConfig(cluster=cluster, storage=StorageKind.LOCAL,
                         scheduling=SchedulingPolicy.GENERATION_ORDER)


class ReplayDag:
    """A seeded dependency-only layered DAG of ``width * depth`` tasks.

    Each task depends on two distinct tasks of the previous level and has
    a serial compute cost drawn from a 64-entry palette, so the cost
    model's memo stays small; no task moves data.
    """

    def __init__(self, width: int, depth: int, seed: int) -> None:
        self.width, self.depth, self.seed = width, depth, seed

    def build(self, runtime) -> None:
        import numpy as np

        from repro.perfmodel import TaskCost

        rng = np.random.default_rng(self.seed)
        palette = [
            TaskCost(serial_flops=float(flops), parallel_flops=0.0,
                     parallel_items=0.0, arithmetic_intensity=1e-6,
                     input_bytes=0, output_bytes=0, host_device_bytes=0,
                     gpu_memory_bytes=0)
            for flops in rng.uniform(1e7, 4e7, size=64)
        ]
        width, total = self.width, self.width * self.depth
        cost_ix = rng.integers(0, len(palette), size=total).tolist()
        first = rng.integers(0, width, size=total)
        second = ((first + rng.integers(1, width, size=total)) % width).tolist()
        first = first.tolist()
        previous = [runtime.register_input(1, name=f"replay_in{i}")
                    for i in range(width)]
        at = 0
        for _ in range(self.depth):
            current = []
            for _ in range(width):
                a, b = sorted((first[at], second[at]))
                (out,) = runtime.submit(
                    name="replay", inputs=[previous[a], previous[b]],
                    cost=palette[cost_ix[at]], output_bytes=[0])
                current.append(out)
                at += 1
            previous = current


def locality_ops(seed: int, quick: bool) -> list[RunOp]:
    """Fig 10's data-locality cells: Matmul 8 GB, CPU/GPU x shared/local."""
    from repro.algorithms import MatmulWorkflow
    from repro.data import paper_datasets
    from repro.hardware import StorageKind
    from repro.runtime import RuntimeConfig, SchedulingPolicy

    grid = 4 if quick else 10
    dataset = paper_datasets()["matmul_8gb"]
    return [
        RunOp(f"locality:matmul_8gb-g{grid}-{'gpu' if gpu else 'cpu'}-"
              f"{storage.value}",
              RuntimeConfig(use_gpu=gpu, storage=storage,
                            scheduling=SchedulingPolicy.DATA_LOCALITY),
              lambda: MatmulWorkflow(dataset, grid=grid))
        for storage in (StorageKind.SHARED, StorageKind.LOCAL)
        for gpu in (False, True)
    ]


def paper_ops(seed: int, quick: bool) -> list[RunOp]:
    """The paper's configurations with run-to-run jitter seeded by ``seed``."""
    from repro.algorithms import KMeansWorkflow, MatmulFmaWorkflow, MatmulWorkflow
    from repro.data import paper_datasets
    from repro.faults import FaultPlan, NodeFault, RetryPolicy
    from repro.hardware import StorageKind
    from repro.runtime import RuntimeConfig

    datasets = paper_datasets()
    mm_key, km_key = ("matmul_128mb", "kmeans_100mb") if quick else (
        "matmul_8gb", "kmeans_10gb")
    mm, km = datasets[mm_key], datasets[km_key]
    grid, (deep, shallow) = (4, (8, 4)) if quick else (16, (256, 64))
    kill_at = 1.0 if quick else 60.0
    jitter = {"jitter_sigma": 0.05, "jitter_seed": seed}
    fault = {
        "storage": StorageKind.LOCAL,
        "fault_plan": FaultPlan(node_faults=(NodeFault(node=1, at_time=kill_at),)),
        "retry_policy": RetryPolicy(recover_lost_blocks=True),
    }
    return [
        RunOp(f"paper:{mm_key}-g{grid}-cpu@{seed}",
              RuntimeConfig(use_gpu=False, **jitter),
              lambda: MatmulWorkflow(mm, grid=grid)),
        RunOp(f"paper:{mm_key}-g{grid}-gpu@{seed}",
              RuntimeConfig(use_gpu=True, **jitter),
              lambda: MatmulWorkflow(mm, grid=grid)),
        RunOp(f"paper:{mm_key}-fma-g{grid}-gpu@{seed}",
              RuntimeConfig(use_gpu=True, **jitter),
              lambda: MatmulFmaWorkflow(mm, grid=grid)),
        RunOp(f"paper:{km_key}-g{deep}-gpu-it3@{seed}",
              RuntimeConfig(use_gpu=True, **jitter),
              lambda: KMeansWorkflow(km, grid_rows=deep, n_clusters=10,
                                     iterations=3)),
        RunOp(f"paper:{km_key}-g{shallow}-gpu-it8@{seed}",
              RuntimeConfig(use_gpu=True, **jitter),
              lambda: KMeansWorkflow(km, grid_rows=shallow, n_clusters=10,
                                     iterations=8)),
        RunOp(f"paper:{mm_key}-g{grid}-gpu-local-kill1@{seed}",
              RuntimeConfig(use_gpu=True, **jitter, **fault),
              lambda: MatmulWorkflow(mm, grid=grid), exact_tasks=False),
    ]


def replay_ops(seed: int, quick: bool) -> list[RunOp]:
    width, depth = (16, 20) if quick else (125, 800)
    return [RunOp(f"replay:{width}x{depth}@{seed}", replay_config(),
                  lambda: ReplayDag(width, depth, seed))]


def _build(op: RunOp):
    from repro.runtime import Runtime

    runtime = Runtime(op.config)
    op.workflow().build(runtime)
    return runtime


def run_pass(ops: list[RunOp], tracer=None) -> tuple[dict, list[dict]]:
    """Build (set-up) then execute (timed) each operation once."""
    from repro.tracing.golden import trace_digest

    setup = wall = 0.0
    tasks = 0
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.op_id
        runtime = result = None
        gc.collect()
        try:
            started = clock()
            runtime = _region(tracer, "runtime.dag", "setup", _build, op)
            setup += clock() - started
            started = clock()
            result = _region(tracer, layers.BENCH, "timed", runtime.run)
            wall += clock() - started
            records = result.trace.num_task_records
            expected = runtime.graph.num_tasks
            ok = not result.failed and (
                records == expected if op.exact_tasks else records >= expected)
            tasks += records
            results.append({"op": op.op_id, "ok": ok,
                            "digest": trace_digest(result.trace,
                                                   result.failed_task_ids)})
        except Exception as error:  # a failed operation is a measurement
            results.append({"op": op.op_id, "ok": False, "digest": "",
                            "error": f"{type(error).__name__}: {error}"})
        finally:
            runtime = result = None
    return {"wall": wall, "setup": setup, "tasks": tasks}, results


def run_workload(args, ops: list[RunOp], minimum: int) -> dict:
    if args.trace:
        reference, ops_r = run_pass(ops)
        tracer = layers.Tracer(args.workload)
        tracer.pass_id = "traced"
        with layers.installed(tracer):
            traced, ops_t = run_pass(ops, tracer)
        metrics = traced_metrics(tracer, reference, traced)
        return traced_result(args, [tracer], metrics, [reference, traced],
                             ops_r + ops_t)
    budget = Budget(args.seconds, minimum)
    passes, results = [], []
    while True:
        sample, pass_ops = run_pass(ops)
        passes.append(sample)
        results += pass_ops
        if not budget.another(len(passes), sample["wall"] + sample["setup"]):
            break
    return {"passes": passes, "ops": results, "peak_rss_mb": peak_rss_mb()}


def traced_metrics(tracer, reference: dict, traced: dict) -> dict:
    """Every per-layer metric of one traced pass, plus the tracing cost
    measured against the untraced ``reference`` pass."""
    return {
        **layers.sim_metrics(tracer),
        **layers.core_metrics(tracer),
        "trace.overhead_ratio": traced["wall"] / reference["wall"],
        "trace.coverage": tracer.coverage(),
    }


def traced_result(args, tracers, metrics, passes, ops) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    layers.chrome_trace(tracers, OUT / f"trace-{args.workload}.json", metrics)
    calls: dict[str, int] = {}
    for tracer in tracers:
        for name, count in tracer.calls.items():
            calls[name] = calls.get(name, 0) + count
    return {"passes": passes, "ops": ops, "peak_rss_mb": peak_rss_mb(),
            "layers": metrics, "calls": calls}


#: Operations of each run workload, and its fewest passes per run: passes
#: of a few seconds need three for a median; a 12 s locality pass fills
#: a run alone.
OPS = {"locality": (locality_ops, 1), "paper": (paper_ops, 3),
       "replay": (replay_ops, 3)}


def run(args) -> dict:
    """Run one workload in this process and return its raw result."""
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "figures":
            return figures(args, scratch)
        if args.workload == "warm":
            return warm(args, scratch)
        make_ops, minimum = OPS[args.workload]
        return run_workload(args, make_ops(args.seed, args.quick), minimum)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--warm-pass", type=Path)
    args = parser.parse_args(argv)
    load_repro()
    if args.warm_pass is not None:
        warm_pass_main(args.warm_pass, args.quick)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
