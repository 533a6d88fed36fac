"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures`` — regenerate any paper figure/table as an ASCII table;
* ``run`` — execute one workflow configuration and print its metrics
  (optionally with an ASCII Gantt of the execution trace);
* ``advise`` — search configurations for a workload and print a ranked
  recommendation (the §5.4.3 automated-design method);
* ``observations`` — re-verify the paper's observations O1-O6;
* ``lint`` — statically analyze a workload/preset combination without
  executing it, printing ``WFnnn`` diagnostics (text or JSON) and exiting
  non-zero when errors (e.g. a predicted host OOM) are found;
* ``devlint`` — lint repro's own Python source for nondeterminism
  patterns (``DLnnn``: unsorted set iteration, address-based tie-breaks,
  unseeded RNGs, ...), gated on a committed baseline file;
* ``info`` — show the simulated cluster and calibration constants.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.experiments.engine import (
    KMEANS_GRIDS,
    MATMUL_GRIDS,
    CellSpec,
    build_workflow,
)
from repro.core.report import Table, format_seconds
from repro.hardware import StorageKind, cluster_presets, minotauro
from repro.runtime import SchedulingPolicy

_FIGURES = (
    "fig1",
    "fig6",
    "fig7",
    "fig8",
    "fig9a",
    "fig9b",
    "fig10",
    "fig11",
    "fig12",
    "table1",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Performance Analysis of Distributed "
            "GPU-Accelerated Task-Based Workflows' (EDBT 2024)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures/tables")
    figures.add_argument("which", choices=_FIGURES + ("all",))
    figures.add_argument(
        "--save",
        metavar="DIR",
        help="also write each result as JSON into this directory",
    )
    figures.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep cells (default: CPU count)",
    )
    figures.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="sweep result cache location (default: ~/.cache/repro/sweeps)",
    )
    figures.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk sweep result cache",
    )
    figures.add_argument(
        "--resume",
        action="store_true",
        help="replay the execution ledger first and re-run only cells "
             "that were unfinished when the previous run died",
    )

    run = sub.add_parser("run", help="execute one workflow configuration")
    run.add_argument("--algorithm", choices=("matmul", "matmul_fma", "kmeans"),
                     default="kmeans")
    run.add_argument("--dataset", default="kmeans_10gb",
                     help="a key of repro.data.paper_datasets()")
    run.add_argument("--grid", type=int, default=64,
                     help="grid size (gxg for matmul, gx1 for kmeans)")
    run.add_argument("--clusters", type=int, default=10)
    run.add_argument("--iterations", type=int, default=3)
    run.add_argument("--gpu", action="store_true")
    run.add_argument("--storage", choices=("local", "shared"), default="shared")
    run.add_argument(
        "--policy",
        choices=("generation_order", "data_locality", "lifo"),
        default="generation_order",
    )
    run.add_argument("--gantt", action="store_true",
                     help="print an ASCII Gantt of the trace")
    run.add_argument(
        "--faults",
        metavar="SPEC",
        help="inject failures: a FaultPlan as inline JSON, or @file.json",
    )
    run.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="retry budget per task when --faults is given",
    )
    run.add_argument(
        "--recover",
        action="store_true",
        help="recompute blocks lost to node failures via DAG lineage",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint task outputs to shared storage every N DAG levels",
    )
    run.add_argument(
        "--sanitize",
        action="store_true",
        help="replay the trace through the dynamic sanitizer afterwards; "
             "exit 2 if any execution invariant was violated",
    )

    advise = sub.add_parser("advise", help="recommend a configuration")
    advise.add_argument("--algorithm", choices=("matmul", "kmeans"),
                        default="kmeans")
    advise.add_argument("--dataset", default="kmeans_10gb")
    advise.add_argument("--grids", default="256,64,16,4",
                        help="comma-separated grid sizes to search")
    advise.add_argument("--clusters", type=int, default=10)

    sub.add_parser("observations", help="re-verify observations O1-O6")
    sub.add_parser("info", help="show cluster model and calibration")

    lint = sub.add_parser(
        "lint",
        help="statically analyze a workflow configuration without running it",
    )
    lint.add_argument("--algorithm", choices=("matmul", "matmul_fma", "kmeans"),
                      default="kmeans")
    lint.add_argument("--dataset", default="kmeans_10gb",
                      help="a key of repro.data.paper_datasets()")
    lint.add_argument("--grid", type=int, default=64,
                      help="grid size (gxg for matmul, gx1 for kmeans)")
    lint.add_argument("--clusters", type=int, default=10)
    lint.add_argument("--iterations", type=int, default=3)
    lint.add_argument("--gpu", action="store_true",
                      help="lint for GPU execution")
    lint.add_argument(
        "--preset",
        choices=tuple(sorted(cluster_presets())),
        default="minotauro",
        help="cluster preset to check feasibility against",
    )
    lint.add_argument("--nodes", type=int, default=8,
                      help="number of cluster nodes")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format")

    devlint = sub.add_parser(
        "devlint",
        help="lint Python sources for nondeterminism patterns (DLnnn)",
    )
    devlint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    devlint.add_argument("--format", choices=("text", "json"), default="text",
                         help="output format")
    devlint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file of accepted findings; only new findings fail",
    )
    devlint.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file with the current findings and exit 0",
    )

    decompose = sub.add_parser(
        "decompose",
        help="overhead decomposition of one workflow configuration",
    )
    decompose.add_argument("--algorithm", choices=("matmul", "matmul_fma", "kmeans"),
                           default="kmeans")
    decompose.add_argument("--dataset", default="kmeans_10gb")
    decompose.add_argument("--grid", type=int, default=64)
    decompose.add_argument("--clusters", type=int, default=10)
    decompose.add_argument("--iterations", type=int, default=3)
    decompose.add_argument("--gpu", action="store_true")
    decompose.add_argument("--storage", choices=("local", "shared"),
                           default="shared")
    return parser


def _or_usage_error(parser: argparse.ArgumentParser, build, *args):
    """Return ``build(*args)``, reporting a rejected option as a usage error.

    The constructors check their own arguments; a ``ValueError`` from one
    (or an unreadable ``--faults @file``) is the user's input, not a bug,
    so it exits 2 with one line on stderr instead of a traceback.
    """
    try:
        return build(*args)
    except (ValueError, OSError) as error:
        parser.error(str(error))


def _make_workflow(args) -> object:
    """The workflow of ``run``, ``lint`` and ``decompose``."""
    return build_workflow(
        CellSpec(args.algorithm, args.grid, dataset_key=args.dataset,
                 n_clusters=args.clusters, iterations=args.iterations)
    )


def _cmd_figures(args, parser: argparse.ArgumentParser) -> int:
    from repro.core import factors_table
    from repro.core import experiments as exp

    if args.resume and args.no_cache:
        parser.error("--resume needs the execution ledger under the cache "
                     "dir; drop --no-cache")
    # One engine for the whole invocation: cells shared between figures
    # (e.g. Figure 11's base design repeating Figures 7/9a/10) simulate
    # once, and the shard pool's workers stay warm across figures.
    engine = _or_usage_error(
        parser,
        lambda: exp.SweepEngine(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            cache=not args.no_cache,
            resume=args.resume,
        ),
    )
    runners = {
        "fig1": lambda: exp.run_fig1(engine=engine),
        "fig6": exp.run_fig6,
        "fig7": lambda: exp.run_fig7(engine=engine),
        "fig8": lambda: exp.run_fig8(engine=engine),
        "fig9a": lambda: exp.run_fig9a(engine=engine),
        "fig9b": lambda: exp.run_fig9b(engine=engine),
        "fig10": lambda: exp.run_fig10(engine=engine),
        "fig11": lambda: exp.run_fig11(engine=engine),
        "fig12": lambda: exp.run_fig12(engine=engine),
        "table1": factors_table,
    }
    targets = _FIGURES if args.which == "all" else (args.which,)
    try:
        for target in targets:
            result = runners[target]()
            if target == "fig10":
                print("\n\n".join(panel.render() for panel in result))
            else:
                print(result.render())
            print()
            if args.save and target != "table1":
                from pathlib import Path

                from repro.core.persistence import save_result

                path = save_result(
                    result if target != "fig10" else list(result),
                    Path(args.save) / f"{target}.json",
                    metadata={"figure": target},
                )
                print(f"[saved {path}]")
    finally:
        engine.close()
    print(engine.stats.line())
    return 0


def _load_fault_plan(spec: str):
    """Parse ``--faults``: inline JSON or ``@path`` to a JSON file."""
    from repro.faults import FaultPlan

    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as handle:
            return FaultPlan.from_json(handle.read())
    return FaultPlan.from_json(spec)


def _run_config(args):
    """The workflow and runtime configuration ``repro run`` executes."""
    from repro.faults import CheckpointPolicy, RetryPolicy
    from repro.runtime import RuntimeConfig

    workflow = _make_workflow(args)
    storage = StorageKind.LOCAL if args.storage == "local" else StorageKind.SHARED
    policy = SchedulingPolicy(args.policy)
    fault_plan = _load_fault_plan(args.faults) if args.faults else None
    retry_policy = (
        RetryPolicy(
            max_attempts=args.max_attempts,
            recover_lost_blocks=args.recover,
        )
        if fault_plan is not None or args.recover
        else None
    )
    checkpoint_policy = (
        CheckpointPolicy(every_levels=args.checkpoint_every)
        if args.checkpoint_every is not None
        else None
    )
    config = RuntimeConfig(
        storage=storage,
        scheduling=policy,
        use_gpu=args.gpu,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        checkpoint_policy=checkpoint_policy,
    )
    return workflow, config


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    from repro.analysis import TraceSanitizerError
    from repro.runtime import Runtime
    from repro.tracing import (
        data_movement_metrics,
        fault_metrics,
        gantt,
        parallel_task_metrics,
        user_code_metrics,
    )

    workflow, config = _or_usage_error(parser, _run_config, args)
    runtime = Runtime(config)
    workflow.build(runtime)
    print(f"DAG: {runtime.graph.describe()}")
    try:
        result = runtime.run(sanitize=args.sanitize)
    except TraceSanitizerError as error:
        print(error.report.render())
        return 2
    if result.sanitizer is not None:
        print(result.sanitizer.render())
    print(f"makespan: {format_seconds(result.makespan)}")
    if config.fault_plan is not None:
        metrics = fault_metrics(result.trace)
        status = "FAILED" if result.failed else "recovered"
        print(
            f"faults: {status} — {metrics.num_failures} failed attempt(s), "
            f"{metrics.retried_tasks} task(s) retried, goodput "
            f"{metrics.goodput_ratio:.0%}"
        )
        if result.failed:
            shown = ", ".join(f"#{t}" for t in result.failed_task_ids[:10])
            print(f"failed tasks: {shown}")
    recovery = result.recovery_metrics
    if recovery.tasks_resurrected or recovery.checkpoint_writes:
        print(
            f"recovery: {recovery.blocks_lost} block(s) lost, "
            f"{recovery.tasks_resurrected} task(s) resurrected "
            f"({format_seconds(recovery.recompute_seconds)} recompute), "
            f"{recovery.checkpoint_writes} checkpoint write(s)"
        )

    table = Table(
        title="Task user code metrics (per-task averages)",
        headers=("task type", "tasks", "serial", "parallel", "comm", "user code"),
    )
    for task_type, metrics in user_code_metrics(result.trace).items():
        table.add_row(
            task_type,
            metrics.num_tasks,
            format_seconds(metrics.serial_fraction),
            format_seconds(metrics.parallel_fraction),
            format_seconds(metrics.cpu_gpu_comm),
            format_seconds(metrics.user_code),
        )
    print(table.render())
    movement = data_movement_metrics(result.trace)
    parallel = parallel_task_metrics(result.trace, set(workflow.parallel_task_types))
    print(
        f"(de-)serialization per core: "
        f"{format_seconds(movement.total_per_core)} over {movement.num_cores} cores"
    )
    print(
        f"parallel-task time (mean over levels): "
        f"{format_seconds(parallel.average_parallel_time)}"
    )
    if args.gantt:
        print()
        print(gantt(result.trace))
    return 1 if result.failed else 0


def _advise_cells(args) -> dict[int, CellSpec]:
    """One cell per ``--grids`` size, each workflow built once to check it."""
    try:
        grids = [int(grid) for grid in args.grids.split(",")]
    except ValueError:
        raise ValueError(
            f"--grids takes comma-separated integers, got {args.grids!r}"
        ) from None
    cells = {
        grid: CellSpec(args.algorithm, grid, dataset_key=args.dataset,
                       n_clusters=args.clusters)
        for grid in grids
    }
    for cell in cells.values():
        build_workflow(cell)
    return cells


def _cmd_advise(args, parser: argparse.ArgumentParser) -> int:
    from repro.core.advisor import WorkflowAdvisor

    cells = _or_usage_error(parser, _advise_cells, args)
    advisor = WorkflowAdvisor()
    recommendation = advisor.recommend(
        lambda grid: build_workflow(cells[grid]), grids=tuple(cells)
    )
    print(recommendation.render())
    best = recommendation.best
    print(f"\nrecommended: {best.label} "
          f"({format_seconds(best.parallel_task_time)})")
    return 0


def _cmd_observations() -> int:
    from repro.core import experiments as exp
    from repro.core import observations as obs

    print("running the figure subsets behind O1-O6 (takes a few minutes)...")
    kmeans7 = exp.run_fig7_for("kmeans", "kmeans_10gb", (256, 128, 64, 16, 4))
    fig8 = exp.run_fig8()
    fig9a = exp.run_fig9a(grids=(256, 64, 16))
    matmul10 = exp.run_fig10_for("matmul", "matmul_8gb", MATMUL_GRIDS)
    kmeans10 = exp.run_fig10_for("kmeans", "kmeans_10gb", KMEANS_GRIDS)
    checks = [
        obs.check_o1(kmeans7),
        obs.check_o2(kmeans7),
        obs.check_o3(fig8),
        obs.check_o4(fig9a),
        obs.check_o5(matmul10),
        obs.check_o5(kmeans10),
        obs.check_o6(kmeans10, matmul10),
    ]
    failed = 0
    for check in checks:
        print(check)
        failed += 0 if check.passed else 1
    return 1 if failed else 0


def _cmd_lint(args, parser: argparse.ArgumentParser) -> int:
    from repro.analysis import analyze
    from repro.runtime import Runtime, RuntimeConfig

    cluster = _or_usage_error(parser, cluster_presets()[args.preset], args.nodes)
    workflow = _or_usage_error(parser, _make_workflow, args)
    runtime = Runtime(RuntimeConfig(cluster=cluster, use_gpu=args.gpu))
    returned = workflow.build(runtime)
    report = analyze(runtime.graph, runtime.config, returned=returned)
    if args.format == "json":
        print(report.to_json())
    else:
        print(f"linting {workflow.name} on {runtime.graph.describe()}")
        print(report.render())
    return 1 if report.has_errors else 0


def _cmd_devlint(args) -> int:
    from repro.analysis import filter_new, lint_paths, load_baseline, save_baseline

    findings = lint_paths(args.paths)
    if args.write_baseline:
        if not args.baseline:
            print("devlint: --write-baseline requires --baseline FILE",
                  file=sys.stderr)
            return 2
        path = save_baseline(args.baseline, (f.fingerprint() for f in findings))
        print(f"devlint: wrote {len(findings)} fingerprint(s) to {path}")
        return 0
    baseline = load_baseline(args.baseline) if args.baseline else set()
    new, known = filter_new(findings, baseline)
    if args.format == "json":
        from repro.core.persistence import dumps_deterministic

        print(
            dumps_deterministic(
                {
                    "findings": [f.to_dict() for f in new],
                    "baselined": len(known),
                }
            ),
            end="",
        )
    else:
        for finding in new:
            print(finding.render())
        suffix = f" ({len(known)} baselined)" if baseline else ""
        print(f"devlint: {len(new)} new finding(s){suffix}")
    return 1 if new else 0


def _cmd_info() -> int:
    from repro.perfmodel.calibration import CALIBRATION_NOTES

    spec = minotauro()
    print(f"cluster: {spec.name}")
    print(f"  nodes: {spec.num_nodes}")
    print(f"  CPU: {spec.node.cpu.name}, {spec.node.cpu.cores_per_node} cores/node "
          f"({spec.total_cpu_cores} total)")
    print(f"  GPU: {spec.node.gpu.name}, {spec.node.gpu.devices_per_node}/node "
          f"({spec.total_gpus} total), "
          f"{spec.node.gpu.memory_bytes / 2**30:.0f} GiB each")
    print(f"  interconnect: {spec.node.interconnect.name}")
    print(f"  local disk: {spec.node.local_disk.name}")
    print(f"  shared disk: {spec.shared_disk.name}")
    print(f"  network: {spec.network.name}")
    print("\ncalibration:")
    for key, (value, why) in CALIBRATION_NOTES.items():
        print(f"  {key} = {value:g} — {why}")
    return 0


def _cmd_decompose(args, parser: argparse.ArgumentParser) -> int:
    from repro.runtime import Runtime, RuntimeConfig
    from repro.tracing import decompose_overheads

    workflow = _or_usage_error(parser, _make_workflow, args)
    storage = StorageKind.LOCAL if args.storage == "local" else StorageKind.SHARED
    runtime = Runtime(RuntimeConfig(storage=storage, use_gpu=args.gpu))
    workflow.build(runtime)
    result = runtime.run()
    breakdown = decompose_overheads(result.trace)
    print(breakdown.render())
    table = Table(
        title="Occupied core-seconds by category",
        headers=("category", "share"),
    )
    for name, share in (
        ("user-code compute", breakdown.compute_share),
        ("data movement ((de-)serialization)", breakdown.movement_share),
        ("CPU-GPU communication", breakdown.comm_share),
        ("scheduling", breakdown.scheduling_share),
        ("idle", breakdown.idle_share),
    ):
        table.add_row(name, f"{share:.1%}")
    print()
    print(table.render())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "figures":
        return _cmd_figures(args, parser)
    if args.command == "run":
        return _cmd_run(args, parser)
    if args.command == "advise":
        return _cmd_advise(args, parser)
    if args.command == "observations":
        return _cmd_observations()
    if args.command == "lint":
        return _cmd_lint(args, parser)
    if args.command == "devlint":
        return _cmd_devlint(args)
    if args.command == "info":
        return _cmd_info()
    if args.command == "decompose":
        return _cmd_decompose(args, parser)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
