"""Block-access race rules (``WF4xx``): static data-hazard detection.

The executor moves blocks, not just tasks: every output ref is a block
with one authoritative replica (homed where its producer ran), node
faults destroy replicas, lineage recovery resurrects producers, and the
checkpoint policy clones blocks to shared storage.  Each of those
mechanisms is individually deterministic, but their *compositions* can
race on a block id.  These rules find the hazard classes statically,
from the DAG plus the fault/recovery configuration alone:

* **WF402** — read-after-free: a lineage walk triggered by a lost block
  can reach a producer whose retries a crash plan provably exhausts; the
  consumer then reads a block that can never exist again.
* **WF404** — a checkpoint policy restricted to task types the graph
  does not contain protects nothing (a typo silently disables it).

Both stay quiet on the golden-trace matrix
(``tests/golden_matrix.py``), whose fault cells retry without lineage
recovery or checkpoints — the interplay tests pin that down.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import RuleContext, _grouped, _ids
from repro.faults import FaultPlan
from repro.runtime.task import Task


def _crash_exhausts_retries(plan: FaultPlan, max_attempts: int, task: Task) -> bool:
    """Whether the crash plan provably fails ``task`` permanently.

    True when the plan crashes every attempt the retry budget allows,
    asked attempt by attempt through the query the executor makes, so
    split crash entries and the seeded crash stream count too: the task
    cannot ever commit, no matter how the schedule unfolds.
    """
    return all(
        plan.crash_stage_for(task.task_id, task.name, attempt) is not None
        for attempt in range(1, max_attempts + 1)
    )


def check_read_after_free(ctx: RuleContext) -> list[Diagnostic]:
    """WF402 — lineage recovery can walk into a permanently failed producer.

    With ``recover_lost_blocks=True`` a node fault marks resident blocks
    lost; when a consumer of a lost block is dispatched, the executor
    walks the lineage backwards to resurrect producers.  If that walk
    reaches a producer whose retries a crash plan provably exhausts, the
    block can never be recomputed: the consumer reads-after-free and
    fails, cascading to its dependents.  Checkpointed producers are safe
    — the durable copy terminates the walk before the doomed task.
    """
    plan = ctx.config.fault_plan
    policy = ctx.retry_policy
    if plan is None or not plan.node_faults:
        return []  # no node death, no lost blocks, no lineage walk
    if not policy.recover_lost_blocks:
        return []  # recovery off: losses fail fast, nothing resurrects
    checkpoint = ctx.config.checkpoint_policy
    levels = ctx.graph.levels()
    consumed = {
        ref.ref_id for task in ctx.graph.tasks() for ref in task.inputs
    }
    doomed = []
    for task in ctx.graph.tasks():
        if not any(ref.ref_id in consumed for ref in task.outputs):
            continue  # nothing downstream ever walks into this producer
        if not _crash_exhausts_retries(plan, policy.max_attempts, task):
            continue
        if checkpoint is not None and checkpoint.applies(
            task.name, levels[task.task_id]
        ):
            continue  # durable copy terminates the lineage walk
        doomed.append(task)
    findings = []
    for name, tasks in _grouped(doomed).items():
        findings.append(
            Diagnostic(
                code="WF402",
                message=(
                    f"{len(tasks)} {name!r} producer task(s) are crashed on "
                    "every allowed attempt while node faults plus "
                    "recover_lost_blocks=True can send a lineage walk "
                    "through them; consumers of their blocks read-after-free "
                    "and fail permanently"
                ),
                task_ids=_ids(tasks),
                task_type=name,
                hint="raise max_attempts past the crash plan, drop the "
                "crash entries, or checkpoint the producer's task type",
            )
        )
    return findings


def check_checkpoint_types_exist(ctx: RuleContext) -> list[Diagnostic]:
    """WF404 — the checkpoint policy names task types the graph lacks.

    ``CheckpointPolicy(task_types={...})`` restricted to names that no
    task carries persists nothing: recovery then walks the full lineage
    exactly as if checkpointing were off, which is almost certainly a
    typo rather than an intent.
    """
    checkpoint = ctx.config.checkpoint_policy
    if checkpoint is None or not checkpoint.task_types:
        return []
    wanted = checkpoint.task_types
    present = {task.name for task in ctx.graph.tasks()}
    missing = sorted(set(wanted) - present)
    if not missing:
        return []
    shown = ", ".join(repr(name) for name in missing)
    return [
        Diagnostic(
            code="WF404",
            message=(
                f"checkpoint policy names task type(s) {shown} that the "
                "workflow does not contain"
                + (
                    "; no block is ever checkpointed"
                    if len(missing) == len(wanted)
                    else ""
                )
            ),
            hint="fix the type names (see TaskGraph task names) or drop "
            "task_types to checkpoint every type",
        )
    ]
