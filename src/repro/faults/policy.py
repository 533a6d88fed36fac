"""Retry and graceful-degradation policy for failed task attempts.

The runtime treats failure handling the way a production task-based
system (or a training/inference stack's preemption handler) does: a
failed attempt is retried up to ``max_attempts`` times with exponential
backoff, optionally jittered to avoid retry storms, and GPU tasks fall
back to CPU cores after a device failure so the workflow keeps moving.
A failed node simply leaves the cluster: its view reports no free slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RetryPolicy:
    """How the runtime recovers from injected (or emergent) failures.

    ``max_attempts`` counts every try including the first, so
    ``max_attempts=1`` disables retries entirely; a workflow whose fault
    plan kills anything then completes with ``failed=True`` (the analyzer
    warns about this combination as WF301).
    """

    #: Total tries per task (first attempt included).
    max_attempts: int = 3
    #: Backoff before the second attempt, in simulated seconds.
    backoff_base: float = 0.5
    #: Multiplier applied per further attempt (exponential backoff).
    backoff_factor: float = 2.0
    #: Upper bound of any single backoff delay.
    backoff_max: float = 60.0
    #: Fraction of the delay randomized symmetrically (0 = none); the
    #: jitter stream is seeded per (plan seed, task, attempt) so it is
    #: reproducible.
    backoff_jitter: float = 0.0
    #: After a runtime GPU OOM, retry the task on a CPU core.
    gpu_fallback_to_cpu: bool = True
    #: Lineage-based recovery: when a task's input block was lost with a
    #: failed node, resurrect the minimal set of committed ancestors that
    #: can recompute it instead of failing the consumer (off by default;
    #: the pre-recovery "dependencies lost" behaviour is preserved
    #: bit-for-bit when disabled).
    recover_lost_blocks: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max < 0:
            raise ValueError("backoff_max must be non-negative")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must be within [0, 1)")

    @property
    def retries_enabled(self) -> bool:
        """Whether a failed attempt gets another try at all."""
        return self.max_attempts > 1

    def backoff_delay(
        self,
        failed_attempt: int,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Delay before re-queueing after ``failed_attempt`` (1-based).

        ``rng`` supplies the jitter draw; pass a generator keyed by
        (seed, task, attempt) — e.g. :meth:`FaultPlan.rng_for` — to keep
        the delay reproducible.
        """
        if failed_attempt < 1:
            raise ValueError("failed_attempt is 1-based")
        delay = min(
            self.backoff_base * self.backoff_factor ** (failed_attempt - 1),
            self.backoff_max,
        )
        if self.backoff_jitter > 0.0 and rng is not None and delay > 0.0:
            delay *= 1.0 + self.backoff_jitter * (2.0 * float(rng.random()) - 1.0)
        return delay
