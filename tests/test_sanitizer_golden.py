"""Sanitized golden runs: zero violations, bit-identical traces.

Two properties at once, over all 18 cells of the golden matrix:

* the executor obeys every dynamic invariant the sanitizer checks
  (happens-before, resource conservation, attempt legality, placement)
  on every covered code path — GPU pipelines, overflow-to-CPU, jittered
  wide DAGs, crashes, node death, stragglers;
* arming the sanitizer is observationally free: the digest of a
  sanitized run equals the recorded reference, so ``--sanitize`` can be
  turned on in CI without invalidating a single fixture.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runtime import Runtime
from repro.tracing import trace_digest
from tests.golden_matrix import golden_cases

FIXTURE_PATH = Path(__file__).parent / "golden" / "simulator_digests.json"

CASES = golden_cases()


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.key)
def test_sanitized_run_is_clean_and_bit_identical(case, recorded):
    runtime = Runtime(case.config)
    case.build(runtime)
    # Raises TraceSanitizerError on any violation.
    result = runtime.run(sanitize=True)
    assert result.sanitizer is not None
    assert result.sanitizer.ok
    assert result.sanitizer.violations == []
    assert result.sanitizer.events_checked == (
        len(result.trace.stages)
        + len(result.trace.tasks)
        + len(result.trace.attempts)
    )
    digest = trace_digest(result.trace, result.failed_task_ids)
    assert digest == recorded[case.key]["digest"], (
        f"{case.key}: sanitized run diverged from the recorded golden "
        "trace — the sanitizer must be read-only"
    )
