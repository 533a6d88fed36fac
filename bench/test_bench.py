"""Tests of the benchmark itself: ``python -m pytest bench -q`` (toy sizes)."""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import harness
import layers
import run

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str):
    """Run the driver at toy sizes; return the process and its result line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--seconds", "0.5",
         *args],
        capture_output=True, text=True, timeout=120, check=False,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("kind,trace", [("end_to_end", "0"), ("per_layer", "1")])
def test_printed_names_are_declared(kind, trace):
    proc, result = bench("--workload", "paper", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    declared = {m["name"]: m["unit"] for m in run.SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = proc.stdout.split("  metric ", 1)[1].splitlines()[1:]
    printed = [line.split()[0] for line in table if line.startswith("  ")]
    assert printed == list(declared)
    assert all(NAME.fullmatch(name) for name in printed)


def test_tampered_digest_fails(tmp_path):
    expected = tmp_path / "expected.json"
    proc, _ = bench("--workload", "replay", "--record", "--expected", str(expected))
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(expected.read_text(encoding="utf-8"))
    op_id = next(iter(recorded["digests"]))
    recorded["digests"][op_id] = "0" * 64
    expected.write_text(json.dumps(recorded), encoding="utf-8")
    proc, result = bench("--workload", "replay", "--expected", str(expected))
    assert proc.returncode != 0
    assert result["failed"] > 0 and not result["correct"]


def test_self_time_on_synthetic_nested_spans():
    now = [0.0]

    def advance(seconds):
        now[0] += seconds

    tracer = layers.Tracer("synthetic", clock=lambda: now[0])

    def inner():
        advance(2.0)
        tracer.call("c", "leaf", False, advance, (0.5,))
        advance(1.0)

    def outer():
        advance(1.0)
        tracer.call("b", "inner", True, inner)
        advance(3.0)
        tracer.call("c", "leaf", False, advance, (0.25,))

    tracer.call(layers.BENCH, "timed", True, outer)
    assert tracer.inclusive["timed"] == 7.75
    assert tracer.own["timed"] == 4.0  # 7.75 - 3.5 (inner) - 0.25 (leaf)
    assert tracer.own["inner"] == 3.0  # 3.5 - 0.5 (leaf)
    assert tracer.layer_self("c") == 0.75
    assert tracer.coverage() == 1.0 - 4.0 / 7.75
    spans = {span.name: span for span in tracer.spans}
    assert set(spans) == {"timed", "inner"}  # leaves are summed, not kept
    assert spans["inner"].parent == spans["timed"].span_id
    assert spans["timed"].parent is None


@pytest.fixture(scope="module")
def traced():
    """Every workload traced once, in this process, at toy sizes."""
    harness.load_repro()
    before = layers.originals()
    results = {
        workload: harness.run(argparse.Namespace(
            workload=workload, seed=11, seconds=0.5, trace=1, quick=True))
        for workload in harness.WORKLOADS
    }
    return before, results


def test_trace_restores_every_entry_point(traced):
    before, _ = traced
    after = layers.originals()
    assert all(after[key] is value for key, value in before.items())


def test_traced_digests_equal_untraced(traced):
    _, results = traced
    for workload, result in results.items():
        digests = defaultdict(set)
        for op in result["ops"]:
            assert op["ok"], (workload, op)
            digests[op["op"]].add(op["digest"])
        disagree = [op for op, seen in digests.items() if len(seen) > 1]
        assert not disagree, (workload, disagree)


def test_each_entry_point_fires_where_mapped(traced):
    _, results = traced
    silent = [
        (entry.name, workload)
        for entry in layers.ENTRIES
        for workload in sorted(entry.fires_on)
        if not results[workload]["calls"].get(entry.name)
    ]
    assert not silent


def test_traced_layers_cover_the_timed_wall(traced):
    _, results = traced
    for workload, result in results.items():
        assert result["layers"]["trace.coverage"] > 0.95, workload
