"""The repository benchmark: ``python3 bench/run.py [--workload W] [--seed N]``.

Runs each workload (all five unless ``--workload`` names one) in its own
fresh interpreter (``bench/harness.py``), checks every operation's trace
digest against ``bench/expected/``, and prints every metric named in
``BENCHMARK.json`` with its unit, median, quartiles and sample count.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 1`` is a separate run that reports the per-layer metrics
instead of the end-to-end ones and writes ``bench/out/trace-<W>.json``
(Chrome trace-event format, opens in Perfetto).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
#: Fresh-interpreter ``import repro`` timings that make up part of setup_s.
IMPORT_SAMPLES = 5
#: A workload process that outlives this is killed (runs must end in 180 s).
CHILD_TIMEOUT = 170.0

#: Times ``import repro`` in a fresh interpreter; refuses any ``repro``
#: that is not this checkout's.  NumPy, the one third-party package it
#: pulls in, is loaded first: its import swings by a factor of two with
#: host load and no change to this repository can move it.
_IMPORT_PROBE = """\
import pathlib, sys, time
import numpy
src = pathlib.Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
started = time.perf_counter()
import repro
elapsed = time.perf_counter() - started
if not pathlib.Path(repro.__file__).resolve().is_relative_to(src):
    sys.exit(3)
print(repr(elapsed))
"""


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _env() -> dict[str, str]:
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # A fixed string hash keeps dict and set layouts, and with them the
    # timings, alike from run to run; no result depends on it.
    return {**os.environ, "TMPDIR": str(tmp), "PYTHONHASHSEED": "0"}


def import_seconds(samples: int) -> list[float]:
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, env=_env(),
            check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import repro from {SRC}: "
                             f"{proc.stderr.strip()[-300:]}")
        out.append(float(proc.stdout))
    return out


def run_workload(workload: str, args) -> dict:
    """Start the workload's own interpreter and return its raw result."""
    command = [
        sys.executable, str(BENCH / "harness.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--quick"] if args.quick else [])
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=_env(), start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # The workload's own children (pool workers, warm passes) share
        # its process group; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if stdout is None:
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: workload process exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ correctness


def load_expected(path: Path | None) -> dict[str, str]:
    """Recorded digests by operation id (all files, or just ``path``)."""
    files = [path] if path is not None else sorted(EXPECTED.glob("*.json"))
    digests: dict[str, str] = {}
    for file in files:
        if file.exists():
            digests.update(json.loads(file.read_text(encoding="utf-8"))["digests"])
    return digests


def check(ops: list[dict], expected: dict[str, str]) -> tuple[int, list[str]]:
    """Failed operation count, plus notes on what could not be checked.

    An operation fails if it raised or its own checks failed, or if its
    digest differs from the recorded one.  An operation without a
    recording must agree with every other pass's run of it.
    """
    failed = 0
    seen: dict[str, list[str]] = defaultdict(list)
    for op in ops:
        if op["ok"]:
            seen[op["op"]].append(op["digest"])
        else:
            failed += 1
            print(f"  FAILED {op['op'][:100]}: {op.get('error', 'check failed')}")
    unrecorded = single = 0
    for op_id, digests in seen.items():
        want = expected.get(op_id)
        if want is None:
            unrecorded += 1
            single += len(digests) == 1
            want = digests[0]
        bad = sum(d != want for d in digests)
        if bad:
            print(f"  MISMATCH {op_id[:100]}: {bad} of {len(digests)} runs")
        failed += bad
    notes = []
    if unrecorded:
        notes.append(
            f"{unrecorded} operations have no recorded digest for this seed "
            f"and size; checked that passes agree ({single} ran once)"
        )
    return failed, notes


# ---------------------------------------------------------------- metrics


def samples_of(raw: dict, imports: list[float], trace: bool) -> dict[str, list]:
    """Per-metric samples of one workload run."""
    if trace:
        values = {**raw["layers"], "process.import_s": statistics.median(imports)}
        return {name: [value] for name, value in values.items()}
    passes = raw["passes"]
    imported = statistics.median(imports)
    return {
        "wall_s": [p["wall"] for p in passes],
        "tasks_per_s": [p["tasks"] / p["wall"] for p in passes],
        "setup_s": [imported + p["setup"] for p in passes],
        "peak_rss_mb": [raw["peak_rss_mb"]],
    }


def summarise(workload: str, raw: dict, imports: list[float], args,
              expected: dict[str, str]) -> dict:
    specs = SPEC["per_layer" if args.trace else "end_to_end"]
    samples = samples_of(raw, imports, args.trace)
    names = [m["name"] for m in specs]
    if sorted(samples) != sorted(names):
        raise BenchError(f"{workload}: metrics {sorted(samples)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    failed, notes = check(raw["ops"], expected)
    metrics = {}
    for spec in specs:
        values = samples[spec["name"]]
        metrics[spec["name"]] = {
            "value": statistics.median(values), "unit": spec["unit"],
            "samples": values,
        }
    return {"attempted": len(raw["ops"]), "failed": failed,
            "correct": failed == 0, "notes": notes, "metrics": metrics,
            "digests": {op["op"]: op["digest"] for op in raw["ops"] if op["ok"]}}


def print_table(workload: str, result: dict, args) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  operations {attempted}  "
          f"failed {failed}  failed_ratio {failed / attempted:.4g}")
    for note in result["notes"]:
        print(f"  note: {note}")
    print(f"  {'metric':<30} {'unit':<6} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>4}")
    for name, metric in result["metrics"].items():
        q1, median, q3 = quartiles(metric["samples"])
        print(f"  {name:<30} {metric['unit']:<6} {median:>14.6g} {q1:>14.6g} "
              f"{q3:>14.6g} {len(metric['samples']):>4}")


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def write_results(path: Path, results: dict, args) -> None:
    payload = {
        "schema": "bench-results/1",
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "quick": args.quick,
        "workloads": {
            w: {k: v for k, v in r.items() if k != "digests"}
            for w, r in results.items()
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def record(path: Path, results: dict, seed: int) -> None:
    """Store this run's digests as the expected ones (``--record``)."""
    existing = load_expected(path) if path.exists() else {}
    for result in results.values():
        existing.update(result["digests"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "digests": dict(sorted(existing.items()))},
                               indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(existing)} digests in {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run instead")
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes (for the benchmark's own tests)")
    parser.add_argument("--expected", type=Path,
                        help="digest file to check against and --record into "
                             "(default: every file in bench/expected/)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the expected ones")
    parser.add_argument("--out", type=Path, help="write all samples as JSON")
    args = parser.parse_args(argv)

    workloads = (args.workload,) if args.workload else WORKLOADS
    expected = load_expected(args.expected)
    results = {}
    try:
        imports = import_seconds(1 if args.quick else IMPORT_SAMPLES)
        for workload in workloads:
            raw = run_workload(workload, args)
            results[workload] = summarise(workload, raw, imports, args, expected)
            print_table(workload, results[workload], args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results.values())
    if args.record:
        if not correct:
            print("bench: not recording digests of a failed run", file=sys.stderr)
            return 1
        record(args.expected or EXPECTED / f"seed-{args.seed}.json", results,
               args.seed)
    if args.out is not None:
        write_results(args.out, results, args)

    def public(metrics: dict) -> dict:
        return {n: {"value": m["value"], "unit": m["unit"]}
                for n, m in metrics.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (public(results[args.workload]["metrics"]) if args.workload
                    else {w: public(r["metrics"]) for w, r in results.items()}),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
