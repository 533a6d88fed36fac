"""Nondeterminism devlint: each DLnnn rule catches its seeded bug class,
suppressions and baselines work, and repro's own source is clean modulo
the committed baseline."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    Severity,
    filter_new,
    lint_paths,
    lint_source,
    load_baseline,
    save_baseline,
)
from repro.analysis.analyzer import _CHECKS

REPO_ROOT = Path(__file__).resolve().parent.parent


def _lint(snippet: str):
    return lint_source(textwrap.dedent(snippet), path="snippet.py")


def _codes(findings) -> set[str]:
    return {f.code for f in findings}


class TestSetIteration:
    def test_dl001_local_set_variable(self):
        # The seeded mutation of the acceptance criteria: a scheduler
        # draining its ready set in hash order.
        findings = _lint(
            """
            def drain(dispatch):
                ready = {3, 1, 2}
                for task_id in ready:
                    dispatch(task_id)
            """
        )
        assert _codes(findings) == {"DL001"}
        [finding] = findings
        assert finding.symbol == "drain"
        assert finding.line == 4

    def test_dl001_attribute_set(self):
        findings = _lint(
            """
            class Scheduler:
                def __init__(self):
                    self._ready = set()

                def drain(self, dispatch):
                    for task_id in self._ready:
                        dispatch(task_id)
            """
        )
        assert _codes(findings) == {"DL001"}
        [finding] = findings
        assert finding.symbol == "Scheduler.drain"

    def test_dl001_set_literal_and_comprehension(self):
        findings = _lint(
            """
            def f(xs):
                return [x for x in {1, 2, 3}]
            """
        )
        assert _codes(findings) == {"DL001"}

    def test_dl001_set_algebra(self):
        findings = _lint(
            """
            def f(a):
                b = set(a)
                for x in b | {1}:
                    print(x)
            """
        )
        assert "DL001" in _codes(findings)

    def test_sorted_iteration_is_quiet(self):
        findings = _lint(
            """
            def drain(dispatch):
                ready = {3, 1, 2}
                for task_id in sorted(ready):
                    dispatch(task_id)
            """
        )
        assert findings == []

    def test_list_iteration_is_quiet(self):
        findings = _lint(
            """
            def drain(items, dispatch):
                for task_id in items:
                    dispatch(task_id)
            """
        )
        assert findings == []

    def test_set_name_does_not_leak_across_functions(self):
        findings = _lint(
            """
            def a():
                ready = {1}
                return ready

            def b(ready):
                for x in ready:
                    print(x)
            """
        )
        assert findings == []


class TestTieBreaks:
    def test_dl002_id_in_sort_key(self):
        findings = _lint(
            """
            def order(tasks):
                return sorted(tasks, key=lambda t: (t.priority, id(t)))
            """
        )
        assert _codes(findings) == {"DL002"}

    def test_dl002_id_in_heap_entry(self):
        findings = _lint(
            """
            import heapq

            def push(q, task):
                heapq.heappush(q, (task.priority, id(task), task))
            """
        )
        assert "DL002" in _codes(findings)

    def test_dl003_bare_heappush(self):
        findings = _lint(
            """
            import heapq

            def push(q, task):
                heapq.heappush(q, (task.priority, task))
            """
        )
        assert "DL003" in _codes(findings)

    def test_dl003_quiet_with_sequence_counter(self):
        findings = _lint(
            """
            import heapq

            def push(q, task, seq):
                heapq.heappush(q, (task.priority, next(seq), task))
            """
        )
        assert findings == []

    def test_dl003_non_tuple_entry(self):
        findings = _lint(
            """
            import heapq

            def push(q, task):
                heapq.heappush(q, task)
            """
        )
        assert _codes(findings) == {"DL003"}


class TestRandomAndClock:
    def test_dl004_module_global_rng(self):
        findings = _lint(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert _codes(findings) == {"DL004"}

    def test_dl004_unseeded_instance(self):
        findings = _lint(
            """
            import random

            def make_rng():
                return random.Random()
            """
        )
        assert _codes(findings) == {"DL004"}

    def test_seeded_rng_is_quiet(self):
        findings = _lint(
            """
            import random

            def make_rng(seed):
                return random.Random(seed)
            """
        )
        assert findings == []

    def test_dl005_wall_clock(self):
        findings = _lint(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert _codes(findings) == {"DL005"}

    def test_perf_counter_is_quiet(self):
        findings = _lint(
            """
            import time

            def measure():
                return time.perf_counter()
            """
        )
        assert findings == []


class TestUnboundedBlocking:
    def test_dl006_bare_queue_get(self):
        # The seeded bug class: a supervisor loop that can wedge forever
        # on a queue whose producer just died.
        findings = _lint(
            """
            def drain(result_queue):
                while True:
                    message = result_queue.get()
                    yield message
            """
        )
        assert _codes(findings) == {"DL006"}
        [finding] = findings
        assert finding.line == 4

    def test_dl006_attribute_queue_get(self):
        findings = _lint(
            """
            class Pool:
                def pump(self):
                    return self._result_queue.get()
            """
        )
        assert _codes(findings) == {"DL006"}

    def test_dl006_bare_process_join(self):
        findings = _lint(
            """
            def reap(worker):
                worker.process.join()
            """
        )
        assert _codes(findings) == {"DL006"}

    def test_timeouts_are_quiet(self):
        findings = _lint(
            """
            def pump(task_queue, process):
                item = task_queue.get(timeout=0.05)
                task_queue.get_nowait()
                process.join(5.0)
                return item
            """
        )
        assert findings == []

    def test_non_queue_non_process_receivers_are_quiet(self):
        # dict.get, str.join, and os.path.join share the method names but
        # none of them can block; the receiver heuristic must skip them.
        findings = _lint(
            """
            import os

            def lookup(config, parts):
                value = config.get("key")
                joined = ", ".join(parts)
                return os.path.join(value, joined)
            """
        )
        assert findings == []

    def test_dl006_inline_disable(self):
        findings = _lint(
            """
            def idle_worker(task_queue):
                return task_queue.get()  # repro: disable=DL006
            """
        )
        assert findings == []


class TestSuppressionAndBaseline:
    def test_inline_disable_one_code(self):
        findings = _lint(
            """
            def drain(dispatch):
                ready = {1, 2}
                for task_id in ready:  # repro: disable=DL001
                    dispatch(task_id)
            """
        )
        assert findings == []

    def test_inline_disable_all(self):
        findings = _lint(
            """
            import heapq

            def push(q, task):
                heapq.heappush(q, task)  # repro: disable=all
            """
        )
        assert findings == []

    def test_inline_disable_other_code_keeps_finding(self):
        findings = _lint(
            """
            def drain(dispatch):
                ready = {1, 2}
                for task_id in ready:  # repro: disable=DL005
                    dispatch(task_id)
            """
        )
        assert _codes(findings) == {"DL001"}

    def test_fingerprint_survives_line_drift(self):
        body = """
            def drain(dispatch):
                ready = {1, 2}
                for task_id in ready:
                    dispatch(task_id)
            """
        [before] = _lint(body)
        [after] = _lint("\n\n\n" + textwrap.dedent(body))
        assert before.line != after.line
        assert before.fingerprint() == after.fingerprint()
        assert before.fingerprint() == "snippet.py|DL001|drain"

    def test_baseline_roundtrip(self, tmp_path):
        findings = _lint(
            """
            def drain(dispatch):
                ready = {1, 2}
                for task_id in ready:
                    dispatch(task_id)
            """
        )
        path = tmp_path / "baseline.json"
        save_baseline(path, (f.fingerprint() for f in findings))
        baseline = load_baseline(path)
        new, known = filter_new(findings, baseline)
        assert new == []
        assert known == findings
        # Deterministic bytes: writing twice gives identical files.
        first = path.read_bytes()
        save_baseline(path, (f.fingerprint() for f in findings))
        assert path.read_bytes() == first

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "fingerprints": []}')
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)


class TestRepoIsClean:
    def test_repro_source_clean_modulo_baseline(self):
        findings = lint_paths(
            [REPO_ROOT / "src" / "repro"], root=REPO_ROOT
        )
        baseline = load_baseline(REPO_ROOT / "devlint-baseline.json")
        new, _known = filter_new(findings, baseline)
        assert new == [], "\n".join(f.render() for f in new)

    def test_lint_paths_is_deterministic(self):
        paths = [REPO_ROOT / "src" / "repro" / "analysis"]
        assert lint_paths(paths, root=REPO_ROOT) == lint_paths(
            paths, root=REPO_ROOT
        )


class TestRegistryMetadata:
    def test_devlint_codes_registered_but_not_workflow_rules(self):
        devlint_codes = {code for code in RULES if code.startswith("DL")}
        assert devlint_codes == {
            "DL001", "DL002", "DL003", "DL004", "DL005", "DL006",
        }
        checked = {check.__doc__.split()[0] for check in _CHECKS}
        assert devlint_codes.isdisjoint(checked)

    def test_specs_carry_summaries(self):
        for code in sorted(RULES):
            rule = RULES[code]
            assert rule.code == code
            assert rule.summary
            if code.startswith("DL"):
                assert rule.category == "determinism"
                assert rule.severity is Severity.WARNING
