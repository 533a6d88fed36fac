"""Unit tests for the sweep engine and its content-addressed cache."""

import json

import pytest

from repro.algorithms import (
    KMeansWorkflow,
    MatmulFmaWorkflow,
    MatmulWorkflow,
    SyntheticWorkflow,
)
from repro.core.experiments import engine as engine_module
from repro.core.experiments.cache import (
    SCHEMA,
    SweepCache,
    default_cache_dir,
    metrics_from_record,
    metrics_to_record,
)
from repro.core.experiments.engine import (
    CellSpec,
    SweepEngine,
    build_workflow,
    canonical_cell,
    cell_digest,
    cells_product,
    execute_cell,
    model_fingerprint,
)
from repro.core.shard import ShardTaskError
from repro.data import DatasetSpec
from repro.hardware import StorageKind
from repro.runtime import SchedulingPolicy


def small_cell(**overrides) -> CellSpec:
    defaults = dict(algorithm="kmeans", grid=4, dataset_key="kmeans_100mb",
                    n_clusters=10)
    defaults.update(overrides)
    return CellSpec(**defaults)


class TestCellSpec:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            CellSpec(algorithm="bogus", grid=4, dataset_key="kmeans_100mb")

    def test_rejects_both_dataset_forms(self):
        spec = DatasetSpec("inline", rows=10, cols=10)
        with pytest.raises(ValueError, match="exactly one"):
            CellSpec(
                algorithm="matmul", grid=4,
                dataset_key="matmul_128mb", dataset_spec=spec,
            )

    def test_rejects_neither_dataset_form(self):
        with pytest.raises(ValueError, match="exactly one"):
            CellSpec(algorithm="matmul", grid=4)

    def test_rejects_unknown_dataset_key(self):
        with pytest.raises(
            ValueError,
            match="unknown dataset_key 'nope'; known keys: kmeans_100gb, ",
        ):
            CellSpec(algorithm="matmul", grid=4, dataset_key="nope")

    def test_build_workflow_covers_all_algorithms(self):
        inline = DatasetSpec("inline", rows=1000, cols=10)
        assert isinstance(
            build_workflow(CellSpec("matmul", 4, dataset_key="matmul_128mb")),
            MatmulWorkflow,
        )
        assert isinstance(
            build_workflow(
                CellSpec("matmul_fma", 4, dataset_key="matmul_128mb")
            ),
            MatmulFmaWorkflow,
        )
        assert isinstance(
            build_workflow(small_cell()), KMeansWorkflow
        )
        assert isinstance(
            build_workflow(
                CellSpec(
                    "synthetic", 4, dataset_spec=inline, parallel_ratio=0.5
                )
            ),
            SyntheticWorkflow,
        )


class TestDigests:
    def test_digest_is_stable(self):
        assert cell_digest(small_cell()) == cell_digest(small_cell())

    def test_digest_distinguishes_fields(self):
        base = cell_digest(small_cell())
        assert cell_digest(small_cell(use_gpu=True)) != base
        assert cell_digest(small_cell(grid=8)) != base
        assert cell_digest(small_cell(storage=StorageKind.LOCAL)) != base
        assert (
            cell_digest(small_cell(scheduling=SchedulingPolicy.DATA_LOCALITY))
            != base
        )

    def test_canonical_cell_is_sorted_compact_json(self):
        text = canonical_cell(small_cell())
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True, separators=(",", ":"))

    def test_fingerprint_covers_workflows_and_metrics(self):
        """The cost formulas, the run and the cached metrics and trace
        digest all decide a cached record, so their modules' source is
        fingerprinted."""
        from repro.algorithms import (
            KMeansWorkflow,
            MatmulFmaWorkflow,
            SyntheticWorkflow,
        )
        from repro.algorithms.matmul import matmul_cost
        from repro.core.experiments import engine
        from repro.core.experiments.runners import run_workflow
        from repro.tracing import trace_digest, user_code_metrics

        for obj in (run_workflow, user_code_metrics, trace_digest,
                    matmul_cost, KMeansWorkflow, MatmulFmaWorkflow,
                    SyntheticWorkflow):
            assert obj.__module__ in engine._MODEL_MODULES, obj

    def test_calibration_perturbation_changes_digest(self, monkeypatch):
        """A runtime tweak of any calibration constant must invalidate
        every cached result — a stale hit would silently report figures
        from the old model."""
        from repro.perfmodel import calibration

        before = model_fingerprint()
        digest_before = cell_digest(small_cell())
        key = next(iter(calibration.CALIBRATION_NOTES))
        value, why = calibration.CALIBRATION_NOTES[key]
        monkeypatch.setitem(
            calibration.CALIBRATION_NOTES, key, (value * 1.01, why)
        )
        assert model_fingerprint() != before
        assert cell_digest(small_cell()) != digest_before

    def test_engine_misses_after_perturbation(self, tmp_path, monkeypatch):
        """No stale hit: a warmed cache is bypassed once a constant moves."""
        from repro.perfmodel import calibration

        cell = small_cell()
        warm = SweepEngine(jobs=1, cache_dir=tmp_path)
        warm.run_cells([cell])
        assert warm.stats.executed == 1

        key = next(iter(calibration.CALIBRATION_NOTES))
        value, why = calibration.CALIBRATION_NOTES[key]
        monkeypatch.setitem(
            calibration.CALIBRATION_NOTES, key, (value * 1.01, why)
        )
        perturbed = SweepEngine(jobs=1, cache_dir=tmp_path)
        perturbed.run_cells([cell])
        assert perturbed.stats.cache_hits == 0
        assert perturbed.stats.executed == 1
        # The old-fingerprint record was pruned as an eviction.
        assert perturbed.stats.evictions == 1


class TestRecordRoundtrip:
    def test_ok_metrics_roundtrip_exactly(self):
        metrics = execute_cell(small_cell())
        assert metrics.ok
        assert metrics.trace_digest
        record = metrics_to_record(metrics)
        rebuilt = metrics_from_record(json.loads(json.dumps(record)))
        assert rebuilt == metrics

    def test_oom_metrics_roundtrip_exactly(self):
        # 100 GB K-means at one block per node with 1000 clusters blows
        # the GPU; the OOM record (no user_code, no movement) must
        # round-trip too.
        metrics = execute_cell(
            CellSpec(
                algorithm="kmeans",
                grid=1,
                dataset_key="kmeans_100gb",
                n_clusters=1000,
                use_gpu=True,
            )
        )
        assert not metrics.ok
        assert metrics.error
        rebuilt = metrics_from_record(metrics_to_record(metrics))
        assert rebuilt == metrics


class TestSweepCache:
    def test_default_cache_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "sweeps"

    def test_put_get_discard(self, tmp_path):
        cache = SweepCache(tmp_path)
        digest = "ab" + "0" * 62
        record = {"fingerprint": "f", "metrics": {"x": 1}}
        path = cache.put(digest, record)
        assert path == tmp_path / "ab" / f"{digest}.json"
        loaded = cache.get(digest)
        assert loaded["schema"] == SCHEMA
        assert loaded["metrics"] == {"x": 1}
        assert len(cache) == 1
        cache.discard(digest)
        assert cache.get(digest) is None
        assert len(cache) == 0

    def test_get_tolerates_corruption(self, tmp_path):
        cache = SweepCache(tmp_path)
        digest = "cd" + "0" * 62
        cache.put(digest, {"fingerprint": "f"})
        cache.path_for(digest).write_text("{not json")
        assert cache.get(digest) is None

    def test_get_rejects_foreign_schema(self, tmp_path):
        cache = SweepCache(tmp_path)
        digest = "ef" + "0" * 62
        cache.path_for(digest).parent.mkdir(parents=True)
        cache.path_for(digest).write_text(json.dumps({"schema": "other/9"}))
        assert cache.get(digest) is None

    def test_prune_deletes_foreign_fingerprints(self, tmp_path):
        cache = SweepCache(tmp_path)
        keep = "aa" + "0" * 62
        drop = "bb" + "0" * 62
        cache.put(keep, {"fingerprint": "current"})
        cache.put(drop, {"fingerprint": "stale"})
        assert cache.prune("current") == 1
        assert cache.get(keep) is not None
        assert cache.get(drop) is None


class TestSweepEngine:
    def test_serial_engine_has_no_cache(self):
        engine = SweepEngine.serial()
        assert engine.jobs == 1
        assert engine.cache_dir is None

    def test_duplicates_execute_once(self, tmp_path):
        engine = SweepEngine(jobs=1, cache_dir=tmp_path)
        cell = small_cell()
        a, b = engine.run_cells([cell, small_cell()])
        assert engine.stats.executed == 1
        assert engine.stats.memo_hits == 1
        assert a == b
        # A later batch on the same engine also dedups.
        (c,) = engine.run_cells([cell])
        assert engine.stats.executed == 1
        assert c == a

    def test_warm_cache_does_zero_executions(self, tmp_path):
        cells = cells_product(
            "kmeans", (4, 2), dataset_key="kmeans_100mb", n_clusters=10
        )
        cold = SweepEngine(jobs=1, cache_dir=tmp_path)
        first = cold.run_cells(cells)
        assert cold.stats.executed == len(cells)

        warm = SweepEngine(jobs=1, cache_dir=tmp_path)
        second = warm.run_cells(cells)
        assert warm.stats.executed == 0
        assert warm.stats.misses == 0
        assert warm.stats.cache_hits == len(cells)
        assert first == second

    def test_parallel_matches_serial(self, tmp_path):
        cells = cells_product(
            "matmul", (4, 2), dataset_key="matmul_128mb"
        )
        serial = SweepEngine.serial().run_cells(cells)
        parallel = SweepEngine(jobs=4, cache=False).run_cells(cells)
        assert serial == parallel

    def test_results_align_with_input_order(self):
        cpu = small_cell()
        gpu = small_cell(use_gpu=True)
        results = SweepEngine.serial().run_cells([gpu, cpu, gpu])
        assert results[0].use_gpu and results[2].use_gpu
        assert not results[1].use_gpu
        assert results[0] == results[2]

    def test_stats_line_format(self):
        engine = SweepEngine.serial()
        engine.run_cells([small_cell(), small_cell()])
        line = engine.stats.line()
        assert line.startswith("[sweep] cells=2 hits=0 dedup=1 misses=1 ")
        assert "evictions=0" in line and "hit_rate=50%" in line

    def test_ledger_resume_skips_finished_cells(self, tmp_path):
        """The SIGKILL-recovery contract in miniature: the cache holds
        every cell a cut-short run finished, so running the sweep again
        answers exactly those from the cache and simulates the rest.  A
        repeated finished cell counts as dedup."""
        cells = cells_product(
            "kmeans", (4, 2), dataset_key="kmeans_100mb", n_clusters=10
        )
        finished, remaining = cells[:1], cells[1:]
        with SweepEngine(jobs=1, cache_dir=tmp_path) as partial:
            partial.run_cells(finished)

        batch = cells + finished
        with SweepEngine(jobs=1, cache_dir=tmp_path) as again:
            results = again.run_cells(batch)
            assert again.stats.cache_hits == len(finished)
            assert again.stats.memo_hits == len(finished)
            assert again.stats.executed == len(remaining)

        assert results == SweepEngine.serial().run_cells(batch)

    def test_resumed_digest_repeats_count_as_dedup(self, tmp_path):
        cell = small_cell()
        with SweepEngine(jobs=1, cache_dir=tmp_path) as partial:
            partial.run_cells([cell])
        with SweepEngine(jobs=1, cache_dir=tmp_path) as again:
            first, second = again.run_cells([cell, small_cell()])
            assert again.stats.cache_hits == 1
            assert again.stats.memo_hits == 1
            assert again.stats.executed == 0
        assert first == second

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_journal_is_open_then_pending_dispatched_done(self, tmp_path, jobs):
        cells = cells_product(
            "kmeans", (4,), dataset_key="kmeans_100mb", n_clusters=10
        )
        with SweepEngine(jobs=jobs, cache_dir=tmp_path) as engine:
            engine.run_cells(cells)
        events = [
            json.loads(line)
            for line in (tmp_path / "ledger.jsonl").read_text().splitlines()
        ]
        assert events[0]["state"] == "OPEN"
        assert events[0]["fingerprint"] == engine.fingerprint
        assert len(events) == 1 + 3 * len(cells)
        for cell in cells:
            digest = cell_digest(cell, engine.fingerprint)
            states = [e["state"] for e in events if e.get("item") == digest]
            assert states == ["PENDING", "DISPATCHED", "DONE"]
        # The cache holds the metrics; the journal does not repeat them.
        assert not any("record" in e for e in events)

    def test_serial_batch_persists_each_cell_as_it_finishes(
        self, tmp_path, monkeypatch
    ):
        """A serial batch cut short by an exception keeps every cell it
        already finished in the cache, as pool workers always have."""
        first, second = cells_product(
            "kmeans", (4,), dataset_key="kmeans_100mb", n_clusters=10
        )
        real_execute = engine_module.execute_cell

        def fail_on_second(spec):
            if spec == second:
                raise RuntimeError("cell crashed")
            return real_execute(spec)

        monkeypatch.setattr(engine_module, "execute_cell", fail_on_second)
        with SweepEngine(jobs=1, cache_dir=tmp_path) as engine:
            with pytest.raises(RuntimeError, match="cell crashed"):
                engine.run_cells([first, second])

        fingerprint = model_fingerprint()
        cache = SweepCache(tmp_path)
        record = cache.get(cell_digest(first, fingerprint))
        assert record is not None
        assert metrics_from_record(record["metrics"]) == execute_cell(first)
        assert cache.get(cell_digest(second, fingerprint)) is None

    def test_pool_batch_persists_every_cell_that_finishes(self, tmp_path):
        """A pool batch in which one cell raises keeps every other cell
        in the cache, and a second engine answers them from it."""
        good = cells_product(
            "kmeans", (4, 2), dataset_key="kmeans_100mb", n_clusters=10
        )
        bad = small_cell(grid=0)  # the workflow constructor refuses grid 0
        with SweepEngine(jobs=2, cache_dir=tmp_path) as engine:
            with pytest.raises(ShardTaskError, match="grid dimensions"):
                engine.run_cells(good[:2] + [bad] + good[2:])

        fingerprint = model_fingerprint()
        cache = SweepCache(tmp_path)
        for cell in good:
            assert cache.get(cell_digest(cell, fingerprint)) is not None
        assert cache.get(cell_digest(bad, fingerprint)) is None

        new = cells_product(
            "kmeans", (8,), dataset_key="kmeans_100mb", n_clusters=10
        )
        with SweepEngine(jobs=2, cache_dir=tmp_path) as again:
            results = again.run_cells(good + new)
            assert again.stats.cache_hits == len(good)
            assert again.stats.executed == len(new)
        assert results == SweepEngine.serial().run_cells(good + new)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_are_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            SweepEngine(jobs=jobs, cache=False)

    def test_cells_product_order_is_grid_major_cpu_first(self):
        cells = cells_product("matmul", (8, 4), dataset_key="matmul_128mb")
        assert [(c.grid, c.use_gpu) for c in cells] == [
            (8, False), (8, True), (4, False), (4, True),
        ]
