"""Automated design, end to end (§5.4.3).

The paper's closing proposal: an automated method that tunes the
multiplicity of factors — e.g. predicts "the ideal block size to maximize
the efficiency of each processor".  This example assembles that method
from the library's parts:

1. run a factorial *training* design on the simulated cluster;
2. fit the learned performance model on the executed samples;
3. ask it (no further simulation) for the best block size for an unseen
   configuration;
4. validate the answer against the simulation search and the analytic
   Amdahl screen.

Run:  python examples/automated_design.py
"""

from repro import KMeansWorkflow, paper_datasets
from repro.core.advisor import WorkflowAdvisor
from repro.core.experiments import cells_product, run_fig11
from repro.core.predictor import PerformancePredictor, samples_from_columns
from repro.core.report import Table, format_seconds
from repro.hardware import StorageKind
from repro.runtime import SchedulingPolicy

TRAIN_GRIDS = (256, 96, 48, 24, 12, 6)
QUERY_GRIDS = (128, 32, 8, 2)


def training_design():
    """K-means samples the query grids are deliberately excluded from."""
    cells = []
    for dataset in ("kmeans_100mb", "kmeans_10gb"):
        cells += cells_product(
            "kmeans", TRAIN_GRIDS, dataset_key=dataset, n_clusters=10
        )
    return cells


def main():
    print("1. executing the training design on the simulated cluster...")
    design = run_fig11(training_design())
    print(f"   {design.n_samples} samples executed")

    print("2. fitting the learned performance model...")
    predictor = PerformancePredictor().fit(samples_from_columns(design.columns))
    report = predictor.evaluate(samples_from_columns(design.columns))
    print(f"   in-sample: {report.render()}")

    print("3. predicting the best block size for unseen grids (no simulation):")
    advisor = WorkflowAdvisor()
    datasets = paper_datasets()

    def family(grid):
        return KMeansWorkflow(
            datasets["kmeans_10gb"], grid_rows=grid, n_clusters=10, iterations=3
        )

    for use_gpu in (False, True):
        learned = advisor.recommend_learned(
            family, grids=QUERY_GRIDS, predictor=predictor, use_gpu=use_gpu
        )
        simulated = advisor.recommend(
            family,
            grids=QUERY_GRIDS,
            processors=(use_gpu,),
            storages=(StorageKind.SHARED,),
            policies=(SchedulingPolicy.GENERATION_ORDER,),
        )
        table = Table(
            title=f"{'GPU' if use_gpu else 'CPU'} ranking on unseen grids",
            headers=("rank", "grid (learned)", "predicted",
                     "grid (simulated)", "measured"),
        )
        sim_ranking = simulated.ranking()
        for rank, ((grid, predicted), candidate) in enumerate(
            zip(learned, sim_ranking), start=1
        ):
            table.add_row(
                rank,
                grid,
                format_seconds(predicted),
                candidate.grid,
                format_seconds(candidate.parallel_task_time),
            )
        print()
        print(table.render())
        agreement = "agrees" if learned[0][0] == sim_ranking[0].grid else "DIFFERS"
        print(f"   winner: learned model {agreement} with the simulation search")


if __name__ == "__main__":
    main()
