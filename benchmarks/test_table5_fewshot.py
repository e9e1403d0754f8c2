"""Table V — few-shot learning on 6 downstream datasets (5 % / 15 % / 20 % labels).

Paper shape to reproduce: AimTS achieves the highest average accuracy at every
label ratio, and its accuracy with 5 % of the labels approaches what the
foundation-model baselines need 15 % of the labels to reach.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table, run_once
from repro.data import load_dataset
from repro.data.archives import FEWSHOT_DATASETS
from repro.evaluation import run_protocol

RATIOS = (0.05, 0.15, 0.20)


@pytest.mark.benchmark(group="table5")
def test_table5_fewshot_learning(benchmark, aimts_model, foundation_baselines, finetune_config):
    datasets = [load_dataset(name, seed=3407, scale=1.0) for name in FEWSHOT_DATASETS]

    def experiment():
        return run_protocol(
            {"AimTS": aimts_model, **foundation_baselines},
            datasets,
            protocol="few_shot",
            ratios=RATIOS,
            finetune_config=finetune_config,
        )

    results = run_once(benchmark, experiment)

    methods = ["AimTS", "MOMENT", "UniTS"]
    columns = ["Dataset"] + [f"{m} @{int(r*100)}%" for r in RATIOS for m in methods]
    rows = []
    for dataset in datasets:
        row = [dataset.name]
        for ratio in RATIOS:
            for method in methods:
                row.append(results[ratio].accuracies[method][dataset.name])
        rows.append(row)
    average_row = ["Avg. ACC"]
    for ratio in RATIOS:
        for method in methods:
            average_row.append(results[ratio].summary[method]["avg_acc"])
    rows.append(average_row)
    print_table("Table V: few-shot learning (data ratios 5/15/20 %)", columns, rows)

    # shape assertions: AimTS has the best average accuracy at every ratio,
    # and AimTS@5% is competitive with the baselines at 15 %.
    for ratio in RATIOS:
        summary = results[ratio].summary
        best_baseline = max(summary["MOMENT"]["avg_acc"], summary["UniTS"]["avg_acc"])
        assert summary["AimTS"]["avg_acc"] >= best_baseline - 0.05, f"AimTS not best at ratio {ratio}"
    aimts_at_5 = results[0.05].summary["AimTS"]["avg_acc"]
    baselines_at_15 = max(
        results[0.15].summary["MOMENT"]["avg_acc"], results[0.15].summary["UniTS"]["avg_acc"]
    )
    assert aimts_at_5 >= baselines_at_15 - 0.15

    # more labels should not hurt AimTS on average
    assert results[0.20].summary["AimTS"]["avg_acc"] >= results[0.05].summary["AimTS"]["avg_acc"] - 0.05
