"""Table IV — comparison with multi-source adaptation foundation models.

Paper shape to reproduce: AimTS achieves higher Avg. ACC, better Avg. Rank and
far more Top-1 wins than MOMENT and UniTS style foundation models on both the
UCR-style and UEA-style suites.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table, run_once
from repro.evaluation import run_protocol


def _report(title, comparison):
    rows = [
        [method, stats["avg_acc"], stats["avg_rank"], int(stats["num_top1"])]
        for method, stats in sorted(comparison.summary.items(), key=lambda i: i[1]["avg_rank"])
    ]
    print_table(title, ["Method", "Avg. ACC", "Avg. Rank", "Num. Top-1"], rows)


@pytest.mark.benchmark(group="table4")
def test_table4_ucr_foundation_models(benchmark, aimts_model, foundation_baselines, ucr_suite, finetune_config):
    def experiment():
        return run_protocol(
            {"AimTS": aimts_model, **foundation_baselines},
            ucr_suite,
            protocol="multi_source",
            finetune_config=finetune_config,
        )

    comparison = run_once(benchmark, experiment)
    _report("Table IV (UCR-style suite): multi-source adaptation paradigm", comparison)

    summary = comparison.summary
    assert summary["AimTS"]["avg_acc"] >= max(
        summary["MOMENT"]["avg_acc"], summary["UniTS"]["avg_acc"]
    ) - 0.03
    assert summary["AimTS"]["avg_rank"] <= min(
        summary["MOMENT"]["avg_rank"], summary["UniTS"]["avg_rank"]
    )


@pytest.mark.benchmark(group="table4")
def test_table4_uea_foundation_models(benchmark, aimts_model, foundation_baselines, uea_suite, finetune_config):
    def experiment():
        return run_protocol(
            {"AimTS": aimts_model, **foundation_baselines},
            uea_suite,
            protocol="multi_source",
            finetune_config=finetune_config,
        )

    comparison = run_once(benchmark, experiment)
    _report("Table IV (UEA-style suite): multi-source adaptation paradigm", comparison)

    summary = comparison.summary
    assert summary["AimTS"]["avg_acc"] >= max(
        summary["MOMENT"]["avg_acc"], summary["UniTS"]["avg_acc"]
    ) - 0.05
