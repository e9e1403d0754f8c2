"""Table I + Fig. 6 — AimTS vs. representation-learning baselines (case-by-case).

Paper shape to reproduce: AimTS, pre-trained once on the multi-source corpus,
achieves the best Avg. ACC and best (lowest) Avg. Rank on both the univariate
(UCR-style) and multivariate (UEA-style) suites, compared with contrastive
representation-learning baselines trained case-by-case on each dataset.
The CD diagram of Fig. 6 is rendered in text form.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import make_baseline_config, print_table, run_once
from repro.baselines import SimCLR, TLoss, TNC, TS2Vec, TSTCC
from repro.evaluation import render_cd_diagram, run_protocol

BASELINE_CLASSES = {
    "TS2Vec": TS2Vec,
    "TS-TCC": TSTCC,
    "T-Loss": TLoss,
    "TNC": TNC,
    "SimCLR": SimCLR,
}


def _build_baselines():
    return {name: cls(make_baseline_config()) for name, cls in BASELINE_CLASSES.items()}


def _report(title: str, comparison) -> None:
    rows = [
        [method, stats["avg_acc"], stats["avg_rank"], int(stats["num_top1"])]
        for method, stats in sorted(
            comparison.summary.items(), key=lambda item: item[1]["avg_rank"]
        )
    ]
    print_table(title, ["Method", "Avg. ACC", "Avg. Rank", "Num. Top-1"], rows)
    print(render_cd_diagram(comparison.accuracies))


@pytest.mark.benchmark(group="table1")
def test_table1_ucr_archive(benchmark, aimts_model, ucr_suite, finetune_config):
    """Table I (upper block): UCR-style univariate suite."""

    def experiment():
        return run_protocol(
            {"AimTS": aimts_model, **_build_baselines()},
            ucr_suite,
            finetune_config=finetune_config,
            pretrain_kwargs={"epochs": 2},
        )

    comparison = run_once(benchmark, experiment)
    _report("Table I (UCR-style suite): representation learning methods", comparison)

    summary = comparison.summary
    best_baseline_acc = max(v["avg_acc"] for k, v in summary.items() if k != "AimTS")
    assert summary["AimTS"]["avg_acc"] >= best_baseline_acc - 0.05, (
        "AimTS should be at least competitive with the best case-by-case baseline"
    )
    assert summary["AimTS"]["avg_rank"] <= min(
        v["avg_rank"] for k, v in summary.items() if k != "AimTS"
    ) + 1.0


@pytest.mark.benchmark(group="table1")
def test_table1_uea_archive(benchmark, aimts_model, uea_suite, finetune_config):
    """Table I (lower block): UEA-style multivariate suite."""

    def experiment():
        return run_protocol(
            {"AimTS": aimts_model, **_build_baselines()},
            uea_suite,
            finetune_config=finetune_config,
            pretrain_kwargs={"epochs": 2},
        )

    comparison = run_once(benchmark, experiment)
    _report("Table I (UEA-style suite): representation learning methods", comparison)

    summary = comparison.summary
    best_baseline_acc = max(v["avg_acc"] for k, v in summary.items() if k != "AimTS")
    assert summary["AimTS"]["avg_acc"] >= best_baseline_acc - 0.05
