"""Fig. 8(d) — naive multi-source pre-training suffers negative transfer; AimTS does not.

The paper pre-trains TS2Vec on the merged UCR training sets and compares it
against (i) TS2Vec trained case-by-case and (ii) AimTS pre-trained on the same
merged corpus, on 5 downstream datasets.

Shape to reproduce: multi-source TS2Vec does *not* beat case-by-case TS2Vec on
average (negative transfer), while AimTS pre-trained on the same multi-source
corpus performs best.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import make_aimts_config, make_baseline_config, make_finetune_config, print_table, run_once
from repro.baselines import TS2Vec
from repro.core import AimTS
from repro.data import load_archive, load_dataset
from repro.utils.seeding import seed_everything

#: the five downstream datasets of Fig. 8(d) (AllGestureWiimoteZ, CricketY, Crop,
#: StarLightCurves, UWaveGestureLibraryAll in the paper)
FIG8D_DATASETS = (
    "AllGestureWiimoteZ",
    "CricketY",
    "Crop",
    "StarLightCurves",
    "UWaveGestureLibraryAll",
)


@pytest.mark.benchmark(group="fig8d")
def test_fig8d_negative_transfer(benchmark):
    finetune = make_finetune_config()
    datasets = [load_dataset(name, seed=3407) for name in FIG8D_DATASETS]
    corpus = load_archive("ucr", n_datasets=10, seed=3407)

    def experiment():
        seed_everything(3407)
        results = {}

        # (1) TS2Vec in the case-by-case paradigm
        case_by_case = {}
        for dataset in datasets:
            baseline = TS2Vec(make_baseline_config())
            baseline.pretrain(dataset.train.X, epochs=2)
            case_by_case[dataset.name] = baseline.fine_tune(dataset, finetune).accuracy
        results["TS2Vec (case-by-case)"] = case_by_case

        # (2) TS2Vec pre-trained on the merged multi-source UCR corpus
        multi_source = TS2Vec(make_baseline_config())
        multi_source.pretrain(corpus, max_samples=160, epochs=2)
        results["TS2Vec (UCR pre-train)"] = {
            dataset.name: multi_source.fine_tune(dataset, finetune).accuracy for dataset in datasets
        }

        # (3) AimTS pre-trained on the same multi-source corpus
        seed_everything(3407)
        aimts = AimTS(make_aimts_config())
        aimts.pretrain(corpus, max_samples=160)
        results["AimTS (UCR pre-train)"] = {
            dataset.name: aimts.fine_tune(dataset, finetune).accuracy for dataset in datasets
        }
        return results

    results = run_once(benchmark, experiment)

    methods = list(results)
    rows = [[name] + [results[m][name] for m in methods] for name in (d.name for d in datasets)]
    averages = {m: float(np.mean(list(results[m].values()))) for m in methods}
    rows.append(["Avg. ACC"] + [averages[m] for m in methods])
    print_table("Fig. 8(d): negative transfer of naive multi-source pre-training", ["Dataset"] + methods, rows)

    # shape: AimTS benefits from multi-source pre-training ...
    assert averages["AimTS (UCR pre-train)"] >= averages["TS2Vec (case-by-case)"] - 0.05
    # ... while naive multi-source pre-training gives TS2Vec no clear advantage
    assert averages["TS2Vec (UCR pre-train)"] <= averages["AimTS (UCR pre-train)"] + 0.02
    assert averages["TS2Vec (UCR pre-train)"] <= averages["TS2Vec (case-by-case)"] + 0.1
