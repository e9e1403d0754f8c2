"""Integration tests for the three evaluation protocols."""

from __future__ import annotations

import pytest

from repro.baselines import BaselineConfig, LinearClassifier, MomentLike, TS2Vec
from repro.core import AimTS, AimTSConfig, FineTuneConfig
from repro.data import load_pretraining_corpus
from repro.data.archives import make_dataset
from repro.evaluation import run_protocol


@pytest.fixture(scope="module")
def protocol_setup():
    """Shared pre-trained AimTS model, baselines and two small datasets."""
    config = AimTSConfig(
        repr_dim=12,
        proj_dim=6,
        hidden_channels=6,
        depth=1,
        panel_size=16,
        series_length=32,
        batch_size=8,
        epochs=1,
        seed=0,
    )
    model = AimTS(config)
    corpus = load_pretraining_corpus("monash", n_datasets=2, seed=0)
    model.pretrain(corpus, max_samples=16)

    datasets = [
        make_dataset("proto_ecg", "ecg", n_classes=2, n_train=12, n_test=16, length=32, seed=0),
        make_dataset("proto_dev", "device", n_classes=2, n_train=12, n_test=16, length=32, seed=1),
    ]
    finetune = FineTuneConfig(epochs=4, batch_size=8, classifier_hidden_dim=16, seed=0)
    baseline_config = BaselineConfig(
        repr_dim=12, proj_dim=6, hidden_channels=6, depth=1, series_length=32, batch_size=8, epochs=1, seed=0
    )
    return model, datasets, finetune, baseline_config


class TestCaseByCaseProtocol:
    def test_accuracies_for_all_methods_and_datasets(self, protocol_setup):
        model, datasets, finetune, baseline_config = protocol_setup
        baselines = {"TS2Vec": TS2Vec(baseline_config), "Linear": LinearClassifier()}
        comparison = run_protocol(
            {"AimTS": model, **baselines}, datasets, finetune_config=finetune, pretrain_kwargs={"epochs": 1}
        )
        assert set(comparison.accuracies) == {"AimTS", "TS2Vec", "Linear"}
        for per_dataset in comparison.accuracies.values():
            assert set(per_dataset) == {"proto_ecg", "proto_dev"}
            assert all(0.0 <= v <= 1.0 for v in per_dataset.values())
        assert set(comparison.summary["AimTS"]) == {"avg_acc", "avg_rank", "num_top1"}


class TestMultiSourceProtocol:
    def test_pretrained_baseline_comparison(self, protocol_setup):
        model, datasets, finetune, baseline_config = protocol_setup
        moment = MomentLike(baseline_config)
        moment.pretrain(load_pretraining_corpus("monash", n_datasets=2, seed=0), max_samples=12, epochs=1)
        comparison = run_protocol(
            {"AimTS": model, "MOMENT": moment}, datasets, protocol="multi_source", finetune_config=finetune
        )
        assert set(comparison.accuracies) == {"AimTS", "MOMENT"}

    def test_fewshot_protocol_returns_one_result_per_ratio(self, protocol_setup):
        model, datasets, finetune, baseline_config = protocol_setup
        moment = MomentLike(baseline_config)
        moment.pretrain(load_pretraining_corpus("monash", n_datasets=2, seed=0), max_samples=12, epochs=1)
        results = run_protocol(
            {"AimTS": model, "MOMENT": moment},
            datasets,
            protocol="few_shot",
            ratios=(0.25, 0.5),
            finetune_config=finetune,
        )
        assert set(results) == {0.25, 0.5}
        for comparison in results.values():
            assert "AimTS" in comparison.accuracies


class _RecordingEstimator:
    """Estimator stand-in that records its ``pretrain`` calls."""

    supports_pretraining = True

    def __init__(self, name, *, is_pretrained):
        self.name = name
        self.is_pretrained = is_pretrained
        self.pretrain_calls = 0

    def pretrain(self, corpus_or_X, **kwargs):
        self.pretrain_calls += 1
        self.is_pretrained = True

    def fine_tune(self, dataset, config=None, *, label_ratio=None):
        from repro.core.finetuner import FineTuneResult

        return FineTuneResult(dataset.name, 0.5, 0.5, 1, 0.0)


class TestRunProtocol:
    """The generic registry-driven protocol runner."""

    def test_estimators_resolvable_by_name_and_spec(self, protocol_setup):
        _, datasets, finetune, _ = protocol_setup
        comparison = run_protocol(
            {"Linear": "linear", "Rocket": {"name": "rocket", "n_kernels": 20, "seed": 0}},
            datasets,
            finetune_config=finetune,
        )
        assert set(comparison.accuracies) == {"Linear", "Rocket"}
        for per_dataset in comparison.accuracies.values():
            assert set(per_dataset) == {d.name for d in datasets}
            assert all(0.0 <= v <= 1.0 for v in per_dataset.values())

    def test_sequence_of_instances_keyed_by_display_name(self, protocol_setup):
        model, datasets, finetune, baseline_config = protocol_setup
        # the un-pretrained TS2Vec in a multi-source run without a corpus is
        # evaluated from random initialisation — run_protocol says so loudly
        with pytest.warns(UserWarning, match="not pre-trained"):
            comparison = run_protocol(
                [model, TS2Vec(baseline_config)],
                datasets,
                protocol="multi_source",
                finetune_config=finetune,
            )
        assert set(comparison.accuracies) == {"AimTS", "TS2Vec"}

    def test_case_by_case_pretrains_fresh_estimators_per_dataset(self, protocol_setup):
        _, datasets, finetune, baseline_config = protocol_setup
        baseline = TS2Vec(baseline_config)
        assert not baseline.is_pretrained
        run_protocol(baseline, datasets, protocol="case_by_case", finetune_config=finetune)
        assert baseline.is_pretrained

    def test_multi_source_pretrains_on_shared_corpus(self, protocol_setup):
        _, datasets, finetune, baseline_config = protocol_setup
        baseline = MomentLike(baseline_config)
        comparison = run_protocol(
            baseline,
            datasets,
            protocol="multi_source",
            pretrain_corpus="monash",
            pretrain_kwargs={"n_datasets": 2, "seed": 0, "max_samples": 10, "epochs": 1},
            finetune_config=finetune,
        )
        assert baseline.is_pretrained
        assert set(comparison.accuracies) == {"MOMENT"}

    def test_few_shot_returns_one_comparison_per_ratio(self, protocol_setup):
        model, datasets, finetune, _ = protocol_setup
        results = run_protocol(
            model,
            datasets,
            protocol="few_shot",
            ratios=(0.5,),
            finetune_config=finetune,
        )
        assert set(results) == {0.5}
        assert "AimTS" in results[0.5].accuracies

    def test_unknown_protocol_rejected(self, protocol_setup):
        model, datasets, _, _ = protocol_setup
        with pytest.raises(ValueError, match="unknown protocol"):
            run_protocol(model, datasets, protocol="zero_shot")

    def test_misdirected_arguments_rejected(self, protocol_setup):
        model, datasets, _, _ = protocol_setup
        with pytest.raises(ValueError, match="ratios"):
            run_protocol(model, datasets, protocol="few_shot", label_ratio=0.1)
        with pytest.raises(ValueError, match="corpus name"):
            run_protocol(
                model,
                datasets,
                protocol="multi_source",
                pretrain_corpus=datasets,
                pretrain_kwargs={"n_datasets": 2},
            )

    def test_archive_resolvable_by_name(self, protocol_setup):
        _, _, finetune, _ = protocol_setup
        comparison = run_protocol("linear", "ucr", finetune_config=finetune)
        assert len(comparison.accuracies["Linear"]) > 0

    def test_case_by_case_pretrains_only_fresh_estimators(self, protocol_setup):
        """A pre-trained estimator keeps its weights; one that enters
        un-pretrained is pre-trained once on each dataset's training split."""
        _, datasets, finetune, _ = protocol_setup
        aimts = _RecordingEstimator("AimTS", is_pretrained=True)
        fresh = _RecordingEstimator("Fresh", is_pretrained=False)
        run_protocol([aimts, fresh], datasets, finetune_config=finetune)
        assert aimts.pretrain_calls == 0
        assert fresh.pretrain_calls == len(datasets)
