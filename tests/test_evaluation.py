"""Tests for metrics, statistical ranking, protocols and efficiency probes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FineTuneConfig
from repro.data.archives import make_dataset
from repro.encoders import TSEncoder
from repro.evaluation import (
    ComparisonResult,
    accuracy_score,
    average_accuracy,
    average_rank,
    critical_difference,
    friedman_test,
    measure_finetune_efficiency,
    nemenyi_groups,
    num_top1,
    rank_matrix,
    render_cd_diagram,
    summarize_methods,
)
from repro.evaluation.efficiency import count_parameters, scalability_sweep
from repro.nn.tensor import default_dtype


@pytest.fixture
def toy_results():
    """Three methods over four datasets with a clear winner."""
    return {
        "Best": {"d1": 0.95, "d2": 0.90, "d3": 0.85, "d4": 0.99},
        "Middle": {"d1": 0.90, "d2": 0.85, "d3": 0.86, "d4": 0.90},
        "Worst": {"d1": 0.50, "d2": 0.55, "d3": 0.60, "d4": 0.65},
    }


class TestMetrics:
    def test_accuracy_score(self):
        assert accuracy_score(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            accuracy_score(np.array([0]), np.array([0, 1]))
        with pytest.raises(ValueError):
            accuracy_score(np.array([]), np.array([]))

    def test_average_accuracy(self, toy_results):
        avg = average_accuracy(toy_results)
        assert avg["Best"] == pytest.approx(0.9225)
        assert avg["Best"] > avg["Middle"] > avg["Worst"]

    def test_average_rank(self, toy_results):
        rank = average_rank(toy_results)
        assert rank["Best"] < rank["Middle"] < rank["Worst"]
        assert rank["Worst"] == pytest.approx(3.0)

    def test_average_rank_handles_ties(self):
        results = {"A": {"d1": 0.9, "d2": 0.8}, "B": {"d1": 0.9, "d2": 0.7}}
        rank = average_rank(results)
        assert rank["A"] == pytest.approx(1.25)
        assert rank["B"] == pytest.approx(1.75)

    def test_num_top1_excludes_ties(self):
        results = {
            "A": {"d1": 0.9, "d2": 0.8, "d3": 0.7},
            "B": {"d1": 0.9, "d2": 0.7, "d3": 0.6},
        }
        top1 = num_top1(results)
        assert top1["A"] == 2  # d1 is a tie, d2 and d3 are sole wins
        assert top1["B"] == 0

    def test_only_common_datasets_are_used(self):
        results = {"A": {"d1": 0.9, "d2": 0.8}, "B": {"d1": 0.5}}
        assert average_accuracy(results) == {"A": 0.9, "B": 0.5}

    def test_no_common_datasets_raises(self):
        with pytest.raises(ValueError):
            average_accuracy({"A": {"d1": 0.9}, "B": {"d2": 0.5}})

    def test_summarize_methods_keys(self, toy_results):
        summary = summarize_methods(toy_results)
        assert set(summary["Best"]) == {"avg_acc", "avg_rank", "num_top1"}


class TestRanking:
    def test_rank_matrix_shape(self, toy_results):
        methods, ranks = rank_matrix(toy_results)
        assert len(methods) == 3 and ranks.shape == (3, 4)
        np.testing.assert_allclose(ranks.sum(axis=0), np.full(4, 6.0))  # 1+2+3 per dataset

    def test_friedman_test_detects_differences(self, toy_results):
        outcome = friedman_test(toy_results)
        assert outcome["p_value"] < 0.1

    def test_friedman_two_methods_falls_back_to_wilcoxon(self):
        results = {
            "A": {f"d{i}": 0.9 - 0.01 * i for i in range(8)},
            "B": {f"d{i}": 0.7 - 0.01 * i for i in range(8)},
        }
        outcome = friedman_test(results)
        assert 0.0 <= outcome["p_value"] <= 1.0

    def test_critical_difference_grows_with_methods(self):
        assert critical_difference(8, 30) > critical_difference(3, 30)
        assert critical_difference(3, 10) > critical_difference(3, 100)
        with pytest.raises(ValueError):
            critical_difference(1, 10)
        with pytest.raises(ValueError):
            critical_difference(3, 10, alpha=0.01)

    def test_critical_difference_matches_demsar_table(self):
        # Demsar (2006): for k=8 methods and N=125 datasets CD ~ 0.94
        assert critical_difference(8, 125) == pytest.approx(0.94, abs=0.02)

    def test_nemenyi_groups_structure(self, toy_results):
        analysis = nemenyi_groups(toy_results)
        assert set(analysis) == {"average_ranks", "critical_difference", "groups"}
        assert analysis["critical_difference"] > 0

    def test_render_cd_diagram_contains_all_methods(self, toy_results):
        diagram = render_cd_diagram(toy_results)
        for method in toy_results:
            assert method in diagram
        assert "Critical difference" in diagram

    def test_rank_matrix_needs_two_datasets(self):
        with pytest.raises(ValueError):
            rank_matrix({"A": {"d1": 0.9}, "B": {"d1": 0.8}})


class TestComparisonResult:
    def test_summary_computed_automatically(self, toy_results):
        comparison = ComparisonResult(toy_results)
        assert comparison.best_method() == "Best"
        assert comparison.summary["Best"]["avg_acc"] > comparison.summary["Worst"]["avg_acc"]


class TestEfficiency:
    def test_count_parameters_matches_module(self):
        encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=1, rng=0)
        assert count_parameters(encoder) == encoder.num_parameters()

    def test_float32_parameter_bytes_are_the_parameters_nbytes(self):
        dataset = make_dataset("eff32", "ecg", n_classes=2, n_train=8, n_test=4, length=32, seed=0)
        with default_dtype(np.float32):
            encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=1, rng=0)
        report = measure_finetune_efficiency(
            encoder, dataset, method="unit", finetune_config=FineTuneConfig(epochs=1, seed=0)
        )
        assert report.parameter_bytes == report.parameter_count * np.dtype(np.float32).itemsize

    def test_measured_activation_bytes_grow_with_batch_and_length(self):
        def activation_bytes(batch_size, length):
            dataset = make_dataset(
                f"eff_{batch_size}_{length}", "ecg", n_classes=2, n_train=16, n_test=4,
                length=length, seed=0,
            )
            report = measure_finetune_efficiency(
                TSEncoder(hidden_channels=8, repr_dim=16, depth=1, rng=0),
                dataset,
                method="unit",
                finetune_config=FineTuneConfig(epochs=1, batch_size=batch_size, seed=0),
            )
            return report.activation_bytes

        small = activation_bytes(4, 48)
        assert small > 0
        assert activation_bytes(8, 48) > small
        assert activation_bytes(4, 96) > small

    def test_memory_measurement_needs_the_step_arena(self):
        dataset = make_dataset("eff_off", "ecg", n_classes=2, n_train=8, n_test=4, length=32, seed=0)
        encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=1, rng=0)
        before = {name: value.copy() for name, value in encoder.state_dict().items()}
        with pytest.raises(ValueError, match="step_arena"):
            measure_finetune_efficiency(
                encoder, dataset, finetune_config=FineTuneConfig(epochs=1, step_arena=False, seed=0)
            )
        for name, value in encoder.state_dict().items():
            assert np.array_equal(value, before[name]), f"{name} changed: the fit ran"

    def test_measure_finetune_efficiency_report(self):
        dataset = make_dataset("eff", "ecg", n_classes=2, n_train=12, n_test=12, length=48, seed=0)
        encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=1, rng=0)
        report = measure_finetune_efficiency(
            encoder, dataset, method="unit", finetune_config=FineTuneConfig(epochs=2, seed=0)
        )
        assert report.total_seconds > 0
        assert report.parameter_count > 0
        assert report.memory_megabytes > 0
        assert 0.0 <= report.accuracy <= 1.0

    def test_scalability_sweep_rows(self):
        def dataset_factory(value):
            return make_dataset(
                f"sweep_{value}", "ecg", n_classes=2, n_train=value, n_test=8, length=32, seed=0
            )

        rows = scalability_sweep(
            lambda: TSEncoder(hidden_channels=6, repr_dim=8, depth=1, rng=0),
            dataset_factory,
            [8, 16],
            vary="data_size",
            finetune_config=FineTuneConfig(epochs=1, seed=0),
        )
        assert len(rows) == 2
        assert rows[0]["vary"] == "data_size"
        assert all("total_seconds" in row for row in rows)
