"""Memory and efficiency probes (Fig. 7c/d and Fig. 8a-c).

The paper measures maximum GPU memory and total fine-tuning + inference time.
On the CPU substrate we report the analogous quantities:

* ``parameter_count`` and ``parameter_bytes`` — model size (the bytes of the
  parameters as stored, so float32 models report half of float64 ones);
* ``activation_bytes`` — the measured peak of the fine-tuning
  :class:`~repro.nn.arena.StepArena`, which pools every forward activation
  and backward workspace of a training step (the quantity that dominates GPU
  memory in the paper's measurement);
* ``total_seconds`` — wall-clock time of fine-tuning plus inference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import FineTuneConfig
from repro.core.finetuner import FineTuner
from repro.data.dataset import TimeSeriesDataset
from repro.encoders import TSEncoder
from repro.nn.module import Module


@dataclass
class EfficiencyReport:
    """Resource usage of one fine-tuning + inference run."""

    method: str
    dataset: str
    parameter_count: int
    parameter_bytes: int
    activation_bytes: int
    total_seconds: float
    accuracy: float

    @property
    def memory_megabytes(self) -> float:
        """Parameters + activations, in MB (the Fig. 7c quantity)."""
        return (self.parameter_bytes + self.activation_bytes) / 1e6


def count_parameters(module: Module) -> int:
    """Number of scalar parameters in a module."""
    return module.num_parameters()


def measure_finetune_efficiency(
    encoder: TSEncoder,
    dataset: TimeSeriesDataset,
    *,
    method: str = "AimTS",
    finetune_config: FineTuneConfig | None = None,
) -> EfficiencyReport:
    """Fine-tune + run inference once, timing the whole procedure (Fig. 7d).

    Memory (Fig. 7c) is measured, not estimated: the parameters' ``nbytes``
    plus the fine-tuning step arena's peak, so ``finetune_config.step_arena``
    must be on.
    """
    config = finetune_config or FineTuneConfig(epochs=10, batch_size=8)
    if not config.step_arena:
        raise ValueError("measuring activation memory needs finetune_config.step_arena=True")
    finetuner = FineTuner(encoder, dataset.n_classes, config)
    start = time.perf_counter()
    finetuner.fit(dataset.train)
    predictions = finetuner.predict(dataset.test.X)
    elapsed = time.perf_counter() - start
    accuracy = float((predictions == dataset.test.y).mean())
    modules = (encoder, finetuner.classifier)
    return EfficiencyReport(
        method=method,
        dataset=dataset.name,
        parameter_count=sum(count_parameters(module) for module in modules),
        parameter_bytes=sum(p.data.nbytes for module in modules for p in module.parameters()),
        activation_bytes=finetuner.trainer.arena_stats()["peak_bytes"],
        total_seconds=elapsed,
        accuracy=accuracy,
    )


def scalability_sweep(
    build_encoder,
    dataset_factory,
    values: list,
    *,
    vary: str,
    finetune_config: FineTuneConfig | None = None,
) -> list[dict]:
    """Generic sweep helper for the Fig. 8 scalability study.

    Parameters
    ----------
    build_encoder:
        Callable ``value -> TSEncoder`` (for the parameter-count sweep) or a
        zero-argument callable returning a fresh encoder (other sweeps).
    dataset_factory:
        Callable ``value -> TimeSeriesDataset`` producing the workload for a
        sweep point.
    values:
        The sweep points (data sizes, lengths or parameter budgets).
    vary:
        Label of the swept factor, recorded in each result row.
    """
    rows = []
    for value in values:
        encoder = build_encoder(value) if _accepts_argument(build_encoder) else build_encoder()
        dataset = dataset_factory(value)
        report = measure_finetune_efficiency(
            encoder, dataset, method=f"{vary}={value}", finetune_config=finetune_config
        )
        rows.append(
            {
                "vary": vary,
                "value": value,
                "parameters": report.parameter_count,
                "memory_mb": report.memory_megabytes,
                "total_seconds": report.total_seconds,
                "accuracy": report.accuracy,
            }
        )
    return rows


def _accepts_argument(fn) -> bool:
    import inspect

    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return False
    return len(signature.parameters) >= 1
