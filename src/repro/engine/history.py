"""Structured per-epoch training history shared by every loop in the repo.

One :class:`History` instance records the engine's epoch-end metric logs as
named curves.  ``FineTuner.fit`` and ``SelfSupervisedBaseline.pretrain``
return its ``"loss"`` curve, a plain ``list[float]``;
:class:`~repro.core.pretrainer.PretrainHistory` is an attribute-access view
over it.
"""

from __future__ import annotations


class History:
    """Named per-epoch metric curves with a structured summary.

    Metrics are appended one epoch at a time from the trainer's epoch logs;
    every value is stored as a plain Python float so histories serialize
    losslessly through the JSON checkpoint manifest (``repr`` round-trip).
    """

    def __init__(self, metrics: dict[str, list[float]] | None = None):
        self.metrics: dict[str, list[float]] = {
            key: [float(v) for v in values] for key, values in (metrics or {}).items()
        }

    def append(self, logs: dict[str, float]) -> None:
        """Record one epoch of metric values."""
        for key, value in logs.items():
            self.metrics.setdefault(key, []).append(float(value))

    def curve(self, name: str) -> list[float]:
        """The per-epoch values of one metric (empty list if never logged)."""
        return self.metrics.setdefault(name, [])

    def last(self) -> dict[str, float]:
        """Final-epoch value of every metric (empty dict if no epoch ran)."""
        return {key: values[-1] for key, values in self.metrics.items() if values}

    def clear(self) -> None:
        """Drop every recorded epoch (used when a checkpoint is restored)."""
        self.metrics.clear()

    def load(self, metrics: dict[str, list[float]]) -> "History":
        """Replace the recorded curves (checkpoint restore path)."""
        self.metrics.clear()
        for key, values in metrics.items():
            self.metrics[key] = [float(v) for v in values]
        return self

    def __len__(self) -> int:
        """Number of recorded epochs (longest curve)."""
        return max((len(values) for values in self.metrics.values()), default=0)

    def __contains__(self, name: str) -> bool:
        return name in self.metrics

    def __getitem__(self, name: str) -> list[float]:
        return self.metrics[name]

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}[{len(values)}]" for key, values in self.metrics.items())
        return f"History({inner})"

