"""The paper's evaluation protocols behind one generic runner.

:func:`run_protocol` evaluates any set of registered estimators — given by
name, spec dict or instance — on any archive (given by name or as a dataset
list) under one of the three paper paradigms:

* ``"case_by_case"`` — estimators with a pre-training stage that enter the
  protocol un-pretrained are pre-trained on each downstream dataset's own
  training split (paradigms 1/2 of Fig. 1, Tables I–III); already
  pre-trained estimators (e.g. a multi-source AimTS) are only fine-tuned.
* ``"multi_source"`` — every pre-trainable estimator is pre-trained once on
  a shared corpus and fine-tuned per dataset (Table IV, Fig. 8d).
* ``"few_shot"`` — the multi-source protocol repeated per label ratio
  (Table V).

Results carry ``{method: {dataset: accuracy}}`` dictionaries
(``ComparisonResult.accuracies``) that plug directly into
:mod:`repro.evaluation.metrics` and :mod:`repro.evaluation.ranking`.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.config import FineTuneConfig
from repro.data.dataset import TimeSeriesDataset
from repro.evaluation.metrics import summarize_methods

PROTOCOLS = ("case_by_case", "multi_source", "few_shot")


@dataclass
class ComparisonResult:
    """Raw per-dataset accuracies plus the paper-style summary metrics."""

    accuracies: dict[str, dict[str, float]]
    summary: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.summary:
            self.summary = summarize_methods(self.accuracies)

    def best_method(self) -> str:
        """Method with the highest average accuracy."""
        return max(self.summary, key=lambda m: self.summary[m]["avg_acc"])


# --------------------------------------------------------------- resolution
def _resolve_estimators(estimators) -> dict[str, object]:
    """Normalise names / spec dicts / instances into ``{display_name: estimator}``."""
    from repro.api.registry import make_estimator

    def build(item):
        if isinstance(item, (str, Mapping)):
            return make_estimator(item)
        return item

    # a mapping is a single spec dict only when its "name" entry is a registry
    # key; {"name": <estimator instance>, ...} is a display-name mapping
    if isinstance(estimators, Mapping) and not isinstance(estimators.get("name"), str):
        return {name: build(item) for name, item in estimators.items()}
    if isinstance(estimators, (str, Mapping)) or not isinstance(estimators, Sequence):
        estimators = [estimators]
    resolved = {}
    for item in estimators:
        built = build(item)
        display = getattr(built, "name", type(built).__name__)
        if display in resolved:
            raise ValueError(f"duplicate estimator display name {display!r}")
        resolved[display] = built
    return resolved


def _resolve_datasets(archive) -> list[TimeSeriesDataset]:
    """Normalise an archive name / dataset / dataset list into a list."""
    from repro.data import load_archive

    if isinstance(archive, str):
        return load_archive(archive)
    if isinstance(archive, TimeSeriesDataset):
        return [archive]
    return list(archive)


def _resolve_corpus(pretrain_corpus, corpus_kwargs: dict):
    from repro.data import load_pretraining_corpus

    if isinstance(pretrain_corpus, str):
        return load_pretraining_corpus(pretrain_corpus, **corpus_kwargs)
    return pretrain_corpus


# ------------------------------------------------------------------- engine
def _unpretrained(estimators: dict[str, object]) -> list[str]:
    """Names of the estimators with a pre-training stage that has not run."""
    return [
        name
        for name, estimator in estimators.items()
        if estimator.supports_pretraining and not getattr(estimator, "is_pretrained", False)
    ]


def _run_comparison(
    estimators: dict[str, object],
    datasets: list[TimeSeriesDataset],
    *,
    case_by_case: bool,
    finetune_config: FineTuneConfig | None,
    label_ratio: float | None,
    pretrain_kwargs: dict,
    verbose: bool,
    tag: str,
) -> ComparisonResult:
    """Shared fine-tune/evaluate loop for every protocol flavour.

    ``case_by_case`` re-pretrains, per dataset, every estimator that supports
    pre-training and entered the protocol un-pretrained (snapshot taken up
    front, so a pre-trained AimTS keeps its multi-source weights).
    """
    pretrain_per_dataset = set(_unpretrained(estimators)) if case_by_case else set()
    accuracies: dict[str, dict[str, float]] = {}
    for name, estimator in estimators.items():
        accuracies[name] = {}
        for dataset in datasets:
            if name in pretrain_per_dataset:
                estimator.pretrain(dataset.train.X, **pretrain_kwargs)
            result = estimator.fine_tune(dataset, finetune_config, label_ratio=label_ratio)
            accuracies[name][dataset.name] = result.accuracy
            if verbose:
                print(f"[{tag}] {name} on {dataset.name}: {result.accuracy:.3f}")
    return ComparisonResult(accuracies)


def run_protocol(
    estimators,
    archive,
    *,
    protocol: str = "case_by_case",
    pretrain_corpus=None,
    finetune_config: FineTuneConfig | None = None,
    label_ratio: float | None = None,
    ratios: tuple[float, ...] = (0.05, 0.15, 0.20),
    pretrain_kwargs: dict | None = None,
    verbose: bool = False,
):
    """Evaluate estimators on an archive under one paper protocol.

    Parameters
    ----------
    estimators:
        A registry name (``"rocket"``), a spec dict (``{"name": "ts2vec",
        "repr_dim": 32}``), an estimator instance, a sequence of any of
        those, or a ``{display_name: name_or_spec_or_instance}`` mapping.
    archive:
        An archive name (``"ucr"``, ``"uea"``), one dataset, or a dataset
        list.
    protocol:
        ``"case_by_case"``, ``"multi_source"`` or ``"few_shot"``.
    pretrain_corpus:
        Corpus for the multi-source protocols: a corpus source name
        (``"monash"``), a dataset list, or a raw pool array.  Estimators that
        are already pre-trained are left untouched.
    finetune_config:
        Passed to every estimator's ``fine_tune``.  ``None`` lets each
        estimator use its own default recipe (a supervised baseline's
        constructor hyper-parameters, for example).
    pretrain_kwargs:
        Extra keywords for ``estimator.pretrain`` (e.g. ``max_samples``,
        ``epochs``); ``n_datasets`` / ``seed`` are routed to the corpus
        loader when ``pretrain_corpus`` is a name.
    ratios:
        Label ratios for the few-shot protocol.

    Returns a :class:`ComparisonResult`, or ``{ratio: ComparisonResult}``
    for the few-shot protocol.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if protocol == "few_shot" and label_ratio is not None:
        raise ValueError(
            "the few_shot protocol takes its label fractions from `ratios`; "
            "pass ratios=(...) instead of label_ratio"
        )
    if protocol == "case_by_case" and pretrain_corpus is not None:
        raise ValueError(
            "pretrain_corpus turns a run into the multi-source paradigm; use "
            "protocol='multi_source', or pre-train the estimator yourself "
            "before a case_by_case run"
        )
    resolved = _resolve_estimators(estimators)
    datasets = _resolve_datasets(archive)
    pretrain_kwargs = dict(pretrain_kwargs or {})
    corpus_kwargs = {
        key: pretrain_kwargs.pop(key) for key in ("n_datasets", "seed") if key in pretrain_kwargs
    }
    if corpus_kwargs and not isinstance(pretrain_corpus, str):
        raise ValueError(
            f"pretrain_kwargs {sorted(corpus_kwargs)} configure the corpus "
            "loader and only apply when pretrain_corpus is a corpus name"
        )
    corpus = _resolve_corpus(pretrain_corpus, corpus_kwargs)

    if corpus is not None:
        for name in _unpretrained(resolved):
            if verbose:
                print(f"[{protocol}] pre-training {name} on the shared corpus")
            resolved[name].pretrain(corpus, **pretrain_kwargs)
    elif protocol in ("multi_source", "few_shot"):
        unpretrained = _unpretrained(resolved)
        if unpretrained:
            warnings.warn(
                f"{protocol} protocol without pretrain_corpus: {unpretrained} "
                "are not pre-trained, so their results reflect randomly "
                "initialised encoders",
                UserWarning,
                stacklevel=2,
            )

    common = dict(
        finetune_config=finetune_config,
        pretrain_kwargs=pretrain_kwargs,
        verbose=verbose,
    )
    if protocol == "few_shot":
        return {
            ratio: _run_comparison(
                resolved,
                datasets,
                case_by_case=False,
                label_ratio=ratio,
                tag=f"few-shot {ratio:g}",
                **common,
            )
            for ratio in ratios
        }
    return _run_comparison(
        resolved,
        datasets,
        case_by_case=(protocol == "case_by_case"),
        label_ratio=label_ratio,
        tag=protocol.replace("_", "-"),
        **common,
    )
