"""String-keyed component registries and the ``make_estimator`` entry point.

Three registries are populated on first use (imports stay cheap and cycle
free): :data:`ESTIMATORS` (every model in the repo), :data:`ENCODERS` (the
neural trunks and heads) and :data:`AUGMENTATIONS` (the series augmentation
ops).  Each maps a lower-case name to a factory, so experiments are driven
by plain data:

>>> from repro.api import make_estimator
>>> model = make_estimator("ts2vec", repr_dim=32)           # name + overrides
>>> model = make_estimator({"name": "rocket", "n_kernels": 100})  # spec dict

For estimator families configured through a dataclass (``AimTSConfig`` /
``BaselineConfig``) the factory splits overrides automatically: keys naming a
config field go into the config, everything else into the constructor
(``make_estimator("ts2vec", repr_dim=32, tau=0.1)``).
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Mapping
from typing import Callable

from repro.api.bundle import BundleFormatError, load_bundle


class Registry:
    """A case-insensitive name → factory mapping for one component kind."""

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: dict[str, Callable] = {}

    @staticmethod
    def _key(name: str) -> str:
        return name.strip().lower()

    def register(self, name: str, factory: Callable | None = None):
        """Register ``factory`` under ``name`` (also usable as a decorator).

        Re-registering a name overrides it — including the builtins, which
        are populated first so a custom registration is never clobbered by
        the lazy builtin population later.
        """
        self._populate()
        key = self._key(name)
        if factory is None:
            def decorator(fn: Callable) -> Callable:
                self._factories[key] = fn
                return fn

            return decorator
        self._factories[key] = factory
        return factory

    def create(self, name: str, **kwargs):
        """Instantiate the component registered under ``name``."""
        self._populate()
        key = self._key(name)
        if key not in self._factories:
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            )
        return self._factories[key](**kwargs)

    def names(self) -> list[str]:
        """Sorted registered names."""
        self._populate()
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        self._populate()
        return self._key(name) in self._factories

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        self._populate()
        return len(self._factories)

    def _populate(self) -> None:
        _populate_builtins()


#: every model in the repo (AimTS + all comparison baselines)
ESTIMATORS = Registry("estimator")
#: neural trunks and heads
ENCODERS = Registry("encoder")
#: series augmentation ops (the G-augmentation bank vocabulary)
AUGMENTATIONS = Registry("augmentation")

_POPULATED = False
_POPULATING = False  # reentrancy guard: _populate_builtins itself calls register()


def _config_split_factory(cls, config_cls) -> Callable:
    """Factory that routes overrides into the config dataclass vs. the ctor."""
    config_fields = {field.name for field in dataclasses.fields(config_cls)}

    def factory(config=None, **overrides):
        config_kwargs = {
            key: overrides.pop(key) for key in list(overrides) if key in config_fields
        }
        if config is None:
            config = config_cls(**config_kwargs)
        elif config_kwargs:
            config = dataclasses.replace(config, **config_kwargs)
        return cls(config, **overrides)

    factory.component_class = cls
    factory.config_fields = config_fields
    return factory


def _populate_builtins() -> None:
    """Register the built-in components (idempotent, lazy to avoid cycles)."""
    global _POPULATED, _POPULATING
    if _POPULATED or _POPULATING:
        return
    _POPULATING = True
    try:
        from repro.augmentations import ops as aug_ops
        from repro.baselines import (
            LinearClassifier,
            MiniRocket,
            MomentLike,
            Rocket,
            SimCLR,
            SupervisedCNN,
            TLoss,
            TNC,
            TS2Vec,
            TSTCC,
            UniTSLike,
        )
        from repro.baselines.base import BaselineConfig
        from repro.core.config import AimTSConfig
        from repro.core.model import AimTS
        from repro.encoders import ClassifierHead, ImageEncoder, ProjectionHead, TSEncoder

        ESTIMATORS.register(AimTS.api_name, _config_split_factory(AimTS, AimTSConfig))
        for cls in (TS2Vec, TSTCC, TLoss, TNC, SimCLR, MomentLike, UniTSLike):
            ESTIMATORS.register(cls.api_name, _config_split_factory(cls, BaselineConfig))
        for cls in (SupervisedCNN, LinearClassifier, Rocket, MiniRocket):
            ESTIMATORS.register(cls.api_name, cls)  # plain keyword constructors

        ENCODERS.register("ts_encoder", TSEncoder)
        ENCODERS.register("image_encoder", ImageEncoder)
        ENCODERS.register("projection", ProjectionHead)
        ENCODERS.register("classifier", ClassifierHead)

        for cls in (
            aug_ops.Jitter,
            aug_ops.Scaling,
            aug_ops.TimeWarp,
            aug_ops.Slicing,
            aug_ops.WindowWarp,
            aug_ops.Permutation,
            aug_ops.Masking,
        ):
            AUGMENTATIONS.register(cls.name, cls)

        # only mark populated once every registration succeeded, so a failed
        # first population re-raises its real error instead of leaving the
        # registries permanently empty
        _POPULATED = True
    finally:
        _POPULATING = False


def make_estimator(spec, **overrides):
    """Construct an estimator from a name or spec dict plus overrides.

    ``spec`` is either a registry name (``"aimts"``, ``"ts2vec"``, ...) or a
    mapping with a ``"name"`` key whose remaining items are treated as
    overrides (explicit keyword ``overrides`` win on conflict).
    """
    if isinstance(spec, Mapping):
        spec = dict(spec)
        try:
            name = spec.pop("name")
        except KeyError:
            raise ValueError("estimator spec dict requires a 'name' key") from None
        overrides = {**spec, **overrides}
    else:
        name = spec
    return ESTIMATORS.create(name, **overrides)


def estimator_names() -> list[str]:
    """Names of every registered estimator."""
    return ESTIMATORS.names()


def _fold_targets(estimator) -> list:
    """Modules of ``estimator`` that eval-mode Conv→BN folding applies to.

    Duck-typed over the repo's estimator families: the AimTS facade exposes a
    ``pretrainer`` with ``_trainable_modules()``, the neural baselines expose
    ``encoder`` / ``projection``, and any fitted estimator carries a
    fine-tuner with its own encoder + classifier.  Estimators without neural
    modules (Rocket, LinearClassifier) simply contribute nothing.
    """
    from repro.nn.module import Module

    targets: list = []
    pretrainer = getattr(estimator, "pretrainer", None)
    if pretrainer is not None and hasattr(pretrainer, "_trainable_modules"):
        targets.extend(pretrainer._trainable_modules())
    for attribute in ("encoder", "projection"):
        module = getattr(estimator, attribute, None)
        if isinstance(module, Module):
            targets.append(module)
    finetuner = getattr(estimator, "_finetuner", None)
    if finetuner is not None:
        targets.extend(
            module
            for module in (finetuner.encoder, finetuner.classifier)
            if isinstance(module, Module)
        )
    return targets


def load_estimator(path: str | os.PathLike, *, eval_mode: bool = False):
    """Reconstruct a fully working estimator from a bundle checkpoint.

    Reads the bundle manifest, rebuilds the estimator from the registry using
    the originating config stored in it, then loads all weights — including a
    fine-tuned classifier when present, so ``load_estimator(p).predict(X)``
    works with no further calls.  A stored config key that is not a field of
    the estimator's config dataclass raises :class:`BundleFormatError`
    naming it.

    ``eval_mode=True`` additionally prepares the estimator for serving: every
    eval-time Conv→BatchNorm pair is folded **once at load time** (see
    :func:`repro.nn.inference.fold_batchnorms`) instead of on every
    ``predict`` call.  The folded estimator predicts identically but must not
    be trained further or re-saved — the bundle file stays the source of
    truth (``repro.serving.ModelServer.reload`` re-loads from the path).
    """
    arrays, manifest = load_bundle(path)
    name = manifest.get("estimator")
    if not name:
        raise BundleFormatError(f"bundle {str(path)!r} does not name its estimator")
    if manifest.get("kind") == "train-state":
        raise BundleFormatError(
            f"{str(path)!r} is a training-engine checkpoint, not an estimator "
            "bundle; rebuild the trainer and continue it with "
            "repro.engine.Trainer.resume(path) (e.g. "
            "AimTSPretrainer.fit(..., resume_from=path))"
        )
    overrides = dict(manifest.get("config") or {})
    # a stored key the config no longer has (a knob deleted since the bundle
    # was saved) is named here, not left to fail in the constructor
    ESTIMATORS._populate()
    fields = getattr(ESTIMATORS._factories.get(ESTIMATORS._key(name)), "config_fields", None)
    unknown = sorted(set(overrides) - fields) if fields is not None else []
    if unknown:
        raise BundleFormatError(
            f"bundle {str(path)!r} stores config keys {unknown} that are not fields "
            f"of the {name!r} config; it was saved by another version of the library"
        )
    overrides.update(manifest.get("init_kwargs") or {})
    estimator = make_estimator(name, **overrides)
    if hasattr(estimator, "_load_from_state"):  # reuse the bundle read above
        estimator._load_from_state(arrays, manifest)
    else:  # pragma: no cover - third-party estimators without the fast path
        estimator.load(path)
    if eval_mode:
        from repro.nn.inference import fold_batchnorms

        folded = 0
        for module in _fold_targets(estimator):
            module.eval()
            folded += fold_batchnorms(module)
        estimator._bn_folded = folded
    return estimator
