"""``repro.api`` — the public estimator contract shared by every model.

This package defines the three pieces that make AimTS and all of its
comparison baselines interchangeable:

* :class:`~repro.api.estimator.Estimator` — the structural protocol every
  model implements: ``pretrain(corpus_or_X)``, ``fine_tune(dataset, config)``,
  ``encode(X)``, ``predict(X)`` / ``predict_proba(X)`` and ``save(path)`` /
  ``load(path)``.
* :mod:`~repro.api.registry` — string-keyed registries of estimators,
  encoders and augmentations, so experiments can be driven by config:
  ``make_estimator("ts2vec", repr_dim=32)``.
* :mod:`~repro.api.bundle` — versioned full-bundle checkpoints: one ``.npz``
  holding every weight array plus an embedded JSON manifest (schema version,
  originating config, label map, fine-tuned classifier, ...), loadable back
  into a fresh estimator with :func:`~repro.api.registry.load_estimator`.

On top of those, :func:`serve` turns a saved bundle into a running
:class:`repro.serving.ModelServer` — the micro-batching front door over the
estimators' no-grad inference path.

>>> from repro.api import make_estimator, estimator_names
>>> sorted(estimator_names())  # doctest: +ELLIPSIS
['aimts', ...]
>>> model = make_estimator("rocket", n_kernels=100)
"""

from repro.api.estimator import Estimator, FineTunedPredictorMixin, RidgePredictorMixin
from repro.api.bundle import (
    SCHEMA_VERSION,
    BundleFormatError,
    load_bundle,
    peek_manifest,
    save_bundle,
)
from repro.api.registry import (
    AUGMENTATIONS,
    ENCODERS,
    ESTIMATORS,
    Registry,
    estimator_names,
    load_estimator,
    make_estimator,
)


def serve(path, *, eval_mode: bool = True, start: bool = True, **server_kwargs):
    """Load a bundle checkpoint and stand up a micro-batching model server.

    Convenience over :meth:`repro.serving.ModelServer.from_bundle`: the
    bundle at ``path`` is loaded with ``eval_mode`` Conv→BN folding (on by
    default) and wrapped in a started server — use it as a context manager
    so it drains and shuts down cleanly::

        with serve("model.npz", max_wait_ms=2.0) as server:
            label = server.submit(sample).result()

    ``server_kwargs`` are forwarded to the ``ModelServer`` constructor
    (``max_batch``, ``max_wait_ms``, ``n_workers``, ...).  Pass
    ``start=False`` to get an unstarted server.
    """
    from repro.serving import ModelServer

    server = ModelServer.from_bundle(path, eval_mode=eval_mode, **server_kwargs)
    return server.start() if start else server


__all__ = [
    "Estimator",
    "FineTunedPredictorMixin",
    "RidgePredictorMixin",
    "Registry",
    "ESTIMATORS",
    "ENCODERS",
    "AUGMENTATIONS",
    "make_estimator",
    "load_estimator",
    "estimator_names",
    "serve",
    "save_bundle",
    "load_bundle",
    "peek_manifest",
    "BundleFormatError",
    "SCHEMA_VERSION",
]
