"""Quickstart: the Estimator API, the training engine, bundles, run_protocol.

This is the 5-minute tour of the library:

1. build AimTS from the component registry (``make_estimator``),
2. pre-train on an unlabeled multi-source corpus (Monash-style) with a
   mid-run ``Checkpointer``, then resume the run from its checkpoint
   bit-identically (what you would do after a killed job),
3. fine-tune on a small labelled downstream dataset — with engine
   ``EarlyStopping`` — and classify new series with ``predict`` /
   ``predict_proba`` directly on the facade,
4. save a full-bundle checkpoint and reconstruct a working estimator from it
   with ``load_estimator`` (no config or class needed at load time),
5. compare against baselines on a whole archive with one ``run_protocol``
   call.

Run with:  PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro import load_estimator, make_estimator
from repro.core import FineTuneConfig
from repro.data import load_dataset, load_pretraining_corpus
from repro.engine import Checkpointer, EarlyStopping
from repro.evaluation import run_protocol
from repro.utils.seeding import seed_everything

AIMTS_SPEC = dict(
    repr_dim=24,
    proj_dim=12,
    hidden_channels=12,
    depth=2,
    series_length=64,
    panel_size=24,
    batch_size=12,
    epochs=2,               # the paper pre-trains for 2 epochs as well
)


def main() -> None:
    seed_everything(3407)

    # ------------------------------------------------------- 1. registry
    # every model in the repo is constructible from a string + overrides;
    # config-dataclass fields and constructor keywords are routed automatically
    model = make_estimator("aimts", **AIMTS_SPEC)

    # ------------------------------------------------------- 2. pretrain + resume
    corpus = load_pretraining_corpus("monash", n_datasets=10)
    print(f"Pre-training corpus: {len(corpus)} unlabeled datasets "
          f"({sum(len(d.train) for d in corpus)} series in total)")
    with tempfile.TemporaryDirectory() as tmp:
        # a Checkpointer writes a resumable engine checkpoint after every epoch:
        # weights, Adam moments, scheduler step and all RNG streams
        start = time.perf_counter()
        history = model.pretrain(
            corpus, max_samples=160, verbose=True,
            callbacks=[Checkpointer(f"{tmp}/pretrain_ck")],
        )
        print(f"Pre-training finished in {time.perf_counter() - start:.1f}s; "
              f"final loss {history.total_loss[-1]:.4f}")

        # simulate a killed job: a *fresh* model resumes from the checkpoint and
        # continues to 3 total epochs — epochs 1-2 are restored, epoch 3 runs
        seed_everything(3407)
        resumed = make_estimator("aimts", **AIMTS_SPEC)
        resumed_history = resumed.pretrain(
            load_pretraining_corpus("monash", n_datasets=10),
            max_samples=160, epochs=3, resume_from=f"{tmp}/pretrain_ck",
        )
        print(f"Resumed run: {len(resumed_history.total_loss)} epochs recorded, "
              f"epochs 1-2 identical to the first run: "
              f"{resumed_history.total_loss[:2] == history.total_loss[:2]}")

    # ------------------------------------------------------- 3. finetune + predict
    downstream = load_dataset("ECG200")
    print(f"\nDownstream dataset: {downstream.describe()}")
    finetune_config = FineTuneConfig(epochs=20, learning_rate=3e-3)
    result = model.fine_tune(downstream, finetune_config)
    print(f"AimTS (multi-source pre-trained) test accuracy: {result.accuracy:.3f} "
          f"({result.n_epochs} epochs)")

    # EarlyStopping watches the engine's epoch logs, so a generous 40-epoch
    # budget stops as soon as the loss plateaus
    budget = FineTuneConfig(epochs=40, learning_rate=3e-3)
    finetuner = model.make_finetuner(downstream.n_classes, budget)
    curve = finetuner.fit(
        downstream.train, callbacks=[EarlyStopping("loss", patience=3, min_delta=1e-3)]
    )
    print(f"Early-stopped fine-tune: {len(curve)}/{budget.epochs} epochs, "
          f"final loss {curve[-1]:.4f}")

    # batch inference straight on the facade — no FineTuner internals needed
    new_series = downstream.test.X[:5]
    print(f"predict:        {model.predict(new_series)}")
    print(f"predict_proba:  {np.round(model.predict_proba(new_series), 3).tolist()}")

    # ------------------------------------------------------- 4. full-bundle checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        path = model.save(f"{tmp}/aimts_checkpoint")
        # the bundle stores the config, encoders, fine-tuned classifier and
        # label map, so the estimator comes back whole from the path alone
        restored = load_estimator(path)
        identical = np.array_equal(
            restored.predict(downstream.test.X), model.predict(downstream.test.X)
        )
        print(f"Restored bundle predicts identically:          {identical}")

    # ------------------------------------------------------- 5. one-call archive protocol
    comparison = run_protocol(
        {"AimTS": model, "Rocket": "rocket", "Linear": "linear"},
        [downstream],
        protocol="multi_source",
        finetune_config=finetune_config,
    )
    for method, accuracies in comparison.accuracies.items():
        print(f"{method:>8s}: {accuracies[downstream.name]:.3f}")
    print(f"Best method: {comparison.best_method()}")


if __name__ == "__main__":
    main()
