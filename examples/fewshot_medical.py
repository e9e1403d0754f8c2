"""Few-shot classification of medical time series (the paper's motivating scenario).

The introduction of the AimTS paper motivates multi-source pre-training with
label-scarce medical data: interpreting an epilepsy EEG or an ECG requires an
expert, so downstream training sets are tiny.  This example:

1. pre-trains AimTS once on a multi-source corpus that contains **no**
   medical data from the downstream tasks,
2. fine-tunes on ECG200-style and Epilepsy-style datasets using only 5 %,
   15 % and 20 % of the training labels (the Table V protocol),
3. compares against a MOMENT-style masked-reconstruction foundation model
   pre-trained on exactly the same corpus.

Run with:  python examples/fewshot_medical.py
"""

from __future__ import annotations

from repro import AimTS, AimTSConfig, FineTuneConfig
from repro.baselines import BaselineConfig, MomentLike
from repro.data import load_dataset, load_pretraining_corpus
from repro.utils.seeding import seed_everything
from repro.utils.tables import ResultTable

LABEL_RATIOS = (0.05, 0.15, 0.20)
MEDICAL_DATASETS = ("ECG200", "Epilepsy")


def main() -> None:
    seed_everything(3407)
    corpus = load_pretraining_corpus("monash", n_datasets=10)

    print("Pre-training AimTS on the multi-source corpus ...")
    aimts = AimTS(
        AimTSConfig(repr_dim=24, proj_dim=12, hidden_channels=12, depth=2, series_length=64, panel_size=24, batch_size=12, epochs=2)
    )
    aimts.pretrain(corpus, max_samples=160)

    print("Pre-training the MOMENT-style baseline on the same corpus ...")
    moment = MomentLike(
        BaselineConfig(repr_dim=24, proj_dim=12, hidden_channels=12, depth=2, series_length=64, batch_size=12, epochs=2)
    )
    moment.pretrain(corpus, max_samples=160)

    finetune = FineTuneConfig(epochs=20, learning_rate=3e-3)
    table = ResultTable(
        ["Dataset", "Label ratio", "AimTS", "MOMENT-like", "Few-shot train size"],
        title="Few-shot learning on label-scarce medical datasets",
    )
    for name in MEDICAL_DATASETS:
        dataset = load_dataset(name)
        for ratio in LABEL_RATIOS:
            aimts_accuracy = aimts.fine_tune(dataset, finetune, label_ratio=ratio).accuracy
            moment_accuracy = moment.fine_tune(dataset, finetune, label_ratio=ratio).accuracy
            from repro.data import few_shot_subset

            n_labels = len(few_shot_subset(dataset.train, ratio, seed=3407))
            table.add_row([name, f"{int(ratio * 100)}%", aimts_accuracy, moment_accuracy, n_labels])

    print()
    print(table.render())
    print(
        "\nExpected shape (cf. Table V of the paper): AimTS stays usable even at 5 % labels\n"
        "and is consistently at least as accurate as the masked-reconstruction baseline."
    )


if __name__ == "__main__":
    main()
