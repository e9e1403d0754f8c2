"""Anatomy of AimTS: inspecting each objective and design choice on one batch.

This example does not train to convergence; it dissects the framework on one
mini-batch so the individual pieces of the method (paper Section IV) are easy
to see and experiment with:

* the augmentation bank and the two view sets (Fig. 4a),
* prototype aggregation and the adaptive temperatures (Eqs. 2-3),
* the intra-/inter-prototype losses (Eqs. 4-6),
* the line-chart imaging and the series-image losses with and without the
  geodesic mixup (Eqs. 7-12),
* how the ablation switches in ``AimTSConfig`` map to Table VI rows.

Run with:  python examples/ablation_and_imaging.py
"""

from __future__ import annotations

import numpy as np

from repro.core import AimTSConfig, AimTSPretrainer, sample_mixup_coefficients
from repro.core.prototypes import adaptive_temperatures, pairwise_view_distances
from repro.data import load_pretraining_corpus
from repro.data.loaders import build_pretraining_pool
from repro.utils.seeding import seed_everything
from repro.utils.tables import ResultTable


def main() -> None:
    seed_everything(3407)
    corpus = load_pretraining_corpus("monash", n_datasets=6)
    pool = build_pretraining_pool(corpus, length=64, n_variables=1, max_samples=64)
    batch = pool[:12]
    print(f"One pre-training batch: {batch.shape} (batch, variables, time steps)")

    # ---------------------------------------------------------- view generation
    config = AimTSConfig(repr_dim=24, proj_dim=12, hidden_channels=12, depth=2, series_length=64, panel_size=24, batch_size=12, epochs=1)
    pretrainer = AimTSPretrainer(config)
    views_a, views_b = pretrainer.bank.two_views(batch)
    print(f"Augmentation bank {pretrainer.bank.names} -> two view sets of shape {views_a.shape}")

    # ------------------------------------------------------ adaptive temperatures
    distances = pairwise_view_distances(views_a)
    temperatures = adaptive_temperatures(distances, tau0=config.tau0)
    table = ResultTable(
        ["view pair"] + pretrainer.bank.names,
        title="Adaptive temperatures for sample 0 (rows: anchor augmentation)",
        float_format="{:.3f}",
    )
    for row_index, row_name in enumerate(pretrainer.bank.names):
        table.add_row([row_name] + list(temperatures[0, row_index]))
    print()
    print(table.render())
    print("Diagonal entries equal tau0 (positive pairs); distant view pairs get higher temperatures.\n")

    # ------------------------------------------------------------ loss components
    loss_table = ResultTable(["Configuration (Table VI row)", "Batch loss"], title="Loss components on this batch")
    variants = {
        "w/ inter-prototype only": dict(use_series_image_loss=False, use_intra_loss=False),
        "w/ prototype-based (inter+intra)": dict(use_series_image_loss=False, use_intra_loss=True),
        "w/ naive series-image": dict(use_prototype_loss=False, mixup_mode="none"),
        "w/ series-image (naive+mixup)": dict(use_prototype_loss=False, mixup_mode="geodesic"),
        "full AimTS": dict(),
    }
    for name, overrides in variants.items():
        seed_everything(3407)
        variant = AimTSPretrainer(AimTSConfig(repr_dim=24, proj_dim=12, hidden_channels=12, depth=2, series_length=64, panel_size=24, batch_size=12, epochs=1, **overrides))
        # the produce stage of a step: two view sets, the line-chart images
        # and the mixup coefficients lambda ~ Beta(gamma, gamma) (Eq. 9)
        views_a, views_b = variant.bank.two_views(batch)
        images = variant.renderer.render_batch(batch)
        lam = sample_mixup_coefficients(len(batch), gamma=variant.config.gamma, seed=3407)
        losses = variant.compute_batch_loss(batch, images, views_a, views_b, lam)
        loss_table.add_row([name, float(losses["total"].item())])
    print(loss_table.render())

    # --------------------------------------------------------------- image branch
    images = pretrainer.renderer.render_batch(batch[:2])
    print(
        f"\nImaging: 2 samples render to images of shape {images.shape}; "
        f"values in [{images.min():.2f}, {images.max():.2f}]"
    )
    representations = pretrainer.image_encoder(images)
    print(f"Image encoder output: {representations.shape} -> projected to {pretrainer.image_projection(representations).shape}")

    # ----------------------------------------------------------- one training step
    before = [p.data.copy() for p in pretrainer.parameters()]
    pretrainer.fit(batch, verbose=True)
    after = list(pretrainer.parameters())
    changed = sum(int(not np.allclose(b, a.data)) for b, a in zip(before, after))
    print(f"\nAfter one epoch on this batch, {changed}/{len(after)} parameter tensors changed.")
    if pretrainer.render_cache is not None:
        stats = pretrainer.render_cache.stats()
        print(
            f"Render cache: {stats['entries']} images "
            f"({stats['nbytes'] / 1024:.0f} KiB), hit rate {stats['hit_rate']:.0%} — "
            "the pool is rasterised once and every epoch reuses the cached images."
        )


if __name__ == "__main__":
    main()
