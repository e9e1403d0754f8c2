"""Tests for the AimTS contrastive losses (Eqs. 4-12)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.losses import (
    inter_prototype_loss,
    intra_prototype_loss,
    prototype_loss,
    series_image_loss,
    series_image_mixup_loss,
    series_image_naive_loss,
)
from repro.core.mixup import geodesic_mixup, sample_mixup_coefficients
from repro.nn import functional as F
from repro.nn.tensor import Tensor


def _unit(rng, *shape):
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _fixed_temperatures(B, G, tau=0.2):
    return np.full((B, G, G), tau)


class TestIntraPrototypeLoss:
    def test_scalar_and_finite(self, rng):
        views_a = Tensor(_unit(rng, 4, 5, 8), requires_grad=True)
        views_b = Tensor(_unit(rng, 4, 5, 8), requires_grad=True)
        loss = intra_prototype_loss(views_a, views_b, _fixed_temperatures(4, 5))
        assert loss.size == 1
        assert np.isfinite(loss.item())

    def test_gradient_flows(self, rng):
        views_a = Tensor(_unit(rng, 3, 4, 8), requires_grad=True)
        views_b = Tensor(_unit(rng, 3, 4, 8), requires_grad=True)
        intra_prototype_loss(views_a, views_b, _fixed_temperatures(3, 4)).backward()
        assert views_a.grad is not None and views_b.grad is not None

    def test_aligned_views_give_lower_loss_than_random(self, rng):
        aligned = _unit(rng, 4, 5, 8)
        views_a = Tensor(aligned)
        views_b = Tensor(aligned)  # positive pairs perfectly aligned
        random_b = Tensor(_unit(rng, 4, 5, 8))
        temperatures = _fixed_temperatures(4, 5)
        aligned_loss = intra_prototype_loss(views_a, views_b, temperatures).item()
        random_loss = intra_prototype_loss(views_a, random_b, temperatures).item()
        assert aligned_loss < random_loss

    def test_temperature_shape_validation(self, rng):
        views = Tensor(_unit(rng, 2, 3, 4))
        with pytest.raises(ValueError):
            intra_prototype_loss(views, views, np.ones((2, 4, 4)))

    def test_shape_mismatch_rejected(self, rng):
        a = Tensor(_unit(rng, 2, 3, 4))
        b = Tensor(_unit(rng, 2, 4, 4))
        with pytest.raises(ValueError):
            intra_prototype_loss(a, b, _fixed_temperatures(2, 3))

    def test_higher_temperature_weakens_negative_separation(self, rng):
        views_a = Tensor(_unit(rng, 3, 4, 8))
        views_b = Tensor(_unit(rng, 3, 4, 8))
        sharp = intra_prototype_loss(views_a, views_b, _fixed_temperatures(3, 4, tau=0.1)).item()
        smooth = intra_prototype_loss(views_a, views_b, _fixed_temperatures(3, 4, tau=1.0)).item()
        assert sharp != pytest.approx(smooth)


class TestInterPrototypeLoss:
    def test_positive_alignment_reduces_loss(self, rng):
        aligned = _unit(rng, 6, 8)
        loss_aligned = inter_prototype_loss(Tensor(aligned), Tensor(aligned)).item()
        loss_random = inter_prototype_loss(Tensor(aligned), Tensor(_unit(rng, 6, 8))).item()
        assert loss_aligned < loss_random

    def test_gradient_flows(self, rng):
        a = Tensor(_unit(rng, 4, 8), requires_grad=True)
        b = Tensor(_unit(rng, 4, 8), requires_grad=True)
        inter_prototype_loss(a, b).backward()
        assert a.grad is not None and b.grad is not None

    def test_loss_is_bounded_below_by_zero_ish(self, rng):
        # InfoNCE with B-1 negatives can approach 0 only when positives dominate
        a = Tensor(_unit(rng, 4, 8))
        assert inter_prototype_loss(a, a).item() > 0

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            inter_prototype_loss(Tensor(_unit(rng, 4, 8)), Tensor(_unit(rng, 5, 8)))
        with pytest.raises(ValueError):
            inter_prototype_loss(Tensor(_unit(rng, 4, 8)), Tensor(_unit(rng, 4, 8)), tau=0.0)


class TestPrototypeLoss:
    def test_alpha_interpolates_between_terms(self, rng):
        views_a = Tensor(_unit(rng, 3, 4, 8))
        views_b = Tensor(_unit(rng, 3, 4, 8))
        prototypes_a = Tensor(_unit(rng, 3, 8))
        prototypes_b = Tensor(_unit(rng, 3, 8))
        temperatures = _fixed_temperatures(3, 4)
        inter_only = prototype_loss(
            views_a, views_b, prototypes_a, prototypes_b, temperatures, alpha=1.0
        ).item()
        pure_inter = inter_prototype_loss(prototypes_a, prototypes_b).item()
        assert inter_only == pytest.approx(pure_inter, rel=1e-9)

    def test_use_intra_false_matches_inter_only(self, rng):
        views = Tensor(_unit(rng, 3, 4, 8))
        prototypes_a = Tensor(_unit(rng, 3, 8))
        prototypes_b = Tensor(_unit(rng, 3, 8))
        loss = prototype_loss(
            views, views, prototypes_a, prototypes_b, _fixed_temperatures(3, 4), alpha=0.3, use_intra=False
        ).item()
        assert loss == pytest.approx(inter_prototype_loss(prototypes_a, prototypes_b).item())


class TestSeriesImageLosses:
    def test_naive_loss_prefers_alignment(self, rng):
        series = _unit(rng, 5, 8)
        aligned = series_image_naive_loss(Tensor(series), Tensor(series)).item()
        random = series_image_naive_loss(Tensor(series), Tensor(_unit(rng, 5, 8))).item()
        assert aligned < random

    def test_naive_loss_symmetric_in_batch(self, rng):
        series = Tensor(_unit(rng, 4, 8))
        image = Tensor(_unit(rng, 4, 8))
        loss_1 = series_image_naive_loss(series, image).item()
        loss_2 = series_image_naive_loss(image, series).item()
        assert loss_1 == pytest.approx(loss_2, rel=1e-9)

    def test_mixup_loss_finite_and_differentiable(self, rng):
        series = Tensor(_unit(rng, 4, 8), requires_grad=True)
        image = Tensor(_unit(rng, 4, 8), requires_grad=True)
        mixed = geodesic_mixup(image, series, 0.5)
        loss = series_image_mixup_loss(series, image, mixed)
        assert np.isfinite(loss.item())
        loss.backward()
        assert series.grad is not None and image.grad is not None

    def test_combined_loss_modes(self, rng):
        series = Tensor(_unit(rng, 4, 8))
        image = Tensor(_unit(rng, 4, 8))
        for mode in ("geodesic", "linear", "none"):
            lam = sample_mixup_coefficients(4, seed=0)
            loss = series_image_loss(series, image, mixup_mode=mode, lam=lam)
            assert np.isfinite(loss.item())
        with pytest.raises(ValueError):
            series_image_loss(series, image, mixup_mode="bogus")

    def test_combined_loss_beta_one_equals_naive(self, rng):
        series = Tensor(_unit(rng, 4, 8))
        image = Tensor(_unit(rng, 4, 8))
        lam = sample_mixup_coefficients(4, seed=0)
        combined = series_image_loss(series, image, beta=1.0, mixup_mode="geodesic", lam=lam).item()
        naive = series_image_naive_loss(series, image).item()
        assert combined == pytest.approx(naive, rel=1e-9)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            series_image_naive_loss(Tensor(_unit(rng, 4, 8)), Tensor(_unit(rng, 5, 8)))
        with pytest.raises(ValueError):
            series_image_mixup_loss(
                Tensor(_unit(rng, 4, 8)), Tensor(_unit(rng, 4, 8)), Tensor(_unit(rng, 3, 8))
            )

    def test_training_signal_improves_alignment(self, rng):
        """A few gradient steps on the naive loss should increase positive-pair similarity."""
        from repro.nn import Adam
        from repro.nn.module import Parameter

        series = Parameter(rng.normal(size=(6, 8)))
        image = Parameter(rng.normal(size=(6, 8)))
        optimizer = Adam([series, image], lr=0.05)

        def positive_similarity():
            s = series.data / np.linalg.norm(series.data, axis=1, keepdims=True)
            i = image.data / np.linalg.norm(image.data, axis=1, keepdims=True)
            return float((s * i).sum(axis=1).mean())

        before = positive_similarity()
        for _ in range(30):
            optimizer.zero_grad()
            loss = series_image_naive_loss(
                F.l2_normalize(series, axis=-1), F.l2_normalize(image, axis=-1)
            )
            loss.backward()
            optimizer.step()
        assert positive_similarity() > before
