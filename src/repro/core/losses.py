"""The AimTS contrastive objectives (paper Eqs. 4–12).

All losses operate on already-projected, L2-normalised representations so the
dot products below are cosine similarities.  They return scalar
:class:`~repro.nn.tensor.Tensor` objects suitable for ``backward()``.

Shapes
------
* per-view projections ``v``:  ``(B, G, J)`` — batch, augmentation, projection
* prototypes ``z``:            ``(B, J)``
* series / image projections:  ``(B, J)``
"""

from __future__ import annotations

import numpy as np

from repro.core.mixup import geodesic_mixup, linear_mixup
from repro.nn.tensor import Tensor
from repro.utils.validation import check_in_options, check_positive


def _as_tensor(x: Tensor | np.ndarray) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _identity_mask(size: int) -> np.ndarray:
    return np.eye(size, dtype=np.float64)


# --------------------------------------------------------------------------- #
# Prototype-based contrastive learning (Section IV-B)
# --------------------------------------------------------------------------- #
def intra_prototype_loss(
    views_a: Tensor,
    views_b: Tensor,
    temperatures_aa: np.ndarray,
    temperatures_ab: np.ndarray | None = None,
) -> Tensor:
    """Intra-prototype contrastive loss with adaptive temperatures (Eq. 4).

    Parameters
    ----------
    views_a, views_b:
        Projected representations of the two augmented view sets, shape
        ``(B, G, J)``.  ``views_a[i, k]`` and ``views_b[i, k]`` come from the
        same augmentation applied with different random parameters and form
        the positive pair.
    temperatures_aa:
        Per-pair temperatures ``tau(k, j)`` for similarities within
        ``views_a``, shape ``(B, G, G)`` (Eq. 3).
    temperatures_ab:
        Temperatures for cross-set similarities; defaults to
        ``temperatures_aa``.
    """
    views_a = _as_tensor(views_a)
    views_b = _as_tensor(views_b)
    if views_a.ndim != 3 or views_a.shape != views_b.shape:
        raise ValueError(
            f"views must both be (B, G, J); got {views_a.shape} and {views_b.shape}"
        )
    B, G, _ = views_a.shape
    temperatures_aa = np.asarray(temperatures_aa, dtype=np.float64)
    if temperatures_aa.shape != (B, G, G):
        raise ValueError(
            f"temperatures_aa must have shape {(B, G, G)}, got {temperatures_aa.shape}"
        )
    temperatures_ab = temperatures_aa if temperatures_ab is None else np.asarray(temperatures_ab)

    sims_aa = views_a @ views_a.transpose(0, 2, 1)  # (B, G, G)
    sims_ab = views_a @ views_b.transpose(0, 2, 1)
    scaled_aa = sims_aa / Tensor(temperatures_aa)
    scaled_ab = sims_ab / Tensor(temperatures_ab)

    eye = _identity_mask(G)[None, :, :]
    off_diagonal = Tensor(1.0 - eye)
    exp_aa = scaled_aa.exp() * off_diagonal  # exclude j == k within the same set
    exp_ab = scaled_ab.exp()
    denominator = (exp_aa + exp_ab).sum(axis=2)  # (B, G)
    positive_logits = (scaled_ab * Tensor(eye)).sum(axis=2)  # (B, G): s~(k, k)
    per_view = denominator.log() - positive_logits
    return per_view.sum(axis=1).mean()


def inter_prototype_loss(
    prototypes_a: Tensor,
    prototypes_b: Tensor,
    tau: float = 0.2,
) -> Tensor:
    """Inter-prototype contrastive loss (Eq. 5).

    The two prototypes of the same sample are the positive pair; prototypes of
    the other samples in the batch (from either view set) are negatives.
    """
    check_positive("tau", tau)
    prototypes_a = _as_tensor(prototypes_a)
    prototypes_b = _as_tensor(prototypes_b)
    if prototypes_a.ndim != 2 or prototypes_a.shape != prototypes_b.shape:
        raise ValueError("prototypes must both be (B, J)")
    B = prototypes_a.shape[0]
    sims_aa = (prototypes_a @ prototypes_a.transpose()) * (1.0 / tau)
    sims_ab = (prototypes_a @ prototypes_b.transpose()) * (1.0 / tau)
    eye = _identity_mask(B)
    exp_aa = sims_aa.exp() * Tensor(1.0 - eye)
    exp_ab = sims_ab.exp()
    denominator = (exp_aa + exp_ab).sum(axis=1)
    positive_logits = (sims_ab * Tensor(eye)).sum(axis=1)
    per_sample = denominator.log() - positive_logits
    return per_sample.mean()


def prototype_loss(
    views_a: Tensor,
    views_b: Tensor,
    prototypes_a: Tensor,
    prototypes_b: Tensor,
    temperatures: np.ndarray,
    *,
    alpha: float = 0.7,
    tau: float = 0.2,
    use_intra: bool = True,
) -> Tensor:
    """Two-level prototype-based loss ``L_proto`` (Eq. 6).

    ``alpha`` weights the inter-prototype term; ``1 - alpha`` the
    intra-prototype term.  Setting ``use_intra=False`` reproduces the
    "w/ inter-prototype contrastive learning" ablation row of Table VI.
    """
    inter = inter_prototype_loss(prototypes_a, prototypes_b, tau=tau)
    if not use_intra:
        return inter
    intra = intra_prototype_loss(views_a, views_b, temperatures)
    return inter * alpha + intra * (1.0 - alpha)


# --------------------------------------------------------------------------- #
# Series-image contrastive learning (Section IV-C)
# --------------------------------------------------------------------------- #
def series_image_naive_loss(series_proj: Tensor, image_proj: Tensor, tau: float = 0.2) -> Tensor:
    """Symmetric series-image InfoNCE ``L_naive`` (Eqs. 7–8)."""
    check_positive("tau", tau)
    series_proj = _as_tensor(series_proj)
    image_proj = _as_tensor(image_proj)
    if series_proj.shape != image_proj.shape or series_proj.ndim != 2:
        raise ValueError("series and image projections must both be (B, J)")
    B = series_proj.shape[0]
    eye = Tensor(_identity_mask(B))
    sims = (image_proj @ series_proj.transpose()) * (1.0 / tau)  # (B_image, B_series)
    positives = (sims * eye).sum(axis=1)
    image_to_series = sims.exp().sum(axis=1).log() - positives  # l^{I-S}
    series_to_image = sims.transpose().exp().sum(axis=1).log() - positives  # l^{S-I}
    return (image_to_series + series_to_image).mean() * 0.5


def series_image_mixup_loss(
    series_proj: Tensor,
    image_proj: Tensor,
    mixed_proj: Tensor,
    tau: float = 0.2,
) -> Tensor:
    """Geodesic-mixup contrastive loss ``L_mix`` (Eqs. 10–11).

    Positive pairs are unchanged (series/image of the same sample); negatives
    are the mixed representations of every sample in the batch.
    """
    check_positive("tau", tau)
    series_proj = _as_tensor(series_proj)
    image_proj = _as_tensor(image_proj)
    mixed_proj = _as_tensor(mixed_proj)
    if not (series_proj.shape == image_proj.shape == mixed_proj.shape):
        raise ValueError("series, image and mixed projections must share the same (B, J) shape")
    B = series_proj.shape[0]
    eye = Tensor(_identity_mask(B))
    positive_logits = ((image_proj @ series_proj.transpose()) * (1.0 / tau) * eye).sum(axis=1)
    image_vs_mixed = (image_proj @ mixed_proj.transpose()) * (1.0 / tau)
    series_vs_mixed = (series_proj @ mixed_proj.transpose()) * (1.0 / tau)
    image_term = image_vs_mixed.exp().sum(axis=1).log() - positive_logits
    series_term = series_vs_mixed.exp().sum(axis=1).log() - positive_logits
    return (image_term + series_term).mean() * 0.5


def series_image_loss(
    series_proj: Tensor,
    image_proj: Tensor,
    *,
    beta: float = 0.9,
    tau: float = 0.2,
    mixup_mode: str = "geodesic",
    lam: np.ndarray | None = None,
) -> Tensor:
    """Combined series-image loss ``L_SI`` (Eq. 12).

    ``mixup_mode`` selects the geodesic mixup of the paper, a linear-mixup
    ablation, or disables the mixup term entirely (the "naive" ablation row of
    Table VI).  ``lam`` holds the per-sample mixup coefficients λ ~
    Beta(γ, γ) (:func:`~repro.core.mixup.sample_mixup_coefficients`); the
    mixup modes require it and ``"none"`` ignores it.
    """
    check_in_options("mixup_mode", mixup_mode, ("geodesic", "linear", "none"))
    naive = series_image_naive_loss(series_proj, image_proj, tau=tau)
    if mixup_mode == "none":
        return naive
    if lam is None:
        raise ValueError(f"mixup_mode={mixup_mode!r} needs the mixup coefficients lam")
    if mixup_mode == "geodesic":
        mixed = geodesic_mixup(image_proj, series_proj, lam)
    else:
        mixed = linear_mixup(image_proj, series_proj, lam)
    mix = series_image_mixup_loss(series_proj, image_proj, mixed, tau=tau)
    return naive * beta + mix * (1.0 - beta)
