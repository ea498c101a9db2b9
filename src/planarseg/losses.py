"""Training loss terms as pure value-and-gradient functions.

Every loss returns ``(value, gradient)`` where the gradient matches the
shape of the differentiated input. Hinge and absolute-value kinks use
subgradient zero, and instance means are always recomputed from the
supplied embeddings so gradients flow through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    EmbeddingMap,
    InstanceSegmentation,
    LossReport,
    PixelPlaneParams,
    PlanarMask,
    PlanarProbabilityMap,
    PlaneInstanceParams,
    PointMap,
    SoftAssignment,
)

__all__ = [
    "Margins",
    "balanced_bce",
    "pull_loss",
    "push_loss",
    "embedding_loss",
    "pixel_param_loss",
    "instance_param_loss",
    "total_loss",
    "central_difference",
]

PROB_CLAMP = 1e-12

# Assigned pixels per span of instance_param_loss. Each span's (span, C)
# temporaries stay about 1 MiB at C = 16, small enough to reuse heap
# memory that earlier calls freed. One span of all ~42k rows of a
# 192x256 scene made ~5.4 MB temporaries that took about 1100 page
# faults per call.
_IPL_SPAN = 8192


@dataclass(frozen=True)
class Margins:
    """Hinge margins: embeddings pull within delta_v, centers push beyond
    delta_d."""

    delta_v: float = 0.5
    delta_d: float = 1.5

    def __post_init__(self) -> None:
        if not self.delta_v > 0.0:
            raise ValueError("delta_v must be > 0")
        if not self.delta_d > self.delta_v:
            raise ValueError("delta_d must exceed delta_v")


def balanced_bce(
    probs: PlanarProbabilityMap,
    gt: PlanarMask,
    weight_mode: str = "fraction",
) -> Tuple[float, np.ndarray]:
    """Class-balanced binary cross entropy over the planar mask.

    ``weight_mode='fraction'`` weighs the background sum by the
    foreground fraction |F| / N and vice versa; ``'ratio'`` uses the raw
    count ratio |F| / |B| on the background sum and 1 on the foreground
    sum. Probabilities are clamped to [1e-12, 1 - 1e-12] before the log;
    the gradient is zero where the clamp is active.
    """
    if probs.grid != gt.grid:
        raise ValueError("probability and mask grids must match")
    fg = gt.mask
    n_fg = int(fg.sum())
    n_bg = gt.grid.n_pixels - n_fg
    if n_fg == 0 or n_bg == 0:
        raise ValueError("degenerate class balance: need both classes present")
    if weight_mode == "fraction":
        w = n_fg / (n_fg + n_bg)
        fg_coeff, bg_coeff = 1.0 - w, w
    elif weight_mode == "ratio":
        w = n_fg / n_bg
        fg_coeff, bg_coeff = 1.0, w
    else:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    p = np.clip(probs.probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = -fg_coeff * float(np.log(p[fg]).sum())
    value -= bg_coeff * float(np.log1p(-p[~fg]).sum())
    grad = np.zeros(gt.grid.n_pixels, dtype=np.float64)
    unclamped = (probs.probs > PROB_CLAMP) & (probs.probs < 1.0 - PROB_CLAMP)
    fg_live = fg & unclamped
    bg_live = ~fg & unclamped
    grad[fg_live] = -fg_coeff / p[fg_live]
    grad[bg_live] = bg_coeff / (1.0 - p[bg_live])
    return value, grad


def _instance_members(gt: InstanceSegmentation):
    """Yield (instance_id, member_index_array) for nonempty instances."""
    for idx in range(1, gt.n_instances + 1):
        members = np.nonzero(gt.labels == idx)[0]
        if members.shape[0]:
            yield idx, members


def pull_loss(
    embeddings: EmbeddingMap,
    gt: InstanceSegmentation,
    margins: Margins = Margins(),
) -> Tuple[float, np.ndarray]:
    """Hinge pulling each embedding within delta_v of its instance mean.

    The mean is a function of the embeddings, so each active member
    contributes both a direct term and a shared term spread across its
    whole instance.
    """
    if embeddings.grid != gt.grid:
        raise ValueError("embedding and segmentation grids must match")
    x = embeddings.values
    grad = np.zeros_like(x)
    groups = list(_instance_members(gt))
    if not groups:
        return 0.0, grad
    inv_c = 1.0 / len(groups)
    value = 0.0
    for _, members in groups:
        mu = x[members].mean(axis=0)
        diff = mu[None, :] - x[members]
        dist = np.linalg.norm(diff, axis=1)
        excess = dist - margins.delta_v
        active = excess > 0.0
        size = members.shape[0]
        value += inv_c * float(excess[active].sum()) / size
        if not active.any():
            continue
        unit = diff[active] / dist[active, None]
        coeff = inv_c / size
        grad[members[active]] -= coeff * unit
        grad[members] += (coeff / size) * unit.sum(axis=0)
    return value, grad


def _instance_means(
    embeddings: EmbeddingMap, gt: InstanceSegmentation
):
    groups = list(_instance_members(gt))
    means = np.array(
        [embeddings.values[m].mean(axis=0) for _, m in groups]
    ).reshape(len(groups), embeddings.dim)
    return groups, means


def push_loss(
    embeddings: EmbeddingMap,
    gt: InstanceSegmentation,
    margins: Margins = Margins(),
) -> Tuple[float, np.ndarray]:
    """Hinge pushing instance means at least delta_d apart.

    Averages over ordered center pairs; with fewer than two instances
    the loss is defined as zero.
    """
    if embeddings.grid != gt.grid:
        raise ValueError("embedding and segmentation grids must match")
    x = embeddings.values
    grad = np.zeros_like(x)
    groups, means = _instance_means(embeddings, gt)
    c = len(groups)
    if c <= 1:
        return 0.0, grad
    norm = 1.0 / (c * (c - 1))
    value = 0.0
    mean_grad = np.zeros_like(means)
    for a in range(c):
        for b in range(a + 1, c):
            gap = means[a] - means[b]
            dist = float(np.linalg.norm(gap))
            short = margins.delta_d - dist
            if short <= 0.0:
                continue
            value += 2.0 * norm * short
            if dist > 0.0:
                pair = 2.0 * norm * gap / dist
                mean_grad[a] -= pair
                mean_grad[b] += pair
    for (idx, members), g in zip(groups, mean_grad):
        grad[members] += g / members.shape[0]
    return value, grad


def embedding_loss(
    embeddings: EmbeddingMap,
    gt: InstanceSegmentation,
    margins: Margins = Margins(),
) -> Tuple[float, np.ndarray]:
    """Sum of the pull and push terms with summed gradients."""
    v_pull, g_pull = pull_loss(embeddings, gt, margins)
    v_push, g_push = push_loss(embeddings, gt, margins)
    return v_pull + v_push, g_pull + g_push


def pixel_param_loss(
    pred: PixelPlaneParams,
    gt: PixelPlaneParams,
    mask: PlanarMask,
) -> Tuple[float, np.ndarray]:
    """Mean Euclidean norm of per-pixel parameter errors over the mask."""
    if pred.grid != gt.grid or pred.grid != mask.grid:
        raise ValueError("parameter and mask grids must match")
    members = np.nonzero(mask.mask)[0]
    grad = np.zeros_like(pred.params)
    if members.shape[0] == 0:
        return 0.0, grad
    diff = pred.params[members] - gt.params[members]
    dist = np.linalg.norm(diff, axis=1)
    count = members.shape[0]
    value = float(dist.sum()) / count
    nonzero = dist > 0.0
    grad[members[nonzero]] = diff[nonzero] / (dist[nonzero, None] * count)
    return value, grad


def instance_param_loss(
    instance_params: PlaneInstanceParams,
    assignment: SoftAssignment,
    points: PointMap,
) -> Tuple[float, np.ndarray]:
    """Assignment-weighted deviation of instance planes from 3D points.

    Each pixel charges every cluster |n_j . Q_i - 1| weighted by its
    membership; the sum is averaged over assigned pixels and clusters.
    Assigned pixels are taken in fixed spans of ``_IPL_SPAN``, so no
    N x C temporary is built.
    """
    if assignment.grid != points.grid:
        raise ValueError("assignment and point grids must match")
    if instance_params.clusters != assignment.clusters:
        raise ValueError("cluster counts must match between params and assignment")
    rows = assignment.assigned_rows
    if np.any(rows & ~points.validity):
        raise ValueError("assigned pixels must have valid points")
    n_planar = int(rows.sum())
    grad = np.zeros_like(instance_params.params)
    if n_planar == 0:
        return 0.0, grad
    idx = np.flatnonzero(rows)
    total = 0.0
    for start in range(0, n_planar, _IPL_SPAN):
        span = idx[start : start + _IPL_SPAN]
        q = points.points[span]
        s = assignment.weights[span]
        residual = q @ instance_params.params.T
        residual -= 1.0
        total += float(np.einsum("ij,ij->", s, np.abs(residual)))
        signed = np.sign(residual, out=residual)
        signed *= s
        grad += signed.T @ q
    scale = 1.0 / (n_planar * instance_params.clusters)
    grad *= scale
    return scale * total, grad


def total_loss(
    probs: PlanarProbabilityMap,
    gt_mask: PlanarMask,
    embeddings: EmbeddingMap,
    gt_segments: InstanceSegmentation,
    pred_pixel_params: PixelPlaneParams,
    gt_pixel_params: PixelPlaneParams,
    instance_params: PlaneInstanceParams,
    assignment: SoftAssignment,
    points: PointMap,
    margins: Margins = Margins(),
    weight_mode: str = "fraction",
) -> LossReport:
    """Evaluate every term once and assemble the additive report."""
    l_s, _ = balanced_bce(probs, gt_mask, weight_mode)
    l_pull, _ = pull_loss(embeddings, gt_segments, margins)
    l_push, _ = push_loss(embeddings, gt_segments, margins)
    l_pp, _ = pixel_param_loss(pred_pixel_params, gt_pixel_params, gt_mask)
    l_ip, _ = instance_param_loss(instance_params, assignment, points)
    l_e = l_pull + l_push
    return LossReport(
        l_s=l_s,
        l_pull=l_pull,
        l_push=l_push,
        l_e=l_e,
        l_pp=l_pp,
        l_ip=l_ip,
        total=l_s + l_e + l_pp + l_ip,
    )


def central_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Numerical gradient of scalar ``fn`` at ``x`` by central differences."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    base = x.copy()
    probe = base.ravel()
    for i in range(probe.size):
        keep = probe[i]
        probe[i] = keep + h
        hi = fn(base)
        probe[i] = keep - h
        lo = fn(base)
        probe[i] = keep
        flat[i] = (hi - lo) / (2.0 * h)
    return grad
