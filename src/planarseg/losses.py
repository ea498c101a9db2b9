"""Training loss terms as pure value-and-gradient functions.

Every loss returns ``(value, gradient)`` where the gradient matches the
shape of the differentiated input. Hinge and absolute-value kinks use
subgradient zero, and instance means are always recomputed from the
supplied embeddings so gradients flow through them. The segmentation
loss is the paper's balanced cross entropy, weighted by the fraction of
planar pixels.

The losses carry integer labels, not per-instance index lists. The
pull/push pair takes instance sizes and means from ``np.bincount`` over
the labels and reads per-pixel terms back with one gather per axis, so
it costs O(N * d + C^2 * d) whatever the instance count C.
:func:`embedding_loss` and :func:`total_loss` compute the means once
for both terms. The per-pixel losses run axis by axis over contiguous
columns, with no row gathers or scatters. Rows outside the labels or
the mask are zeroed before any arithmetic, so their values never reach
a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

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
    probs: PlanarProbabilityMap, gt: PlanarMask
) -> Tuple[float, np.ndarray]:
    """Class-balanced binary cross entropy over the planar mask.

    With w = |F| / N, the foreground fraction, the background sum is
    weighted by w and the foreground sum by 1 - w, as in the paper.
    Probabilities are clamped to [1e-12, 1 - 1e-12] before the log; the
    gradient is zero where the clamp is active.
    """
    if probs.grid != gt.grid:
        raise ValueError("probability and mask grids must match")
    fg, bg = gt.mask, ~gt.mask
    fg_idx, bg_idx = np.flatnonzero(fg), np.flatnonzero(bg)
    n_fg, n_bg = fg_idx.shape[0], bg_idx.shape[0]
    if n_fg == 0 or n_bg == 0:
        raise ValueError("degenerate class balance: need both classes present")
    w = n_fg / (n_fg + n_bg)
    fg_coeff, bg_coeff = 1.0 - w, w
    p = np.clip(probs.probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = -fg_coeff * float(np.log(p.take(fg_idx)).sum())
    value -= bg_coeff * float(np.log1p(-p.take(bg_idx)).sum())
    grad = np.zeros(gt.grid.n_pixels, dtype=np.float64)
    unclamped = (probs.probs > PROB_CLAMP) & (probs.probs < 1.0 - PROB_CLAMP)
    fg_live = np.flatnonzero(fg & unclamped)
    bg_live = np.flatnonzero(bg & unclamped)
    grad[fg_live] = -fg_coeff / p.take(fg_live)
    grad[bg_live] = bg_coeff / (1.0 - p.take(bg_live))
    return value, grad


class _Instances(NamedTuple):
    """The labeled pixels of a segmentation, summed by instance ID.

    Per-ID tables have one entry for each ID 0..n_instances. Entry 0
    (unlabeled) and the entries of IDs that own no pixel are zero, so a
    gather over the labels reads zeros on unlabeled pixels. Arrays are
    kept axis by axis, (d, N) and (d, C + 1), so every per-axis pass
    runs over contiguous memory.
    """

    labels: np.ndarray  # (N,) the segmentation's labels
    columns: np.ndarray  # (d, N) the embeddings, zero on unlabeled pixels
    live: np.ndarray  # (C + 1,) bool: the IDs that own a pixel
    sizes: np.ndarray  # (C + 1,) pixels per ID, float
    means: np.ndarray  # (d, C + 1) mean embedding per ID


def _instances(embeddings: EmbeddingMap, gt: InstanceSegmentation) -> _Instances:
    """Sizes and means of every instance from one ``np.bincount`` for the
    counts and one per axis, O(N * d) whatever the instance count.

    Each sum adds an instance's members in pixel order, as
    ``x[members].mean(axis=0)`` does.
    """
    if embeddings.grid != gt.grid:
        raise ValueError("embedding and segmentation grids must match")
    labels = gt.labels
    bins = gt.n_instances + 1
    columns = _columns(embeddings.values, labels > 0)
    sizes = np.bincount(labels, minlength=bins).astype(np.float64)
    sizes[0] = 0.0
    live = sizes > 0.0
    means = np.zeros((embeddings.dim, bins))
    for mean, column in zip(means, columns):
        sums = np.bincount(labels, weights=column, minlength=bins)
        np.divide(sums, sizes, out=mean, where=live)
    return _Instances(labels, columns, live, sizes, means)


def _pull(inst: _Instances, margins: Margins) -> Tuple[float, np.ndarray]:
    """The pull hinge of :func:`pull_loss` in O(N * d).

    With c live instances, member i of instance k (size n_k, mean mu_k)
    at distance r_i = |mu_k - x_i| adds (r_i - delta_v) / (c n_k) when
    active. Its gradient is -u_i / (c n_k) on x_i, for the unit offset
    u_i = (mu_k - x_i) / r_i, plus the shared term U_k / (c n_k^2) on
    every member, with U_k the sum of the instance's active u_i.
    """
    labels, live, sizes = inst.labels, inst.live, inst.sizes
    grad = np.zeros(inst.columns.shape[::-1])
    c = int(np.count_nonzero(live))
    if c == 0:
        return 0.0, grad
    inv_c = 1.0 / c
    diff = inst.means.take(labels, axis=1)
    diff -= inst.columns
    dist = _row_norms(diff)
    excess = dist - margins.delta_v
    active = excess > 0.0
    bins = sizes.shape[0]
    hinge = np.bincount(labels, weights=np.maximum(excess, 0.0), minlength=bins)
    value = float((inv_c * hinge[live] / sizes[live]).sum())
    if not active.any():
        return value, grad
    diff /= np.where(active, dist, np.inf)  # the unit offsets, 0 where inactive
    coeff = np.zeros(bins)
    np.divide(inv_c, sizes, out=coeff, where=live)
    spread = coeff / np.where(live, sizes, 1.0)
    direct = coeff.take(labels)
    for axis, unit in enumerate(diff):
        shared = np.bincount(labels, weights=unit, minlength=bins)
        shared *= spread
        unit *= direct
        grad[:, axis] = shared.take(labels) - unit
    return value, grad


def _push(inst: _Instances, margins: Margins) -> Tuple[float, np.ndarray]:
    """The push hinge of :func:`push_loss` in O(C^2 * d + N * d), with
    the c (c - 1) / 2 pairs of live means held at once.

    Over the c (c - 1) / 2 pairs a < b of live means at distance
    r_ab < delta_d, the value adds 2 (delta_d - r_ab) / (c (c - 1)).
    The pair's gradient 2 (mu_a - mu_b) / (c (c - 1) r_ab) is taken
    from mu_a and added to mu_b; coincident means (r_ab = 0) add to the
    value but give no gradient. Each member of instance k gets its
    mean's gradient over n_k, in one gather over the labels.
    """
    live = np.flatnonzero(inst.live)
    c = live.shape[0]
    grad = np.zeros(inst.columns.shape[::-1])
    if c <= 1:
        return 0.0, grad
    norm = 1.0 / (c * (c - 1))
    means = inst.means.take(live, axis=1)
    first, second = np.triu_indices(c, 1)
    gap = means.take(first, axis=1) - means.take(second, axis=1)
    dist = _row_norms(gap)
    short = margins.delta_d - dist
    close = short > 0.0
    value = float((2.0 * norm * short[close]).sum())
    apart = close & (dist > 0.0)
    if not apart.any():
        return value, grad
    first, second = first[apart], second[apart]
    table = np.zeros(inst.sizes.shape[0])
    for axis, column in enumerate(gap):
        pair = 2.0 * norm * column[apart] / dist[apart]
        table[live] = np.bincount(second, weights=pair, minlength=c)
        table[live] -= np.bincount(first, weights=pair, minlength=c)
        table[live] /= inst.sizes[live]
        grad[:, axis] = table.take(inst.labels)
    return value, grad


def _columns(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``rows`` axis by axis, (d, N), with the rows outside ``keep``
    multiplied by zero before any other arithmetic, so values there,
    however large, can neither overflow nor reach a result."""
    columns = rows.T.copy()
    columns *= keep
    return columns


def _row_norms(columns: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each point stored axis by axis, summing the
    squares in axis order as ``np.linalg.norm(rows, axis=1)`` does."""
    total = columns[0] * columns[0]
    for column in columns[1:]:
        total += column * column
    return np.sqrt(total, out=total)


def pull_loss(
    embeddings: EmbeddingMap,
    gt: InstanceSegmentation,
    margins: Margins = Margins(),
) -> Tuple[float, np.ndarray]:
    """Hinge pulling each embedding within delta_v of its instance mean.

    The mean is a function of the embeddings, so each active member
    contributes both a direct term and a shared term spread across its
    whole instance. Averages over the instances that own a pixel.
    """
    return _pull(_instances(embeddings, gt), margins)


def push_loss(
    embeddings: EmbeddingMap,
    gt: InstanceSegmentation,
    margins: Margins = Margins(),
) -> Tuple[float, np.ndarray]:
    """Hinge pushing instance means at least delta_d apart.

    Averages over ordered center pairs; with fewer than two instances
    the loss is defined as zero.
    """
    return _push(_instances(embeddings, gt), margins)


def embedding_loss(
    embeddings: EmbeddingMap,
    gt: InstanceSegmentation,
    margins: Margins = Margins(),
) -> Tuple[float, np.ndarray]:
    """Sum of the pull and push terms with summed gradients; the instance
    means are computed once for both."""
    inst = _instances(embeddings, gt)
    v_pull, g_pull = _pull(inst, margins)
    v_push, g_push = _push(inst, margins)
    return v_pull + v_push, g_pull + g_push


def pixel_param_loss(
    pred: PixelPlaneParams,
    gt: PixelPlaneParams,
    mask: PlanarMask,
) -> Tuple[float, np.ndarray]:
    """Mean Euclidean norm of per-pixel parameter errors over the mask.

    Runs axis by axis over whole contiguous columns, with unmasked rows
    zeroed first.
    """
    if pred.grid != gt.grid or pred.grid != mask.grid:
        raise ValueError("parameter and mask grids must match")
    grad = np.zeros_like(pred.params)
    count = int(np.count_nonzero(mask.mask))
    if count == 0:
        return 0.0, grad
    diff = _columns(pred.params, mask.mask)
    diff -= _columns(gt.params, mask.mask)
    dist = _row_norms(diff)
    value = float(dist.sum()) / count
    dist *= count
    diff /= np.where(dist > 0.0, dist, np.inf)
    for axis, column in enumerate(diff):
        grad[:, axis] = column
    return value, grad


def instance_param_loss(
    instance_params: PlaneInstanceParams,
    assignment: SoftAssignment,
    points: PointMap,
) -> Tuple[float, np.ndarray]:
    """Assignment-weighted deviation of instance planes from 3D points.

    Each pixel charges every cluster |n_j . Q_i - 1| weighted by its
    membership; the sum is averaged over assigned pixels and clusters.
    The memberships come from the assignment's cluster-major (C, M)
    block of assigned weights, read in fixed spans of ``core._BLOCK_SPAN``
    columns: per span the residuals form as (C, span) beside the
    block's own columns, so no N x C array is read or built.
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
    total = 0.0
    for span, s in assignment._block_spans():
        q = points.points.take(span, axis=0)
        residual = instance_params.params @ q.T
        residual -= 1.0
        signed = np.sign(residual)
        signed *= s
        total += float(np.vdot(signed, residual))  # s |r|, term by term exactly
        grad += signed @ q
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
) -> LossReport:
    """Evaluate every term once and assemble the additive report."""
    l_s, _ = balanced_bce(probs, gt_mask)
    inst = _instances(embeddings, gt_segments)
    l_pull, _ = _pull(inst, margins)
    l_push, _ = _push(inst, margins)
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
    """Numerical gradient of scalar ``fn`` at ``x`` by central differences
    of step ``h``, which must be finite and > 0."""
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h}")
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
