"""Finite-difference verification of every analytic loss gradient.

Each check draws random inputs resampled to sit at least a safety
margin away from hinge/absolute-value kinks and from clamp boundaries,
evaluates the analytic gradient, and compares it against central
differences coordinate by coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .core import (
    EmbeddingMap,
    ImageGrid,
    InstanceSegmentation,
    PixelPlaneParams,
    PlanarMask,
    PlanarProbabilityMap,
    PlaneInstanceParams,
    PointMap,
    SoftAssignment,
)
from .losses import (
    Margins,
    _instances,
    _row_norms,
    balanced_bce,
    central_difference,
    instance_param_loss,
    pixel_param_loss,
    pull_loss,
    push_loss,
)

__all__ = ["GradCheckResult", "run_gradient_checks", "LOSS_NAMES"]

KINK_MARGIN = 1e-3


@dataclass(frozen=True)
class GradCheckResult:
    """Outcome of one loss's finite-difference sweep."""

    name: str
    samples: int
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(
        float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-8
    )
    return float(np.linalg.norm(analytic - numeric)) / scale


def _off_kink_draw(draw: Callable, off_kink: Callable, what: str):
    """The first of up to 1000 calls of ``draw`` that ``off_kink`` accepts."""
    for _ in range(1000):
        sample = draw()
        if off_kink(sample):
            return sample
    raise RuntimeError(f"could not sample an off-kink {what} configuration")


def _random_segmentation(
    rng: np.random.Generator, grid: ImageGrid, n_instances: int
) -> InstanceSegmentation:
    labels = rng.integers(1, n_instances + 1, size=grid.n_pixels)
    for idx in range(1, n_instances + 1):
        labels[idx - 1] = idx  # guarantee every instance is nonempty
    return InstanceSegmentation(grid, labels, n_instances)


def _check_balanced_bce(rng: np.random.Generator, h: float) -> float:
    grid = ImageGrid(4, 5)
    mask = np.zeros(grid.n_pixels, dtype=bool)
    mask[rng.permutation(grid.n_pixels)[: grid.n_pixels // 2]] = True
    probs = rng.uniform(0.05, 0.95, size=grid.n_pixels)
    gt = PlanarMask(grid, mask)
    _, grad = balanced_bce(PlanarProbabilityMap(grid, probs), gt)

    def value(p: np.ndarray) -> float:
        return balanced_bce(PlanarProbabilityMap(grid, p), gt)[0]

    return _rel_err(grad, central_difference(value, probs, h))


def _check_pull(rng: np.random.Generator, h: float) -> float:
    grid = ImageGrid(3, 4)
    margins = Margins()
    seg = _random_segmentation(rng, grid, 3)
    emb = _off_kink_draw(
        lambda: EmbeddingMap(grid, rng.normal(0.0, 2.0, size=(grid.n_pixels, 2))),
        lambda e: _pull_off_kink(e, seg, margins),
        "pull",
    )
    _, grad = pull_loss(emb, seg, margins)

    def value(v: np.ndarray) -> float:
        return pull_loss(EmbeddingMap(grid, v), seg, margins)[0]

    return _rel_err(grad, central_difference(value, emb.values, h))


def _pull_off_kink(
    emb: EmbeddingMap, seg: InstanceSegmentation, margins: Margins
) -> bool:
    """No labeled pixel lies within ``KINK_MARGIN`` of distance delta_v
    from its instance mean, the means and distances taken as
    :func:`pull_loss` takes them."""
    inst = _instances(emb, seg)
    offsets = inst.means.take(inst.labels, axis=1)
    offsets -= inst.columns
    near = np.abs(_row_norms(offsets) - margins.delta_v) < KINK_MARGIN
    return not np.any(near & (inst.labels > 0))


def _check_push(rng: np.random.Generator, h: float) -> float:
    grid = ImageGrid(3, 4)
    margins = Margins()
    seg = _random_segmentation(rng, grid, 3)
    emb = _off_kink_draw(
        lambda: EmbeddingMap(grid, rng.normal(0.0, 1.0, size=(grid.n_pixels, 2))),
        lambda e: _push_off_kink(e, seg, margins),
        "push",
    )
    _, grad = push_loss(emb, seg, margins)

    def value(v: np.ndarray) -> float:
        return push_loss(EmbeddingMap(grid, v), seg, margins)[0]

    return _rel_err(grad, central_difference(value, emb.values, h))


def _push_off_kink(
    emb: EmbeddingMap, seg: InstanceSegmentation, margins: Margins
) -> bool:
    """No two instance means lie within ``KINK_MARGIN`` of distance
    delta_d, or of each other, the means taken as :func:`push_loss`
    takes them."""
    inst = _instances(emb, seg)
    means = inst.means.take(np.flatnonzero(inst.live), axis=1)
    first, second = np.triu_indices(means.shape[1], 1)
    dist = _row_norms(means.take(first, axis=1) - means.take(second, axis=1))
    near = (np.abs(dist - margins.delta_d) < KINK_MARGIN) | (dist < KINK_MARGIN)
    return not np.any(near)


def _check_pixel_param(rng: np.random.Generator, h: float) -> float:
    grid = ImageGrid(3, 4)
    mask_arr = rng.uniform(size=grid.n_pixels) < 0.7
    mask_arr[0] = True
    mask = PlanarMask(grid, mask_arr)
    gt = PixelPlaneParams(grid, rng.normal(size=(grid.n_pixels, 3)))
    pred_arr = _off_kink_draw(
        lambda: gt.params + rng.normal(0.0, 1.0, size=(grid.n_pixels, 3)),
        lambda v: np.linalg.norm(v - gt.params, axis=1)[mask_arr].min() > KINK_MARGIN,
        "parameter",
    )
    _, grad = pixel_param_loss(PixelPlaneParams(grid, pred_arr), gt, mask)

    def value(v: np.ndarray) -> float:
        return pixel_param_loss(PixelPlaneParams(grid, v), gt, mask)[0]

    return _rel_err(grad, central_difference(value, pred_arr, h))


def _check_instance_param(rng: np.random.Generator, h: float) -> float:
    grid = ImageGrid(3, 4)
    n_clusters = 3
    weights = rng.uniform(0.1, 1.0, size=(grid.n_pixels, n_clusters))
    weights /= weights.sum(axis=1, keepdims=True)
    assignment = SoftAssignment(grid, weights)
    points = PointMap(
        grid, rng.uniform(0.5, 3.0, size=(grid.n_pixels, 3))
    )
    params = _off_kink_draw(
        lambda: rng.normal(0.0, 0.7, size=(n_clusters, 3)),
        lambda v: np.linalg.norm(v, axis=1).min() > 1e-2
        and np.abs(points.points @ v.T - 1.0).min() > KINK_MARGIN,
        "residual",
    )
    _, grad = instance_param_loss(PlaneInstanceParams(params), assignment, points)

    def value(v: np.ndarray) -> float:
        return instance_param_loss(
            PlaneInstanceParams(v), assignment, points
        )[0]

    return _rel_err(grad, central_difference(value, params, h))


_CHECKS: Dict[str, Callable[[np.random.Generator, float], float]] = {
    "balanced_bce": _check_balanced_bce,
    "pull_loss": _check_pull,
    "push_loss": _check_push,
    "pixel_param_loss": _check_pixel_param,
    "instance_param_loss": _check_instance_param,
}

LOSS_NAMES = tuple(_CHECKS)


def run_gradient_checks(
    samples: int = 100,
    seed: int = 0,
    h: float = 1e-5,
    tolerance: float = 1e-4,
) -> List[GradCheckResult]:
    """Sweep every loss over ``samples`` (at least 1) random off-kink points."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    results = []
    for name, check in _CHECKS.items():
        worst = 0.0
        for _ in range(samples):
            worst = max(worst, check(rng, h))
        results.append(
            GradCheckResult(
                name=name, samples=samples, max_rel_err=worst, tolerance=tolerance
            )
        )
    return results
