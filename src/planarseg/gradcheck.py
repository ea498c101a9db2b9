"""Finite-difference verification of every analytic loss gradient.

Each loss has one case, which draws random inputs resampled to sit at
least ``KINK_MARGIN`` away from hinge/absolute-value kinks and from
clamp boundaries. One driver, :func:`run_gradient_checks`, runs every
case the same way: the analytic gradient, central differences of step
1e-5 coordinate by coordinate, and their relative error, whose maximum
over the samples must stay below ``TOLERANCE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
    _checked_int,
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
TOLERANCE = 1e-4


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


def _off_kink_draw(draw: Callable, off_kink: Callable):
    """The first of up to 1000 calls of ``draw`` that ``off_kink`` accepts."""
    for _ in range(1000):
        sample = draw()
        if off_kink(sample):
            return sample
    raise RuntimeError("could not sample an off-kink configuration")


def _random_segmentation(
    rng: np.random.Generator, grid: ImageGrid, n_instances: int
) -> InstanceSegmentation:
    labels = rng.integers(1, n_instances + 1, size=grid.n_pixels)
    for idx in range(1, n_instances + 1):
        labels[idx - 1] = idx  # guarantee every instance is nonempty
    return InstanceSegmentation(grid, labels, n_instances)


def _bce_case(rng: np.random.Generator):
    grid = ImageGrid(4, 5)
    mask = np.zeros(grid.n_pixels, dtype=bool)
    mask[rng.permutation(grid.n_pixels)[: grid.n_pixels // 2]] = True
    probs = rng.uniform(0.05, 0.95, size=grid.n_pixels)
    gt = PlanarMask(grid, mask)
    return lambda p: (PlanarProbabilityMap(grid, p), gt), probs


def _embedding_case(sigma: float, off_kink: Callable, rng: np.random.Generator):
    """The pull and push case: embeddings of spread ``sigma`` that
    ``off_kink`` accepts, over a random three-instance segmentation."""
    grid = ImageGrid(3, 4)
    margins = Margins()
    seg = _random_segmentation(rng, grid, 3)
    emb = _off_kink_draw(
        lambda: EmbeddingMap(grid, rng.normal(0.0, sigma, size=(grid.n_pixels, 2))),
        lambda e: off_kink(e, seg, margins),
    )
    return lambda v: (EmbeddingMap(grid, v), seg, margins), emb.values


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


def _pixel_param_case(rng: np.random.Generator):
    grid = ImageGrid(3, 4)
    mask_arr = rng.uniform(size=grid.n_pixels) < 0.7
    mask_arr[0] = True
    mask = PlanarMask(grid, mask_arr)
    gt = PixelPlaneParams(grid, rng.normal(size=(grid.n_pixels, 3)))
    pred_arr = _off_kink_draw(
        lambda: gt.params + rng.normal(0.0, 1.0, size=(grid.n_pixels, 3)),
        lambda v: np.linalg.norm(v - gt.params, axis=1)[mask_arr].min() > KINK_MARGIN,
    )
    return lambda v: (PixelPlaneParams(grid, v), gt, mask), pred_arr


def _instance_param_case(rng: np.random.Generator):
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
    )
    return lambda v: (PlaneInstanceParams(v), assignment, points), params


# Each case draws one off-kink point x and returns (the map from a value
# of x to the arguments of the loss the case is keyed by, x).
_CASES: Dict[str, Callable] = {
    "balanced_bce": _bce_case,
    "pull_loss": partial(_embedding_case, 2.0, _pull_off_kink),
    "push_loss": partial(_embedding_case, 1.0, _push_off_kink),
    "pixel_param_loss": _pixel_param_case,
    "instance_param_loss": _instance_param_case,
}

LOSS_NAMES = tuple(_CASES)


def run_gradient_checks(samples: int = 100, seed: int = 0) -> List[GradCheckResult]:
    """Sweep every loss over ``samples`` (an integer, at least 1) random
    off-kink points, comparing its analytic gradient with central
    differences of :func:`central_difference`'s default step."""
    samples = _checked_int("samples", samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    results = []
    for name, case in _CASES.items():
        loss = globals()[name]  # looked up per run, so a patched loss is checked
        worst = 0.0
        for _ in range(samples):
            args_of, x = case(rng)
            grad = loss(*args_of(x))[1]
            numeric = central_difference(lambda v: loss(*args_of(v))[0], x)
            worst = max(worst, _rel_err(grad, numeric))
        results.append(GradCheckResult(name, samples, worst, TOLERANCE))
    return results
