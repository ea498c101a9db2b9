"""Seeded generators for piecewise-planar scenes and network-like maps.

A scene partitions the pixel grid into Voronoi cells around well-spread
sites, gives each cell a random plane whose rendered depths stay inside
the requested range, and optionally carves a fraction of pixels into the
unlabeled class. Embedding, parameter, and probability generators then
emulate the outputs a trained network would produce for that scene, with
controllable noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Tuple

import numpy as np

from .core import (
    CameraIntrinsics,
    DepthMap,
    EmbeddingMap,
    ImageGrid,
    InstanceSegmentation,
    PixelPlaneParams,
    PlanarMask,
    PlanarProbabilityMap,
    PointMap,
)
from .geometry import Plane, _ray_directions, backproject

__all__ = [
    "SceneSpec",
    "EmbeddingNoiseSpec",
    "Scene",
    "generate_scene",
    "generate_embeddings",
    "generate_pixel_params",
    "corrupt_probability",
]

PLANE_RESAMPLE_LIMIT = 1000
CENTER_ATTEMPT_LIMIT = 10000
BALANCE_RATIO = 0.2
EMBED_DOMAIN = 10.0


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one synthetic scene."""

    grid: ImageGrid
    intr: CameraIntrinsics
    plane_count: int = 4
    nonplanar_fraction: float = 0.1
    depth_range: Tuple[float, float] = (1.0, 4.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.plane_count <= 64:
            raise ValueError("plane_count must lie in [1, 64]")
        if not 0.0 <= self.nonplanar_fraction < 1.0:
            raise ValueError("nonplanar_fraction must lie in [0, 1)")
        lo, hi = self.depth_range
        if not (0.0 < lo < hi):
            raise ValueError("depth_range must be positive and increasing")
        if self.plane_count > self.grid.n_pixels:
            raise ValueError("more planes than pixels")


@dataclass(frozen=True)
class EmbeddingNoiseSpec:
    """Noise model for emulated embeddings."""

    center_min_gap: float = 1.5
    sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.center_min_gap > 0.0:
            raise ValueError("center_min_gap must be > 0")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True)
class Scene:
    """Ground truth bundle for one synthetic image."""

    spec: SceneSpec
    segmentation: InstanceSegmentation
    planes: Tuple[Plane, ...]
    depth: DepthMap
    points: PointMap

    @property
    def mask(self) -> PlanarMask:
        return self.segmentation.planar_mask


def _voronoi_labels(
    rng: np.random.Generator, grid: ImageGrid, count: int
) -> np.ndarray:
    """Balanced Voronoi partition of the pixel grid into ``count`` cells.

    Sites are rejection-sampled with a minimum separation, and whole
    site sets are redrawn until the smallest cell holds at least
    BALANCE_RATIO of the largest, so no cell is vanishingly small.
    """
    rows, cols = np.divmod(np.arange(grid.n_pixels), grid.width)
    pix = np.stack([rows, cols], axis=1).astype(np.float64)
    min_sep = 0.7 * math.sqrt(grid.n_pixels / count)
    for _ in range(500):
        sites: List[np.ndarray] = []
        tries = 0
        while len(sites) < count and tries < 1000:
            tries += 1
            cand = np.array(
                [rng.uniform(0, grid.height), rng.uniform(0, grid.width)]
            )
            if all(np.linalg.norm(cand - s) >= min_sep for s in sites):
                sites.append(cand)
        if len(sites) < count:
            continue
        site_arr = np.asarray(sites)
        d2 = (
            np.einsum("ij,ij->i", pix, pix)[:, None]
            + np.einsum("ij,ij->i", site_arr, site_arr)[None, :]
            - 2.0 * pix @ site_arr.T
        )
        labels = np.argmin(d2, axis=1) + 1
        sizes = np.bincount(labels, minlength=count + 1)[1:]
        if sizes.min() >= max(1, BALANCE_RATIO * sizes.max()):
            return labels
    raise ValueError("could not draw a balanced cell partition")


def _sample_cell_plane(
    rng: np.random.Generator,
    rays: np.ndarray,
    members: np.ndarray,
    depth_range: Tuple[float, float],
) -> Tuple[Plane, np.ndarray]:
    """Random plane whose depths over ``members`` stay inside the range."""
    lo, hi = depth_range
    margin = 0.1 * (hi - lo)
    cell_rays = rays[members]
    anchor_ray = cell_rays.mean(axis=0)
    for _ in range(PLANE_RESAMPLE_LIMIT):
        normal = rng.normal(size=3)
        normal[2] = abs(normal[2]) + 1.0
        normal /= np.linalg.norm(normal)
        z0 = rng.uniform(lo + margin, hi - margin)
        offset = float(normal @ (anchor_ray * z0))
        if offset <= 1e-3:
            continue
        n = normal / offset
        denom = cell_rays @ n
        if denom.min() <= 1e-8:
            continue
        z = 1.0 / denom
        if z.min() >= lo and z.max() <= hi:
            return Plane(n), z
    raise ValueError("could not satisfy depth_range for a cell plane")


def generate_scene(spec: SceneSpec) -> Scene:
    """Deterministically build the scene described by ``spec``."""
    rng = np.random.default_rng(spec.seed)
    labels = _voronoi_labels(rng, spec.grid, spec.plane_count)
    rays = _ray_directions(spec.grid, spec.intr)
    depth = np.zeros(spec.grid.n_pixels, dtype=np.float64)
    planes: List[Plane] = []
    for idx in range(1, spec.plane_count + 1):
        members = np.nonzero(labels == idx)[0]
        plane, z = _sample_cell_plane(rng, rays, members, spec.depth_range)
        planes.append(plane)
        depth[members] = z
    carve_count = int(round(spec.nonplanar_fraction * spec.grid.n_pixels))
    if carve_count:
        for _ in range(100):
            carved = rng.choice(spec.grid.n_pixels, size=carve_count, replace=False)
            trial = labels.copy()
            trial[carved] = 0
            sizes = np.bincount(trial, minlength=spec.plane_count + 1)[1:]
            if sizes.min() >= max(1, BALANCE_RATIO * sizes.max()):
                labels = trial
                break
        else:
            raise ValueError("carving kept unbalancing the cells")
    segmentation = InstanceSegmentation(spec.grid, labels, spec.plane_count)
    depth_map = DepthMap(spec.grid, depth)
    points = backproject(depth_map, spec.intr)
    return Scene(spec, segmentation, tuple(planes), depth_map, points)


def _place_centers(
    rng: np.random.Generator, count: int, gap: float, dim: int
) -> np.ndarray:
    centers: List[np.ndarray] = []
    for _ in range(CENTER_ATTEMPT_LIMIT):
        cand = rng.uniform(0.0, EMBED_DOMAIN, size=dim)
        if all(np.linalg.norm(cand - c) >= gap for c in centers):
            centers.append(cand)
            if len(centers) == count:
                return np.asarray(centers)
    raise ValueError("could not place embedding centers with the requested gap")


def generate_embeddings(
    scene: Scene, noise: EmbeddingNoiseSpec, dim: int = 2
) -> EmbeddingMap:
    """Emulated embeddings: one center per instance plus Gaussian noise.

    Unlabeled pixels draw uniformly over the bounding box of the labeled
    embeddings, modeling background pixels scattered across the space.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(noise.seed)
    count = scene.spec.plane_count
    centers = _place_centers(rng, count, noise.center_min_gap, dim)
    labels = scene.segmentation.labels
    values = np.zeros((scene.spec.grid.n_pixels, dim), dtype=np.float64)
    planar = labels > 0
    jitter = rng.normal(0.0, 1.0, size=(scene.spec.grid.n_pixels, dim))
    values[planar] = centers[labels[planar] - 1] + noise.sigma * jitter[planar]
    background = ~planar
    if background.any():
        lo = values[planar].min(axis=0)
        hi = values[planar].max(axis=0)
        values[background] = rng.uniform(
            lo, hi, size=(int(background.sum()), dim)
        )
    return EmbeddingMap(scene.spec.grid, values)


def generate_pixel_params(
    scene: Scene, param_noise_sigma: float = 0.0, seed: int = 0
) -> PixelPlaneParams:
    """Per-pixel plane parameters: instance truth plus Gaussian noise.

    Unlabeled pixels carry zero vectors.
    """
    if param_noise_sigma < 0.0:
        raise ValueError("param_noise_sigma must be >= 0")
    rng = np.random.default_rng(seed)
    labels = scene.segmentation.labels
    params = np.zeros((scene.spec.grid.n_pixels, 3), dtype=np.float64)
    planar = labels > 0
    truth = np.stack([p.n for p in scene.planes])
    params[planar] = truth[labels[planar] - 1]
    if param_noise_sigma > 0.0:
        params[planar] += rng.normal(
            0.0, param_noise_sigma, size=(int(planar.sum()), 3)
        )
    return PixelPlaneParams(scene.spec.grid, params)


def corrupt_probability(
    scene: Scene, flip_rate: float = 0.0, seed: int = 0
) -> PlanarProbabilityMap:
    """Planar indicator pushed through noisy logits.

    The logit noise scale is calibrated so that, in expectation, a
    ``flip_rate`` fraction of pixels crosses the 0.5 probability
    threshold to the wrong side. A noise scale sigma flips a pixel with
    probability Phi(-2 / sigma), which stays below 0.5 for every finite
    sigma, so ``flip_rate`` must lie in [0, 0.5).
    """
    if not 0.0 <= flip_rate < 0.5:
        raise ValueError(f"flip_rate must lie in [0, 0.5), got {flip_rate}")
    rng = np.random.default_rng(seed)
    base_logit = 2.0
    logits = np.where(scene.segmentation.labels > 0, base_logit, -base_logit)
    if flip_rate > 0.0:
        sigma = base_logit / NormalDist().inv_cdf(1.0 - flip_rate)
        logits = logits + rng.normal(0.0, sigma, size=logits.shape)
    probs = 1.0 / (1.0 + np.exp(-logits))
    return PlanarProbabilityMap(scene.spec.grid, probs)
