"""Seeded generators for piecewise-planar scenes and network-like maps.

A scene partitions the pixel grid into Voronoi cells around well-spread
sites, gives each cell a random plane whose rendered depths stay inside
the requested range, and optionally carves a fraction of pixels into the
unlabeled class. Embedding, parameter, and probability generators then
emulate the outputs a trained network would produce for that scene, with
controllable noise.

On one numpy and BLAS build, every output is a pure function of its
seed, bit for bit: the random draws come in a fixed order with fixed
sizes, and the full-grid work is done in a fixed order of floating-point
operations. Per-label rows come from one ``take`` over a table whose
row 0 serves unlabeled pixels, labeled rows are found once with
``flatnonzero``, and the Voronoi distances are formed and reduced one
block of pixels at a time, so that no pass indexes rows by a boolean
mask or holds an N x count matrix. ``perfbench/digests.json`` pins these
outputs for the benchmark's workloads, and ``tests/test_synth.py``
checks them against reference implementations written with boolean
masks and full matrices.

Accepted parameters: ``plane_count`` in [1, 64], ``nonplanar_fraction``
in [0, 1), a ``depth_range`` with 0 < lo < hi < inf, an embedding
``sigma`` and a ``param_noise_sigma`` that are finite and >= 0, and a
``flip_rate`` in [0, 0.5). A sigma so large that the embeddings
overflow raises ValueError, as every other rejected input does.
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
    _frozen_fields,
)
from .geometry import Plane, _instance_normals, _ray_directions, backproject

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
VORONOI_BLOCK = 4096  # pixels per block of the Voronoi distance pass


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
        if not 0.0 < lo < hi < math.inf:
            raise ValueError("depth_range must be finite, positive and increasing")
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
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


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

    Each pixel p takes the first site s that minimizes
    (|p|^2 + |s|^2) - 2p.s, as np.argmin would: the (count, block)
    distances of VORONOI_BLOCK pixels at a time are scanned site by
    site, and a site replaces the best so far only where it is strictly
    closer. Pixel coordinates are integers, so |p|^2 and 2p are exact.
    """
    pix = np.indices((grid.height, grid.width), dtype=np.float64).reshape(2, -1)
    pix_sq, pix2 = (pix * pix).sum(axis=0), 2.0 * pix
    labels = np.empty(grid.n_pixels, dtype=np.int64)
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
        site_sq = np.einsum("ij,ij->i", site_arr, site_arr)
        for a in range(0, grid.n_pixels, VORONOI_BLOCK):
            d2 = site_sq[:, None] + pix_sq[a : a + VORONOI_BLOCK]
            d2 -= site_arr @ pix2[:, a : a + VORONOI_BLOCK]
            best, block = d2[0], labels[a : a + VORONOI_BLOCK]
            block.fill(1)
            for j in range(1, count):
                closer = d2[j] < best
                np.minimum(best, d2[j], out=best)
                block[closer] = j + 1
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
    cell_rays = rays.take(members, axis=0)
    with np.errstate(over="ignore"):  # huge rays fail the depth check below
        anchor_ray = cell_rays.mean(axis=0)
    for _ in range(PLANE_RESAMPLE_LIMIT):
        normal = rng.normal(size=3)
        normal[2] = abs(normal[2]) + 1.0
        normal /= np.linalg.norm(normal)
        z0 = rng.uniform(lo + margin, hi - margin)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails below
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
    depth = np.empty(spec.grid.n_pixels, dtype=np.float64)  # every pixel has a cell
    planes: List[Plane] = []
    sizes = np.bincount(labels, minlength=spec.plane_count + 1)
    # A stable sort lists each cell's pixels in increasing order.
    order = np.argsort(labels.astype(np.uint8), kind="stable")
    for members in np.split(order, np.cumsum(sizes)[:-1])[1:]:
        plane, z = _sample_cell_plane(rng, rays, members, spec.depth_range)
        planes.append(plane)
        depth[members] = z
    carve_count = int(round(spec.nonplanar_fraction * spec.grid.n_pixels))
    if carve_count:
        for _ in range(100):
            carved = rng.choice(spec.grid.n_pixels, size=carve_count, replace=False)
            kept = sizes - np.bincount(labels[carved], minlength=spec.plane_count + 1)
            if kept[1:].min() >= max(1, BALANCE_RATIO * kept[1:].max()):
                labels[carved] = 0
                break
        else:
            raise ValueError("carving kept unbalancing the cells")
    segmentation = InstanceSegmentation(spec.grid, labels, spec.plane_count)
    validity = np.ones(depth.size, dtype=bool)
    depth_map = _frozen_fields(DepthMap, grid=spec.grid, depth=depth, validity=validity)
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
    A sigma so large that the embeddings, or that box's width, overflow
    raises ValueError.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(noise.seed)
    count = scene.spec.plane_count
    centers = _place_centers(rng, count, noise.center_min_gap, dim)
    labels = scene.segmentation.labels
    values = rng.normal(0.0, 1.0, size=(scene.spec.grid.n_pixels, dim))
    with np.errstate(over="ignore"):  # overflow is caught below
        values *= noise.sigma
        values += np.vstack([np.zeros(dim), centers]).take(labels, axis=0)
    background = np.flatnonzero(labels == 0)
    if background.size:
        planar = np.flatnonzero(labels)
        cols = [values[:, j].take(planar) for j in range(dim)]
        lo, hi = np.array([c.min() for c in cols]), np.array([c.max() for c in cols])
        with np.errstate(over="ignore", invalid="ignore"):
            width = hi - lo  # finite only if every planar value is
        if not np.isfinite(width).all():
            raise ValueError(f"embeddings overflow at sigma={noise.sigma}")
        values[background] = rng.uniform(lo, hi, size=(background.size, dim))
    return EmbeddingMap(scene.spec.grid, values)


def generate_pixel_params(
    scene: Scene, param_noise_sigma: float = 0.0, seed: int = 0
) -> PixelPlaneParams:
    """Per-pixel plane parameters: instance truth plus Gaussian noise.

    Unlabeled pixels carry zero vectors. ``param_noise_sigma`` must be
    finite and >= 0.
    """
    if not 0.0 <= param_noise_sigma < math.inf:
        raise ValueError(
            f"param_noise_sigma must be finite and >= 0, got {param_noise_sigma}"
        )
    rng = np.random.default_rng(seed)
    labels = scene.segmentation.labels
    truth = _instance_normals(scene.segmentation, scene.planes)
    params = truth.take(labels, axis=0)
    if param_noise_sigma > 0.0:
        planar = np.flatnonzero(labels)
        params[planar] += rng.normal(0.0, param_noise_sigma, size=(planar.size, 3))
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
        keep = 1.0 - flip_rate
        if keep < 1.0:
            quantile = NormalDist().inv_cdf(keep)
        else:  # a rate below about 1.1e-16 rounds keep to 1, where inv_cdf fails
            quantile = -NormalDist().inv_cdf(flip_rate)
        sigma = base_logit / quantile
        logits += rng.normal(0.0, sigma, size=logits.shape)
    with np.errstate(over="ignore"):  # exp(-logit) = inf gives the limit 0
        probs = 1.0 / (1.0 + np.exp(-logits))
    return _frozen_fields(PlanarProbabilityMap, grid=scene.spec.grid, probs=probs)
