"""Plane parameterization, depth geometry, pooling, and plane fitting.

A plane is stored as a single 3-vector ``n`` such that on-plane points
satisfy n . Q = 1; the unit normal is n / |n| and the camera-to-plane
offset is 1 / |n|. This keeps every per-pixel and per-instance parameter
a plain 3-vector.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    CameraIntrinsics,
    DepthMap,
    ImageGrid,
    InstanceSegmentation,
    PixelPlaneParams,
    PlaneInstanceParams,
    PointMap,
    SoftAssignment,
)

__all__ = [
    "Plane",
    "EPS_PLANE",
    "EPS_RAY",
    "backproject",
    "depth_from_plane",
    "render_segment_depth",
    "pool_instance_params",
    "one_hot_assignment",
    "fit_plane_lsq",
    "fit_planes_ransac_merge",
    "normal_angle",
]

EPS_PLANE = 1e-6
EPS_RAY = 1e-8
RANSAC_ITERATIONS = 200


@dataclass(frozen=True)
class Plane:
    """Plane encoded as the 3-vector n with n . Q = 1 for on-plane Q."""

    n: np.ndarray

    def __post_init__(self) -> None:
        n = np.array(self.n, dtype=np.float64, copy=True).reshape(3)
        if not np.all(np.isfinite(n)):
            raise ValueError("plane vector must be finite")
        if np.linalg.norm(n) < EPS_PLANE:
            raise ValueError(f"plane vector norm below {EPS_PLANE}")
        n.flags.writeable = False
        object.__setattr__(self, "n", n)

    @property
    def unit_normal(self) -> np.ndarray:
        return self.n / np.linalg.norm(self.n)

    @property
    def offset(self) -> float:
        """Distance from the camera center to the plane."""
        return float(1.0 / np.linalg.norm(self.n))


def _ray_coords(
    grid: ImageGrid, intr: CameraIntrinsics
) -> Tuple[np.ndarray, np.ndarray]:
    """Viewing-ray coordinates x/z per column and y/z per row; the ray
    of pixel (row, col) is (x[col], y[row], 1)."""
    x = (np.arange(grid.width) - intr.cx) / intr.fx
    y = (np.arange(grid.height) - intr.cy) / intr.fy
    return x, y


def _ray_directions(grid: ImageGrid, intr: CameraIntrinsics) -> np.ndarray:
    """Unnormalized viewing rays (x/z, y/z, 1) per pixel, row-major."""
    v, u = np.divmod(np.arange(grid.n_pixels), grid.width)
    rays = np.empty((grid.n_pixels, 3), dtype=np.float64)
    rays[:, 0] = (u - intr.cx) / intr.fx
    rays[:, 1] = (v - intr.cy) / intr.fy
    rays[:, 2] = 1.0
    return rays


def _render(
    grid: ImageGrid, intr: CameraIntrinsics, labels: np.ndarray, normals: np.ndarray
) -> DepthMap:
    """Depth where each pixel's ray meets its own plane, in one gather.

    Pixel i lies on the plane in row ``labels[i]`` of the (K, 3)
    ``normals``. Depth is 1 / (ray . n) where that denominator exceeds
    ``EPS_RAY``; elsewhere the ray is (near-)parallel to the plane or
    meets it behind the camera, and the pixel is invalid. An all-zero
    row therefore renders its pixels invalid. The ray coordinates come
    per column and per row, and each plane coefficient is gathered per
    pixel, so the cost is O(N) whatever K is.
    """
    x, y = _ray_coords(grid, intr)
    nx, ny, nz = (
        np.ascontiguousarray(column).take(labels).reshape(grid.height, grid.width)
        for column in normals.T
    )
    denom = (nx * x + ny * y[:, None] + nz).reshape(-1)
    valid = denom > EPS_RAY
    depth = np.zeros(grid.n_pixels, dtype=np.float64)
    np.divide(1.0, denom, out=depth, where=valid)
    return DepthMap(grid, depth, valid)


def backproject(depth: DepthMap, intr: CameraIntrinsics) -> PointMap:
    """Lift a depth map to camera-frame 3D points along pixel rays.

    The point of pixel (row, col) is depth * (x[col], y[row], 1), with
    the ray coordinates taken once per column and once per row, so no
    per-pixel ray array is built.
    """
    grid = depth.grid
    x, y = _ray_coords(grid, intr)
    z = depth.depth.reshape(grid.height, grid.width)
    points = np.empty((grid.height, grid.width, 3), dtype=np.float64)
    np.multiply(x, z, out=points[:, :, 0])
    np.multiply(y[:, None], z, out=points[:, :, 1])
    points[:, :, 2] = z
    return PointMap(grid, points.reshape(-1, 3), depth.validity)


def depth_from_plane(
    plane: Plane, grid: ImageGrid, intr: CameraIntrinsics
) -> DepthMap:
    """Render the depth of a plane at every pixel ray.

    Pixels whose ray is (near-)parallel to the plane or would intersect
    it behind the camera are marked invalid instead of producing huge or
    negative depths.
    """
    return _render(
        grid, intr, np.zeros(grid.n_pixels, dtype=np.int64), plane.n[None, :]
    )


def render_segment_depth(
    segments: InstanceSegmentation,
    planes: Sequence[Plane],
    intr: CameraIntrinsics,
) -> DepthMap:
    """Compose per-instance plane depths over a segmentation.

    Every pixel is rendered on its own instance's plane in one gather,
    so the cost is O(N) whatever the plane count. Pixels labeled 0 or
    falling on an invalid ray are invalid.
    """
    if len(planes) != segments.n_instances:
        raise ValueError(
            f"need one plane per instance: {len(planes)} planes for "
            f"{segments.n_instances} instances"
        )
    unlabeled = np.zeros((1, 3))  # a zero denominator: never a valid depth
    normals = np.concatenate([unlabeled] + [plane.n[None, :] for plane in planes])
    return _render(segments.grid, intr, segments.labels, normals)


def pool_instance_params(
    pixel_params: PixelPlaneParams, assignment: SoftAssignment
) -> PlaneInstanceParams:
    """Assignment-weighted average of pixel parameters per cluster.

    An indicator assignment (:func:`one_hot_assignment`) averages each
    instance's pixels from its labels: one ``np.bincount`` for the
    counts and one per axis, with no N x C array. Any other assignment
    takes the BLAS product with its dense weights.
    """
    if pixel_params.grid != assignment.grid:
        raise ValueError("pixel params and assignment grids must match")
    params = pixel_params.params
    if assignment._indicator:
        labels, bins = assignment.labels, assignment.clusters + 1
        mass = np.bincount(labels, minlength=bins)[1:].astype(np.float64)
        sums = np.stack(
            [np.bincount(labels, column, minlength=bins)[1:] for column in params.T],
            axis=1,
        )
    else:
        weights = assignment.weights
        mass = np.ones(weights.shape[0]) @ weights
        sums = weights.T @ params
    if np.any(mass <= 0.0):
        raise ValueError("empty instance")
    return PlaneInstanceParams(sums / mass[:, None])


def one_hot_assignment(segments: InstanceSegmentation) -> SoftAssignment:
    """Indicator assignment putting each labeled pixel fully on its instance.

    The assignment is defined by the labels. Its weights are built only
    if read: each pixel takes row ``label`` of a (C + 1, C) table whose
    row 0 is all-zero and whose row j is the indicator of instance j, in
    one gather.
    """
    if segments.n_instances < 1:
        raise ValueError("segmentation has no instances")
    assigned = segments.labels > 0
    assigned.flags.writeable = False
    table = np.eye(segments.n_instances + 1, segments.n_instances, k=-1)
    return SoftAssignment._from_source(
        segments.grid,
        segments.n_instances,
        assigned,
        labels=segments.labels.view,
        weights=partial(table.take, segments.labels, axis=0),
        indicator=True,
    )


def fit_plane_lsq(
    points: PointMap, subset: np.ndarray
) -> Tuple[Plane, float]:
    """Least-squares plane through the valid points at ``subset`` indices.

    Solves for n minimizing |Q n - 1|^2 via SVD and returns the plane
    together with the residual RMS.
    """
    subset = np.asarray(subset, dtype=np.int64).ravel()
    keep = subset[points.validity[subset]]
    q = points.points[keep]
    if q.shape[0] < 3:
        raise ValueError("degenerate point set: need >= 3 valid points")
    if np.linalg.matrix_rank(q) < 3:
        raise ValueError("degenerate point set: points are collinear or coincident")
    n, _, _, _ = np.linalg.lstsq(q, np.ones(q.shape[0]), rcond=None)
    residual = q @ n - 1.0
    rms = float(np.sqrt(np.mean(residual**2)))
    return Plane(n), rms


def _point_plane_distance(q: np.ndarray, plane: Plane) -> np.ndarray:
    """Euclidean point-to-plane distances for rows of ``q``."""
    scale = np.linalg.norm(plane.n)
    return np.abs(q @ plane.n - 1.0) / scale


def _ransac_plane(
    q: np.ndarray, inlier_tol: float, rng: np.random.Generator
) -> Optional[Tuple[np.ndarray, int]]:
    """Best-consensus plane vector over fixed random 3-point samples."""
    m = q.shape[0]
    best_n: Optional[np.ndarray] = None
    best_count = 0
    for _ in range(RANSAC_ITERATIONS):
        pick = rng.choice(m, size=3, replace=False)
        sample = q[pick]
        if np.linalg.matrix_rank(sample) < 3:
            continue
        n = np.linalg.solve(
            sample.T @ sample + 1e-10 * np.eye(3), sample.sum(axis=0)
        )
        norm = np.linalg.norm(n)
        if norm < EPS_PLANE:
            continue
        dist = np.abs(q @ n - 1.0) / norm
        count = int((dist < inlier_tol).sum())
        if count > best_count:
            best_count = count
            best_n = n
    if best_n is None or best_count < 3:
        return None
    return best_n, best_count


def _segment_mean_distance(
    q_a: np.ndarray, plane_b: Plane, q_b: np.ndarray, plane_a: Plane
) -> float:
    """Symmetric mean distance between two fitted segments."""
    forward = float(np.mean(_point_plane_distance(q_a, plane_b)))
    backward = float(np.mean(_point_plane_distance(q_b, plane_a)))
    return 0.5 * (forward + backward)


def fit_planes_ransac_merge(
    points: PointMap,
    segments: InstanceSegmentation,
    inlier_tol: float = 0.01,
    merge_tol: float = 0.10,
    rng_seed: int = 0,
) -> Tuple[InstanceSegmentation, List[Plane]]:
    """Fit one plane per segment by RANSAC, then merge coplanar segments.

    Segments with fewer than 3 usable points (or no consensus) drop to
    label 0. Merging is greedy best-first: while some segment pair's
    symmetric mean point-to-plane distance is below ``merge_tol``, fuse
    the closest pair and refit on the union. Deterministic per seed.
    """
    if segments.n_instances < 1:
        raise ValueError("segmentation has no instances")
    rng = np.random.default_rng(rng_seed)
    groups: List[np.ndarray] = []
    planes: List[Plane] = []
    for idx in range(1, segments.n_instances + 1):
        members = np.nonzero((segments.labels == idx) & points.validity)[0]
        if members.shape[0] < 3:
            continue
        q = points.points[members]
        found = _ransac_plane(q, inlier_tol, rng)
        if found is None:
            continue
        n, _ = found
        inliers = members[_point_plane_distance(q, Plane(n)) < inlier_tol]
        if inliers.shape[0] < 3:
            continue
        try:
            plane, _ = fit_plane_lsq(points, inliers)
        except ValueError:
            continue
        groups.append(members)
        planes.append(plane)

    def pair_distance(i: int, j: int) -> float:
        return _segment_mean_distance(
            points.points[groups[i]], planes[j], points.points[groups[j]], planes[i]
        )

    alive = list(range(len(groups)))
    heap: List[Tuple[float, int, int]] = []
    for pos, i in enumerate(alive):
        for j in alive[pos + 1 :]:
            score = pair_distance(i, j)
            if score < merge_tol:
                heapq.heappush(heap, (score, i, j))
    active = set(alive)
    while heap:
        _, i, j = heapq.heappop(heap)
        if i not in active or j not in active:
            continue
        union = np.concatenate([groups[i], groups[j]])
        plane, _ = fit_plane_lsq(points, union[points.validity[union]])
        groups.append(union)
        planes.append(plane)
        new_idx = len(groups) - 1
        active.discard(i)
        active.discard(j)
        for k in sorted(active):
            fresh = pair_distance(k, new_idx)
            if fresh < merge_tol:
                heapq.heappush(heap, (fresh, min(k, new_idx), max(k, new_idx)))
        active.add(new_idx)

    survivors = sorted(active, key=lambda i: int(groups[i].min()))
    labels = np.zeros(segments.grid.n_pixels, dtype=np.int64)
    out_planes: List[Plane] = []
    for new_id, i in enumerate(survivors, start=1):
        labels[groups[i]] = new_id
        out_planes.append(planes[i])
    seg = InstanceSegmentation(segments.grid, labels, len(out_planes))
    return seg, out_planes


def normal_angle(a: Plane, b: Plane) -> float:
    """Angle between plane normals in degrees, in [0, 180].

    atan2 of the cross/dot pair stays accurate near 0 and 180 where
    arccos loses precision, and is exactly 0 for identical normals.
    """
    u, v = a.unit_normal, b.unit_normal
    sin = float(np.linalg.norm(np.cross(u, v)))
    cos = float(u @ v)
    return float(np.degrees(np.arctan2(sin, cos)))
