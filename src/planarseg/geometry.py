"""Plane parameterization, depth geometry, pooling, and plane fitting.

A plane is stored as a single 3-vector ``n`` such that on-plane points
satisfy n . Q = 1; the unit normal is n / |n| and the camera-to-plane
offset is 1 / |n|. This keeps every per-pixel and per-instance parameter
a plain 3-vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence, Tuple

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
    "normal_angle",
]

EPS_PLANE = 1e-6
EPS_RAY = 1e-8


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
    # denom = nx * x + ny * y + nz, summed in that order in the gathered
    # buffers
    np.multiply(nx, x, out=nx)
    np.multiply(ny, y[:, None], out=ny)
    nx += ny
    nx += nz
    denom = nx.reshape(-1)
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
    reads its dense N x C weights once, in one BLAS product
    ``[params | 1]^T @ weights`` whose left operand is contiguous.
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
        lifted = np.empty((params.shape[1] + 1, params.shape[0]))
        lifted[:-1] = params.T
        lifted[-1] = 1.0
        pooled = lifted @ assignment.weights
        mass, sums = pooled[-1], pooled[:-1].T
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

    Solves for n minimizing |Q n - 1|^2 from one Householder QR of the
    (m, 4) block [Q 1]: n = R[:3, :3]^-1 R[:3, 3], and the residual norm
    is |R[3, 3]| (0 when m = 3). Returns the plane with the residual
    RMS. Q has the singular values of R[:3, :3], so the points are
    rejected as collinear or coincident when the smallest of them is at
    most m * eps times the largest, the tolerance of ``matrix_rank``.
    """
    subset = np.asarray(subset, dtype=np.int64).ravel()
    keep = subset[points.validity[subset]]
    m = keep.shape[0]
    if m < 3:
        raise ValueError("degenerate point set: need >= 3 valid points")
    block = np.empty((4, m), dtype=np.float64)
    for axis in range(3):
        block[axis] = points.points[:, axis][keep]
    block[3] = 1.0
    r = np.linalg.qr(block.T, mode="r")
    s = np.linalg.svd(r[:3, :3], compute_uv=False)
    if s[-1] <= s[0] * m * np.finfo(np.float64).eps:
        raise ValueError("degenerate point set: points are collinear or coincident")
    n = np.linalg.solve(r[:3, :3], r[:3, 3])
    rms = float(abs(r[3, 3]) / np.sqrt(m)) if m > 3 else 0.0
    return Plane(n), rms


def normal_angle(a: Plane, b: Plane) -> float:
    """Angle between plane normals in degrees, in [0, 180].

    atan2 of the cross/dot pair stays accurate near 0 and 180 where
    arccos loses precision, and is exactly 0 for identical normals.
    """
    u, v = a.unit_normal, b.unit_normal
    sin = float(np.linalg.norm(np.cross(u, v)))
    cos = float(u @ v)
    return float(np.degrees(np.arctan2(sin, cos)))
