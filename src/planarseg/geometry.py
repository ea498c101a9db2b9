"""Plane parameterization, depth geometry, pooling, and plane fitting.

A plane is stored as a single 3-vector ``n`` such that on-plane points
satisfy n . Q = 1; the unit normal is n / |n| and the camera-to-plane
offset is 1 / |n|. This keeps every per-pixel and per-instance parameter
a plain 3-vector.

:func:`one_hot_assignment` hands its assignment the labels and one
column kernel, the indicator of each pixel's label, from which the
assignment builds its block if it is read (and its dense weights, by
scattering the block).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence, Tuple

import numpy as np

from . import core
from .core import (
    EPS_PLANE,
    CameraIntrinsics,
    DepthMap,
    ImageGrid,
    InstanceSegmentation,
    PixelPlaneParams,
    PlaneInstanceParams,
    PointMap,
    SoftAssignment,
    _check_plane_rows,
    _frozen,
    _frozen_fields,
    _tiles,
)

__all__ = [
    "Plane",
    "EPS_PLANE",
    "EPS_RAY",
    "backproject",
    "render_segment_depth",
    "pool_instance_params",
    "one_hot_assignment",
    "fit_plane_lsq",
    "normal_angle",
]

EPS_RAY = 1e-8


@dataclass(frozen=True)
class Plane:
    """Plane encoded as the 3-vector n with n . Q = 1 for on-plane Q."""

    n: np.ndarray

    def __post_init__(self) -> None:
        n = _frozen(self.n, np.float64).reshape(3)
        _check_plane_rows(n)
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
    of pixel (row, col) is (x[col], y[row], 1). A focal length so small
    that a coordinate overflows is an error."""
    with np.errstate(over="ignore"):
        x = (np.arange(grid.width) - intr.cx) / intr.fx
        y = (np.arange(grid.height) - intr.cy) / intr.fy
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("viewing rays overflow: focal length too small for the grid")
    return x, y


def _ray_directions(grid: ImageGrid, intr: CameraIntrinsics) -> np.ndarray:
    """Unnormalized viewing rays (x/z, y/z, 1) per pixel, row-major."""
    x, y = _ray_coords(grid, intr)
    rays = np.empty((grid.n_pixels, 3), dtype=np.float64)
    rays[:, 0] = np.tile(x, grid.height)
    rays[:, 1] = np.repeat(y, grid.width)
    rays[:, 2] = 1.0
    return rays


def _render_arrays(
    grid: ImageGrid, intr: CameraIntrinsics, labels: np.ndarray, normals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Depth and validity where each pixel's ray meets its own plane, in
    one gather, as fresh writable arrays.

    Pixel i lies on the plane in row ``labels[i]`` of the (K, 3)
    ``normals``. Depth is 1 / (ray . n) where that denominator exceeds
    ``EPS_RAY``; elsewhere the ray is (near-)parallel to the plane or
    meets it behind the camera, or the denominator is NaN, and the pixel
    is invalid with depth +0.0. An all-zero row therefore renders its
    pixels invalid. The ray coordinates come per column and per row, and
    each plane coefficient is gathered per pixel, so the cost is O(N)
    whatever K is.

    Precondition: every label lies in 0..K-1. The gathers clip instead
    of checking bounds; ``InstanceSegmentation`` keeps its labels in
    0..n_instances, and :func:`render_segment_depth` passes one row per
    label. The passes run tile by tile (``core._tiles``): in each tile
    the denominators are summed as (nx·x + ny·y) + nz in the depth's own
    slice, then become depth and validity there. The scratch is two
    tile-sized buffers, the tile's labels as writable indices and one
    term, so no full-grid buffer is made beside the two outputs, and
    each element gets the operations, in the order, that one pass over
    the whole grid would give it. An O(K) guard bounds every denominator
    by the same sum of ``|n|`` times the largest ``|x|`` and ``|y|``:
    when each row's bound is finite, no denominator overflows. Only when
    a bound is not finite does each tile scan for a +inf denominator,
    whose depth 1/inf = 0 would be a valid zero and raises the error of
    :class:`DepthMap`.
    """
    x, y = _ray_coords(grid, intr)
    depth = np.empty(grid.n_pixels, dtype=np.float64)
    validity = np.empty(grid.n_pixels, dtype=bool)
    shape = (grid.height, grid.width)
    depth2d, valid2d = depth.reshape(shape), validity.reshape(shape)
    labels2d = labels.reshape(shape)
    nx, ny, nz = (np.ascontiguousarray(column) for column in normals.T)
    with np.errstate(over="ignore"):
        reach = np.abs(normals)
        bound = reach[:, 0] * np.abs(x).max() + reach[:, 1] * np.abs(y).max()
        bound += reach[:, 2]
    bounded = np.isfinite(bound).all()
    # ``take`` copies read-only indices, so each tile's labels are copied
    # once into a writable index buffer rather than once per gather.
    size = min(grid.n_pixels, core._PIXEL_TILE)
    index_buf, term_buf = np.empty(size, dtype=np.int64), np.empty(size)
    # inf - inf is NaN and stays invalid; a +inf is caught below
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cols in _tiles(grid):
            denom = depth2d[rows, cols]
            ids = index_buf[: denom.size].reshape(denom.shape)
            term = term_buf[: denom.size].reshape(denom.shape)
            np.copyto(ids, labels2d[rows, cols])
            nx.take(ids, mode="clip", out=denom)
            np.multiply(denom, x[cols], out=denom)
            ny.take(ids, mode="clip", out=term)
            np.multiply(term, y[rows, None], out=term)
            denom += term
            nz.take(ids, mode="clip", out=term)
            denom += term
            if not bounded and (denom == np.inf).any():
                raise ValueError("valid depths must be finite and > 0")
            valid = np.greater(denom, EPS_RAY, out=valid2d[rows, cols])
            # invalid and NaN denominators become EPS_RAY, then 1/EPS_RAY * 0 = +0.0
            np.fmax(denom, EPS_RAY, out=denom)
            np.divide(1.0, denom, out=denom)
            np.copyto(term, valid)  # the float mask in the scratch, not a cast copy
            denom *= term
    return depth, validity


def _render(
    grid: ImageGrid, intr: CameraIntrinsics, labels: np.ndarray, normals: np.ndarray
) -> DepthMap:
    """:func:`_render_arrays` frozen into a :class:`DepthMap` in place."""
    depth, validity = _render_arrays(grid, intr, labels, normals)
    return _frozen_fields(DepthMap, grid=grid, depth=depth, validity=validity)


def _instance_normals(
    segments: InstanceSegmentation, planes: Sequence[Plane]
) -> np.ndarray:
    """The (C + 1, 3) rows that render ``segments``: an all-zero row 0,
    a zero denominator that is never a valid depth, for the unlabeled
    pixels, then one row per instance's plane."""
    if len(planes) != segments.n_instances:
        raise ValueError(
            f"need one plane per instance: {len(planes)} planes for "
            f"{segments.n_instances} instances"
        )
    return np.concatenate([np.zeros((1, 3))] + [plane.n[None, :] for plane in planes])


def backproject(depth: DepthMap, intr: CameraIntrinsics) -> PointMap:
    """Lift a depth map to camera-frame 3D points along pixel rays.

    The point of pixel (row, col) is depth * (x[col], y[row], 1), with
    the ray coordinates taken once per column and once per row, so no
    per-pixel ray array is built. Invalid pixels have depth +0.0, so
    their points are (±0.0, ±0.0, +0.0); adding +0.0 makes them +0.0.

    When the largest depth times max(1, |x|, |y|) is finite no point
    overflows, and when the smallest valid depth times the smallest
    nonzero |x| or |y| is nonzero no valid coordinate underflows to a
    zero whose sign the +0.0 would change. These tests come first. The
    points are then written tile by tile (``core._tiles``), with no
    scratch: the three coordinates of the tile, then, only when both
    tests pass, one ``+= 0.0`` over the tile's contiguous points while
    they are in cache (z + 0.0 is z). Such points are handed to
    :class:`PointMap` without a copy or check. Otherwise the checked
    constructor takes them, and overflowing points raise its error.
    """
    grid = depth.grid
    x, y = _ray_coords(grid, intr)
    rays = np.abs(np.concatenate([x, y]))
    fits = np.isfinite(float(depth.depth.max()) * max(1.0, float(rays.max())))
    # A valid depth z >= floor gives z * |ray| > 2**-1075 for every nonzero
    # ray coordinate, so the product rounds to a nonzero value.
    smallest = float(rays[rays > 0.0].min(initial=np.inf))
    floor = max(2.0**-1074 / smallest, 2.0**-1074)
    signed = np.count_nonzero(depth.depth >= floor) == np.count_nonzero(depth.validity)
    fast = fits and signed
    z = depth.depth.reshape(grid.height, grid.width)
    points = np.empty((grid.height, grid.width, 3), dtype=np.float64)
    with np.errstate(over="ignore"):  # only the checked path can overflow
        for rows, cols in _tiles(grid):
            out, zs = points[rows, cols], z[rows, cols]
            np.multiply(x[cols], zs, out=out[:, :, 0])
            np.multiply(y[rows, None], zs, out=out[:, :, 1])
            out[:, :, 2] = zs
            if fast:
                out += 0.0
    if not fast:
        return PointMap(grid, points.reshape(-1, 3), depth.validity)
    return _frozen_fields(
        PointMap, grid=grid, points=points.reshape(-1, 3), validity=depth.validity
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
    normals = _instance_normals(segments, planes)
    return _render(segments.grid, intr, segments.labels, normals)


def pool_instance_params(
    pixel_params: PixelPlaneParams, assignment: SoftAssignment
) -> PlaneInstanceParams:
    """Assignment-weighted average of pixel parameters per cluster.

    An indicator assignment (:func:`one_hot_assignment`) averages each
    instance's pixels from its labels: one ``np.bincount`` for the
    counts and one per axis, with no N x C array. Any other assignment
    reads its cluster-major (C, M) block of assigned weights, in BLAS
    products ``[params[assigned] | 1]^T @ block^T`` over spans of
    ``core._BLOCK_SPAN`` pixels whose left operand is contiguous; no N x C
    array is built.
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
        pooled = np.zeros((params.shape[1] + 1, assignment.clusters))
        for rows, weights in assignment._block_spans():
            lifted = np.empty((params.shape[1] + 1, rows.shape[0]))
            lifted[:-1] = params.take(rows, axis=0).T
            lifted[-1] = 1.0
            pooled += lifted @ weights.T
        mass, sums = pooled[-1], pooled[:-1].T
    if np.any(mass <= 0.0):
        raise ValueError("empty instance")
    return PlaneInstanceParams(sums / mass[:, None])


def _one_hot_span(labels: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """The column kernel of :func:`one_hot_assignment`: column j of
    ``out`` is the float64 indicator of instance ``labels[rows[j]]``."""
    np.equal(np.arange(1, out.shape[0] + 1)[:, None], labels.take(rows), out=out)


def one_hot_assignment(segments: InstanceSegmentation) -> SoftAssignment:
    """Indicator assignment putting each labeled pixel fully on its instance.

    The assignment is defined by the labels, which it keeps as its own.
    Its column kernel writes the indicator of each pixel's label, so its
    block, and the dense weights that scatter it, are built only if
    read: row i of the weights is the indicator of instance
    ``labels[i]``, all-zero for label 0. Nothing of size C x C is
    built, so a large ID space costs nothing until the block is read.
    """
    if segments.n_instances < 1:
        raise ValueError("segmentation has no instances")
    labels = segments.labels
    assigned = labels > 0
    assigned.flags.writeable = False
    return SoftAssignment._from_source(
        segments.grid,
        segments.n_instances,
        assigned,
        partial(_one_hot_span, labels),
        labels=labels.view,
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
    Points so large that the QR overflows are rejected too.

    The kept points are taken as whole rows in one ``take`` and copied,
    transposed, into the block, whose transpose the QR reads in Fortran
    order. When every index is valid, as for a segment already masked
    by validity, the subset is used as it is.
    """
    subset = np.asarray(subset, dtype=np.int64).ravel()
    valid = points.validity.take(subset)
    keep = subset if valid.all() else subset.compress(valid)
    m = keep.shape[0]
    if m < 3:
        raise ValueError("degenerate point set: need >= 3 valid points")
    block = np.empty((4, m), dtype=np.float64)
    block[:3] = points.points.take(keep, axis=0).T
    block[3] = 1.0
    r = np.linalg.qr(block.T, mode="r")
    if not np.isfinite(r).all():  # the QR overflowed; the SVD would fail on NaN
        raise ValueError("point coordinates too large to fit a plane")
    s = np.linalg.svd(r[:3, :3], compute_uv=False)
    # m * eps is exact and below 1, so the tolerance cannot overflow
    if s[-1] <= s[0] * (m * np.finfo(np.float64).eps):
        raise ValueError("degenerate point set: points are collinear or coincident")
    n = np.linalg.solve(r[:3, :3], r[:3, 3])
    rms = float(abs(r[3, 3]) / np.sqrt(m)) if m > 3 else 0.0
    return Plane(n), rms


def _normal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles in degrees, in [0, 180], between the plane normals in the
    rows of the (M, 3) plane vectors ``a`` and ``b``, in one pass.

    atan2 of the cross/dot pair stays accurate near 0 and 180 where
    arccos loses precision, and is exactly 0 for identical normals. Each
    row's norms and dot come from ``vecdot``, the same dot product that a
    single pair's ``u @ v`` and ``Plane.unit_normal`` take.
    """
    u = a / np.sqrt(np.vecdot(a, a))[:, None]
    v = b / np.sqrt(np.vecdot(b, b))[:, None]
    cross = np.cross(u, v)
    return np.degrees(np.arctan2(np.sqrt(np.vecdot(cross, cross)), np.vecdot(u, v)))


def normal_angle(a: Plane, b: Plane) -> float:
    """Angle between plane normals in degrees, in [0, 180]: the one-row
    case of the kernel that scores the matched pairs of ``recall_normal``."""
    return float(_normal_angles(a.n[None, :], b.n[None, :])[0])
