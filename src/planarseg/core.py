"""Shared domain types for plane-instance segmentation.

All types are immutable after construction: array fields are copied and
marked read-only, so instances are safe to share across threads.
:class:`SoftAssignment` may build its labels and weights on first read;
each is cached once, read-only, and a race can at worst build it twice.
Pixels are linearized row-major (index = row * width + col) everywhere.
Internal arithmetic is 64-bit; narrower inputs are widened on entry.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ImageGrid",
    "EmbeddingMap",
    "PlanarProbabilityMap",
    "PlanarMask",
    "InstanceSegmentation",
    "SoftAssignment",
    "PixelPlaneParams",
    "PlaneInstanceParams",
    "DepthMap",
    "CameraIntrinsics",
    "PointMap",
    "LossReport",
]

ROW_SUM_TOL = 1e-9
REPORT_TOL = 1e-12


def _frozen(values, dtype) -> np.ndarray:
    """Copy ``values`` into a read-only array of the given dtype."""
    out = np.array(values, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ImageGrid:
    """Pixel raster dimensions; defines N = height * width."""

    height: int
    width: int

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValueError(
                f"grid dimensions must be >= 1, got {self.height}x{self.width}"
            )

    @property
    def n_pixels(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class EmbeddingMap:
    """Per-pixel embedding vectors, one d-vector per pixel, row-major."""

    grid: ImageGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _frozen(self.values, np.float64)
        if values.ndim != 2 or values.shape[0] != self.grid.n_pixels:
            raise ValueError(
                f"embedding values must have shape (N, d) with N={self.grid.n_pixels}, "
                f"got {values.shape}"
            )
        if values.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("embedding values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PlanarProbabilityMap:
    """Per-pixel probability of belonging to a planar surface."""

    grid: ImageGrid
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = _frozen(self.probs, np.float64)
        if probs.shape != (self.grid.n_pixels,):
            raise ValueError(
                f"probs must have shape ({self.grid.n_pixels},), got {probs.shape}"
            )
        if not np.all(np.isfinite(probs)) or probs.min() < 0.0 or probs.max() > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class PlanarMask:
    """Binary planar/non-planar split of the pixel grid."""

    grid: ImageGrid
    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = _frozen(self.mask, bool)
        if mask.shape != (self.grid.n_pixels,):
            raise ValueError(
                f"mask must have shape ({self.grid.n_pixels},), got {mask.shape}"
            )
        object.__setattr__(self, "mask", mask)

    @property
    def foreground_count(self) -> int:
        return int(self.mask.sum())

    @property
    def background_count(self) -> int:
        return self.grid.n_pixels - self.foreground_count


@dataclass(frozen=True)
class InstanceSegmentation:
    """Per-pixel instance labels: 0 = unlabeled, 1..C = instance IDs.

    ``n_instances`` fixes the ID space 1..C; individual IDs may own no
    pixels (for example a cluster that wins no argmax), which keeps label
    indices aligned with external per-instance arrays.
    """

    grid: ImageGrid
    labels: np.ndarray
    n_instances: Optional[int] = None

    def __post_init__(self) -> None:
        labels = _frozen(self.labels, np.int64)
        if labels.shape != (self.grid.n_pixels,):
            raise ValueError(
                f"labels must have shape ({self.grid.n_pixels},), got {labels.shape}"
            )
        top = int(labels.max(initial=0))
        if labels.min(initial=0) < 0:
            raise ValueError("labels must be >= 0")
        count = top if self.n_instances is None else int(self.n_instances)
        if count < top:
            raise ValueError(f"n_instances={count} below max label {top}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_instances", count)

    @property
    def planar_mask(self) -> PlanarMask:
        return PlanarMask(self.grid, self.labels > 0)


def _checked_rows(grid: ImageGrid, weights: np.ndarray) -> np.ndarray:
    """Check dense (N, C) weights; return the read-only mask of nonzero
    rows, taken from the row sums of one BLAS pass."""
    if weights.ndim != 2 or weights.shape[0] != grid.n_pixels:
        raise ValueError(
            f"weights must have shape (N, C) with N={grid.n_pixels}, "
            f"got {weights.shape}"
        )
    if weights.shape[1] < 1:
        raise ValueError("assignment needs at least one cluster column")
    if weights.min() < 0.0 or weights.max() > 1.0:
        raise ValueError("assignment weights must lie in [0, 1]")
    sums = weights @ np.ones(weights.shape[1])
    ok = (np.abs(sums - 1.0) <= ROW_SUM_TOL) | (sums == 0.0)
    if not np.all(ok):
        raise ValueError("assignment rows must sum to 1 or be all-zero")
    assigned = sums > 0.0
    assigned.flags.writeable = False
    return assigned


def _argmax_labels(weights: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """1 + the column of each row's first largest weight; 0 where unassigned."""
    labels = np.argmax(weights, axis=1)
    labels += 1
    labels *= assigned
    return labels


class SoftAssignment:
    """Per-pixel membership weights over clusters, with hard labels.

    Rows of assigned (planar) pixels sum to 1; unassigned pixels carry
    all-zero rows so the grid shape survives end to end.
    ``SoftAssignment(grid, weights)`` copies and checks the weights, and
    ``assigned_rows`` is the mask of nonzero rows cached from their row
    sums. ``labels`` are the hard labels: 0 on unassigned rows, else
    1 + the column of the row's first largest weight.

    The library's own producers build an assignment from a source
    instead (:meth:`_from_source`): the cluster count, the assigned
    rows and functions that build the labels and the dense weights. The
    labels are then built on their first read and the weights on
    theirs, so a caller that only reads labels never holds an N x C
    array. Built weights pass the same checks as constructor weights
    and are frozen in place, without a copy. Each value is cached once
    and read-only, so the object stays immutable from outside; two
    threads racing on a first read may both build the value, and both
    get the one that was cached first.
    """

    def __init__(self, grid: ImageGrid, weights: np.ndarray) -> None:
        weights = _frozen(weights, np.float64)
        assigned = _checked_rows(grid, weights)
        self.__dict__.update(
            grid=grid,
            _clusters=weights.shape[1],
            _assigned=assigned,
            _build_labels=partial(_argmax_labels, weights, assigned),
            _build_weights=None,
            _indicator=False,
            _weights=weights,
        )

    @classmethod
    def _from_source(
        cls,
        grid: ImageGrid,
        clusters: int,
        assigned: np.ndarray,
        labels: Callable[[], np.ndarray],
        weights: Callable[[], np.ndarray],
        indicator: bool = False,
    ) -> "SoftAssignment":
        """An assignment whose labels and (N, C) weights ``labels()`` and
        ``weights()`` build on first read. ``assigned`` must be read-only.
        ``indicator`` says that each assigned row is one-hot on its
        label, so pooling may sum pixels by label."""
        out = cls.__new__(cls)
        out.__dict__.update(
            grid=grid,
            _clusters=clusters,
            _assigned=assigned,
            _build_labels=labels,
            _build_weights=weights,
            _indicator=indicator,
        )
        return out

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"SoftAssignment(grid={self.grid!r}, clusters={self._clusters})"

    def _cached(self, name: str, build: Callable[[], np.ndarray], check=None):
        """The value cached under ``name``, built, checked and frozen on
        first read; ``setdefault`` keeps the first of two racing builds."""
        value = self.__dict__.get(name)
        if value is None:
            value = build()
            if check is not None:
                check(self.grid, value)
            value.flags.writeable = False
            value = self.__dict__.setdefault(name, value)
        return value

    @property
    def clusters(self) -> int:
        return self._clusters

    @property
    def assigned_rows(self) -> np.ndarray:
        """Boolean mask of pixels with a nonzero assignment row."""
        return self._assigned

    @property
    def labels(self) -> np.ndarray:
        """Read-only hard labels in 0..C, built once."""
        return self._cached("_labels", self._build_labels)

    @property
    def weights(self) -> np.ndarray:
        """Read-only (N, C) weights, built and checked once."""
        return self._cached("_weights", self._build_weights, _checked_rows)


@dataclass(frozen=True)
class PixelPlaneParams:
    """Per-pixel plane parameter 3-vectors."""

    grid: ImageGrid
    params: np.ndarray

    def __post_init__(self) -> None:
        params = _frozen(self.params, np.float64)
        if params.shape != (self.grid.n_pixels, 3):
            raise ValueError(
                f"params must have shape ({self.grid.n_pixels}, 3), got {params.shape}"
            )
        if not np.all(np.isfinite(params)):
            raise ValueError("plane params must be finite")
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class PlaneInstanceParams:
    """Per-instance plane parameter 3-vectors (one row per cluster)."""

    params: np.ndarray

    def __post_init__(self) -> None:
        params = _frozen(self.params, np.float64)
        if params.ndim != 2 or params.shape[1] != 3:
            raise ValueError(f"params must have shape (C, 3), got {params.shape}")
        if not np.all(np.isfinite(params)):
            raise ValueError("instance params must be finite")
        norms = np.linalg.norm(params, axis=1)
        if params.shape[0] and norms.min() <= 1e-6:
            raise ValueError("instance param norm must exceed 1e-6")
        object.__setattr__(self, "params", params)

    @property
    def clusters(self) -> int:
        return self.params.shape[0]


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel depth in meters with a validity mask.

    Invalid entries are normalized to 0.0 on construction; valid entries
    must be finite and strictly positive.
    """

    grid: ImageGrid
    depth: np.ndarray
    validity: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        depth = np.array(self.depth, dtype=np.float64, copy=True)
        if depth.shape != (self.grid.n_pixels,):
            raise ValueError(
                f"depth must have shape ({self.grid.n_pixels},), got {depth.shape}"
            )
        if self.validity is None:
            validity = np.ones(self.grid.n_pixels, dtype=bool)
        else:
            validity = np.array(self.validity, dtype=bool, copy=True)
        if validity.shape != depth.shape:
            raise ValueError("validity shape must match depth shape")
        depth[~validity] = 0.0  # only valid entries can fail the checks now
        if not np.isfinite(depth).all() or np.any((depth <= 0.0) & validity):
            raise ValueError("valid depths must be finite and > 0")
        depth.flags.writeable = False
        validity.flags.writeable = False
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "validity", validity)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera parameters in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be > 0")
        for name in ("fx", "fy", "cx", "cy"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PointMap:
    """Per-pixel camera-frame 3D points with a validity mask.

    Invalid entries are normalized to the zero vector.
    """

    grid: ImageGrid
    points: np.ndarray
    validity: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=np.float64, copy=True)
        if points.shape != (self.grid.n_pixels, 3):
            raise ValueError(
                f"points must have shape ({self.grid.n_pixels}, 3), got {points.shape}"
            )
        if self.validity is None:
            validity = np.ones(self.grid.n_pixels, dtype=bool)
        else:
            validity = np.array(self.validity, dtype=bool, copy=True)
        if validity.shape != (self.grid.n_pixels,):
            raise ValueError("validity shape must match pixel count")
        points[~validity] = 0.0
        if not np.isfinite(points).all():  # only valid rows can be non-finite now
            raise ValueError("valid points must be finite")
        points.flags.writeable = False
        validity.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "validity", validity)


@dataclass(frozen=True)
class LossReport:
    """Breakdown of the training objective into its additive terms.

    Enforces l_e = l_pull + l_push and total = l_s + l_e + l_pp + l_ip.
    """

    l_s: float
    l_pull: float
    l_push: float
    l_e: float
    l_pp: float
    l_ip: float
    total: float

    def __post_init__(self) -> None:
        for name in ("l_s", "l_pull", "l_push", "l_e", "l_pp", "l_ip", "total"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if abs(self.l_e - (self.l_pull + self.l_push)) > REPORT_TOL:
            raise ValueError("l_e must equal l_pull + l_push")
        parts = self.l_s + self.l_e + self.l_pp + self.l_ip
        if abs(self.total - parts) > REPORT_TOL:
            raise ValueError("total must equal l_s + l_e + l_pp + l_ip")
