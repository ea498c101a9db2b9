"""Shared domain types for plane-instance segmentation.

All types are immutable after construction: array fields are copied and
marked read-only, so instances are safe to share across threads. The
library's own kernels hand fresh arrays to :func:`_frozen_fields`
instead, which freezes them without a copy or a check.
:class:`SoftAssignment` may build its labels, weights and weight block on
first read: the weights and the block from the one column kernel its
producer hands it, the labels from the producer's labels builder if it
gave one and from that kernel otherwise; each is cached once,
read-only, and a race can at worst build it twice.
Pixels are linearized row-major (index = row * width + col) everywhere.
Internal arithmetic is 64-bit; narrower inputs are widened on entry.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import partial
from typing import Callable, Iterator, List, Optional, Tuple

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
EPS_PLANE = 1e-6


def _frozen(values, dtype) -> np.ndarray:
    """Copy ``values`` into a read-only array of the given dtype."""
    out = np.array(values, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def _check_plane_rows(rows: np.ndarray) -> None:
    """The one rule for plane vectors n (n . Q = 1), over the last axis of
    one row or a (C, 3) table: finite entries, a finite norm, and a norm
    of at least ``EPS_PLANE``. A norm that overflows is rejected, since
    its unit normal would be all zeros, at angle 0 to every plane.

    Accepted rows cost one norm pass and one test: a norm in
    [EPS_PLANE, inf) implies finite entries, and a NaN fails both bounds.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(rows, rows))
    ok = norms >= EPS_PLANE
    ok &= norms < np.inf
    if ok.all():
        return
    if not np.isfinite(rows).all():
        raise ValueError("plane vector must be finite")
    if (norms == np.inf).any():
        raise ValueError("plane vector norm must be finite")
    raise ValueError(f"plane vector norm below {EPS_PLANE}")


def _frozen_fields(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` set
    directly, bypassing ``__init__`` and ``__post_init__``; array fields
    are made read-only in place, without a copy or a check.

    The caller vouches for two things. Nothing writes the arrays
    afterwards: they are fresh arrays the caller drops, or arrays that
    are already read-only. And they hold what ``cls.__post_init__``
    would enforce: its dtypes, shapes and value checks, and the values
    it normalizes. For :class:`DepthMap` and :class:`PointMap` that
    means C-ordered float64 values, bool validity, every valid value
    finite (and each depth > 0), and every invalid entry exactly +0.0.
    """
    out = cls.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(out, name, value)
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


def _checked_block(grid: ImageGrid, block: np.ndarray) -> None:
    """Check a (C, M) block of assigned weight columns by the rules of
    :func:`_checked_rows`, with its messages and in its order: entries
    in [0, 1], then every column sum within ``ROW_SUM_TOL`` of 1 (a NaN
    fails the sums)."""
    if block.min(initial=0.0) < 0.0 or block.max(initial=1.0) > 1.0:
        raise ValueError("assignment weights must lie in [0, 1]")
    sums = np.ones(block.shape[0]) @ block
    sums -= 1.0
    np.abs(sums, out=sums)
    if not sums.max(initial=0.0) <= ROW_SUM_TOL:
        raise ValueError("assignment rows must sum to 1 or be all-zero")


# Assigned pixels per span of a column kernel: each span's (C, span)
# block stays a few MiB for the usual cluster counts, and the per-center
# calls of a span cost little beside its work. The spans build the dense
# weights, the block, the default labels and cluster's binned labels
# (both its bins and its fallback pixels). On 480x640 scenes with C = 8
# (one core of a 2-core Xeon) a label pass over every pixel took about
# 23 ms per image at 2^15, 24-26 ms at 2^14 and 2^16 and 25-26 ms at
# 2^13.
_ASSIGN_SPAN = 1 << 15

# A column kernel ``columns(rows, out)`` writes the (C, len(rows))
# weights of the assigned pixels ``rows`` into ``out``, whose rows may be
# strided; column j depends only on pixel ``rows[j]``.
_Columns = Callable[[np.ndarray, np.ndarray], None]


def _spans(n_items: int, size: Optional[int] = None) -> List[Tuple[int, int]]:
    """The (start, stop) of consecutive spans of at most ``size`` items,
    by default ``_ASSIGN_SPAN`` as it stands at the call, that cover
    ``range(n_items)`` in order."""
    size = _ASSIGN_SPAN if size is None else size
    return [(s, min(s + size, n_items)) for s in range(0, n_items, size)]


# Pixels per tile of the full-grid elementwise kernels (the render,
# backproject and the depth errors): each keeps at most a tile or two of
# scratch instead of full-grid buffers, and a tile's passes run while it
# is in cache. On 480x640 scenes with 8 planes (one core of a 2-core
# Xeon) the render took 2.68 ms per call at 2^13, 2.47 ms at 2^14,
# 2.43 ms at 2^15 and 2.58 ms at 2^16; recall_depth 7.63, 7.31, 7.14 and
# 7.29 ms; backproject 2.35-2.44 ms at every size. 2^14 keeps each
# scratch buffer at 128 KiB.
_PIXEL_TILE = 1 << 14


def _tiles(grid: ImageGrid) -> Iterator[Tuple[slice, slice]]:
    """The (rows, cols) slices of consecutive tiles of at most
    ``_PIXEL_TILE`` pixels, as it stands at the call, that cover the grid
    in row-major order: blocks of whole rows, or spans of one row when a
    row is wider than a tile. Each tile is one contiguous run of the
    row-major pixels."""
    rows = max(1, _PIXEL_TILE // grid.width)
    for top, bottom in _spans(grid.height, rows):
        for left, right in _spans(grid.width, _PIXEL_TILE):
            yield slice(top, bottom), slice(left, right)


def _kernel_spans(
    columns: _Columns, clusters: int, rows: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Per span of at most ``_ASSIGN_SPAN`` of the pixels ``rows``, the
    span and the (C, span) weights that ``columns`` writes for it, into
    one buffer that every span reuses."""
    buf = np.empty((clusters, min(_ASSIGN_SPAN, rows.shape[0])))
    for start, stop in _spans(rows.shape[0]):
        span = rows[start:stop]
        out = buf[:, : span.shape[0]]
        columns(span, out)
        yield span, out


def _label_rows(
    columns: _Columns, clusters: int, labels: np.ndarray, rows: np.ndarray
) -> None:
    """Write 1 + the column of each pixel's first largest weight, from
    the column kernel, into ``labels[rows]``, span by span. A NaN weight
    (every distance of a pixel overflowed to inf) is rejected."""
    for span, block in _kernel_spans(columns, clusters, rows):
        best = block[0].copy()
        top = np.ones(span.shape[0], dtype=np.int64)
        higher = np.empty(span.shape[0], dtype=bool)
        for label, row in enumerate(block[1:], start=2):
            np.greater(row, best, out=higher)  # strictly: the first maximum stays
            np.maximum(best, row, out=best)
            np.copyto(top, label, where=higher)
        if np.isnan(best).any():
            raise ValueError("assignment rows must sum to 1 or be all-zero")
        labels[span] = top


def _weight_columns(weights: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """The column kernel of constructor weights: the (N, C) rows
    ``rows``, transposed into ``out``."""
    out[...] = weights.take(rows, axis=0).T


class SoftAssignment:
    """Per-pixel membership weights over clusters, with hard labels.

    Rows of assigned (planar) pixels sum to 1; unassigned pixels carry
    all-zero rows so the grid shape survives end to end.
    ``SoftAssignment(grid, weights)`` copies and checks the weights, and
    ``assigned_rows`` is the mask of nonzero rows cached from their row
    sums. ``labels`` are the hard labels: 0 on unassigned rows, else
    1 + the column of the row's first largest weight.

    Beside the dense (N, C) ``weights`` an assignment keeps a private
    cluster-major block (:attr:`_block`): the (C, M) weights of its M
    assigned pixels in ascending pixel order, so column j equals row
    ``flatnonzero(assigned_rows)[j]`` of ``weights`` bit for bit. Soft
    pooling and ``instance_param_loss`` read only the block.

    Every assignment holds one column kernel, ``columns(rows, out)``,
    which writes the (C, len(rows)) weights of the given assigned pixels
    into ``out``; for constructor weights it copies their rows. The
    assignment alone runs it, span by span over ``_ASSIGN_SPAN``
    assigned pixels, to build the dense weights, the block and the
    default first-maximum labels, each on its own first read and none
    from another (constructor labels are ``np.argmax`` of the weights
    the constructor already holds):
    a caller that only reads labels never holds an N x C or C x M
    array, and one that reads the block never holds an N x C array.
    The library's own producers build an assignment from a source
    (:meth:`_from_source`): the cluster count, the assigned rows, their
    kernel and, where they know the labels more cheaply than the kernel
    does, a labels builder. Built weights and blocks pass the same
    checks as constructor weights and are frozen in place, without a
    copy. Each value is cached once and read-only, so the object stays
    immutable from outside; two threads racing on a first read may both
    build the value, and both get the one that was cached first. Once
    the labels are cached their builder is dropped, with whatever it
    held.
    """

    def __init__(self, grid: ImageGrid, weights: np.ndarray) -> None:
        weights = _frozen(weights, np.float64)
        assigned = _checked_rows(grid, weights)
        columns = partial(_weight_columns, weights)

        def labels() -> np.ndarray:
            return (np.argmax(weights, axis=1) + 1) * assigned

        source = self._from_source(grid, weights.shape[1], assigned, columns, labels)
        self.__dict__.update(vars(source), _weights=weights)

    @classmethod
    def _from_source(
        cls,
        grid: ImageGrid,
        clusters: int,
        assigned: np.ndarray,
        columns: _Columns,
        labels: Optional[Callable[[], np.ndarray]] = None,
        indicator: bool = False,
    ) -> "SoftAssignment":
        """An assignment whose weights the column kernel ``columns``
        writes, and whose labels ``labels()`` builds on first read (by
        default the first maximum of the kernel's columns). ``assigned``
        must be read-only. ``indicator`` says that each assigned row is
        one-hot on its label, so pooling may sum pixels by label."""
        out = cls.__new__(cls)
        out.__dict__.update(
            grid=grid,
            _clusters=clusters,
            _assigned=assigned,
            _columns=columns,
            _build_labels=labels,
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
        """The value cached under ``name``: built by ``build()``, checked
        and frozen on first read. ``setdefault`` keeps the first of two
        racing builds."""
        value = self.__dict__.get(name)
        if value is None:
            value = build()
            if check is not None:
                check(self.grid, value)
            value.flags.writeable = False
            value = self.__dict__.setdefault(name, value)
        return value

    def _first_max_labels(self) -> np.ndarray:
        labels = np.zeros(self.grid.n_pixels, dtype=np.int64)
        rows = np.flatnonzero(self._assigned)
        _label_rows(self._columns, self._clusters, labels, rows)
        return labels

    def _dense_weights(self) -> np.ndarray:
        weights = np.zeros((self.grid.n_pixels, self._clusters))
        rows = np.flatnonzero(self._assigned)
        for span, block in _kernel_spans(self._columns, self._clusters, rows):
            weights[span] = block.T
        return weights

    def _column_block(self) -> np.ndarray:
        rows = np.flatnonzero(self._assigned)
        block = np.empty((self._clusters, rows.shape[0]))
        for start, stop in _spans(rows.shape[0]):
            self._columns(rows[start:stop], block[:, start:stop])
        return block

    @property
    def clusters(self) -> int:
        return self._clusters

    @property
    def assigned_rows(self) -> np.ndarray:
        """Boolean mask of pixels with a nonzero assignment row."""
        return self._assigned

    @property
    def labels(self) -> np.ndarray:
        """Read-only int64 hard labels in 0..C, built once. A producer's label
        builder is dropped once they are cached; a reader that finds it
        dropped finds the labels, or at worst builds the same ones from
        the kernel."""
        build = self.__dict__["_build_labels"] or self._first_max_labels
        labels = self._cached("_labels", build)
        self.__dict__["_build_labels"] = None
        return labels

    @property
    def weights(self) -> np.ndarray:
        """Read-only (N, C) weights, built and checked once."""
        return self._cached("_weights", self._dense_weights, _checked_rows)

    @property
    def _block(self) -> np.ndarray:
        """Read-only (C, M) weights of the assigned pixels, cluster-major
        and in ascending pixel order, built and checked once."""
        return self._cached("_member_block", self._column_block, _checked_block)

    def _block_spans(self, size: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Per span of at most ``size`` assigned pixels, in pixel order,
        the pixels' indices and their (C, span) view of :attr:`_block`."""
        block = self._block
        idx = np.flatnonzero(self._assigned)
        for start, stop in _spans(idx.shape[0], size):
            yield idx[start:stop], block[:, start:stop]


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
        _check_plane_rows(params)
        object.__setattr__(self, "params", params)

    @property
    def clusters(self) -> int:
        return self.params.shape[0]


def _init_masked_map(
    owner, field: str, shape: Tuple[int, ...], message: str
) -> Tuple[np.ndarray, np.ndarray]:
    """The shared constructor body of :class:`DepthMap` and
    :class:`PointMap`: copy ``owner.<field>`` to float64 and its
    validity (all-valid by default) to bool, check both shapes, zero the
    invalid entries, raise ``message`` unless every value is then
    finite, and set both on ``owner``, frozen. Returns them, for the
    caller's own checks."""
    values = np.array(getattr(owner, field), dtype=np.float64, copy=True)
    if values.shape != shape:
        raise ValueError(f"{field} must have shape {shape}, got {values.shape}")
    if owner.validity is None:
        validity = np.ones(shape[0], dtype=bool)
    else:
        validity = np.array(owner.validity, dtype=bool, copy=True)
    if validity.shape != shape[:1]:
        raise ValueError("validity shape must match pixel count")
    values[~validity] = 0.0  # only valid entries can fail the checks now
    if not np.isfinite(values).all():
        raise ValueError(message)
    values.flags.writeable = False
    validity.flags.writeable = False
    object.__setattr__(owner, field, values)
    object.__setattr__(owner, "validity", validity)
    return values, validity


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
        message = "valid depths must be finite and > 0"
        shape = (self.grid.n_pixels,)
        depth, validity = _init_masked_map(self, "depth", shape, message)
        if np.any((depth <= 0.0) & validity):
            raise ValueError(message)


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
        shape = (self.grid.n_pixels, 3)
        _init_masked_map(self, "points", shape, "valid points must be finite")


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
