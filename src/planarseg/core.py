"""Shared domain types for plane-instance segmentation.

All types are immutable after construction: array fields are copied and
marked read-only, so instances are safe to share across threads. The
library's own kernels hand fresh arrays to :func:`_frozen_fields`
instead, which freezes them without a copy or a check.
:class:`SoftAssignment` holds one weight array, a (C, M) block of its
assigned pixels' weights. Its constructor copies the given weights'
assigned rows into the block at once; the library's lazy producers hand
over a column kernel instead, which builds the block on first read.
The dense weights are the block scattered on first read, and the labels
come from the producer's labels builder if it gave one, else from the
first maximum of each kernel or block column; each value is cached
once, read-only, and a race can at worst build it twice.
Pixels are linearized row-major (index = row * width + col) everywhere.
Internal arithmetic is 64-bit; narrower inputs are widened on entry.
"""

from __future__ import annotations

import numbers
from dataclasses import FrozenInstanceError, dataclass
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


def _checked_int(name: str, value) -> int:
    """``value`` as an ``int``: a value of the field ``name`` that is a
    bool or not an integer raises; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        for name in ("height", "width"):  # as ints: numpy ones could wrap in n_pixels
            object.__setattr__(self, name, _checked_int(name, getattr(self, name)))
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
    indices aligned with external per-instance arrays. It must be an
    integer (a bool is not) when given.
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
        count = top if self.n_instances is None else self.n_instances
        count = _checked_int("n_instances", count)
        if count < top:
            raise ValueError(f"n_instances={count} below max label {top}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_instances", count)

    @property
    def planar_mask(self) -> PlanarMask:
        return PlanarMask(self.grid, self.labels > 0)


def _compact(seg: InstanceSegmentation) -> InstanceSegmentation:
    """``seg`` itself, or, when its ID space is at least its pixel count,
    the same partition with the present IDs renumbered 1..K in
    ascending order and label 0 kept. Tables indexed by ID then stay
    sized by the pixel count, however large the IDs."""
    if seg.n_instances < seg.grid.n_pixels:
        return seg
    ids, inverse = np.unique(seg.labels, return_inverse=True)
    shift = int(ids[0] > 0)  # label 0 absent: the first present ID becomes 1
    labels = inverse.astype(np.int64, copy=False)
    labels += shift
    return _frozen_fields(
        InstanceSegmentation,
        grid=seg.grid,
        labels=labels,
        n_instances=ids.shape[0] - 1 + shift,
    )


def _checked_block(block: np.ndarray) -> None:
    """Check a (C, M) block of assigned weight columns, in this order:
    entries in [0, 1], then every column sum within ``ROW_SUM_TOL`` of 1.
    The range bounds skip NaN, so a NaN cannot hide an out-of-range
    entry; a NaN in an otherwise in-range block fails the sums."""
    if (
        np.fmin.reduce(block, axis=None, initial=0.0) < 0.0
        or np.fmax.reduce(block, axis=None, initial=1.0) > 1.0
    ):
        raise ValueError("assignment weights must lie in [0, 1]")
    sums = np.ones(block.shape[0]) @ block
    sums -= 1.0
    np.abs(sums, out=sums)
    if not sums.max(initial=0.0) <= ROW_SUM_TOL:
        raise ValueError("assignment rows must sum to 1 or be all-zero")


# Assigned pixels per span of a column kernel: each span's (C, span)
# block stays a few MiB for the usual cluster counts, and the per-center
# calls of a span cost little beside its work. The spans build the
# block, the default labels and cluster's binned labels (both its bins
# and its fallback pixels). On 480x640 scenes with C = 8
# (one core of a 2-core Xeon) a label pass over every pixel took about
# 23 ms per image at 2^15, 24-26 ms at 2^14 and 2^16 and 25-26 ms at
# 2^13.
_ASSIGN_SPAN = 1 << 15

# Assigned pixels per span of the block's readers, soft pooling and
# instance_param_loss (:meth:`SoftAssignment._block_spans`). On 192x256
# scenes with C = 16 (one core of a 2-core Xeon) spans of 4096 or 8192
# pooled the 42k assigned pixels in about 0.55 ms, against 0.85 ms at
# 16384 and 0.95 ms in one product over all of them. In
# instance_param_loss each span's (C, span) temporaries stay about 1 MiB
# at C = 16, small enough to reuse heap memory that earlier calls freed;
# one span of all ~42k rows made ~5.4 MB temporaries that took about
# 1100 page faults per call.
_BLOCK_SPAN = 8192

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


def _label_rows(
    columns: _Columns, clusters: int, labels: np.ndarray, rows: np.ndarray
) -> None:
    """Write 1 + the column of each pixel's first largest weight, from
    the column kernel, into ``labels[rows]``, span by span over
    ``_ASSIGN_SPAN`` pixels, with one (C, span) buffer that every span
    reuses. A NaN weight (every distance of a pixel overflowed to inf)
    is rejected."""
    buf = np.empty((clusters, min(_ASSIGN_SPAN, rows.shape[0])))
    for start, stop in _spans(rows.shape[0]):
        span = rows[start:stop]
        block = buf[:, : span.shape[0]]
        columns(span, block)
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


class SoftAssignment:
    """Per-pixel membership weights over clusters, with hard labels.

    Rows of assigned (planar) pixels sum to 1; unassigned pixels carry
    all-zero rows so the grid shape survives end to end.
    ``assigned_rows`` is the mask of nonzero rows. ``labels`` are the
    hard labels: 0 on unassigned rows, else 1 + the column of the row's
    first largest weight.

    An assignment holds one weight array, a private cluster-major block
    (:attr:`_block`): the (C, M) weights of its M assigned pixels in
    ascending pixel order. Soft pooling and ``instance_param_loss`` read
    only the block. The dense (N, C) ``weights`` are that block
    scattered into zeros on first read, so column j of the block equals
    row ``flatnonzero(assigned_rows)[j]`` of ``weights`` bit for bit,
    and a reader of ``weights`` holds both arrays. No path of the
    library or its command line reads ``weights``.

    There are two ways to build one. ``SoftAssignment(grid, weights)``
    checks the shape, takes the rows with any nonzero entry as the
    assigned rows, gathers them into the block and checks the block; it
    keeps no (N, C) array. Its labels are the first maximum of each
    block column, built on first read. The library's lazy producers
    (``cluster``, ``soft_assign`` and ``one_hot_assignment``) build an
    assignment from a source (:meth:`_from_source`): the cluster count,
    the assigned rows, one column kernel ``columns(rows, out)``, which
    writes the (C, len(rows)) weights of the given assigned pixels into
    ``out``, and, where they know the labels more cheaply than the
    kernel does, a labels builder.
    The assignment alone runs the kernel, span by span over
    ``_ASSIGN_SPAN`` assigned pixels, to build the block and the default
    first-maximum labels, each on its own first read and neither from
    the other: a caller that only reads labels never holds an N x C or
    C x M array, and one that reads the block never holds an N x C
    array. Either block passes the same checks (entries in [0, 1], then
    columns summing to 1) and is frozen in place, without a copy. Each
    value is cached once and read-only, so the object stays immutable
    from outside; two threads racing on a first read may both build the
    value, and both get the one that was cached first. Once the labels
    are cached their builder is dropped, with whatever it held.
    """

    def __init__(self, grid: ImageGrid, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] != grid.n_pixels:
            raise ValueError(
                f"weights must have shape (N, C) with N={grid.n_pixels}, "
                f"got {weights.shape}"
            )
        if weights.shape[1] < 1:
            raise ValueError("assignment needs at least one cluster column")
        assigned = weights.any(axis=1)
        block = np.ascontiguousarray(weights[assigned].T)
        _checked_block(block)
        self._init(grid, weights.shape[1], assigned, None, None, False)
        self._cached("_member_block", block.view)  # frozen, without a copy

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
        default the first maximum of the kernel's columns). ``indicator``
        says that each assigned row is one-hot on its label, so pooling
        may sum pixels by label."""
        out = cls.__new__(cls)
        out._init(grid, clusters, assigned, columns, labels, indicator)
        return out

    def _init(self, grid, clusters, assigned, columns, labels, indicator) -> None:
        """Set the fields of every assignment: the one initializer of
        :meth:`__init__` and :meth:`_from_source` (the constructor's
        assignment has no column kernel and no labels builder).
        ``assigned`` is frozen in place, without a copy."""
        assigned.flags.writeable = False
        self.__dict__.update(
            grid=grid,
            _clusters=clusters,
            _assigned=assigned,
            _columns=columns,
            _build_labels=labels,
            _indicator=indicator,
        )

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"SoftAssignment(grid={self.grid!r}, clusters={self._clusters})"

    def _cached(self, name: str, build: Callable[[], np.ndarray]):
        """The value cached under ``name``: built by ``build()`` and
        frozen on first read. ``setdefault`` keeps the first of two
        racing builds."""
        value = self.__dict__.get(name)
        if value is None:
            value = build()
            value.flags.writeable = False
            value = self.__dict__.setdefault(name, value)
        return value

    def _first_max_labels(self) -> np.ndarray:
        labels = np.zeros(self.grid.n_pixels, dtype=np.int64)
        if self._columns is None:  # a constructor assignment: its block is built
            labels[self._assigned] = np.argmax(self._block, axis=0) + 1
            return labels
        rows = np.flatnonzero(self._assigned)
        _label_rows(self._columns, self._clusters, labels, rows)
        return labels

    def _column_block(self) -> np.ndarray:
        rows = np.flatnonzero(self._assigned)
        block = np.empty((self._clusters, rows.shape[0]))
        for start, stop in _spans(rows.shape[0]):
            self._columns(rows[start:stop], block[:, start:stop])
        _checked_block(block)
        return block

    def _scattered_block(self) -> np.ndarray:
        weights = np.zeros((self.grid.n_pixels, self._clusters))
        weights[self._assigned] = self._block.T
        return weights

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
        """Read-only (N, C) weights: :attr:`_block` scattered into zeros,
        built once. For a constructor assignment they equal the weights
        it was given, bit for bit, except that a -0.0 in an unassigned
        row reads +0.0."""
        return self._cached("_weights", self._scattered_block)

    @property
    def _block(self) -> np.ndarray:
        """Read-only (C, M) weights of the assigned pixels, cluster-major
        and in ascending pixel order, built and checked once."""
        return self._cached("_member_block", self._column_block)

    def _block_spans(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Per span of at most ``_BLOCK_SPAN`` assigned pixels, in
        pixel order, the pixels' indices and their (C, span) view of
        :attr:`_block`."""
        block = self._block
        idx = np.flatnonzero(self._assigned)
        for start, stop in _spans(idx.shape[0], _BLOCK_SPAN):
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
