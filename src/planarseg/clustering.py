"""Mean shift clustering of pixel embeddings into plane instances.

Two variants share one Gaussian-kernel shift step:

* :func:`cluster`, the one entry point to the anchor mean shift, moves a
  small grid of anchors instead of every pixel. The embeddings fix the
  dimension d, and ``anchors_per_dim ** d`` may not exceed
  ``MAX_ANCHORS``; that is checked before anything is allocated. One
  O(N) pass first bins the masked embeddings, gathered once as d
  columns, into cells of side ``BIN_SIDE * bandwidth`` and keeps each
  occupied cell's centroid and pixel count; the anchor densities and the
  one density filter run against those B weighted centroids. The
  Gaussian factors over axes, so the k^d grid densities cost
  O(d * k * B) exps plus a GEMM. The shifts then meet moment cells: one
  O(B) pass groups the fine bins into cells ``_CELL_FACTOR`` (4) times
  wider, each with its count, centroid and scatter, and a second-order
  expansion of the kernel around each centroid keeps the step within
  7.1e-5 * bandwidth of the fine-bin step on a tested mixture, and
  within the fine bins' bound of BIN_SIDE^2 * bandwidth / 4 of the exact
  per-pixel step. Each shift of M anchors costs O(M * B') for the B'
  cells (B / 7 on the 2-D benchmark scenes) rather than O(M * B), over
  kernel tiles small enough for a core's L2 cache. At dimensions other
  than 2 and 3, or in a box wider than ``_MOMENT_WIDTH`` bandwidths, the
  shifts meet the fine bins.
* :func:`vanilla_mean_shift` is the classic per-pixel baseline used as a
  correctness oracle; it runs the exact, unweighted kernel on every
  pixel.

Both fuse modes closer than the bandwidth, transitively, in one exact
pass (:func:`_merge_labels`): modes are grouped into cells, pairs of
cells are decided by the boxes of their members, and members are
compared only where the boxes straddle the radius.

Both produce a :class:`ClusterSet` (centers sorted lexicographically so
runs and variants are comparable) and a row-stochastic soft assignment
that is labels first. The assignment holds one column kernel, the exact
span kernel :func:`_assign_span`, from which it builds its hard labels
and its cluster-major (C, M) block of assigned weights, each on its
first read; its dense N x C weights, if read, are the block scattered.
Inference that reads only labels never holds an N x C array, nor does
training that reads only the block.
:func:`cluster` also hands the assignment a labels builder that keeps
each pixel's bin, so its labels are decided a bin at a time in
O(B * C * d + N) (:func:`_binned_labels`): a bin whose nearest center is
sure for every member, by a proven bound on the members' spread, labels
them all at once, and only the pixels of the few other bins run the
span kernel. The labels equal the span kernel's first-maximum labels
bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    EmbeddingMap,
    InstanceSegmentation,
    PlanarMask,
    SoftAssignment,
    _Columns,
    _checked_int,
    _frozen,
    _frozen_fields,
    _label_rows,
    _spans,
)

__all__ = [
    "MeanShiftConfig",
    "ClusterSet",
    "soft_assign",
    "cluster",
    "vanilla_mean_shift",
    "hard_labels",
]

# Densities below this are treated as numerically zero; the anchor stays put.
ZERO_DENSITY = 1e-300

# Rows per shift chunk are sized so a chunk's rows against all points
# span about this many float64 entries; the grid-density spans and the
# merge's blocks of cell pairs and member pairs are bounded by it too,
# keeping per-chunk memory behavior uniform across problem sizes.
_CHUNK_TARGET = 1 << 21

# Floats per kernel tile of one shift step: each chunk of seeds meets the
# points in tiles this small, so the tile's clamp, scale and exp passes
# run in a per-core L2 cache (a 2^21-float tile ran those passes about
# 1.5-2x slower per element), and the per-element cost, hence the
# per-iteration scaling, does not depend on the point count.
_TILE_TARGET = 1 << 17

# Side of a binning cell as a fraction of the bandwidth. Binning at each
# cell's centroid cancels the first-order error term, so anchor positions
# move by O(BIN_SIDE^2 * bandwidth); 0.1 is faster but changed labels on
# some scenes where 0.05 did not.
BIN_SIDE = 0.05

# The dense binning pass holds about 17 bytes per cell of the key space
# (an int64 count, an occupied flag and an int64 rank); above this many
# cells per point it sorts the occupied keys instead. On uniform 2-D
# points (one core of a 2-core Xeon) the dense count stays the faster up
# to 16-32 cells per point; at 8 it took 6.5 against 10.0 ms for 40k
# points and 38 against 104 ms for 270k. 8 keeps its scratch within
# about 136 bytes per point.
_DENSE_KEYS_PER_POINT = 8

# The shifts of cluster meet moment cells this many fine bins wide per
# axis (side 4 * BIN_SIDE * bandwidth = 0.2 b), each carrying the count,
# centroid and scatter of its fine bins (_moment_cells), rather than the
# fine bins themselves. On five 192x256, 16-plane benchmark scenes the
# 15.7k fine bins made 2.3k cells, and 10 shifts, cells built included,
# took 5.1-7.3 against 14.8-28.5 ms (one core of a 2-core Xeon, best of
# 5); on five 480x640, 8-plane ones 17.2k bins made 2.7-2.9k cells, and
# 4.3-6.6 against 11.8-18.9 ms. The curvature term keeps the step within
# 7.1e-5 b of the fine-bin step on the tested mixture, where plain 4x
# bins strayed 6.25e-3 b.
_CELL_FACTOR = 4

# The dimensions at which the shifts meet moment cells. A cell's table
# has (d + 1) Q columns for Q = 1 + d + d (d + 1) / 2 monomials: 18 at
# d = 2, 40 at d = 3, 75 at d = 4. On 192x256, 16-plane synth scenes
# (one core of a 2-core Xeon, best of 5, cells built included), 10
# shifts took 6.2-6.4 against 19.9-23.6 ms at d = 2 (2.3k cells for
# 15.8k bins) and 45-53 against 71-92 ms at d = 3 (11.2k for 39.9k). At
# d = 4 (k = 6) 42k bins made 28.7k cells and the shifts took 80 against
# 25-35 ms; at d = 1 (4 planes) 300 bins made 90 cells and 0.8-1.0
# against 0.4-0.5 ms. Other dimensions shift against the fine bins.
_MOMENT_DIMS = (2, 3)

# Moment cells apply only to boxes at most this many bandwidths wide;
# wider ones shift against the fine bins. In box-centred coordinates in
# units of the bandwidth, a cell's weight n - tr S / 2 + r^T S r / 2 and
# position sum are evaluated from monomial terms as large as
# n d^2 c^2 W^2 / 4 (times W / 2 for the sums) in a box W wide, with
# c = 0.2 the cell side, and these cancel down to about n (and n W / 2).
# Their rounding thus moves the step by up to about u d^2 c^2 W^3 / 8
# bandwidths for u = 2^-53: 2e-6 at W = 1e4 and d = 2, against the
# expansion's own 7e-5 and the stated 1.6e-4 (see the TestBinning
# tests). Measured on the tested mixture stretched to W: 1e-7 at
# W = 1e4, 1e-3 at 1e5 and 1.1 at 1e6.
_MOMENT_WIDTH = 1e4

# Most anchors a grid may hold (anchors_per_dim ** d for the embeddings'
# dimension d), checked by _seed_anchors before anything else. The grid's
# positions, mesh and filtered copy then stay within a few hundred MiB
# (a process peak of about 200 MiB at d = 6, k = 10); k = 10 at d = 8
# would need 6.4 GB for the positions alone.
MAX_ANCHORS = 1 << 20


@dataclass(frozen=True)
class MeanShiftConfig:
    """Hyper-parameters of the anchor-based mean shift.

    ``anchors_per_dim ** d`` anchors start on the grid, for the
    embeddings' own dimension d; those whose density is zero or below
    ``density_fraction`` of the largest are dropped, and the rest shift
    exactly ``iterations`` times before modes closer than ``bandwidth``
    merge.
    """

    anchors_per_dim: int = 10
    bandwidth: float = 0.5
    iterations: int = 10
    density_fraction: float = 0.1

    def __post_init__(self) -> None:
        for name in ("anchors_per_dim", "iterations"):
            _checked_int(name, getattr(self, name))
        for name in ("bandwidth", "density_fraction"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.anchors_per_dim < 2:
            raise ValueError("anchors_per_dim must be >= 2")
        _check_bandwidth(self.bandwidth)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= self.density_fraction < 1.0:
            raise ValueError("density_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class ClusterSet:
    """Cluster centers plus how many merged anchors formed each center."""

    centers: np.ndarray
    member_anchor_counts: np.ndarray

    def __post_init__(self) -> None:
        centers = _frozen(self.centers, np.float64)
        counts = _frozen(self.member_anchor_counts, np.int64)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError(f"centers must be (C, d) with C >= 1, got {centers.shape}")
        if counts.shape != (centers.shape[0],) or counts.min() < 1:
            raise ValueError("member_anchor_counts must be positive, one per center")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "member_anchor_counts", counts)

    def __len__(self) -> int:
        return self.centers.shape[0]


def _check_bandwidth(bandwidth: float) -> None:
    """Reject a bandwidth the Gaussian kernel cannot use: not positive,
    infinite, or so small that the exponent's scale 1 / (2 * b * b) is not
    finite (the square underflows to 0 or to a subnormal whose reciprocal
    overflows)."""
    if not (
        0.0 < bandwidth < math.inf
        and 2.0 * bandwidth * bandwidth > 0.0
        and math.isfinite(1.0 / (2.0 * bandwidth * bandwidth))
    ):
        raise ValueError(
            "bandwidth must be > 0, finite and large enough that 1/(2*b*b) "
            f"is finite, got {bandwidth!r}"
        )


def _point_table(
    points: np.ndarray, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """The moment table ``[w p | w]`` of points with weights w (one per
    point, e.g. bin pixel counts; None weighs every point once): the
    table of :func:`_gaussian_shift` for points without scatter."""
    n, d = points.shape
    w = np.ones(n) if weights is None else weights
    table = np.empty((n, d + 1))
    np.multiply(points, w[:, None], out=table[:, :d])
    table[:, d] = w
    return table


def _monomials(x: np.ndarray) -> np.ndarray:
    """Per row of x, the Q = 1 + d + d (d + 1) / 2 monomials of degree at
    most 2 that a moment table's columns are indexed by: 1, then x_i,
    then x_i x_j for i <= j in row-major order."""
    i, j = np.triu_indices(x.shape[1])
    return np.concatenate([np.ones((x.shape[0], 1)), x, x[:, i] * x[:, j]], axis=1)


def _gaussian_shift(
    seeds: np.ndarray,
    points: np.ndarray,
    bandwidth: float,
    table: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One kernel-weighted mean step for every seed.

    Returns (new_positions, densities); densities carry the Gaussian
    normalization factor. Seeds with numerically zero density stay put.

    ``table`` holds one row of moments per point, in Q blocks of d + 1
    columns: block q holds the coefficients of monomial q of the seed
    (:func:`_monomials`) in the point's weighted position sum (d columns)
    and its weight (the last). Each seed's sums are its kernel-weighted
    column sums contracted with its own monomials. A table of one block,
    such as :func:`_point_table`'s ``[w p | w]``, needs no contraction;
    None stands for ``[p | 1]``, every point weighed once. The moment
    cells of :func:`_moment_cells` add the quadratic terms of their
    scatter this way.

    Per chunk of seeds and per tile of points, one GEMM
    ``[a | |a|^2 | 1] @ [-2p | 1 | |p|^2]^T`` gives the squared
    distances, which are clamped at 0, scaled by -1 / (2 b^2) and
    exponentiated in place; a second GEMM, ``kern @ table``, adds the
    tile's moments. The scale is applied only after the sum, so a tiny
    bandwidth cannot overflow the GEMM's terms. Chunks of seeds bound the
    running sums and tiles bound the kernel block, which reuses one
    buffer for the whole call.
    """
    m, d = seeds.shape
    n = points.shape[0]
    if table is None:
        table = _point_table(points)
    blocks = table.shape[1] // (d + 1)
    rows = max(1, min(m, _CHUNK_TARGET // max(n, 1)))
    tile = max(1, min(n, _TILE_TARGET // rows))
    out = np.empty_like(seeds)
    dens = np.empty(m, dtype=np.float64)
    lifted = np.empty((m, d + 2))
    lifted[:, :d] = seeds
    lifted[:, d] = np.einsum("ij,ij->i", seeds, seeds)
    lifted[:, d + 1] = 1.0
    ends = np.empty((n, d + 2))
    np.multiply(points, -2.0, out=ends[:, :d])
    ends[:, d] = 1.0
    ends[:, d + 1] = np.einsum("ij,ij->i", points, points)
    inv = -1.0 / (2.0 * bandwidth * bandwidth)
    prefactor = 1.0 / (math.sqrt(2.0 * math.pi) * bandwidth)
    buf = np.empty(rows * tile)
    for start, stop in _spans(m, rows):
        sums = np.zeros((stop - start, table.shape[1]))
        for first, last in _spans(n, tile):
            kern = buf[: (stop - start) * (last - first)].reshape(stop - start, -1)
            np.matmul(lifted[start:stop], ends[first:last].T, out=kern)
            np.maximum(kern, 0.0, out=kern)
            # At a tiny bandwidth the scaled distances may overflow to
            # -inf, whose exp is the right kernel value of 0.
            with np.errstate(over="ignore"):
                kern *= inv
            np.exp(kern, out=kern)
            sums += kern @ table[first:last]
        if blocks > 1:
            sums = np.einsum(
                "iqk,iq->ik",
                sums.reshape(stop - start, blocks, d + 1),
                _monomials(seeds[start:stop]),
            )
        total = sums[:, d]
        alive = total > ZERO_DENSITY
        safe = np.where(alive, total, 1.0)
        np.divide(sums[:, :d], safe[:, None], out=out[start:stop])
        out[start:stop][~alive] = seeds[start:stop][~alive]
        dens[start:stop] = prefactor * total
    return out, dens


def _masked_columns(embeddings: EmbeddingMap, mask: PlanarMask) -> List[np.ndarray]:
    """The masked embeddings as d contiguous columns, one gather each.

    Every masked |coordinate| must lie below c = sqrt(max_float / (4 d)),
    so that no kernel overflows: for two such points a and p, the terms
    |a|^2, 2 |a . p| and |p|^2 of the shift's expanded squared distance
    stay below max_float / 4, / 2 and / 4, and the squared distance
    |a - p|^2 <= 4 d c^2 of the grid densities and the soft assignment
    stays below max_float.
    """
    if embeddings.grid != mask.grid:
        raise ValueError("embedding and mask grids must match")
    idx = np.flatnonzero(mask.mask)
    if idx.shape[0] == 0:
        raise ValueError("no planar pixels")
    values = embeddings.values
    columns = [values[:, a].take(idx) for a in range(values.shape[1])]
    limit = math.sqrt(np.finfo(np.float64).max / (4 * len(columns)))
    largest = max(max(column.max(), -column.min()) for column in columns)
    if not largest < limit:
        raise ValueError(
            f"masked embeddings must lie within +-{limit:.4g} so that squared "
            f"distances stay finite, got a coordinate of magnitude {largest:.4g}"
        )
    return columns


def _group_rows(
    columns: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal rows of float keys, given as d key columns, by one
    lexicographic sort.

    Returns (inverse, order, starts): each row's group index, with groups
    numbered in lexicographic key order; the sorting permutation; and a
    mask over the sorted rows marking where each run of equal keys
    starts. Keys stay floats, so no cast can wrap them however large
    they grow.
    """
    n = columns[0].shape[0]
    order = np.lexsort(columns[::-1])
    starts = np.zeros(n, dtype=bool)
    starts[:1] = True
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return inverse, order, starts


def _cell_index(
    columns: Sequence[np.ndarray], side: float
) -> Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Each point's cubic cell of the given side, for points given as d
    columns, in one O(N) pass: (box, inverse).

    ``box`` is the per-axis (min, max) of the points and ``inverse`` each
    point's cell (int64), with cells numbered lexicographically by their
    integer coordinates ``floor((x - min) / side)``. Each axis's bounds
    and cell keys come from its own column. Key spaces of up to
    ``_DENSE_KEYS_PER_POINT`` cells per point are counted densely with
    ``np.bincount`` over a flat key built column by column; larger ones
    (high dimensions, wide spreads) sort the keys with ``np.lexsort``
    instead, so no array outgrows O(N). Keys stay floats until the dense
    path has shown that they fit, so they cannot overflow int64; where
    even a float key would overflow, equal points share a cell.
    """
    n = columns[0].shape[0]
    lo = np.array([column.min() for column in columns])
    hi = np.array([column.max() for column in columns])
    with np.errstate(over="ignore"):
        spans = (hi - lo) / side
    if not np.isfinite(spans).all():
        # Keys would overflow to a shared inf: each distinct point takes a
        # cell of its own instead, which keeps every cell within the side.
        return (lo, hi), _group_rows(columns)[0]
    dims = np.floor(spans) + 1.0  # the largest key is the max's
    with np.errstate(over="ignore"):  # an inf key space takes the sorting path
        cells = float(np.prod(dims))
    if cells <= _DENSE_KEYS_PER_POINT * n:
        # Row-major flat keys, accumulated as floats: they stay below
        # cells <= 2**53, so every sum and product is exact.
        flat = np.zeros(n)
        for column, low, size in zip(columns, lo, dims):
            key = column - low
            key /= side
            flat *= size
            flat += np.floor(key, out=key)
        index = flat.astype(np.int64)
        occupied = np.bincount(index, minlength=int(cells)) > 0
        inverse = np.cumsum(occupied)[index]
        inverse -= 1
    else:
        inverse, _, _ = _group_rows(
            [np.floor((column - low) / side) for column, low in zip(columns, lo)]
        )
    return (lo, hi), inverse


def _bin_points(
    columns: Sequence[np.ndarray], side: float
) -> Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Group points, given as d columns, into the cubic cells of
    :func:`_cell_index`.

    Returns (box, centroids, counts, inverse): the per-axis (min, max) of
    the points, the mean of the points in each occupied cell, how many
    points it holds (as float64 kernel weights) and each point's cell.
    """
    box, inverse = _cell_index(columns, side)
    bins = int(inverse.max()) + 1
    counts = np.bincount(inverse, minlength=bins).astype(np.float64)
    sums = np.stack(
        [np.bincount(inverse, column, minlength=bins) for column in columns], axis=1
    )
    return box, sums / counts[:, None], counts, inverse


def _grid_densities(
    axes: List[np.ndarray], points: np.ndarray, weights: np.ndarray, bandwidth: float
) -> np.ndarray:
    """Weighted kernel densities at every node of the grid
    ``axes[0] x ... x axes[d-1]``, in C order (last axis fastest).

    The Gaussian factors over axes, so per span of points each axis needs
    one (k, span) table exp(-(x - p_a)^2 / (2 b^2)). The outer product of
    the tables of every axis but the last (a row of ones at d = 1) is
    contracted with the last axis's weighted table in one GEMM. The span
    is sized so that one span's tables and outer products stay within
    ``_CHUNK_TARGET`` floats. The k^(d-1) rows of that product always
    fit in half of it: :func:`_seed_anchors` admits k^d <= MAX_ANCHORS
    with k >= 2, so k^(d-1) <= MAX_ANCHORS / 2 = ``_CHUNK_TARGET`` / 4.
    """
    d, k, n = len(axes), axes[0].shape[0], points.shape[0]
    rows = k ** (d - 1)
    span = max(1, min(n, _CHUNK_TARGET // (2 * rows + d * k)))
    inv = -1.0 / (2.0 * bandwidth * bandwidth)
    sums = np.zeros((rows, k))
    for start, stop in _spans(n, span):
        tables = []
        for a, axis in enumerate(axes):
            table = np.subtract.outer(axis, points[start:stop, a])
            np.square(table, out=table)
            with np.errstate(over="ignore"):  # -inf at a tiny bandwidth: exp gives 0
                table *= inv
            np.exp(table, out=table)
            tables.append(table)
        tables[-1] *= weights[start:stop]
        block = tables[0] if d > 1 else np.ones((1, stop - start))
        for table in tables[1:-1]:
            block = (block[:, None, :] * table[None, :, :]).reshape(-1, stop - start)
        sums += block @ tables[-1].T
    prefactor = 1.0 / (math.sqrt(2.0 * math.pi) * bandwidth)
    return prefactor * sums.ravel()


def _anchor_grid(
    box: Tuple[np.ndarray, np.ndarray],
    centroids: np.ndarray,
    counts: np.ndarray,
    config: MeanShiftConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions and densities of k^d anchors on a uniform grid over the
    bounding box, in C order.

    Endpoints are inclusive; a zero-extent axis collapses to its single
    coordinate. Densities are the kernel sums at the grid nodes over the
    count-weighted bin centroids: because the Gaussian factors over axes,
    O(d * k * B) exps for B occupied bins plus a GEMM that contracts the
    per-axis factors into the k^d sums (see :func:`_grid_densities`).
    """
    lo, hi = box
    axes = [np.linspace(low, high, config.anchors_per_dim) for low, high in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    positions = np.stack([m.ravel() for m in mesh], axis=1)
    return positions, _grid_densities(axes, centroids, counts, config.bandwidth)


def _dense_anchors(
    positions: np.ndarray, densities: np.ndarray, fraction: float
) -> np.ndarray:
    """The anchors whose density is positive and at least ``fraction`` of
    the largest.

    An anchor of zero density has no point within the kernel's reach and
    would never move, so it is dropped even at a fraction of 0. When the
    largest density is positive it survives, because the fraction is
    below 1; when every density is 0 no anchor does.
    """
    keep = densities >= fraction * densities.max()
    keep &= densities > 0.0
    return positions[keep]


def _seed_anchors(
    embeddings: EmbeddingMap, mask: PlanarMask, config: MeanShiftConfig
) -> Tuple[np.ndarray, tuple]:
    """Bin the masked embeddings once, place the anchor grid and drop its
    low-density anchors: (anchors, bins), with the (box, centroids,
    counts, inverse) of :func:`_bin_points`; the per-pixel values are
    not kept while later stages allocate.

    A grid of more than ``MAX_ANCHORS`` anchors is an error, raised
    before any column or grid is allocated. So is a grid with no anchor
    left: every grid density is 0 when the bandwidth is far below the
    spacing between the points and the grid nodes."""
    # Python ints cannot overflow, and with k >= 2 a d beyond the bound's
    # bit length exceeds it, so the power stays small.
    k, d = int(config.anchors_per_dim), embeddings.dim
    if d >= MAX_ANCHORS.bit_length() or k > MAX_ANCHORS or k**d > MAX_ANCHORS:
        raise ValueError(
            f"anchors_per_dim ** dim must be <= {MAX_ANCHORS}, got {k} ** {d}"
        )
    bins = _bin_points(_masked_columns(embeddings, mask), BIN_SIDE * config.bandwidth)
    positions, densities = _anchor_grid(*bins[:3], config)
    anchors = _dense_anchors(positions, densities, config.density_fraction)
    if not anchors.shape[0]:
        raise ValueError(
            f"no anchor has positive density at bandwidth {config.bandwidth!r} "
            f"on the {k}^{d} anchor grid"
        )
    return anchors, bins


def _norm(gaps: Iterable[np.ndarray]) -> np.ndarray:
    """Lengths from per-axis gaps, squared and summed axis by axis. Every
    merge distance and bound uses this one formula, monotone in each
    |gap|, so a bound cannot round past a distance it bounds. Gaps beyond
    about 1e154 square to inf, which exceeds any radius."""
    total = None
    with np.errstate(over="ignore"):
        for gap in gaps:
            total = gap * gap if total is None else np.add(total, gap * gap, out=total)
    return np.sqrt(total, out=total)


def _ragged(counts: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(row, offset) of the entries of a ragged array with ``counts[i]``
    entries in row i, in blocks of at most ``_CHUNK_TARGET // 16``: a
    block of pairs holds about a dozen arrays this long."""
    bounds = np.cumsum(counts)
    total = int(bounds[-1]) if bounds.size else 0
    for start, stop in _spans(total, _CHUNK_TARGET // 16):
        flat = np.arange(start, stop)
        row = np.searchsorted(bounds, flat, side="right")
        yield row, flat - bounds[row] + counts[row]


def _hook(root: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Join the components of each pair (left[p], right[p]) in the flat
    forest ``root`` (root[i] <= i is i's root): hook the higher root of
    each pair under the lower, jump pointers until flat, and repeat."""
    while left.size:
        a, b = root[left], root[right]
        apart = a != b
        left, right, a, b = left[apart], right[apart], a[apart], b[apart]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(root[root], root):
            root[...] = root[root]


def _merge_labels(positions: np.ndarray, radius: float) -> np.ndarray:
    """Label each point with its component under "distance < radius"
    (the transitive closure), exactly and vectorised for any M, d, radius.

    Points are grouped into cells of side radius / (sqrt(d) (1 + 1e-9)),
    whose members are all joined; if a cell's member box is not within the
    radius (its keys overflowed or rounded), every distinct point is its
    own cell. Cells are sorted by their key on the widest axis, and each
    meets the later cells whose minima on that axis lie less than a radius
    above its maximum. Per cell pair, the member boxes bound every member
    distance: a lower bound of at least the radius keeps the cells apart,
    an upper bound below it joins them, and only pairs in between whose
    cells are not joined yet compare their members. Components come from
    min-label hooking, numbered in the order of their least cell.

    Worst case: cell pairs are pruned on the widest axis only, so points
    packed densely across that band bound far more pairs than can touch.
    On a 300 x 300 unit lattice at radius 1.5 (79524 cells) it bounded
    33.5M cell pairs, where key distance allows about 1M, and took 4.1 s.
    The modes of a shift grid (M <= k^d anchors, 100 by default) come
    nowhere near that.
    """
    d = positions.shape[1]
    columns = [np.ascontiguousarray(positions[:, a]) for a in range(d)]
    lead = int(np.argmax([column.max() - column.min() for column in columns]))
    side = radius / (math.sqrt(d) * (1.0 + 1e-9))
    with np.errstate(all="ignore"):  # keys that overflow fail the box check
        floored = [np.floor(column / side) for column in columns]
    for keys in (floored, columns):
        cell, order, starts = _group_rows([keys[lead]] + keys[:lead] + keys[lead + 1 :])
        first = np.flatnonzero(starts)
        ordered = [column[order] for column in columns]
        lo = [np.minimum.reduceat(column, first) for column in ordered]
        hi = [np.maximum.reduceat(column, first) for column in ordered]
        if (_norm(hi[a] - lo[a] for a in range(d)) < radius).all():
            break
    n = first.shape[0]
    sizes = np.diff(first, append=positions.shape[0])
    # Cells from ends[i] on have a band-axis minimum a radius or more above
    # cell i's maximum; a guess that rounding left near steps past its value.
    floor = np.minimum.accumulate(lo[lead][::-1])[::-1]
    ends = np.searchsorted(floor, hi[lead] + radius)
    while True:
        gap = np.maximum(floor[np.minimum(ends, n - 1)] - hi[lead], 0.0)
        near = (ends < n) & (_norm([gap]) < radius)
        if not near.any():
            break
        ends[near] = np.searchsorted(floor, floor[ends[near]], side="right")
    root = np.arange(n)
    for left, offset in _ragged(ends - np.arange(1, n + 1)):
        right = left + 1 + offset
        upper = _norm(
            np.maximum(hi[a][right] - lo[a][left], hi[a][left] - lo[a][right])
            for a in range(d)
        )
        sure = upper < radius
        _hook(root, left[sure], right[sure])
        lower = _norm(
            np.maximum(lo[a][right] - hi[a][left], lo[a][left] - hi[a][right]).clip(0.0)
            for a in range(d)
        )
        maybe = (lower < radius) & ~sure
        left, right = left[maybe], right[maybe]
        apart = root[left] != root[right]
        left, right = left[apart], right[apart]
        for pair, member in _ragged(sizes[left] * sizes[right]):
            row, col = np.divmod(member, sizes[right[pair]])
            row += first[left[pair]]
            col += first[right[pair]]
            close = _norm(column[row] - column[col] for column in ordered) < radius
            _hook(root, left[pair[close]], right[pair[close]])
    return np.unique(root, return_inverse=True)[1][cell]


def _merge_points(positions: np.ndarray, radius: float) -> ClusterSet:
    """Fuse points closer than ``radius`` (transitive closure) into the
    means of their components. Centers come out sorted lexicographically
    by coordinates."""
    labels = _merge_labels(positions, radius)
    counts = np.bincount(labels)
    centers = np.stack([np.bincount(labels, column) for column in positions.T], axis=1)
    centers /= counts[:, None]
    order = np.lexsort(centers.T[::-1])
    return ClusterSet(centers[order], counts[order])


def soft_assign(
    embeddings: EmbeddingMap,
    mask: PlanarMask,
    clusters: ClusterSet,
) -> SoftAssignment:
    """Distance-softmax membership of each planar pixel over clusters.

    Rows use exp(-distance) normalized per pixel, computed with the row
    minimum subtracted inside the exponent for stability (the shared
    factor cancels in the ratio). Non-planar rows are zero.

    Only the inputs are checked here, the centers' dimension against
    the embeddings' among them: the assignment keeps the mask as its
    assigned rows and the O(N * C * d) span kernel (:func:`_assign_span`)
    as its column kernel, from which it builds its labels and
    cluster-major block when first read (its weights scatter the
    block). Given centers come with no
    binning of the pixels, so every label here runs the span kernel;
    :func:`cluster` decides most of its labels a bin at a time instead,
    with the same result.
    """
    if embeddings.grid != mask.grid:
        raise ValueError("embedding and mask grids must match")
    if embeddings.dim != clusters.centers.shape[1]:
        raise ValueError(
            f"centers have dimension {clusters.centers.shape[1]} but the "
            f"embeddings have dimension {embeddings.dim}"
        )
    columns = partial(_assign_span, embeddings.values, clusters.centers)
    return SoftAssignment._from_source(embeddings.grid, len(clusters), mask.mask, columns)


# A bin takes its nearest center's label only if, for every point the
# bin may hold, that center is nearer than every other by this relative
# margin plus this absolute one (see _decided_bins).
_LABEL_MARGIN = 1e-9
_LABEL_FLOOR = 1e-12


def _binned_labels(
    bins: tuple,
    side: float,
    columns: _Columns,
    mask: np.ndarray,
    centers: np.ndarray,
) -> np.ndarray:
    """The first-maximum labels of the span kernel ``columns``, bit for
    bit, decided a bin at a time in O(B * C * d + N) for B bins.

    ``bins`` and ``side`` are the binning that :func:`cluster` ran: the
    (box, centroids, counts, inverse) of :func:`_seed_anchors`, with
    each masked pixel's bin in mask order, and the cell side. A bin
    whose nearest center is settled for every point it may hold
    (:func:`_decided_bins`) gives that label to its members in one
    gather; only the pixels of the other bins run the span kernel, whose
    columns each depend only on their own pixel.
    """
    box, centroids, counts, inverse = bins
    taken = _decided_bins(box, centroids, counts, side, centers)[inverse]
    idx = np.flatnonzero(mask)
    labels = np.zeros(mask.shape[0], dtype=np.int64)
    labels[idx] = taken
    _label_rows(columns, centers.shape[0], labels, idx[taken == 0])
    return labels


def _decided_bins(
    box: Tuple[np.ndarray, np.ndarray],
    centroids: np.ndarray,
    counts: np.ndarray,
    side: float,
    centers: np.ndarray,
) -> np.ndarray:
    """Per bin of :func:`_bin_points`, 1 + the index of the center that
    the span kernel gives the unique largest weight at every member, or
    0 where the bounds cannot show that.

    A bin's members lie in the ball of radius r = |h| around its
    centroid, with h from :func:`_member_reach`, so each one's distance
    to a center is within r of the centroid's distance D. With D_b the
    least D of a bin and D_o the next, the bin takes center b when

        (D_b + r) (1 + m) + f < (D_o - r) (1 - m),

    with m = ``_LABEL_MARGIN`` and f = ``_LABEL_FLOOR``. Each span
    distance, D and r rounds d differences or sums, d squares, d - 1
    sums of non-negative terms and a square root, so it lies within
    (d + 2) u of its exact value, about 2.4e-15 at the d <= 20 that
    ``MAX_ANCHORS`` allows. Over the two sides of the test those errors
    stay below 6 (d + 2) u (D_b + D_o), which m (D_b + D_o) covers more
    than 10^4 times. So at every member the span distances keep
    dist_o - dist_b > f for every other center o: dist_b is its column's
    minimum and takes the weight exp(0) / sum, while every other weight
    is at most exp(-f) / sum, about (1 - 1e-12) / sum. That is 10^4 ulps
    below, far above the resolution (about 1e-15) at which the exp and
    the correctly rounded division by the shared row sum could tie it
    with exp(0). Center b holds the unique largest weight, and the
    first-maximum rule picks it. Infinite distances settle nothing.

    Bins are taken in spans of ``_ASSIGN_SPAN``, so the C distance rows
    of a span hold no more than one block of the span kernel.
    """
    radius = _norm(_member_reach(box, counts, side))
    decided = np.empty(counts.shape[0], dtype=np.int64)
    for start, stop in _spans(counts.shape[0]):
        columns = [np.ascontiguousarray(column) for column in centroids[start:stop].T]
        near = np.full(stop - start, np.inf)
        second = near.copy()
        dists = []
        for center in centers:
            dist = _norm(column - coord for column, coord in zip(columns, center))
            np.minimum(second, np.maximum(near, dist), out=second)
            np.minimum(near, dist, out=near)
            dists.append(dist)
        best = np.zeros(stop - start, dtype=np.int64)
        for label, dist in enumerate(dists, start=1):
            best += (dist == near) * label  # a single match where it counts
        reach = (near + radius[start:stop]) * (1.0 + _LABEL_MARGIN) + _LABEL_FLOOR
        with np.errstate(invalid="ignore"):  # inf - inf: NaN settles nothing
            settled = reach < (second - radius[start:stop]) * (1.0 - _LABEL_MARGIN)
        decided[start:stop] = np.where(settled, best, 0)
    return decided


def _member_reach(
    box: Tuple[np.ndarray, np.ndarray], counts: np.ndarray, side: float
) -> List[np.ndarray]:
    """Per axis, how far the members of each bin of :func:`_bin_points`
    may lie from its centroid: h_a = side + 2 (n + 8) u S_a, with n the
    bin's count, u = 2^-53 and S_a = |low_a| + |high_a| from the box.

    A point x's key is floor(fl(fl(x - low) / side)); its two roundings
    put x - low within 2.01 u S_a of the cell [k side, (k + 1) side], so
    a bin's members lie within side + 4.02 u S_a of each other. Their
    exact mean lies among them, and summing n coordinates and dividing
    by n moves the computed centroid by at most n u S_a. h_a holds that
    with twice the room, which also covers the rounding of h_a itself.
    """
    low, high = box
    slack = (counts + 8.0) * np.finfo(np.float64).eps  # eps = 2 u
    return [side + slack * spread for spread in np.abs(low) + np.abs(high)]


def _assign_span(
    values: np.ndarray, centers: np.ndarray, rows: np.ndarray, block: np.ndarray
) -> None:
    """The column kernel of :func:`soft_assign` and :func:`cluster`:
    write the (C, span) distance-softmax weights of the pixels ``rows``
    into ``block``. Per span it gathers each embedding column once and
    fills the distance block one center at a time, with no (N, C, d)
    temporary.

    Each column depends only on its own pixel: the row sums add the
    centers in order, as ``block.sum(axis=0)`` does for two or more
    columns but not for one (with C >= 8 it sums a lone column
    pairwise). A function of its own, so a span's scratch is freed
    before the next span allocates.
    """
    gathered = values.take(rows, axis=0)  # whole rows: no strided column copy
    columns = [np.ascontiguousarray(gathered[:, a]) for a in range(values.shape[1])]
    del gathered
    term = np.empty(rows.shape[0])
    for dist, center in zip(block, centers):
        np.subtract(columns[0], center[0], out=dist)
        np.square(dist, out=dist)
        for column, coord in zip(columns[1:], center[1:]):
            np.subtract(column, coord, out=term)
            np.square(term, out=term)
            dist += term
    np.sqrt(block, out=block)
    np.subtract(block.min(axis=0), block, out=block)  # -(dist - min), exactly
    np.exp(block, out=block)
    np.copyto(term, block[0])
    for row in block[1:]:
        term += row
    block /= term


def _moment_table(
    counts: np.ndarray, centroids: Sequence[np.ndarray], scatter: Sequence[np.ndarray]
) -> np.ndarray:
    """The :func:`_gaussian_shift` table of cells with counts n,
    centroids mu and scatters S, all in units of the bandwidth and given
    column by column: the d axes of mu, and the d (d + 1) / 2 entries
    S_ij, i <= j, in the row-major order of :func:`_monomials`.

    Expanding the kernel of each of a cell's members to second order
    around mu, with r = a - mu for a seed a, gives the cell a weight
    w(a) = n - tr S / 2 + r^T S r / 2 and a position sum w(a) mu + S r
    (the first-order terms cancel at the centroid). Both are quadratic
    in a; the table holds their coefficients per monomial of a. Since
    |member - mu|^2 <= d c^2 for cells of side c, tr S <= n d c^2, so
    w >= n (1 - d c^2 / 2) > 0 wherever d c^2 < 2. A zero scatter gives
    ``[n mu | n]`` in the first block and zeros elsewhere.
    """
    d = len(centroids)
    pairs = list(zip(*np.triu_indices(d)))
    entry = {}
    for (i, j), column in zip(pairs, scatter):
        entry[i, j] = entry[j, i] = column
    pulled = [sum(entry[a, b] * centroids[b] for b in range(d)) for a in range(d)]
    constant = counts.copy()
    for a in range(d):
        constant += (centroids[a] * pulled[a] - entry[a, a]) / 2.0
    weights = [constant] + [-column for column in pulled]
    weights += [
        column / 2.0 if i == j else column for (i, j), column in zip(pairs, scatter)
    ]
    table = np.empty((counts.shape[0], len(weights), d + 1))
    for q, weight in enumerate(weights):
        for a in range(d):
            np.multiply(weight, centroids[a], out=table[:, q, a])
        table[:, q, d] = weight
    for a in range(d):
        table[:, 0, a] -= pulled[a]
        for b in range(d):
            table[:, 1 + b, a] += entry[a, b]
    return table.reshape(counts.shape[0], -1)


def _moment_cells(
    centroids: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Group count-weighted points into cells of side ``_CELL_FACTOR *
    BIN_SIDE``, in one O(B d^2) pass over the B points: (cell centroids,
    moment table of :func:`_moment_table`).

    Coordinates are in units of the bandwidth. Each cell keeps the total
    count n of its points, their weighted centroid mu and their scatter
    S = sum n_f (mu_f - mu)(mu_f - mu)^T, taken from the offsets to mu.
    """
    columns = [np.ascontiguousarray(column) for column in centroids.T]
    _, cell = _cell_index(columns, _CELL_FACTOR * BIN_SIDE)
    totals = np.bincount(cell, counts)
    means = [np.bincount(cell, counts * column) / totals for column in columns]
    offsets = [column - mean.take(cell) for column, mean in zip(columns, means)]
    scatter = [
        np.bincount(cell, counts * offsets[i] * offsets[j])
        for i, j in zip(*np.triu_indices(len(columns)))
    ]
    return np.stack(means, axis=1), _moment_table(totals, means, scatter)


def _shift_anchors(
    anchors: np.ndarray, bins: tuple, config: MeanShiftConfig, steps: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Shift the anchors ``steps`` times against the binning of
    :func:`_seed_anchors`: (positions, densities of the last step).

    At the dimensions of ``_MOMENT_DIMS`` and within a box at most
    ``_MOMENT_WIDTH`` bandwidths wide, they meet the moment cells of the
    fine bins (:func:`_moment_cells`), in coordinates centred on the box
    and divided by the bandwidth, so no power of 1 / b can overflow.
    Otherwise they meet the weighted fine-bin centroids.
    """
    (lo, hi), centroids, counts, _ = bins
    bandwidth = config.bandwidth
    d = anchors.shape[1]
    if d in _MOMENT_DIMS and (hi - lo).max() <= _MOMENT_WIDTH * bandwidth:
        origin, scale = (lo + hi) / 2.0, bandwidth
        points, table = _moment_cells((centroids - origin) / scale, counts)
    else:
        origin, scale = np.zeros(d), 1.0
        points, table = centroids, _point_table(centroids, counts)
    seeds = (anchors - origin) / scale
    for _ in range(steps):
        seeds, densities = _gaussian_shift(seeds, points, bandwidth / scale, table)
    return origin + scale * seeds, densities / scale


def cluster(
    embeddings: EmbeddingMap,
    mask: PlanarMask,
    config: MeanShiftConfig = MeanShiftConfig(),
) -> Tuple[ClusterSet, SoftAssignment]:
    """Anchor-based mean shift: bin the masked embeddings once, place the
    anchor grid, density-filter it once, shift T times against the
    moment cells of the bins (:func:`_shift_anchors`), merge modes closer
    than the bandwidth, then soft-assign pixels to the surviving centers.

    The assignment keeps the pixels' bins, so its labels, built on first
    read, are decided a bin at a time (:func:`_binned_labels`); they
    equal those of :func:`soft_assign` bit for bit. Masked embeddings
    must lie within the bound of :func:`_masked_columns` (about 4.7e153
    at d = 2), which is checked before any kernel runs.
    """
    anchors, bins = _seed_anchors(embeddings, mask, config)
    modes, _ = _shift_anchors(anchors, bins, config, config.iterations)
    clusters = _merge_points(modes, config.bandwidth)
    columns = partial(_assign_span, embeddings.values, clusters.centers)
    side = BIN_SIDE * config.bandwidth
    labels = partial(_binned_labels, bins, side, columns, mask.mask, clusters.centers)
    assignment = SoftAssignment._from_source(
        embeddings.grid, len(clusters), mask.mask, columns, labels
    )
    return clusters, assignment


def vanilla_mean_shift(
    embeddings: EmbeddingMap,
    mask: PlanarMask,
    bandwidth: float,
    max_iters: int = 100,
    tol: float = 1e-5,
) -> Tuple[ClusterSet, SoftAssignment]:
    """Classic mean shift seeding one mode-seeker per planar pixel.

    Seeds iterate under the same Gaussian kernel until the largest
    displacement drops below ``tol`` or ``max_iters`` passes, then modes
    within one bandwidth merge into clusters. Masked embeddings must lie
    within the same bound as for :func:`cluster`.
    """
    _check_bandwidth(bandwidth)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    values = np.stack(_masked_columns(embeddings, mask), axis=1)
    seeds = values.copy()
    for _ in range(max_iters):
        moved, _ = _gaussian_shift(seeds, values, bandwidth)
        displacement = float(np.max(np.linalg.norm(moved - seeds, axis=1)))
        seeds = moved
        if displacement < tol:
            break
    clusters = _merge_points(seeds, bandwidth)
    assignment = soft_assign(embeddings, mask, clusters)
    return clusters, assignment


def hard_labels(assignment: SoftAssignment) -> InstanceSegmentation:
    """Hard decode of an assignment; ties go to the lowest cluster.

    Assigned pixels get labels 1..C aligned with assignment columns, the
    first largest weight of their row; unassigned (all-zero) rows get
    label 0. The labels are the assignment's cached ones, so an
    assignment from :func:`cluster` or :func:`soft_assign` builds no
    N x C array for them. One from :func:`cluster` decides them a bin
    at a time and runs the span kernel only for pixels near a tie; they
    equal the span kernel's labels bit for bit. They are already
    read-only int64 in 0..C, so the segmentation takes them as they are,
    without the copy and range check of its constructor.
    """
    return _frozen_fields(
        InstanceSegmentation,
        grid=assignment.grid,
        labels=assignment.labels,
        n_instances=assignment.clusters,
    )
