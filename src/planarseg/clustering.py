"""Mean shift clustering of pixel embeddings into plane instances.

Two variants share one Gaussian-kernel shift step:

* :func:`cluster` moves a small grid of anchors instead of every pixel.
  One O(N) pass first bins the masked embeddings, gathered once as d
  columns, into cells of side ``BIN_SIDE * bandwidth`` and keeps each
  occupied cell's centroid and pixel count; anchor densities and every
  shift then run against those B weighted centroids. The Gaussian
  factors over axes, so the k^d grid densities cost O(d * k * B) exps
  plus a GEMM, and each shift of M anchors costs O(M * B) with B <= N
  rather than O(N^2), over kernel tiles small enough for a core's L2
  cache.
* :func:`vanilla_mean_shift` is the classic per-pixel baseline used as a
  correctness oracle; it runs the exact, unweighted kernel on every
  pixel.

Both produce a :class:`ClusterSet` (centers sorted lexicographically so
runs and variants are comparable) and a row-stochastic soft assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import EmbeddingMap, InstanceSegmentation, PlanarMask, SoftAssignment

__all__ = [
    "MeanShiftConfig",
    "AnchorState",
    "ClusterSet",
    "UnionFind",
    "init_anchors",
    "shift_anchors",
    "filter_low_density",
    "merge_anchors",
    "soft_assign",
    "cluster",
    "vanilla_mean_shift",
    "hard_labels",
]

# Densities below this are treated as numerically zero; the anchor stays put.
ZERO_DENSITY = 1e-300

# Rows per shift chunk are sized so a chunk's rows against all points
# span about this many float64 entries; the grid-density spans and the
# pairwise merge blocks are bounded by it too, keeping per-chunk memory
# behavior uniform across problem sizes.
_CHUNK_TARGET = 1 << 21

# Floats per kernel tile of one shift step: each chunk of seeds meets the
# points in tiles this small, so the tile's clamp, scale and exp passes
# run in a per-core L2 cache (a 2^21-float tile ran those passes about
# 1.5-2x slower per element), and the per-element cost, hence the
# per-iteration scaling, does not depend on the point count.
_TILE_TARGET = 1 << 17

# Masked pixels per soft-assignment span: each span's (C, span) block
# stays a few MiB for the usual cluster counts, and the per-center calls
# of a span cost little beside its work (8192 ran about 1.3x slower at
# 480x640).
_ASSIGN_SPAN = 1 << 16

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


@dataclass(frozen=True)
class MeanShiftConfig:
    """Hyper-parameters of the anchor-based mean shift.

    ``merge_radius`` defaults to the bandwidth when left as None.
    ``early_exit`` stops iterating once the largest anchor displacement
    falls below 1e-5 * bandwidth; off by default so the iteration count
    is exactly ``iterations``.
    """

    anchors_per_dim: int = 10
    dim: int = 2
    bandwidth: float = 0.5
    iterations: int = 10
    density_fraction: float = 0.1
    merge_radius: Optional[float] = None
    early_exit: bool = False

    def __post_init__(self) -> None:
        if self.anchors_per_dim < 2:
            raise ValueError("anchors_per_dim must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        _check_bandwidth(self.bandwidth)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= self.density_fraction < 1.0:
            raise ValueError("density_fraction must lie in [0, 1)")
        if self.merge_radius is not None and not self.merge_radius > 0.0:
            raise ValueError("merge_radius must be > 0")

    @property
    def effective_merge_radius(self) -> float:
        return self.bandwidth if self.merge_radius is None else self.merge_radius


@dataclass(frozen=True)
class AnchorState:
    """Anchor positions with their current kernel densities."""

    positions: np.ndarray
    densities: np.ndarray

    def __post_init__(self) -> None:
        positions = np.array(self.positions, dtype=np.float64, copy=True)
        densities = np.array(self.densities, dtype=np.float64, copy=True)
        if positions.ndim != 2:
            raise ValueError(f"positions must be (M, d), got {positions.shape}")
        if densities.shape != (positions.shape[0],):
            raise ValueError("densities must have one entry per anchor")
        if not np.all(np.isfinite(positions)):
            raise ValueError("anchor positions must be finite")
        if densities.size and densities.min() < 0.0:
            raise ValueError("densities must be >= 0")
        positions.flags.writeable = False
        densities.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "densities", densities)

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class ClusterSet:
    """Cluster centers plus how many merged anchors formed each center."""

    centers: np.ndarray
    member_anchor_counts: np.ndarray

    def __post_init__(self) -> None:
        centers = np.array(self.centers, dtype=np.float64, copy=True)
        counts = np.array(self.member_anchor_counts, dtype=np.int64, copy=True)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError(f"centers must be (C, d) with C >= 1, got {centers.shape}")
        if counts.shape != (centers.shape[0],) or counts.min() < 1:
            raise ValueError("member_anchor_counts must be positive, one per center")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        centers.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "member_anchor_counts", counts)

    def __len__(self) -> int:
        return self.centers.shape[0]


class UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def groups(self) -> List[List[int]]:
        """Members per component, ordered by first occurrence."""
        by_root: Dict[int, List[int]] = {}
        for i in range(len(self.parent)):
            by_root.setdefault(self.find(i), []).append(i)
        return list(by_root.values())


def _check_bandwidth(bandwidth: float) -> None:
    """Reject a bandwidth the Gaussian kernel cannot use: not positive, or
    so small that the exponent's scale 1 / (2 * b * b) is not finite (the
    square underflows to 0 or to a subnormal whose reciprocal overflows)."""
    if not (
        bandwidth > 0.0
        and 2.0 * bandwidth * bandwidth > 0.0
        and math.isfinite(1.0 / (2.0 * bandwidth * bandwidth))
    ):
        raise ValueError(
            "bandwidth must be > 0 and large enough that 1/(2*b*b) is finite, "
            f"got {bandwidth!r}"
        )


def _chunk_spans(n_items: int, chunk: int) -> List[Tuple[int, int]]:
    return [(s, min(s + chunk, n_items)) for s in range(0, n_items, chunk)]


def _gaussian_shift(
    seeds: np.ndarray,
    points: np.ndarray,
    bandwidth: float,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One kernel-weighted mean step for every seed.

    Returns (new_positions, densities); densities carry the Gaussian
    normalization factor. Seeds with numerically zero density stay put.
    ``weights`` (one per point, e.g. bin pixel counts) scale each
    point's kernel value; None weighs every point once.

    Per chunk of seeds and per tile of points, one GEMM
    ``[a | |a|^2 | 1] @ [-2p | 1 | |p|^2]^T`` gives the squared
    distances, which are clamped at 0, scaled by -1 / (2 b^2) and
    exponentiated in place; a second GEMM against the moments
    ``[w p | w]`` adds the tile's weighted sums and totals. The scale is
    applied only after the sum, so a tiny bandwidth cannot overflow the
    GEMM's terms. Chunks of seeds bound the running sums and tiles bound
    the kernel block, which reuses one buffer for the whole call.
    """
    m, d = seeds.shape
    n = points.shape[0]
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
    w = np.ones(n) if weights is None else weights
    moments = np.empty((n, d + 1))
    np.multiply(points, w[:, None], out=moments[:, :d])
    moments[:, d] = w
    inv = -1.0 / (2.0 * bandwidth * bandwidth)
    prefactor = 1.0 / (math.sqrt(2.0 * math.pi) * bandwidth)
    buf = np.empty(rows * tile)
    for start, stop in _chunk_spans(m, rows):
        sums = np.zeros((stop - start, d + 1))
        for first, last in _chunk_spans(n, tile):
            kern = buf[: (stop - start) * (last - first)].reshape(stop - start, -1)
            np.matmul(lifted[start:stop], ends[first:last].T, out=kern)
            np.maximum(kern, 0.0, out=kern)
            kern *= inv
            np.exp(kern, out=kern)
            sums += kern @ moments[first:last]
        total = sums[:, d]
        alive = total > ZERO_DENSITY
        safe = np.where(alive, total, 1.0)
        np.divide(sums[:, :d], safe[:, None], out=out[start:stop])
        out[start:stop][~alive] = seeds[start:stop][~alive]
        dens[start:stop] = prefactor * total
    return out, dens


def _masked_columns(embeddings: EmbeddingMap, mask: PlanarMask) -> List[np.ndarray]:
    """The masked embeddings as d contiguous columns, one gather each."""
    if embeddings.grid != mask.grid:
        raise ValueError("embedding and mask grids must match")
    idx = np.flatnonzero(mask.mask)
    if idx.shape[0] == 0:
        raise ValueError("no planar pixels")
    values = embeddings.values
    return [values[:, a].take(idx) for a in range(values.shape[1])]


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


def _bin_points(
    columns: Sequence[np.ndarray], side: float
) -> Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Group points, given as d columns, into cubic cells of the given
    side, in one O(N) pass.

    Returns (box, centroids, counts): the per-axis (min, max) of the
    points, the mean of the points in each occupied cell and how many
    points it holds (as float64 kernel weights), with cells ordered
    lexicographically by their integer coordinates. Each axis's bounds
    and cell keys come from its own column. Key spaces of up to
    ``_DENSE_KEYS_PER_POINT`` cells per point are counted densely with
    ``np.bincount`` over a flat key built column by column; larger ones
    (high dimensions, wide spreads) sort the keys with ``np.lexsort``
    instead, so no array outgrows O(N). Keys stay floats until the dense
    path has shown that they fit, so they cannot overflow int64.
    """
    n = columns[0].shape[0]
    lo = np.array([column.min() for column in columns])
    hi = np.array([column.max() for column in columns])
    dims = np.floor((hi - lo) / side) + 1.0  # the largest key is the max's
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
    bins = int(inverse.max()) + 1
    counts = np.bincount(inverse, minlength=bins).astype(np.float64)
    sums = np.stack(
        [np.bincount(inverse, column, minlength=bins) for column in columns], axis=1
    )
    return (lo, hi), sums / counts[:, None], counts


def _binned_values(
    embeddings: EmbeddingMap, mask: PlanarMask, config: MeanShiftConfig
) -> Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Bounding box of the masked embeddings, their bin centroids and counts.

    The per-pixel values themselves are not returned, so callers do not
    hold them while later stages allocate.
    """
    if config.dim != embeddings.dim:
        raise ValueError(
            f"config.dim={config.dim} does not match embedding dim {embeddings.dim}"
        )
    return _bin_points(_masked_columns(embeddings, mask), BIN_SIDE * config.bandwidth)


def _grid_densities(
    axes: List[np.ndarray], points: np.ndarray, weights: np.ndarray, bandwidth: float
) -> np.ndarray:
    """Weighted kernel densities at every node of the grid
    ``axes[0] x ... x axes[d-1]``, in C order (last axis fastest).

    The Gaussian factors over axes, so per span of points each axis needs
    one (k, span) table exp(-(x - p_a)^2 / (2 b^2)). The outer product of
    the tables of every axis but the last is contracted with the last
    axis's weighted table in one GEMM. If the k^(d-1) rows of that
    product do not fit in half of ``_CHUNK_TARGET`` floats, the leading
    axes are looped over instead. The span is sized so that one span's
    tables and outer products stay within ``_CHUNK_TARGET`` floats.
    """
    d, k, n = len(axes), axes[0].shape[0], points.shape[0]
    inner = d - 1  # row axes held in one block; the `outer` leading ones loop
    while inner > 0 and k**inner > _CHUNK_TARGET // 2:
        inner -= 1
    outer = d - 1 - inner
    span = max(1, min(n, _CHUNK_TARGET // (2 * k**inner + d * k)))
    inv = -1.0 / (2.0 * bandwidth * bandwidth)
    sums = np.zeros((k**outer, k**inner, k))
    for start, stop in _chunk_spans(n, span):
        tables = []
        for a, axis in enumerate(axes):
            table = np.subtract.outer(axis, points[start:stop, a])
            np.square(table, out=table)
            table *= inv
            np.exp(table, out=table)
            tables.append(table)
        tables[-1] *= weights[start:stop]
        for p, prefix in enumerate(np.ndindex(*(k,) * outer)):
            block = tables[outer] if inner else np.ones(stop - start)
            for a, i in enumerate(prefix):
                block = block * tables[a][i]
            block = block.reshape(-1, stop - start)
            for table in tables[outer + 1 : d - 1]:
                block = (block[:, None, :] * table[None, :, :]).reshape(-1, stop - start)
            sums[p] += block @ tables[-1].T
    prefactor = 1.0 / (math.sqrt(2.0 * math.pi) * bandwidth)
    return prefactor * sums.ravel()


def _anchor_grid(
    box: Tuple[np.ndarray, np.ndarray],
    centroids: np.ndarray,
    counts: np.ndarray,
    config: MeanShiftConfig,
) -> AnchorState:
    lo, hi = box
    axes = [np.linspace(lo[a], hi[a], config.anchors_per_dim) for a in range(config.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    positions = np.stack([m.ravel() for m in mesh], axis=1)
    return AnchorState(
        positions, _grid_densities(axes, centroids, counts, config.bandwidth)
    )


def init_anchors(
    embeddings: EmbeddingMap, mask: PlanarMask, config: MeanShiftConfig
) -> AnchorState:
    """Place k^d anchors on a uniform grid over the masked bounding box.

    Endpoints are inclusive; a zero-extent axis collapses to its single
    coordinate. Densities are the kernel sums at the initial positions,
    taken over the count-weighted bin centroids (see :func:`_bin_points`):
    one O(N) binning pass, then, because the Gaussian factors over axes,
    O(d * k * B) exps for B occupied bins plus a GEMM that contracts the
    per-axis factors into the k^d sums (see :func:`_grid_densities`).
    """
    return _anchor_grid(*_binned_values(embeddings, mask, config), config)


def shift_anchors(
    state: AnchorState,
    embeddings: EmbeddingMap,
    mask: PlanarMask,
    config: MeanShiftConfig,
) -> AnchorState:
    """Move every anchor to the kernel-weighted mean of masked embeddings.

    The mean runs over the count-weighted bin centroids: one O(N)
    binning pass, then O(k^d * B) for B occupied bins. :func:`cluster`
    bins once and reuses the bins for every shift.
    """
    if len(state) == 0:
        raise ValueError("anchor state is empty")
    _, centroids, counts = _binned_values(embeddings, mask, config)
    return AnchorState(
        *_gaussian_shift(state.positions, centroids, config.bandwidth, weights=counts)
    )


def filter_low_density(state: AnchorState, config: MeanShiftConfig) -> AnchorState:
    """Drop anchors whose density falls below the relative threshold.

    The maximum-density anchor always survives because the threshold is
    a fraction < 1 of the maximum.
    """
    if len(state) == 0:
        raise ValueError("anchor state is empty")
    cutoff = config.density_fraction * state.densities.max()
    keep = state.densities >= cutoff
    return AnchorState(state.positions[keep], state.densities[keep])


def _merge_union(positions: np.ndarray, radius: float) -> UnionFind:
    """Union-find over points with an edge where distance < radius."""
    m, d = positions.shape
    uf = UnionFind(m)
    # Spatial hash for large point sets: cells small enough that any two
    # points sharing a cell are strictly within the radius, so whole
    # cells union directly and only nearby cell pairs need exact checks.
    # Keys stay floats, so a radius tiny against the coordinates cannot
    # wrap them; below 2**53 they are exact integers. A radius so tiny
    # that a key overflows to inf gets the exact pairwise checks instead.
    keys = None
    if m > 2048:
        cell = radius / (math.sqrt(d) * (1.0 + 1e-9))
        with np.errstate(over="ignore"):
            keys = np.floor(positions / cell)
    if keys is None or not np.isfinite(keys).all():
        rows = max(1, _CHUNK_TARGET // (m * d))
        for start in range(0, m, rows):
            diff = positions[start : start + rows, None, :] - positions[None, :, :]
            close = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) < radius
            for i, j in zip(*np.nonzero(close)):
                if start + i < j:
                    uf.union(int(start + i), int(j))
        return uf
    _, order, starts = _group_rows(keys.T)
    buckets: Dict[Tuple[float, ...], np.ndarray] = {}
    for span in np.split(order, np.flatnonzero(starts)[1:]):
        buckets[tuple(keys[span[0]])] = span
        first = int(span[0])
        for other in span[1:]:
            uf.union(first, int(other))
    reach = int(math.ceil(math.sqrt(d)))
    offsets: List[np.ndarray] = []
    seen = set()
    for off in np.ndindex(*([2 * reach + 1] * d)):
        vec = np.array(off) - reach
        key = tuple(vec)
        if not vec.any() or tuple(-vec) in seen:
            continue
        gap = np.maximum(np.abs(vec) - 1, 0)
        if float(gap @ gap) <= d:
            offsets.append(vec)
            seen.add(key)
    for key, members in buckets.items():
        base = np.array(key)
        for vec in offsets:
            other = buckets.get(tuple(base + vec))
            if other is None:
                continue
            if uf.find(int(members[0])) == uf.find(int(other[0])):
                continue
            if _any_pair_within(positions, members, other, radius):
                uf.union(int(members[0]), int(other[0]))
    return uf


def _any_pair_within(
    positions: np.ndarray, left: np.ndarray, right: np.ndarray, radius: float
) -> bool:
    """True if some cross pair sits strictly within ``radius``.

    Differences are taken before squaring, as in the pairwise path of
    :func:`_merge_union`, so a radius far below the coordinates' scale
    is not lost to rounding in |a|^2 + |b|^2 - 2ab.
    """
    b = positions[right]
    rows = max(1, _CHUNK_TARGET // b.size)
    for start in range(0, left.shape[0], rows):
        diff = positions[left[start : start + rows], None, :] - b[None, :, :]
        if math.sqrt(float(np.einsum("ijk,ijk->ij", diff, diff).min())) < radius:
            return True
    return False


def _merge_points(
    positions: np.ndarray, counts: np.ndarray, radius: float
) -> ClusterSet:
    """Union groups of points closer than ``radius`` (transitive closure).

    ``counts`` weights each position when averaging, so pre-collapsed
    duplicate points keep their multiplicity. Centers come out sorted
    lexicographically by coordinates.
    """
    uf = _merge_union(positions, radius)
    centers = []
    totals = []
    for members in uf.groups():
        weight = counts[members]
        centers.append(
            np.average(positions[members], axis=0, weights=weight)
        )
        totals.append(int(weight.sum()))
    centers_arr = np.asarray(centers)
    totals_arr = np.asarray(totals)
    order = np.lexsort(centers_arr.T[::-1])
    return ClusterSet(centers_arr[order], totals_arr[order])


def merge_anchors(state: AnchorState, config: MeanShiftConfig) -> ClusterSet:
    """Fuse anchors within the merge radius; centers are member means."""
    if len(state) == 0:
        raise ValueError("anchor state is empty")
    counts = np.ones(len(state), dtype=np.int64)
    return _merge_points(
        state.positions, counts, config.effective_merge_radius
    )


def soft_assign(
    embeddings: EmbeddingMap,
    mask: PlanarMask,
    clusters: ClusterSet,
) -> SoftAssignment:
    """Distance-softmax membership of each planar pixel over clusters.

    Rows use exp(-distance) normalized per pixel, computed with the row
    minimum subtracted inside the exponent for stability (the shared
    factor cancels in the ratio). Non-planar rows are zero.

    The kernel is cluster-major and O(N * C * d) with no (N, C, d)
    temporary: per fixed span of ``_ASSIGN_SPAN`` masked pixels it
    gathers each embedding column once, fills a (C, span) distance block
    one center at a time, takes the softmax down each column of the
    block and writes the block's transpose into the weights. The spans
    bound the block's memory.
    """
    if embeddings.grid != mask.grid:
        raise ValueError("embedding and mask grids must match")
    if len(clusters) == 0:
        raise ValueError("cluster set is empty")
    n = embeddings.grid.n_pixels
    centers = clusters.centers
    weights = np.zeros((n, centers.shape[0]), dtype=np.float64)
    idx = np.flatnonzero(mask.mask)
    for start, stop in _chunk_spans(idx.shape[0], _ASSIGN_SPAN):
        rows = idx[start:stop]
        weights[rows] = _assign_span(embeddings.values, rows, centers).T
    return SoftAssignment(embeddings.grid, weights)


def _assign_span(values: np.ndarray, rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The (C, span) distance-softmax block of the pixels ``rows``.

    A function of its own, so a span's scratch is freed before the next
    span, or the weights' copy in :class:`SoftAssignment`, allocates.
    """
    columns = [values[:, a].take(rows) for a in range(values.shape[1])]
    block = np.empty((centers.shape[0], rows.shape[0]))
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
    block /= block.sum(axis=0)
    return block


def _anchor_modes(
    embeddings: EmbeddingMap, mask: PlanarMask, config: MeanShiftConfig
) -> AnchorState:
    """Bin once, init, density-filter once, then shift T times against the
    weighted bin centroids. The bins are freed on return."""
    box, centroids, counts = _binned_values(embeddings, mask, config)
    state = filter_low_density(_anchor_grid(box, centroids, counts, config), config)
    threshold = 1e-5 * config.bandwidth
    for _ in range(config.iterations):
        moved = AnchorState(
            *_gaussian_shift(state.positions, centroids, config.bandwidth, weights=counts)
        )
        displacement = float(
            np.max(np.linalg.norm(moved.positions - state.positions, axis=1))
        )
        state = moved
        if config.early_exit and displacement < threshold:
            break
    return state


def cluster(
    embeddings: EmbeddingMap,
    mask: PlanarMask,
    config: MeanShiftConfig = MeanShiftConfig(),
) -> Tuple[ClusterSet, SoftAssignment]:
    """Anchor-based mean shift: bin the masked embeddings once, init,
    density-filter once, shift T times against the weighted bin
    centroids, merge, then soft-assign pixels to the surviving centers."""
    clusters = merge_anchors(_anchor_modes(embeddings, mask, config), config)
    assignment = soft_assign(embeddings, mask, clusters)
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
    within one bandwidth merge into clusters.
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
    reps, rep_counts = _collapse_duplicates(seeds, cell=1e-3 * bandwidth)
    clusters = _merge_points(reps, rep_counts, bandwidth)
    assignment = soft_assign(embeddings, mask, clusters)
    return clusters, assignment


def _collapse_duplicates(
    seeds: np.ndarray, cell: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Group seeds that landed on the same mode before pairwise merging.

    Converged seeds pile up within a tiny ball around each mode, so
    quantizing to a grid much finer than the merge radius groups them
    exactly without an O(N^2) distance matrix. Representatives are group
    means weighted by group size, so the final cluster center is still
    the mean over every underlying seed.
    """
    inverse, _, _ = _group_rows(np.round(seeds / cell).T)
    counts = np.bincount(inverse)
    reps = np.zeros((counts.shape[0], seeds.shape[1]), dtype=np.float64)
    np.add.at(reps, inverse, seeds)
    reps /= counts[:, None]
    return reps, counts


def hard_labels(assignment: SoftAssignment) -> InstanceSegmentation:
    """Argmax decode of a soft assignment; ties go to the lowest cluster.

    Assigned pixels get labels 1..C aligned with assignment columns;
    unassigned (all-zero) rows get label 0.
    """
    labels = np.argmax(assignment.weights, axis=1)
    labels += 1
    labels *= assignment.assigned_rows
    return InstanceSegmentation(assignment.grid, labels, assignment.clusters)
