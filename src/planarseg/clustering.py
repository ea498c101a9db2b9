"""Mean shift clustering of pixel embeddings into plane instances.

Two variants share one Gaussian-kernel shift step:

* :func:`cluster` moves a small grid of anchors instead of every pixel.
  One O(N) pass first bins the masked embeddings into cells of side
  ``BIN_SIDE * bandwidth`` and keeps each occupied cell's centroid and
  pixel count; anchor densities and every shift then run against those
  B weighted centroids, so each iteration costs O(k^d * B) with B <= N
  rather than O(N^2).
* :func:`vanilla_mean_shift` is the classic per-pixel baseline used as a
  correctness oracle; it runs the exact, unweighted kernel on every
  pixel.

Both produce a :class:`ClusterSet` (centers sorted lexicographically so
runs and variants are comparable) and a row-stochastic soft assignment.
All chunk boundaries depend only on problem size, never on the worker
count, so results are bit-identical for any ``workers`` value.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import EmbeddingMap, InstanceSegmentation, PlanarMask, SoftAssignment

__all__ = [
    "MeanShiftConfig",
    "AnchorState",
    "ClusterSet",
    "UnionFind",
    "init_anchors",
    "pairwise_potential",
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

# Rows per shift chunk are sized so each scratch buffer holds about this
# many float64 entries, keeping per-chunk memory behavior uniform across
# problem sizes (which keeps timing scalings clean).
_CHUNK_TARGET = 1 << 21

# Side of a binning cell as a fraction of the bandwidth. Binning at each
# cell's centroid cancels the first-order error term, so anchor positions
# move by O(BIN_SIDE^2 * bandwidth); 0.1 is faster but changed labels on
# some scenes where 0.05 did not.
BIN_SIDE = 0.05

# The dense binning pass allocates one counter per cell of the key space;
# above this many cells per point it sorts the occupied keys instead.
_DENSE_KEYS_PER_POINT = 4


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


def pairwise_potential(anchor: np.ndarray, embedding: np.ndarray, b: float) -> float:
    """Gaussian potential between one anchor and one embedding."""
    _check_bandwidth(b)
    anchor = np.asarray(anchor, dtype=np.float64)
    embedding = np.asarray(embedding, dtype=np.float64)
    m2 = float(np.sum((anchor - embedding) ** 2))
    return math.exp(-m2 / (2.0 * b * b)) / (math.sqrt(2.0 * math.pi) * b)


def _chunk_spans(n_items: int, chunk: int) -> List[Tuple[int, int]]:
    return [(s, min(s + chunk, n_items)) for s in range(0, n_items, chunk)]


def _run_chunks(fn, spans: List[Tuple[int, int]], workers: int) -> None:
    """Run fn(start, stop) over fixed spans, optionally on a thread pool."""
    if workers <= 1 or len(spans) <= 1:
        for start, stop in spans:
            fn(start, stop)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(fn, start, stop) for start, stop in spans]:
            future.result()


def _gaussian_shift(
    seeds: np.ndarray,
    points: np.ndarray,
    bandwidth: float,
    workers: int = 1,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One kernel-weighted mean step for every seed.

    Returns (new_positions, densities); densities carry the Gaussian
    normalization factor. Seeds with numerically zero density stay put.
    ``weights`` (one per point, e.g. bin pixel counts) scale each
    point's kernel value; None weighs every point once.
    Each chunk owns disjoint output rows, so the reduction order inside
    a row is fixed and the result is independent of ``workers``.
    """
    m, d = seeds.shape
    n = points.shape[0]
    rows = max(1, min(m, _CHUNK_TARGET // max(n, 1)))
    out = np.empty_like(seeds)
    dens = np.empty(m, dtype=np.float64)
    points_c = np.ascontiguousarray(points)
    sq_pts = np.einsum("ij,ij->i", points_c, points_c)
    inv = -1.0 / (2.0 * bandwidth * bandwidth)
    prefactor = 1.0 / (math.sqrt(2.0 * math.pi) * bandwidth)
    scratch: Dict[int, np.ndarray] = {}

    def run(start: int, stop: int) -> None:
        key = threading.get_ident()
        buf = scratch.get(key)
        if buf is None:
            buf = scratch[key] = np.empty((rows, n))
        block = seeds[start:stop]
        kern = buf[: stop - start]
        np.matmul(block, points_c.T, out=kern)
        kern *= -2.0
        kern += np.einsum("ij,ij->i", block, block)[:, None]
        kern += sq_pts[None, :]
        np.maximum(kern, 0.0, out=kern)
        kern *= inv
        np.exp(kern, out=kern)
        if weights is not None:
            kern *= weights[None, :]
        total = kern.sum(axis=1)
        np.matmul(kern, points_c, out=out[start:stop])
        alive = total > ZERO_DENSITY
        safe = np.where(alive, total, 1.0)
        out[start:stop] /= safe[:, None]
        out[start:stop][~alive] = block[~alive]
        dens[start:stop] = prefactor * total

    _run_chunks(run, _chunk_spans(m, rows), workers)
    return out, dens


def _masked_values(embeddings: EmbeddingMap, mask: PlanarMask) -> np.ndarray:
    if embeddings.grid != mask.grid:
        raise ValueError("embedding and mask grids must match")
    values = embeddings.values[mask.mask]
    if values.shape[0] == 0:
        raise ValueError("no planar pixels")
    return values


def _bounds(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis min and max. Reducing each column on its own is much
    faster than ``min(axis=0)`` on a tall array with few columns."""
    columns = [values[:, a] for a in range(values.shape[1])]
    return np.array([c.min() for c in columns]), np.array([c.max() for c in columns])


def _bin_points(values: np.ndarray, side: float) -> Tuple[np.ndarray, np.ndarray]:
    """Group points into cubic cells of the given side, in one O(N) pass.

    Returns (centroids, counts): the mean of the points in each occupied
    cell and how many points it holds (as float64 kernel weights), with
    cells ordered lexicographically by their integer coordinates. Small
    key spaces are counted densely with ``np.bincount``; larger ones
    (high dimensions, wide spreads) sort the keys with ``np.lexsort``
    instead, so no array outgrows O(N). Keys stay floats until the dense
    path has shown that they fit, so they cannot overflow int64.
    """
    n, d = values.shape
    lo, hi = _bounds(values)
    keys = np.floor((values - lo) / side)
    dims = np.floor((hi - lo) / side) + 1.0  # the largest key is the max's
    if float(np.prod(dims)) <= _DENSE_KEYS_PER_POINT * n:
        shape = tuple(int(x) for x in dims)
        flat = np.ravel_multi_index(tuple(keys.astype(np.int64).T), shape)
        occupied = np.bincount(flat, minlength=math.prod(shape)) > 0
        inverse = (np.cumsum(occupied) - 1)[flat]
    else:
        order = np.lexsort(keys.T[::-1])
        starts = np.zeros(n, dtype=bool)
        starts[0] = True
        for column in keys.T:
            ordered = column[order]
            starts[1:] |= ordered[1:] != ordered[:-1]
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.cumsum(starts) - 1
    bins = int(inverse.max()) + 1
    counts = np.bincount(inverse, minlength=bins).astype(np.float64)
    sums = np.stack(
        [np.bincount(inverse, values[:, a], minlength=bins) for a in range(d)], axis=1
    )
    return sums / counts[:, None], counts


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
    values = _masked_values(embeddings, mask)
    centroids, counts = _bin_points(values, BIN_SIDE * config.bandwidth)
    return _bounds(values), centroids, counts


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
    _, densities = _gaussian_shift(positions, centroids, config.bandwidth, weights=counts)
    return AnchorState(positions, densities)


def init_anchors(
    embeddings: EmbeddingMap, mask: PlanarMask, config: MeanShiftConfig
) -> AnchorState:
    """Place k^d anchors on a uniform grid over the masked bounding box.

    Endpoints are inclusive; a zero-extent axis collapses to its single
    coordinate. Densities are the kernel sums at the initial positions,
    taken over the count-weighted bin centroids (see :func:`_bin_points`):
    one O(N) binning pass, then O(k^d * B) for B occupied bins.
    """
    return _anchor_grid(*_binned_values(embeddings, mask, config), config)


def shift_anchors(
    state: AnchorState,
    embeddings: EmbeddingMap,
    mask: PlanarMask,
    config: MeanShiftConfig,
    workers: int = 1,
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
        *_gaussian_shift(
            state.positions, centroids, config.bandwidth, workers=workers, weights=counts
        )
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
    m = positions.shape[0]
    uf = UnionFind(m)
    if m <= 2048:
        diff = positions[:, None, :] - positions[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        close = dist < radius
        for i in range(m):
            for j in np.nonzero(close[i, i + 1 :])[0]:
                uf.union(i, int(i + 1 + j))
        return uf
    # Spatial hash for large point sets: cells small enough that any two
    # points sharing a cell are strictly within the radius, so whole
    # cells union directly and only nearby cell pairs need exact checks.
    d = positions.shape[1]
    cell = radius / (math.sqrt(d) * (1.0 + 1e-9))
    keys = np.floor(positions / cell).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    breaks = np.nonzero(np.any(np.diff(sorted_keys, axis=0) != 0, axis=1))[0] + 1
    buckets: Dict[Tuple[int, ...], np.ndarray] = {}
    for span in np.split(order, breaks):
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
    """True if some cross pair sits strictly within ``radius``."""
    b = positions[right]
    sq_b = np.einsum("ij,ij->i", b, b)
    limit = radius * radius
    for start in range(0, left.shape[0], 512):
        a = positions[left[start : start + 512]]
        d2 = (
            np.einsum("ij,ij->i", a, a)[:, None]
            + sq_b[None, :]
            - 2.0 * (a @ b.T)
        )
        if float(d2.min()) < limit:
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
    workers: int = 1,
) -> SoftAssignment:
    """Distance-softmax membership of each planar pixel over clusters.

    Rows use exp(-distance) normalized per pixel, computed with the row
    minimum subtracted inside the exponent for stability (the shared
    factor cancels in the ratio). Non-planar rows are zero.
    """
    if embeddings.grid != mask.grid:
        raise ValueError("embedding and mask grids must match")
    if len(clusters) == 0:
        raise ValueError("cluster set is empty")
    n = embeddings.grid.n_pixels
    weights = np.zeros((n, len(clusters)), dtype=np.float64)
    idx = np.nonzero(mask.mask)[0]
    values = embeddings.values
    centers = clusters.centers

    def run(start: int, stop: int) -> None:
        rows = idx[start:stop]
        diff = values[rows, None, :] - centers[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        dist -= dist.min(axis=1, keepdims=True)
        np.negative(dist, out=dist)
        np.exp(dist, out=dist)
        dist /= dist.sum(axis=1, keepdims=True)
        weights[rows] = dist

    _run_chunks(run, _chunk_spans(idx.shape[0], 8192), workers)
    return SoftAssignment(embeddings.grid, weights)


def _anchor_modes(
    embeddings: EmbeddingMap, mask: PlanarMask, config: MeanShiftConfig, workers: int
) -> AnchorState:
    """Bin once, init, density-filter once, then shift T times against the
    weighted bin centroids. The bins are freed on return."""
    box, centroids, counts = _binned_values(embeddings, mask, config)
    state = filter_low_density(_anchor_grid(box, centroids, counts, config), config)
    threshold = 1e-5 * config.bandwidth
    for _ in range(config.iterations):
        moved = AnchorState(
            *_gaussian_shift(
                state.positions, centroids, config.bandwidth, workers=workers, weights=counts
            )
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
    workers: int = 1,
) -> Tuple[ClusterSet, SoftAssignment]:
    """Anchor-based mean shift: bin the masked embeddings once, init,
    density-filter once, shift T times against the weighted bin
    centroids, merge, then soft-assign pixels to the surviving centers."""
    clusters = merge_anchors(_anchor_modes(embeddings, mask, config, workers), config)
    assignment = soft_assign(embeddings, mask, clusters, workers=workers)
    return clusters, assignment


def vanilla_mean_shift(
    embeddings: EmbeddingMap,
    mask: PlanarMask,
    bandwidth: float,
    max_iters: int = 100,
    tol: float = 1e-5,
    workers: int = 1,
) -> Tuple[ClusterSet, SoftAssignment]:
    """Classic mean shift seeding one mode-seeker per planar pixel.

    Seeds iterate under the same Gaussian kernel until the largest
    displacement drops below ``tol`` or ``max_iters`` passes, then modes
    within one bandwidth merge into clusters.
    """
    _check_bandwidth(bandwidth)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    values = _masked_values(embeddings, mask)
    seeds = values.copy()
    for _ in range(max_iters):
        moved, _ = _gaussian_shift(seeds, values, bandwidth, workers=workers)
        displacement = float(np.max(np.linalg.norm(moved - seeds, axis=1)))
        seeds = moved
        if displacement < tol:
            break
    reps, rep_counts = _collapse_duplicates(seeds, cell=1e-3 * bandwidth)
    clusters = _merge_points(reps, rep_counts, bandwidth)
    assignment = soft_assign(embeddings, mask, clusters, workers=workers)
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
    keys = np.round(seeds / cell).astype(np.int64)
    _, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    reps = np.zeros((counts.shape[0], seeds.shape[1]), dtype=np.float64)
    np.add.at(reps, inverse, seeds)
    reps /= counts[:, None]
    return reps, counts


def hard_labels(assignment: SoftAssignment) -> InstanceSegmentation:
    """Argmax decode of a soft assignment; ties go to the lowest cluster.

    Assigned pixels get labels 1..C aligned with assignment columns;
    unassigned (all-zero) rows get label 0.
    """
    labels = np.zeros(assignment.grid.n_pixels, dtype=np.int64)
    rows = assignment.assigned_rows
    labels[rows] = np.argmax(assignment.weights[rows], axis=1) + 1
    return InstanceSegmentation(assignment.grid, labels, assignment.clusters)
