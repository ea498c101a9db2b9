"""Anchor-based mean shift and its per-pixel oracle."""

import dataclasses
import gc
import math
import time
import tracemalloc
import types
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarseg import clustering, core
from planarseg.clustering import (
    BIN_SIDE,
    MAX_ANCHORS,
    ZERO_DENSITY,
    ClusterSet,
    MeanShiftConfig,
    cluster,
    hard_labels,
    soft_assign,
    vanilla_mean_shift,
)
from planarseg.clustering import (
    _anchor_grid,
    _assign_span,
    _bin_points,
    _binned_labels,
    _decided_bins,
    _dense_anchors,
    _gaussian_shift,
    _group_rows,
    _masked_columns,
    _merge_labels,
    _member_reach,
    _merge_points,
    _moment_cells,
    _moment_table,
    _point_table,
    _seed_anchors,
    _shift_anchors,
)
from planarseg.core import (
    CameraIntrinsics,
    EmbeddingMap,
    ImageGrid,
    InstanceSegmentation,
    PixelPlaneParams,
    PlanarMask,
    PointMap,
    SoftAssignment,
)
from planarseg.geometry import one_hot_assignment, pool_instance_params
from planarseg.losses import instance_param_loss
from planarseg.synth import (
    EmbeddingNoiseSpec,
    SceneSpec,
    corrupt_probability,
    generate_embeddings,
    generate_scene,
)


def embedding_fixture(values, mask=None):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    grid = ImageGrid(1, values.shape[0])
    emb = EmbeddingMap(grid, values)
    if mask is None:
        mask = np.ones(values.shape[0], dtype=bool)
    return emb, PlanarMask(grid, np.asarray(mask, dtype=bool))


def pairwise_potential(anchor, embedding, b):
    """Gaussian potential between one anchor and one embedding: the
    per-pair kernel value that anchor densities sum."""
    m2 = float(np.sum((np.asarray(anchor) - np.asarray(embedding)) ** 2))
    return math.exp(-m2 / (2.0 * b * b)) / (math.sqrt(2.0 * math.pi) * b)


def pairwise_groups(positions, radius, rows=500):
    """Exact merge groups: join every pair closer than ``radius``, with
    differences taken before squaring, in a plain union-find."""
    parent = list(range(positions.shape[0]))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for start in range(0, positions.shape[0], rows):
        diff = positions[start : start + rows, None, :] - positions[None, :, :]
        close = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) < radius
        for i, j in zip(*np.nonzero(close)):
            a, b = find(start + int(i)), find(int(j))
            parent[max(a, b)] = min(a, b)
    groups = {}
    for i in range(len(parent)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def merge_groups(positions, radius):
    """The groups of :func:`_merge_labels`, in the oracle's form."""
    labels = _merge_labels(positions, radius)
    return sorted(np.flatnonzero(labels == g).tolist() for g in range(labels.max() + 1))


def binned_values(emb, mask, config):
    """The (box, centroids, counts, inverse) binning of the masked
    embeddings that :func:`cluster` runs (see :func:`_seed_anchors`)."""
    return _bin_points(_masked_columns(emb, mask), BIN_SIDE * config.bandwidth)


def initial_anchors(emb, mask, config):
    """Positions and densities of the anchor grid that :func:`cluster`
    places, before its density filter."""
    box, centroids, counts, _ = binned_values(emb, mask, config)
    return _anchor_grid(box, centroids, counts, config)


def shift_once(positions, emb, mask, config):
    """One shift of ``positions`` against the moment cells of the masked
    embeddings' bins, the step that :func:`cluster` repeats: (new
    positions, densities)."""
    seeds = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    return _shift_anchors(seeds, binned_values(emb, mask, config), config, 1)


def fine_bin_shifts(positions, centroids, counts, bandwidth, steps=1):
    """The oracle of the moment-cell step: ``steps`` shifts of
    ``positions`` against the count-weighted fine-bin centroids, the loop
    that :func:`cluster` ran before its shifts met moment cells."""
    table = _point_table(centroids, counts)
    densities = None
    for _ in range(steps):
        positions, densities = _gaussian_shift(positions, centroids, bandwidth, table)
    return positions, densities


def three_blob_input(seed=0, n_per=400, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = np.array([[1.0, 1.0], [4.0, 1.5], [2.5, 5.0]])
    values = np.concatenate(
        [c + rng.normal(0.0, spread, size=(n_per, 2)) for c in centers]
    )
    labels = np.repeat([1, 2, 3], n_per)
    emb, mask = embedding_fixture(values)
    return emb, mask, labels


class TestConfig:
    def test_has_four_fields(self):
        # The embeddings fix the dimension, so the config does not hold it.
        names = [f.name for f in dataclasses.fields(MeanShiftConfig)]
        assert names == [
            "anchors_per_dim", "bandwidth", "iterations", "density_fraction"
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"anchors_per_dim": 1},
            {"bandwidth": 0.0},
            {"iterations": 0},
            {"density_fraction": 1.0},
            {"density_fraction": -0.1},
            {"bandwidth": math.inf},
            {"density_fraction": math.nan},
            {"bandwidth": -0.5},
            {"bandwidth": 1e-300},
            {"bandwidth": 1e-160},
            {"bandwidth": math.nan},
            # counts that are not integers: np.linspace and range would
            # raise a TypeError inside cluster
            {"anchors_per_dim": 2.5},
            {"anchors_per_dim": np.float64(4.0)},
            {"iterations": 2.5},
            {"iterations": 3.0},
            # bools are integers to Python, but never a count
            {"iterations": True},
            {"anchors_per_dim": np.True_},
            # values that are not real numbers: comparing them would
            # raise a TypeError
            {"bandwidth": "0.5"},
            {"bandwidth": None},
            {"bandwidth": 0.5j},
            {"density_fraction": None},
            {"density_fraction": "0.1"},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must"):
            MeanShiftConfig(**kwargs)

    def test_numpy_reals_work(self):
        emb, mask, _ = three_blob_input(n_per=20)
        config = MeanShiftConfig(
            bandwidth=np.float32(0.5), density_fraction=np.float64(0.1)
        )
        clusters, _ = cluster(emb, mask, config)
        reference, _ = cluster(emb, mask, MeanShiftConfig(bandwidth=0.5))
        np.testing.assert_array_equal(clusters.centers, reference.centers)

    def test_numpy_integer_counts_work(self):
        emb, mask, _ = three_blob_input(n_per=20)
        config = MeanShiftConfig(anchors_per_dim=np.int64(6), iterations=np.int32(4))
        clusters, _ = cluster(emb, mask, config)
        reference, _ = cluster(emb, mask, MeanShiftConfig(anchors_per_dim=6, iterations=4))
        np.testing.assert_array_equal(clusters.centers, reference.centers)

    def test_anchor_grid_bound(self):
        # _seed_anchors checks k^d against the embeddings' own dimension
        # before it reads anything else of them: an object carrying only
        # ``dim`` stands in for embeddings no test could allocate.
        assert MAX_ANCHORS == 2**20
        prefix = r"^anchors_per_dim \*\* dim must be <= "
        for k, d in [(2, 21), (MAX_ANCHORS + 1, 1), (10, 8), (10**400, 20), (3, 10**9)]:
            config = MeanShiftConfig(anchors_per_dim=k)
            message = rf"{prefix}{MAX_ANCHORS}, got {k} \*\* {d}$"
            with pytest.raises(ValueError, match=message):
                _seed_anchors(types.SimpleNamespace(dim=d), None, config)
        # At the bound the check passes, and the stand-in, which has no
        # grid, fails at the masked columns; a 2^20-node grid is placed.
        for k, d in [(2, 20), (MAX_ANCHORS, 1)]:
            config = MeanShiftConfig(anchors_per_dim=k)
            with pytest.raises(AttributeError, match="grid"):
                _seed_anchors(types.SimpleNamespace(dim=d), None, config)
        emb, mask = embedding_fixture([[0.0], [1.0]])
        config = MeanShiftConfig(anchors_per_dim=MAX_ANCHORS)
        anchors, _ = _seed_anchors(emb, mask, config)
        assert 1 <= anchors.shape[0] <= MAX_ANCHORS
        for k, d in [(2, 21), (MAX_ANCHORS + 1, 1), (10, 8)]:
            emb, mask = embedding_fixture(np.zeros((1, d)))
            with pytest.raises(ValueError, match=prefix):
                cluster(emb, mask, MeanShiftConfig(anchors_per_dim=k))

    def test_accepted_grids_fit_one_density_block(self):
        # _grid_densities forms the k^(d-1) rows of its outer product in
        # one block, sized for k^(d-1) <= _CHUNK_TARGET // 2. That holds
        # for every (k, d) that _seed_anchors accepts: k^(d-1) grows with
        # k, so the largest accepted k per d is the case to check.
        with pytest.raises(ValueError, match="anchors_per_dim must be >= 2"):
            MeanShiftConfig(anchors_per_dim=1)
        for d in range(1, MAX_ANCHORS.bit_length() + 2):
            k = round(MAX_ANCHORS ** (1.0 / d))
            while k**d > MAX_ANCHORS:
                k -= 1
            while (k + 1) ** d <= MAX_ANCHORS:
                k += 1
            stand_in = types.SimpleNamespace(dim=d)
            with pytest.raises(ValueError, match="anchors_per_dim"):
                _seed_anchors(stand_in, None, MeanShiftConfig(anchors_per_dim=k + 1))
            if k >= 2:
                with pytest.raises(AttributeError, match="grid"):
                    _seed_anchors(stand_in, None, MeanShiftConfig(anchors_per_dim=k))
                assert k ** (d - 1) <= clustering._CHUNK_TARGET // 2


class TestPairwisePotential:
    """The per-pair kernel value as the library computes it: the density
    that one shift step reports for a seed against a single point."""

    @staticmethod
    def potential(anchor, embedding, b):
        _, dens = _gaussian_shift(
            np.atleast_2d(np.asarray(anchor, dtype=np.float64)),
            np.atleast_2d(np.asarray(embedding, dtype=np.float64)),
            b,
        )
        return float(dens[0])

    def test_zero_distance(self):
        # 1 / (sqrt(2 pi) * 0.5)
        assert self.potential(np.zeros(2), np.zeros(2), 0.5) == pytest.approx(
            0.7978845608028654, rel=1e-12
        )

    def test_half_bandwidth_distance(self):
        # frozen: exp(-0.5^2 / (2 * 0.5^2)) / (sqrt(2 pi) * 0.5)
        value = self.potential(np.array([0.0, 0.0]), np.array([0.5, 0.0]), 0.5)
        assert value == pytest.approx(0.48394144903828673, rel=1e-12)

    def test_far_limit(self):
        assert self.potential(np.zeros(1), np.array([1e4]), 0.5) == 0.0

    def test_requires_positive_bandwidth(self):
        # 1e-300 squares to 0 and 1e-160 to a subnormal whose reciprocal is inf
        emb, mask = embedding_fixture([[0.0]])
        for bandwidth in (0.0, -0.5, 1e-300, 1e-160, math.inf):
            with pytest.raises(ValueError, match=f"bandwidth must be > 0.*got {bandwidth!r}"):
                vanilla_mean_shift(emb, mask, bandwidth)


class TestInitAnchors:
    """The anchor grid (:func:`_anchor_grid`) and the checks that
    :func:`cluster` makes before placing it."""

    def test_corner_grid(self):
        emb, mask = embedding_fixture([[0, 0], [1, 0], [0, 1], [1, 1]])
        positions, _ = initial_anchors(emb, mask, MeanShiftConfig(anchors_per_dim=2))
        expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        assert {tuple(p) for p in positions} == expected

    def test_zero_extent_box_collapses(self):
        emb, mask = embedding_fixture([[2.5, -1.0]] * 5)
        positions, densities = initial_anchors(emb, mask, MeanShiftConfig(anchors_per_dim=3))
        assert positions.shape == (9, 2) and densities.shape == (9,)
        np.testing.assert_allclose(positions, [[2.5, -1.0]] * 9)

    def test_default_anchor_count(self):
        emb, mask, _ = three_blob_input()
        positions, densities = initial_anchors(emb, mask, MeanShiftConfig())
        assert positions.shape == (100, 2) and densities.shape == (100,)

    def test_masked_pixels_ignored(self):
        emb, _ = embedding_fixture([[0, 0], [1, 1], [100, 100]])
        mask = PlanarMask(emb.grid, np.array([True, True, False]))
        positions, _ = initial_anchors(emb, mask, MeanShiftConfig(anchors_per_dim=2))
        assert positions.max() == 1.0

    def test_empty_mask_rejected(self):
        emb, _ = embedding_fixture([[0, 0], [1, 1]])
        mask = PlanarMask(emb.grid, np.zeros(2, dtype=bool))
        with pytest.raises(ValueError, match="no planar pixels"):
            cluster(emb, mask, MeanShiftConfig())

    @pytest.mark.parametrize(
        "d, flat_axis, target",
        [(1, None, None), (2, None, None), (3, None, None), (3, 1, None), (3, None, 90)],
    )
    def test_separable_densities_match_gaussian_shift(
        self, d, flat_axis, target, monkeypatch
    ):
        # The grid densities come from per-axis factor tables; the shift
        # kernel sums the same weighted Gaussians at the same positions.
        # A 90-float chunk target is below the 7^2 rows of the d = 3
        # product, which no accepted grid reaches at the real target
        # (test_accepted_grids_fit_one_density_block); the block is still
        # formed whole, one point per span.
        if target is not None:
            monkeypatch.setattr(clustering, "_CHUNK_TARGET", target)
        rng = np.random.default_rng(20 + d)
        values = rng.uniform(0.0, 2.0, size=(3000, d))
        values[1500:] = values[:1500] + 1e-4  # shared bins, counts > 1
        if flat_axis is not None:
            values[:, flat_axis] = 0.7
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(anchors_per_dim=7, bandwidth=0.5)
        _, centroids, counts, _ = _bin_points(values.T, BIN_SIDE * config.bandwidth)
        assert counts.max() >= 2
        positions, densities = initial_anchors(emb, mask, config)
        _, expected = fine_bin_shifts(positions, centroids, counts, 0.5)
        np.testing.assert_allclose(densities, expected, rtol=1e-13, atol=0.0)

    def test_separable_contraction_stays_within_chunk_target(self):
        # d = 4, k = 10 against ~25k bins: the outer product of the first
        # three axes' tables over every bin would be 1000 x 25k floats
        # (200 MB). One span's tables and products stay within
        # _CHUNK_TARGET floats; beyond them only the k^d-row positions
        # (grid, mesh and filtered copy) and the O(N d) columns, keys and
        # bins may be live.
        n, d, k = 25_000, 4, 10
        values = np.random.default_rng(6).uniform(0.0, 1.0, size=(n, d))
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(anchors_per_dim=k, bandwidth=0.5)
        tracemalloc.start()
        try:
            positions, _ = initial_anchors(emb, mask, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _, _, counts, _ = _bin_points(values.T, BIN_SIDE * config.bandwidth)
        assert counts.shape[0] >= 20_000 and positions.shape[0] == k**d
        assert peak <= 8 * (clustering._CHUNK_TARGET + 4 * k**d * d + 4 * n * d)


class TestShiftAnchors:
    """One binned shift step (:func:`shift_once`) and the T-step shift loop
    that :func:`cluster` runs after :func:`_seed_anchors`."""

    def test_single_point_fixed_point(self):
        emb, mask = embedding_fixture([[3.0, -2.0]])
        shifted, _ = shift_once([[10.0, 10.0]], emb, mask, MeanShiftConfig())
        np.testing.assert_allclose(shifted, [[3.0, -2.0]], atol=1e-12)

    def test_symmetric_mode_is_stationary(self):
        emb, mask = embedding_fixture([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        shifted, _ = shift_once([[0.0, 0.0]], emb, mask, MeanShiftConfig())
        np.testing.assert_allclose(shifted, [[0.0, 0.0]], atol=1e-12)

    def test_equal_weights_stay_centered(self):
        # frozen: embeddings at 0 and 1 give equal kernel weights at 0.5
        emb, mask = embedding_fixture(np.array([[0.0], [1.0]]))
        config = MeanShiftConfig(bandwidth=0.5)
        shifted, _ = shift_once([[0.5]], emb, mask, config)
        np.testing.assert_allclose(shifted, [[0.5]], atol=1e-12)

    def test_zero_density_anchor_stays(self):
        # kernel underflows at ~27 bandwidths: anchor must not move or NaN
        emb, mask = embedding_fixture([[0.0, 0.0]])
        shifted, densities = shift_once(
            [[50.0, 50.0]], emb, mask, MeanShiftConfig(bandwidth=0.5)
        )
        np.testing.assert_array_equal(shifted, [[50.0, 50.0]])
        assert densities[0] == 0.0

    def test_densities_match_potential_sums(self):
        emb, mask = embedding_fixture([[0.0, 0.0], [1.0, 0.0]])
        anchor = [0.25, 0.0]
        config = MeanShiftConfig(bandwidth=0.5)
        _, densities = shift_once([anchor], emb, mask, config)
        expected = pairwise_potential(anchor, emb.values[0], 0.5) + pairwise_potential(
            anchor, emb.values[1], 0.5
        )
        assert densities[0] == pytest.approx(expected, rel=1e-12)

    def test_shift_loop_tracks_the_fine_bin_oracle(self):
        # The T moment-cell steps of cluster against the fine-bin loop they
        # replaced: the modes stay within one step's stated bound,
        # (4 * BIN_SIDE)^3 * b / 50 (measured 6.8e-6 b after 10 steps), and
        # merge into the same clusters.
        emb, mask = embedding_fixture(four_blob_mixture())
        config = MeanShiftConfig(bandwidth=0.5)
        anchors, bins = _seed_anchors(emb, mask, config)
        modes, _ = _shift_anchors(anchors, bins, config, config.iterations)
        oracle, _ = fine_bin_shifts(anchors, *bins[1:3], 0.5, steps=config.iterations)
        assert np.abs(modes - oracle).max() <= (4 * BIN_SIDE) ** 3 * 0.5 / 50.0
        merged, expected = _merge_points(modes, 0.5), _merge_points(oracle, 0.5)
        np.testing.assert_array_equal(
            merged.member_anchor_counts, expected.member_anchor_counts
        )
        np.testing.assert_allclose(merged.centers, expected.centers, atol=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_contraction_into_bounding_box(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-5.0, 5.0, size=(40, 2))
        emb, mask = embedding_fixture(values)
        for iterations in (1, 2, 3):
            config = MeanShiftConfig(anchors_per_dim=4, bandwidth=1.0, iterations=iterations)
            anchors, _ = _shift_anchors(
                *_seed_anchors(emb, mask, config), config, config.iterations
            )
            assert np.all(anchors >= values.min(axis=0) - 1e-12)
            assert np.all(anchors <= values.max(axis=0) + 1e-12)


def reference_shift(seeds, points, bandwidth, weights=None):
    """The pass-by-pass kernel that the fused one replaced."""
    kern = seeds @ points.T
    kern *= -2.0
    kern += np.einsum("ij,ij->i", seeds, seeds)[:, None]
    kern += np.einsum("ij,ij->i", points, points)[None, :]
    np.maximum(kern, 0.0, out=kern)
    kern *= -1.0 / (2.0 * bandwidth * bandwidth)
    np.exp(kern, out=kern)
    if weights is not None:
        kern *= weights[None, :]
    total = kern.sum(axis=1)
    out = kern @ points
    alive = total > ZERO_DENSITY
    out /= np.where(alive, total, 1.0)[:, None]
    out[~alive] = seeds[~alive]
    return out, total / (math.sqrt(2.0 * math.pi) * bandwidth)


class TestGaussianShift:
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_pass_by_pass_kernel(self, d, weighted, monkeypatch):
        # 40 seeds against 300 points in chunks of 10 rows and tiles of
        # 100 points: 4 chunks of 3 tiles. The last seed sits ~60
        # bandwidths out, where every kernel value underflows to 0, so it
        # stays put.
        monkeypatch.setattr(clustering, "_CHUNK_TARGET", 3000)
        monkeypatch.setattr(clustering, "_TILE_TARGET", 1000)
        rng = np.random.default_rng(30 + d)
        points = rng.normal(0.0, 1.0, size=(300, d))
        seeds = rng.normal(0.0, 1.2, size=(40, d))
        seeds[-1] = 30.0
        weights = rng.integers(1, 9, size=300).astype(np.float64) if weighted else None
        table = None if weights is None else _point_table(points, weights)
        out, dens = _gaussian_shift(seeds, points, 0.5, table)
        expected, expected_dens = reference_shift(seeds, points, 0.5, weights)
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(dens, expected_dens, rtol=1e-12, atol=0.0)
        assert dens[-1] == 0.0 and dens[:-1].min() > 0.0
        np.testing.assert_array_equal(out[-1], seeds[-1])


def anchor_grid(values, k=10):
    lo, hi = values.min(axis=0), values.max(axis=0)
    axes = [np.linspace(lo[a], hi[a], k) for a in range(values.shape[1])]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, values.shape[1])


def four_blob_mixture(d=2):
    """Four overlapping Gaussian blobs over a uniform floor, about 12
    bandwidths (b = 0.5) across, in d = 2 or 3 dimensions."""
    rng = np.random.default_rng(0)
    centers = np.array(
        [[1.0, 1.0, 1.0], [4.0, 1.5, 2.0], [2.5, 5.0, 3.5], [2.6, 2.4, 2.4]]
    )
    return np.concatenate(
        [c[:d] + rng.normal(0.0, 0.2, size=(3000, d)) for c in centers]
        + [rng.uniform(0.0, 6.0, size=(600, d))]
    )


def record_shift_points(monkeypatch):
    """Record the point count of every :func:`_gaussian_shift` call."""
    counts = []
    shift = clustering._gaussian_shift

    def recording(seeds, points, bandwidth, table=None):
        counts.append(points.shape[0])
        return shift(seeds, points, bandwidth, table)

    monkeypatch.setattr(clustering, "_gaussian_shift", recording)
    return counts


class TestBinning:
    def test_shift_error_is_second_order_in_cell_side(self):
        # Each cell's centroid cancels the first-order term of the kernel's
        # Taylor expansion, so the binned step moves anchors by O(c^2 * b)
        # against the exact per-pixel step. Stated bound: c^2 * b / 4 on
        # positions (measured 0.05-0.15 c^2 * b) and c^2 / 2 relative on
        # densities (measured 0.06-0.16 c^2); halving c must at least halve
        # the position error.
        values = four_blob_mixture()
        b = 0.5
        anchors = anchor_grid(values)
        exact, exact_dens = _gaussian_shift(anchors, values, b)
        errors = []
        for c in (0.1, 0.05, 0.025):
            _, centroids, counts, _ = _bin_points(values.T, c * b)
            assert centroids.shape[0] < values.shape[0]
            binned, binned_dens = fine_bin_shifts(anchors, centroids, counts, b)
            error = np.abs(binned - exact).max()
            assert error <= c * c * b / 4.0
            assert np.max(np.abs(binned_dens - exact_dens) / exact_dens) <= c * c / 2.0
            errors.append(error)
        assert errors[1] <= errors[0] / 2.0
        assert errors[2] <= errors[1] / 2.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_moment_step_keeps_the_fine_bin_bound_against_the_exact_step(self, d):
        # The moment-cell step of cluster stays within the bound stated for
        # the fine bins, c^2 * b / 4 = 6.25e-4 b for c = BIN_SIDE (measured
        # 2.6e-4 b at d = 2, 9.7e-5 b at d = 3), and within c^2 / 2
        # relative on densities (measured 3.1e-4 and 1.1e-4).
        values = four_blob_mixture(d)
        config = MeanShiftConfig(bandwidth=0.5)
        b = config.bandwidth
        anchors = anchor_grid(values)
        exact, exact_dens = _gaussian_shift(anchors, values, b)
        bins = _bin_points(values.T, BIN_SIDE * b)
        shifted, dens = _shift_anchors(anchors, bins, config, 1)
        assert np.abs(shifted - exact).max() <= BIN_SIDE**2 * b / 4.0
        assert np.max(np.abs(dens - exact_dens) / exact_dens) <= BIN_SIDE**2 / 2.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_moment_step_error_against_the_fine_bin_step_is_third_order(
        self, d, monkeypatch
    ):
        # Against the fine-bin step it replaces, the second-order expansion
        # leaves a third-order error in the cell side s = 4 * BIN_SIDE.
        # Stated bound: s^3 * b / 50 = 1.6e-4 b, also relative on densities
        # (measured 7.1e-5 b and 3.2e-5 at d = 2, 7.0e-5 b and 6.8e-5 at
        # d = 3). Plain 4x bins without the curvature term stray 6.25e-3 b
        # (7.6e-3 b), at least 20 times more. Doubling s grows the error at
        # least 6-fold, beyond the 4-fold of a second-order error (measured
        # 24x and 11x; 28x and 17x); cells as wide as the fine bins hold one
        # bin each and match the step.
        values = four_blob_mixture(d)
        config = MeanShiftConfig(bandwidth=0.5)
        b = config.bandwidth
        anchors = anchor_grid(values)
        bins = _bin_points(values.T, BIN_SIDE * b)
        fine, fine_dens = fine_bin_shifts(anchors, *bins[1:3], b)
        side = clustering._CELL_FACTOR * BIN_SIDE
        shifted, dens = _shift_anchors(anchors, bins, config, 1)
        error = np.abs(shifted - fine).max()
        assert error <= side**3 * b / 50.0
        assert np.max(np.abs(dens - fine_dens) / fine_dens) <= side**3 / 50.0
        _, centroids, counts, _ = _bin_points(values.T, side * b)
        plain, _ = fine_bin_shifts(anchors, centroids, counts, b)
        assert np.abs(plain - fine).max() >= 20.0 * error
        errors = []
        for factor in (1, 2, 4, 8):
            monkeypatch.setattr(clustering, "_CELL_FACTOR", factor)
            shifted, _ = _shift_anchors(anchors, bins, config, 1)
            errors.append(np.abs(shifted - fine).max())
        assert errors[0] <= 1e-12
        assert errors[2] >= 6.0 * errors[1] and errors[3] >= 6.0 * errors[2]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_scatter_cells_reproduce_the_plain_weighted_kernel(self, d):
        rng = np.random.default_rng(40 + d)
        points = rng.normal(0.0, 1.0, size=(300, d))
        counts = rng.integers(1, 9, size=300).astype(np.float64)
        seeds = rng.normal(0.0, 1.2, size=(40, d))
        zeros = [np.zeros(300)] * (d * (d + 1) // 2)
        table = _moment_table(counts, list(points.T), zeros)
        assert table.shape == (300, (d + 1) * (1 + d + d * (d + 1) // 2))
        out, dens = _gaussian_shift(seeds, points, 0.5, table)
        expected, expected_dens = fine_bin_shifts(seeds, points, counts, 0.5)
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(dens, expected_dens, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", range(1, 21))
    def test_moment_weights_stay_positive_up_to_twenty_dimensions(self, d):
        # Members of a cell of side s lie within s sqrt(d) of its centroid,
        # so tr S <= n d s^2 and each weight n - tr S / 2 + r^T S r / 2 is
        # at least n (1 - d s^2 / 2) > 0 while d s^2 < 2: 0.8 at d = 20,
        # the most that MAX_ANCHORS admits. Cells whose members sit at
        # opposite corners carry the largest scatter; every cell's weight,
        # read through the table and the monomials, stays above the bound
        # at seeds near and far.
        side = clustering._CELL_FACTOR * BIN_SIDE
        assert d * side**2 < 2.0
        rng = np.random.default_rng(d)
        corners = rng.integers(0, 2, size=(30, d)).astype(np.float64)
        cells = np.arange(30)[:, None] * 3.0 * side
        low = cells + corners * 0.998 * side + 0.001 * side
        high = cells + (1.0 - corners) * 0.998 * side + 0.001 * side
        inside = cells + rng.uniform(0.001, 0.999, (30, d)) * side
        # A lone point 10 cells below the grid sets its origin, so no key
        # rounds across a cell wall.
        points = np.concatenate([np.full((1, d), -10.0 * side), low, high, inside])
        counts = rng.integers(1, 50, size=91).astype(np.float64)
        centroids, table = _moment_cells(points, counts)
        cell = np.concatenate([[0], np.arange(90) % 30 + 1])  # the lone point's first
        totals = np.bincount(cell, counts)
        assert centroids.shape[0] == 31
        np.testing.assert_allclose(centroids[1:, 0] // (3.0 * side), np.arange(30))
        blocks = table.reshape(31, -1, d + 1)[:, :, d]
        seeds = np.concatenate([centroids, rng.normal(0.0, 20.0, size=(20, d))])
        weights = clustering._monomials(seeds) @ blocks.T
        assert (weights >= totals * (1.0 - d * side**2 / 2.0)).all()

    def test_wide_boxes_shift_against_the_fine_bins(self, monkeypatch):
        # Up to _MOMENT_WIDTH bandwidths across, the moment cells keep the
        # fine-bin bound; wider boxes shift against the fine bins.
        values = four_blob_mixture()
        config = MeanShiftConfig(bandwidth=0.5)
        b = config.bandwidth
        anchors = anchor_grid(values)
        for width, cells in ((0.999, True), (1.001, False)):
            far = values + clustering._MOMENT_WIDTH * b * width - 6.0
            bins = _bin_points(np.concatenate([values, far]).T, BIN_SIDE * b)
            fine, _ = fine_bin_shifts(anchors, *bins[1:3], b)
            shifted, _ = _shift_anchors(anchors, bins, config, 1)
            assert np.abs(shifted - fine).max() <= (4 * BIN_SIDE) ** 3 * b / 50.0
            points = record_shift_points(monkeypatch)
            _shift_anchors(anchors, bins, config, 1)
            monkeypatch.undo()
            fewer = points[0] <= bins[1].shape[0] / 4
            assert fewer == cells

    def test_exact_when_every_point_sits_alone(self):
        # Points at least 0.2 apart never share a cell of side 0.025, so each
        # centroid is its point and each weight is 1: only the summation
        # order differs from the exact per-pixel step.
        rng = np.random.default_rng(1)
        lattice = np.stack(np.meshgrid(np.arange(12), np.arange(9), indexing="ij"), -1)
        values = 0.3 * lattice.reshape(-1, 2) + rng.uniform(-0.05, 0.05, size=(108, 2))
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(bandwidth=0.5)
        _, centroids, counts, _ = _bin_points(values.T, BIN_SIDE * config.bandwidth)
        np.testing.assert_array_equal(counts, np.ones(108))
        np.testing.assert_array_equal(
            centroids[np.lexsort(centroids.T)], values[np.lexsort(values.T)]
        )
        positions, densities = initial_anchors(emb, mask, config)
        exact, exact_dens = _gaussian_shift(positions, values, config.bandwidth)
        np.testing.assert_allclose(densities, exact_dens, rtol=1e-12)
        shifted, shifted_dens = shift_once(positions, emb, mask, config)
        np.testing.assert_allclose(shifted, exact, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(shifted_dens, exact_dens, rtol=1e-12)

    def test_sparse_key_fallback_matches_dense_counting(self, monkeypatch):
        rng = np.random.default_rng(2)
        inputs = [
            # d = 8 spread over 5-6 cells per axis: about 5.6e5 cells, far
            # above 8 * N, so the occupied keys are sorted by default.
            (rng.uniform(0.0, 0.125, size=(2000, 8)), False),
            # 2-D over 120 x 100 cells: 6 per point, between 4 * N and
            # 8 * N, so they are counted densely by default.
            (rng.uniform(0.0, 1.0, size=(2000, 2)) * [2.99, 2.49], True),
        ]
        for values, dense_by_default in inputs:
            values[1000:] = values[:1000] + 1e-4  # shared cells, counts > 1
            box, _, _, _ = _bin_points(values.T, 0.025)
            cells = np.prod(np.floor((box[1] - box[0]) / 0.025) + 1.0)
            assert (4 * 2000 < cells <= 8 * 2000) == dense_by_default
            monkeypatch.setattr(clustering, "_DENSE_KEYS_PER_POINT", 0)
            _, *sparse = _bin_points(values.T, 0.025)
            monkeypatch.setattr(clustering, "_DENSE_KEYS_PER_POINT", 1000)
            _, *dense = _bin_points(values.T, 0.025)
            monkeypatch.undo()
            np.testing.assert_array_equal(sparse[0], dense[0])
            np.testing.assert_array_equal(sparse[1], dense[1])
            np.testing.assert_array_equal(sparse[2], dense[2])
            assert sparse[1].sum() == 2000 and sparse[1].max() >= 2

    def test_key_space_beyond_int64_bins_by_sorting(self):
        # 8 axes of ~4e7 cells: the key space (~1e61) overflows int64.
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1e6, size=(300, 8))
        values[150:] = values[:150] + 1e-3
        _, centroids, counts, _ = _bin_points(values.T, 0.025)
        keys = np.floor((values - values.min(axis=0)) / 0.025)
        groups = {}
        for key, row in zip(map(tuple, keys), values):
            groups.setdefault(key, []).append(row)
        assert counts.tolist() == [len(groups[k]) for k in sorted(groups)]
        np.testing.assert_allclose(
            centroids, [np.mean(groups[k], axis=0) for k in sorted(groups)], rtol=1e-15
        )


class TestFilterLowDensity:
    """The density filter (:func:`_dense_anchors`)."""

    def test_zero_fraction_keeps_every_positive_density(self):
        # an anchor of zero density never moves, so even a fraction of 0
        # drops it
        positions = np.arange(6.0).reshape(3, 2)
        kept = _dense_anchors(positions, np.array([5.0, 1.0, 0.0]), 0.0)
        np.testing.assert_array_equal(kept, positions[:2])

    def test_underflowing_threshold_drops_zero_densities(self):
        # fraction * max underflows to 0 for a subnormal max density
        positions = np.arange(6.0).reshape(3, 2)
        kept = _dense_anchors(positions, np.array([5e-324, 0.0, 5e-324]), 0.1)
        np.testing.assert_array_equal(kept, positions[[0, 2]])

    def test_all_zero_densities_keep_none(self):
        kept = _dense_anchors(np.zeros((4, 2)), np.zeros(4), 0.1)
        assert kept.shape == (0, 2)

    def test_uniform_densities_survive(self):
        kept = _dense_anchors(np.zeros((4, 2)), np.full(4, 2.0), 0.9)
        assert len(kept) == 4

    def test_threshold_arithmetic(self):
        # frozen: densities (10, 1) with fraction 0.5 keep only the first
        kept = _dense_anchors(np.array([[0.0], [1.0]]), np.array([10.0, 1.0]), 0.5)
        assert len(kept) == 1
        assert kept[0, 0] == 0.0

    def test_max_density_anchor_always_survives(self):
        kept = _dense_anchors(np.array([[0.0], [1.0]]), np.array([3.0, 1.0]), 0.99)
        assert len(kept) >= 1
        assert 0.0 in kept


class TestZeroDensityGrid:
    """``cluster`` when no grid node lies within the kernel's reach."""

    def test_every_density_zero_is_an_error(self):
        # 25 pixels of 1e153-scale embeddings at bandwidth 1e-154: every
        # grid density underflows to 0, so no anchor would ever move.
        values = np.random.default_rng(0).standard_normal((25, 2)) * 1e153
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(bandwidth=1e-154)
        with pytest.raises(
            ValueError,
            match=r"no anchor has positive density at bandwidth 1e-154 "
            r"on the 10\^2 anchor grid",
        ):
            cluster(emb, mask, config)

    @pytest.mark.parametrize("fraction", [0.0, 0.1])
    def test_only_anchors_with_points_in_reach_are_kept(self, fraction):
        # Points on the corners of the unit square at bandwidth 1e-154:
        # only the four corner nodes of the grid have positive density,
        # so four clusters come out, each owning its corner's pixels.
        values = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]] * 3)
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(bandwidth=1e-154, density_fraction=fraction)
        clusters, assignment = cluster(emb, mask, config)
        assert len(clusters) == 4
        labels = hard_labels(assignment).labels
        np.testing.assert_array_equal(labels[4:], np.tile(labels[:4], 2))
        assert np.unique(labels).size == 4


class TestMergeAnchors:
    """The merge of shifted anchors (:func:`_merge_points`), which
    :func:`cluster` runs at the bandwidth."""

    def test_single_component_mean(self):
        merged = _merge_points(np.array([[0.0], [0.2], [0.4]]), 0.5)
        assert len(merged) == 1
        assert merged.centers[0, 0] == pytest.approx(0.2)
        assert merged.member_anchor_counts.tolist() == [3]

    def test_distance_two_bandwidths_stays_split(self):
        merged = _merge_points(np.array([[0.0], [1.0]]), 0.5)
        assert len(merged) == 2

    def test_chain_merges_transitively(self):
        # frozen: chain 0, 0.4, 0.8 under radius 0.5 is one component at 0.4
        merged = _merge_points(np.array([[0.0], [0.4], [0.8]]), 0.5)
        assert len(merged) == 1
        assert merged.centers[0, 0] == pytest.approx(0.4)

    def test_exact_radius_does_not_merge(self):
        merged = _merge_points(np.array([[0.0], [0.5]]), 0.5)
        assert len(merged) == 2

    def test_centers_sorted_lexicographically(self):
        merged = _merge_points(np.array([[5.0, 0.0], [1.0, 2.0], [1.0, 1.0]]), 0.5)
        assert merged.centers.tolist() == [[1.0, 1.0], [1.0, 2.0], [5.0, 0.0]]


class TestGroupRows:
    def test_matches_dict_grouping(self):
        rng = np.random.default_rng(4)
        pool = np.array([0.0, -0.0, 1.0, -3.0, 2.0**60, -1e300, 1e300, 5e-324])
        keys = rng.choice(pool, size=(500, 3))
        inverse, order, starts = _group_rows(keys.T)
        groups = {}
        for i, key in enumerate(map(tuple, keys)):
            groups.setdefault(key, []).append(i)
        ranked = sorted(groups)
        assert inverse.max() + 1 == len(ranked) == int(starts.sum())
        for g, key in enumerate(ranked):
            assert np.flatnonzero(inverse == g).tolist() == groups[key]
        np.testing.assert_array_equal(np.sort(order), np.arange(500))
        np.testing.assert_array_equal(np.flatnonzero(starts), np.searchsorted(
            inverse[order], np.arange(len(ranked))))

    def test_spatial_hash_with_tiny_radius_joins_only_duplicates(self):
        # Cell keys near 1e154 overflowed an old int64 cast into one shared
        # key. As floats they stay apart, and only duplicates share a cell.
        base = np.random.default_rng(5).standard_normal((1500, 2))
        positions = np.concatenate([base, base])
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="invalid value encountered in cast")
            groups = merge_groups(positions, 1e-154)
        assert groups == [[i, i + 1500] for i in range(1500)]

    def test_overflowing_hash_keys_fall_back_to_pairwise(self):
        # At radius 1e-320 the cell side is subnormal and every key in
        # [1, 2]^2 overflows to inf; one shared inf key once merged all
        # 3000 anchors into one cluster. Its member box fails the radius,
        # so every distinct point is a cell of its own, and only exact
        # duplicates are closer.
        base = np.random.default_rng(8).uniform(1.0, 2.0, size=(2000, 2))
        positions = np.concatenate([base, base[:1000]])
        radius = 1e-320
        oracle = pairwise_groups(positions, radius)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            groups = merge_groups(positions, radius)
            merged = _merge_points(positions, radius)
        assert groups == oracle
        assert len(merged) == len(oracle) == 2000

    @pytest.mark.parametrize("radius", [1e-6, 1e-8, 1e-10])
    def test_spatial_hash_pair_check_keeps_tiny_gaps(self, radius):
        # 2100 points, 1.5 radii apart along x at y = 1: no pair is within
        # the radius. A cross-cell check once expanded |a|^2 + |b|^2 - 2ab,
        # whose rounding near 1 (about 1e-16) exceeds r^2 below r ~ 1e-8,
        # and merged them into 759 groups at 1e-8 and 310 at 1e-10.
        x = 1.0 + 1.5 * radius * np.arange(2100)
        positions = np.stack([x, np.ones(2100)], axis=1)
        oracle = pairwise_groups(positions, radius)
        assert merge_groups(positions, radius) == oracle
        assert len(oracle) == 2100


class TestMergeLabels:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("radius", [0.05, 0.3, 1.0])
    def test_matches_pairwise_oracle(self, d, radius):
        rng = np.random.default_rng(10 * d + int(10 * radius))
        positions = rng.standard_normal((int(rng.integers(300, 600)), d))
        positions[::7] = np.round(positions[::7] * 4.0) / 4.0  # ties, duplicates
        assert merge_groups(positions, radius) == pairwise_groups(positions, radius)

    @pytest.mark.parametrize("d", [1, 4])
    def test_joins_pairs_several_cells_apart(self, d):
        # a sits just inside cell 0 and b at cell ceil(sqrt(d)) + 1 along
        # axis 0, 0.999999999 apart. A neighbour walk reaching ceil(sqrt(d))
        # cells never compared them once 2100 fillers took the point count
        # past 2048, although the pairwise path joined them below it.
        side = 1.0 / (math.sqrt(d) * (1.0 + 1e-9))
        a, b = np.zeros(d), np.zeros(d)
        a[0] = side * (1.0 - 1e-12)
        b[0] = (math.ceil(math.sqrt(d)) + 1) * side
        filler = 10.0 + 5.0 * np.arange(2100)[:, None] * np.ones(d)
        positions = np.vstack([a, b, filler])
        labels = _merge_labels(positions, 1.0)
        assert labels[0] == labels[1]
        assert merge_groups(positions, 1.0) == pairwise_groups(positions, 1.0)

    def test_six_dimensions_finish_within_budget(self):
        # The neighbour walk once visited 7^6 offsets per occupied cell in
        # Python and took about two minutes on these points.
        positions = np.random.default_rng(2).standard_normal((2100, 6))
        start = time.perf_counter()
        groups = merge_groups(positions, 0.5)
        elapsed = time.perf_counter() - start
        assert groups == pairwise_groups(positions, 0.5)
        assert elapsed < 20.0

    def ragged_totals(self, monkeypatch):
        # Entries of each ragged enumeration: the cell pairs first, then
        # the member pairs compared for each block of cell pairs.
        totals = []
        inner = clustering._ragged

        def recording(counts):
            totals.append(int(counts.sum()))
            return inner(counts)

        monkeypatch.setattr(clustering, "_ragged", recording)
        return totals

    def test_upper_bound_joins_cells_without_member_check(self, monkeypatch):
        # Radius 1 in 1-D: cells of side ~1, so 0.9 and 1.1 sit in cells 0
        # and 1, whose boxes lie wholly within the radius of each other.
        totals = self.ragged_totals(monkeypatch)
        labels = _merge_labels(np.array([[0.9], [1.1], [5.0]]), 1.0)
        assert labels.tolist() == [0, 0, 1]
        assert totals == [1, 0]

    @pytest.mark.parametrize("far, joined", [(0.9, True), (1.0, False)])
    def test_member_check_decides_straddling_cells(self, monkeypatch, far, joined):
        # Radius 1 in 2-D: cells of side ~0.707. Cell (0, 0) holds two
        # opposite corners and cell (1, 1) the point (far, far); the boxes
        # lie less than the radius apart but span more than it, so the
        # members decide (the nearest lie 0.886 or 1.012 apart).
        totals = self.ragged_totals(monkeypatch)
        positions = np.array([[0.05, 0.65], [0.65, 0.05], [far, far]])
        labels = _merge_labels(positions, 1.0)
        assert labels[0] == labels[1]
        assert bool(labels[1] == labels[2]) is joined
        assert totals == [1, 2]
        assert merge_groups(positions, 1.0) == pairwise_groups(positions, 1.0)

    def test_peak_memory_is_one_block_plus_linear_scratch(self):
        positions = np.random.default_rng(6).uniform(size=(20000, 2))
        tracemalloc.start()
        try:
            labels = _merge_labels(positions, 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels.shape == (20000,)
        assert peak <= 8 * (clustering._CHUNK_TARGET + 32 * positions.size)


class TestSoftAssign:
    def test_single_cluster_rows_are_one(self):
        emb, mask = embedding_fixture([[0.0, 0.0], [5.0, 5.0]])
        clusters = ClusterSet(np.array([[1.0, 1.0]]), np.array([1]))
        sa = soft_assign(emb, mask, clusters)
        np.testing.assert_array_equal(sa.weights, [[1.0], [1.0]])

    def test_distance_softmax_values(self):
        # frozen: distances (0, 1) give exp(0), exp(-1) normalized
        emb, mask = embedding_fixture([[0.0, 0.0]])
        clusters = ClusterSet(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1, 1]))
        sa = soft_assign(emb, mask, clusters)
        np.testing.assert_allclose(
            sa.weights[0], [0.7310585786300049, 0.2689414213699951], rtol=1e-12
        )

    def test_equidistant_centers_split_evenly(self):
        emb, mask = embedding_fixture([[0.0, 0.0]])
        clusters = ClusterSet(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([1, 1]))
        sa = soft_assign(emb, mask, clusters)
        np.testing.assert_allclose(sa.weights[0], [0.5, 0.5], rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_rejects_centers_of_another_dimension(self, dim):
        # 2-d embeddings on a 2x3 grid: 3-d centers would lose their third
        # coordinate to the kernel, 1-d ones the embeddings' second axis.
        grid = ImageGrid(2, 3)
        emb = EmbeddingMap(grid, np.arange(12.0).reshape(6, 2))
        mask = PlanarMask(grid, np.ones(6, dtype=bool))
        clusters = ClusterSet(np.zeros((2, dim)), np.ones(2, dtype=np.int64))
        message = f"^centers have dimension {dim} but the embeddings have dimension 2$"
        with pytest.raises(ValueError, match=message):
            soft_assign(emb, mask, clusters)

    def test_nonplanar_rows_zero(self):
        emb, _ = embedding_fixture([[0.0, 0.0], [1.0, 1.0]])
        mask = PlanarMask(emb.grid, np.array([True, False]))
        clusters = ClusterSet(np.array([[0.0, 0.0]]), np.array([1]))
        sa = soft_assign(emb, mask, clusters)
        assert sa.weights[1, 0] == 0.0

    def test_far_pixels_stay_normalized(self):
        # max-subtraction must prevent underflow to an all-zero row
        emb, mask = embedding_fixture([[1000.0, 1000.0]])
        clusters = ClusterSet(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1, 1]))
        sa = soft_assign(emb, mask, clusters)
        assert sa.weights[0].sum() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def multi_chunk_input(d, c, monkeypatch):
        # A 1000-pixel span puts the ~2800 masked pixels into 3 chunks.
        monkeypatch.setattr(core, "_ASSIGN_SPAN", 1000)
        rng = np.random.default_rng(10 * d + c)
        grid = ImageGrid(50, 80)
        emb = EmbeddingMap(grid, rng.normal(0.0, 2.0, size=(grid.n_pixels, d)))
        mask = PlanarMask(grid, rng.random(grid.n_pixels) < 0.7)
        assert mask.foreground_count > 2 * 1000
        clusters = ClusterSet(rng.normal(0.0, 2.0, size=(c, d)), np.ones(c, dtype=np.int64))
        return emb, mask, clusters

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("c", [1, 2, 9])
    def test_matches_pixel_major_kernel(self, d, c, monkeypatch):
        # The (N, C, d) difference kernel that the cluster-major one replaced.
        emb, mask, clusters = self.multi_chunk_input(d, c, monkeypatch)
        rows = np.nonzero(mask.mask)[0]
        diff = emb.values[rows, None, :] - clusters.centers[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        soft = np.exp(-(dist - dist.min(axis=1, keepdims=True)))
        expected = np.zeros((emb.grid.n_pixels, c))
        expected[rows] = soft / soft.sum(axis=1, keepdims=True)
        sa = soft_assign(emb, mask, clusters)
        np.testing.assert_allclose(sa.weights, expected, rtol=0.0, atol=1e-12)
        oracle = hard_labels(SoftAssignment(emb.grid, expected))
        np.testing.assert_array_equal(hard_labels(sa).labels, oracle.labels)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("c", [1, 2, 9])
    def test_labels_are_argmax_of_weights(self, d, c, monkeypatch):
        # The span labels equal the argmax of the dense weights, whether
        # they are read before the weights or after them.
        emb, mask, clusters = self.multi_chunk_input(d, c, monkeypatch)
        first = soft_assign(emb, mask, clusters)
        labels = hard_labels(first).labels
        oracle = hard_labels(SoftAssignment(emb.grid, first.weights)).labels
        np.testing.assert_array_equal(labels, oracle)
        second = soft_assign(emb, mask, clusters)
        np.testing.assert_array_equal(second.weights, first.weights)
        np.testing.assert_array_equal(hard_labels(second).labels, oracle)

    def test_rounded_tie_goes_to_lower_cluster(self):
        # Center 2 is 1 ulp closer than center 1, but their softmax
        # weights round equal; the first largest weight wins, not the
        # smallest distance.
        emb, mask = embedding_fixture([[0.0]])
        centers = np.array([[-np.nextafter(0.5, 1.0)], [0.5], [2.0]])
        clusters = ClusterSet(centers, np.ones(3, dtype=np.int64))
        assert abs(centers[0, 0]) > abs(centers[1, 0])
        sa = soft_assign(emb, mask, clusters)
        assert hard_labels(sa).labels.tolist() == [1]
        assert sa.weights[0, 0] == sa.weights[0, 1]
        dense = hard_labels(SoftAssignment(emb.grid, sa.weights))
        assert dense.labels.tolist() == [1]

    def test_weights_are_built_once_and_read_only(self):
        emb, mask, _ = three_blob_input(n_per=20)
        clusters = ClusterSet(np.array([[1.0, 1.0], [4.0, 1.5]]), np.ones(2, dtype=np.int64))
        sa = soft_assign(emb, mask, clusters)
        assert sa.weights is sa.weights
        assert sa.labels is sa.labels
        np.testing.assert_array_equal(sa.assigned_rows, mask.mask)
        for array in (sa.assigned_rows, sa.weights, sa.labels):
            assert not array.flags.writeable
        with pytest.raises(AttributeError):
            sa.grid = emb.grid

    def test_peak_memory_is_one_weight_array_one_block_and_one_span(self):
        # 200k masked pixels, C = 8, d = 2. The weights are the block
        # scattered into one N x C array, frozen in place, and a reader
        # of the weights holds both; beyond them only one span's
        # scratch, the masked-pixel index and per-column check vectors
        # may be live. A frozen copy would add 16 MB, and an (N, C, d)
        # difference tensor alone 25.6 MB.
        grid = ImageGrid(500, 500)
        n, c, d = grid.n_pixels, 8, 2
        rng = np.random.default_rng(0)
        emb = EmbeddingMap(grid, rng.normal(size=(n, d)))
        mask = PlanarMask(grid, np.arange(n) < 200_000)
        clusters = ClusterSet(rng.normal(size=(c, d)), np.ones(c, dtype=np.int64))
        span = core._ASSIGN_SPAN
        weights = n * c * 8
        block = c * 200_000 * 8
        scratch = span * (c + d + 2) * 8 + 200_000 * 8 + 4 * n * 8
        tracemalloc.start()
        try:
            sa = soft_assign(emb, mask, clusters)
            sa.weights
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weights + block < peak <= weights + block + scratch
        assert "_member_block" in vars(sa)


class TestWeightBlock:
    """The cluster-major (C, M) block that soft pooling and
    ``instance_param_loss`` read instead of the dense weights."""

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("c", [1, 2, 9])
    def test_soft_assign_block_is_assigned_weights_transposed(self, d, c, monkeypatch):
        # Spans of 1000 write 3 strided column ranges of the block.
        emb, mask, clusters = TestSoftAssign.multi_chunk_input(d, c, monkeypatch)
        sa = soft_assign(emb, mask, clusters)
        block = sa._block
        assert block.flags.c_contiguous and not block.flags.writeable
        np.testing.assert_array_equal(block, sa.weights[mask.mask].T)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_cluster_block_is_assigned_weights_transposed(self, seed):
        grid = ImageGrid(48, 64)
        intr = CameraIntrinsics(fx=57.6, fy=57.6, cx=31.5, cy=23.5)
        scene = generate_scene(SceneSpec(grid=grid, intr=intr, plane_count=6, seed=seed))
        emb = generate_embeddings(
            scene, EmbeddingNoiseSpec(center_min_gap=1.5, sigma=0.2, seed=seed)
        )
        mask = PlanarMask(grid, corrupt_probability(scene, 0.05, seed=seed).probs >= 0.5)
        _, assignment = cluster(emb, mask)
        block = assignment._block
        np.testing.assert_array_equal(block, assignment.weights[mask.mask].T)
        onehot = one_hot_assignment(hard_labels(assignment))
        np.testing.assert_array_equal(onehot._block, onehot.weights[mask.mask].T)
        dense = SoftAssignment(grid, assignment.weights)
        np.testing.assert_array_equal(dense._block, block)

    @pytest.mark.parametrize(
        "producer", ["cluster", "soft_assign", "one_hot_assignment", "constructor"]
    )
    def test_block_and_labels_follow_the_weights(self, producer, monkeypatch):
        # One scene of about 2.9k masked pixels in spans of 1000, so every
        # array is built over 3 spans. Each producer's block is its
        # assigned weight rows transposed, and its labels the first
        # maximum of each weight row, bit for bit. The constructor's
        # weights carry ties: [0.5, 0.5] rows take label 1, and rows
        # split between clusters 2 and 4 take label 2.
        monkeypatch.setattr(core, "_ASSIGN_SPAN", 1000)
        grid = ImageGrid(48, 64)
        intr = CameraIntrinsics(fx=57.6, fy=57.6, cx=31.5, cy=23.5)
        scene = generate_scene(SceneSpec(grid=grid, intr=intr, plane_count=6, seed=3))
        emb = generate_embeddings(
            scene, EmbeddingNoiseSpec(center_min_gap=1.5, sigma=0.2, seed=3)
        )
        mask = PlanarMask(grid, corrupt_probability(scene, 0.05, seed=3).probs >= 0.5)
        assert mask.foreground_count > 2 * 1000
        clusters, assignment = cluster(emb, mask)
        assert len(clusters) >= 4
        if producer == "soft_assign":
            assignment = soft_assign(emb, mask, clusters)
        elif producer == "one_hot_assignment":
            assignment = one_hot_assignment(hard_labels(assignment))
        elif producer == "constructor":
            weights = assignment.weights.copy()
            rows = np.flatnonzero(mask.mask)
            weights[rows[::7]] = 0.0
            weights[rows[::7], :2] = 0.5
            weights[rows[3::7]] = 0.0
            weights[rows[3::7, None], [1, 3]] = 0.5
            assignment = SoftAssignment(grid, weights)
        weights, assigned = assignment.weights, assignment.assigned_rows
        first_max = (np.argmax(weights, axis=1) + 1) * assigned
        np.testing.assert_array_equal(assignment._block, weights[assigned].T)
        np.testing.assert_array_equal(assignment.labels, first_max)
        if producer == "constructor":
            assert (assignment.labels[rows[::7]] == 1).all()
            assert (assignment.labels[rows[3::7]] == 2).all()

    def test_training_path_peak_is_one_block_and_spans(self):
        # soft_assign -> soft pooling -> instance_param_loss on 250k
        # pixels, about half masked, C = 8, d = 2. The block is the one
        # array that lives through the path. Beyond it only the masked-pixel
        # index and span temporaries may be live: at most two spans of
        # instance_param_loss (one span's (C, span) residuals, signed
        # weights and gathered points, and the previous span's, which the
        # loop drops as it rebinds), more than one span of the span
        # kernel or of pooling takes. The dense weights alone are 16 MB.
        grid = ImageGrid(500, 500)
        n, c, d = grid.n_pixels, 8, 2
        rng = np.random.default_rng(0)
        emb = EmbeddingMap(grid, rng.normal(size=(n, d)))
        mask = PlanarMask(grid, rng.random(n) < 0.5)
        m = mask.foreground_count
        clusters = ClusterSet(rng.normal(size=(c, d)), np.ones(c, dtype=np.int64))
        params = PixelPlaneParams(grid, rng.normal(size=(n, 3)) + [0.0, 0.0, 2.0])
        points = PointMap(grid, rng.normal(size=(n, 3)) + [0.0, 0.0, 3.0])
        block = c * m * 8
        assert (2 * d + 2) * core._ASSIGN_SPAN <= 2 * (2 * c + 3) * core._BLOCK_SPAN
        scratch = m * 8 + 2 * (2 * c + 3) * core._BLOCK_SPAN * 8
        tracemalloc.start()
        try:
            assignment = soft_assign(emb, mask, clusters)
            pooled = pool_instance_params(params, assignment)
            instance_param_loss(pooled, assignment, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block < peak <= block + scratch < n * c * 8
        assert "_weights" not in vars(assignment)


class TestCluster:
    @pytest.mark.parametrize(
        "d, centers, members, sizes",
        [
            (1, [[2.856163795358119], [5.154927339099227], [8.05582935255071]],
             [3, 3, 3], [77, 191, 275, 225]),
            (3, [[2.8700610395292903, 0.5422337963521175, 3.8328441419370733],
                 [4.0870746685340285, 0.44784457707006364, 0.48996059822276683],
                 [8.040988560263829, 8.092029721282444, 5.162431985182549]],
             [17, 12, 13], [77, 275, 191, 225]),
        ],
    )
    def test_default_config_takes_the_embeddings_dimension(
        self, d, centers, members, sizes
    ):
        # frozen: the centers, merged anchor counts and label sizes that a
        # config stating dim=d gave, bit for bit
        grid = ImageGrid(24, 32)
        intr = CameraIntrinsics(fx=28.8, fy=28.8, cx=15.5, cy=11.5)
        scene = generate_scene(SceneSpec(grid=grid, intr=intr, plane_count=3, seed=5))
        emb = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.1, seed=5), dim=d)
        clusters, assignment = cluster(emb, scene.mask)
        assert clusters.centers.tolist() == centers
        assert clusters.member_anchor_counts.tolist() == members
        assert np.bincount(assignment.labels).tolist() == sizes
        np.testing.assert_array_equal(
            assignment.labels, soft_assign(emb, scene.mask, clusters).labels
        )

    def test_three_separated_blobs(self):
        emb, mask, labels = three_blob_input()
        clusters, assignment = cluster(emb, mask)
        assert len(clusters) == 3
        decoded = hard_labels(assignment).labels
        # same partition as the generator up to cluster numbering
        for gen_label in (1, 2, 3):
            block = decoded[labels == gen_label]
            assert np.unique(block).size == 1
        assert np.unique(decoded).size == 3

    def test_shifts_meet_a_quarter_of_the_fine_bins_or_fewer(self, monkeypatch):
        # A guard on counts, not times: on a 192x256, 16-plane scene drawn
        # as the benchmark's training workload draws it, every shift of
        # cluster meets moment cells, at most a quarter as many as the fine
        # bins (measured about a seventh), so a silent fallback to the fine
        # bins fails here and not only in timings.
        grid = ImageGrid(192, 256)
        intr = CameraIntrinsics(fx=230.4, fy=230.4, cx=127.5, cy=95.5)
        scene = generate_scene(SceneSpec(grid=grid, intr=intr, plane_count=16, seed=7))
        emb = generate_embeddings(
            scene, EmbeddingNoiseSpec(center_min_gap=1.5, sigma=0.2, seed=7)
        )
        mask = PlanarMask(grid, corrupt_probability(scene, 0.05, seed=7).probs >= 0.5)
        config = MeanShiftConfig()
        bins = binned_values(emb, mask, config)[2].shape[0]
        points = record_shift_points(monkeypatch)
        cluster(emb, mask, config)
        assert len(points) == config.iterations
        assert bins >= 10_000 and max(points) <= bins / 4

    def test_cached_values_free_their_builders(self):
        # The label builder holds the binning (box, centroids, counts and
        # each pixel's bin); once the labels are cached nothing may keep
        # it. The weights come from the column kernel, which holds no
        # binning, and are cached once beside the labels.
        emb, mask, _ = three_blob_input(n_per=20)
        _, assignment = cluster(emb, mask)
        inverse = weakref.ref(assignment._build_labels.args[0][3])
        first = assignment.labels
        assert assignment.labels is first
        assert not first.flags.writeable
        gc.collect()
        assert inverse() is None
        weights = assignment.weights
        assert assignment.weights is weights
        assert not weights.flags.writeable
        assert assignment._build_labels is None
        assert vars(assignment)["_weights"] is weights

    def test_identical_embeddings_single_cluster(self):
        emb, mask = embedding_fixture([[2.0, 2.0]] * 10)
        clusters, assignment = cluster(emb, mask)
        assert len(clusters) == 1
        np.testing.assert_array_equal(assignment.weights, np.ones((10, 1)))

    def test_matches_vanilla_labels(self):
        emb, mask, _ = three_blob_input(seed=7)
        _, fast_sa = cluster(emb, mask)
        _, van_sa = vanilla_mean_shift(emb, mask, bandwidth=0.5)
        np.testing.assert_array_equal(
            hard_labels(fast_sa).labels, hard_labels(van_sa).labels
        )

    def test_deterministic(self):
        emb, mask, _ = three_blob_input(seed=3)
        first, sa_first = cluster(emb, mask)
        second, sa_second = cluster(emb, mask)
        np.testing.assert_array_equal(first.centers, second.centers)
        np.testing.assert_array_equal(sa_first.weights, sa_second.weights)

    def test_pixel_permutation_equivariance(self):
        emb, mask, _ = three_blob_input(seed=11, n_per=50)
        rng = np.random.default_rng(0)
        perm = rng.permutation(emb.grid.n_pixels)
        emb_p = EmbeddingMap(emb.grid, emb.values[perm])
        _, sa = cluster(emb, mask)
        _, sa_p = cluster(emb_p, mask)
        # permuting pixels reorders the kernel sums, so weights agree to
        # rounding and the decoded labels agree exactly
        np.testing.assert_allclose(sa.weights[perm], sa_p.weights, atol=1e-12)
        np.testing.assert_array_equal(
            hard_labels(sa).labels[perm], hard_labels(sa_p).labels
        )

    def test_label_chain_peaks_below_one_weight_array(self):
        # cluster -> hard_labels -> one_hot_assignment -> pool_instance_params
        # at 500x500 with C = 8 carries labels only: its peak stays below
        # the 16 MB that one N x C float array would take.
        grid = ImageGrid(500, 500)
        n, c = grid.n_pixels, 8
        rng = np.random.default_rng(1)
        centers = np.stack([np.arange(c) * 2.0, np.arange(c) % 2 * 3.0], axis=1)
        truth = rng.integers(0, c, size=n)
        emb = EmbeddingMap(grid, centers[truth] + rng.normal(0.0, 0.05, size=(n, 2)))
        mask = PlanarMask(grid, np.ones(n, dtype=bool))
        params = PixelPlaneParams(grid, rng.normal(size=(n, 3)) + 2.0)
        tracemalloc.start()
        try:
            clusters, assignment = cluster(emb, mask)
            labels = hard_labels(assignment)
            pooled = pool_instance_params(params, one_hot_assignment(labels))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(clusters) == c and pooled.clusters == c
        assert peak < n * c * 8

    def test_cluster_labels_are_argmax_of_weights(self):
        emb, mask, _ = three_blob_input(seed=5)
        _, before = cluster(emb, mask)
        _, after = cluster(emb, mask)
        labels = hard_labels(before).labels
        oracle = hard_labels(SoftAssignment(emb.grid, after.weights)).labels
        np.testing.assert_array_equal(labels, oracle)
        np.testing.assert_array_equal(hard_labels(after).labels, oracle)
        np.testing.assert_array_equal(before.weights, after.weights)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_embeddings_just_below_the_bound_run_without_warnings(self, d):
        # Anchors and points at +-c on every axis: the expanded squared
        # distance of the shift sums to almost max_float but stays finite.
        limit = math.sqrt(np.finfo(np.float64).max / (4 * d))
        values = np.zeros((6, d))
        values[:2] = np.nextafter(limit, 0.0)
        values[2:4] = -values[0]
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(anchors_per_dim=2)
        runs = (lambda: cluster(emb, mask, config), lambda: vanilla_mean_shift(emb, mask, 0.5))
        for run in runs:
            clusters, assignment = run()
            assert len(clusters) >= 2
            assert np.isfinite(assignment.weights).all()

    @pytest.mark.parametrize("scale", [1.0, 2.0, 1e150])
    def test_embeddings_at_or_beyond_the_bound_rejected(self, scale):
        limit = math.sqrt(np.finfo(np.float64).max / 8.0)
        emb, mask = embedding_fixture([[0.0, 0.0], [-limit * scale, 0.0]])
        runs = (lambda: cluster(emb, mask), lambda: vanilla_mean_shift(emb, mask, 0.5))
        for run in runs:
            with pytest.raises(ValueError, match="masked embeddings must lie within"):
                run()

    def test_unmasked_huge_embeddings_are_ignored(self):
        emb, _ = embedding_fixture([[0.0, 0.0], [1e308, 1e308]])
        mask = PlanarMask(emb.grid, np.array([True, False]))
        clusters, _ = cluster(emb, mask)
        assert len(clusters) == 1


def count_fallback(monkeypatch):
    """Route the span kernel through a counter of the pixels it sees,
    span by span: while only labels are read, the binned labels' fallback
    pixels."""
    seen = []
    kernel = clustering._assign_span

    def counted(values, centers, rows, block):
        seen.append(rows.shape[0])
        kernel(values, centers, rows, block)

    monkeypatch.setattr(clustering, "_assign_span", counted)
    return seen


def oracle_labels(emb, mask, clusters):
    """The first-maximum labels of the span kernel over every pixel."""
    return soft_assign(emb, mask, clusters).labels


def binned_labels(values, centers, bandwidth=0.5):
    """The binned labels of every row of ``values`` against chosen
    centers, binned as :func:`cluster` bins them, and the span oracle's."""
    emb, mask = embedding_fixture(values)
    side = BIN_SIDE * bandwidth
    centers = np.asarray(centers, dtype=np.float64)
    columns = partial(clustering._assign_span, emb.values, centers)
    labels = _binned_labels(_bin_points(values.T, side), side, columns, mask.mask, centers)
    clusters = ClusterSet(centers, np.ones(centers.shape[0], dtype=np.int64))
    return labels, oracle_labels(emb, mask, clusters)


class TestBinnedLabels:
    """The labels of a :func:`cluster` assignment come a bin at a time
    and must equal the span kernel's first-maximum labels bit for bit."""

    @pytest.mark.parametrize("seed", [8101, 8202])
    def test_synth_scenes_match_span_oracle(self, seed, monkeypatch):
        # QVGA scenes drawn as the benchmark's inference workload draws
        # them at VGA; a handful of pixels near the bisectors fall back.
        grid = ImageGrid(192, 256)
        intr = CameraIntrinsics(fx=230.4, fy=230.4, cx=127.5, cy=95.5)
        scene = generate_scene(SceneSpec(grid=grid, intr=intr, plane_count=8, seed=seed))
        noise = EmbeddingNoiseSpec(center_min_gap=1.5, sigma=0.2, seed=seed)
        emb = generate_embeddings(scene, noise)
        mask = PlanarMask(grid, corrupt_probability(scene, 0.05, seed=seed).probs >= 0.5)
        seen = count_fallback(monkeypatch)
        clusters, assignment = cluster(emb, mask)
        labels = assignment.labels
        assert len(clusters) >= 2
        assert 0 < sum(seen) < 0.01 * mask.foreground_count
        np.testing.assert_array_equal(labels, oracle_labels(emb, mask, clusters))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 3),
        step=st.sampled_from([0.0125, 0.025, 0.1]),
        offset=st.sampled_from([0.0, 1e3, -1e6]),
    )
    def test_snapped_and_duplicated_embeddings_match_span_oracle(
        self, seed, d, step, offset
    ):
        # Coordinates on multiples of half a cell side and more sit on
        # cell edges; repeated rows pile up in one bin.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        values = offset + step * rng.integers(-40, 40, size=(n, d)).astype(np.float64)
        values = values[rng.integers(0, n, size=2 * n)]
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(anchors_per_dim=4, bandwidth=0.5, iterations=3)
        clusters, assignment = cluster(emb, mask, config)
        np.testing.assert_array_equal(assignment.labels, oracle_labels(emb, mask, clusters))

    def test_single_cluster(self, monkeypatch):
        emb, mask = embedding_fixture(np.random.default_rng(3).normal(1.0, 0.05, (200, 2)))
        seen = count_fallback(monkeypatch)
        clusters, assignment = cluster(emb, mask)
        assert len(clusters) == 1
        np.testing.assert_array_equal(assignment.labels, np.ones(200, dtype=np.int64))
        assert sum(seen) == 0
        labels, oracle = binned_labels(emb.values, [[40.0, -7.0]])
        np.testing.assert_array_equal(labels, oracle)

    def test_bisector_pixels_take_the_lower_cluster(self, monkeypatch):
        # Pixels on x = 0 are equidistant from (-1, 0) and (1, 0): equal
        # weights, so the first one, cluster 1, wins; their bins fall back.
        rng = np.random.default_rng(4)
        ys = rng.uniform(-2.0, 2.0, size=300)
        on_line = np.stack([np.zeros(300), ys], axis=1)
        around = rng.uniform(-2.0, 2.0, size=(300, 2))
        values = np.concatenate([on_line, around])
        seen = count_fallback(monkeypatch)
        labels, oracle = binned_labels(values, [[-1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(labels, oracle)
        assert (labels[:300] == 1).all()
        assert 300 <= seen[0] < 600

    def test_rounded_tie_goes_to_lower_cluster(self):
        # test_rounded_tie_goes_to_lower_cluster of the span path, through
        # the binned labeller: the weights of clusters 1 and 2 round equal.
        centers = [[-np.nextafter(0.5, 1.0)], [0.5], [2.0]]
        labels, oracle = binned_labels(np.array([[0.0]]), centers)
        assert labels.tolist() == oracle.tolist() == [1]

    def test_tiny_scale_falls_back_everywhere(self, monkeypatch):
        # Every distance lies far below the absolute floor of the bin
        # test, so no bin can be settled and every pixel runs the span
        # kernel, which still tells the clusters apart.
        rng = np.random.default_rng(5)
        noise = rng.normal(0.0, 1e-15, size=(200, 2))
        values = np.repeat([[-2e-13, 0.0], [2e-13, 0.0]], 100, axis=0) + noise
        emb, mask = embedding_fixture(values)
        seen = count_fallback(monkeypatch)
        config = MeanShiftConfig(bandwidth=1e-13)
        clusters, assignment = cluster(emb, mask, config)
        labels = assignment.labels
        assert len(clusters) == 2
        assert seen == [200]
        np.testing.assert_array_equal(labels, oracle_labels(emb, mask, clusters))
        assert np.unique(assignment.labels[:100]).size == 1

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("offset", [0.0, 1e6, -1e12])
    def test_members_lie_within_reach_of_their_centroid(self, dense, offset, monkeypatch):
        # Per cell, 499 copies of its first value and one of a value just
        # below its end, on each axis in turn: the centroid sits near one
        # end and the lone member about a side away. At -1e12 the sums
        # behind the centroids round by more than a side, which the
        # reach must still cover.
        monkeypatch.setattr(clustering, "_DENSE_KEYS_PER_POINT", 1000 if dense else 0)
        side = 0.025
        first = offset + side * np.arange(40.0)
        last = first + side
        for _ in range(4):  # step back past any rounding into the next cell
            last = np.nextafter(last, -np.inf)
        columns = [
            np.concatenate([np.repeat(first, 499), last]),
            np.concatenate([np.repeat(last, 499), first]),
        ]
        box, centroids, counts, inverse = _bin_points(columns, side)
        reach = _member_reach(box, counts, side)
        for column, centroid, h in zip(columns, centroids.T, reach):
            gap = np.abs(column - centroid[inverse])
            assert (gap <= h[inverse]).all()
            assert gap.max() > 0.99 * side
            assert abs(offset) > 1e6 or (h < 1.01 * side).all()
        assert counts.max() >= 499

    def test_decided_bins_settle_only_clear_nearest_centers(self):
        # One bin per unit cell at 0.5, 1.5, ...: side 1, so any member
        # lies within 1 of the centroid per axis and r = sqrt(2).
        centroids = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [0.0, 4.0]])
        box = (centroids.min(axis=0), centroids.max(axis=0))
        counts = np.ones(4)
        centers = np.array([[0.0, 0.0], [10.0, 0.0]])
        # (0, 0) and (10, 0) sit on a center; (5, 0) is equidistant;
        # (0, 4) is 4 from center 1 and sqrt(116) from center 2.
        np.testing.assert_array_equal(
            _decided_bins(box, centroids, counts, 1.0, centers), [1, 0, 2, 1]
        )
        np.testing.assert_array_equal(
            _decided_bins(box, centroids, counts, 1.0, centers[:1]), [1, 1, 1, 1]
        )

    def test_columns_do_not_depend_on_span_width(self):
        # numpy sums a lone column of C >= 8 rows pairwise but wider
        # blocks row by row; the span kernel adds its rows in order, so a
        # pixel's weights are the same in a one-pixel span.
        rng = np.random.default_rng(7)
        values = rng.normal(0.0, 2.0, size=(400, 2))
        centers = rng.normal(0.0, 2.0, size=(9, 2))
        rows = np.arange(400)
        block = np.empty((9, 400))
        _assign_span(values, centers, rows, block)
        for row in rows:
            column = np.empty((9, 1))
            _assign_span(values, centers, rows[row : row + 1], column)
            np.testing.assert_array_equal(column[:, 0], block[:, row])

    def test_reading_labels_holds_no_span_block(self):
        # 200k masked pixels of 16 blobs: reading the labels of a cluster
        # assignment holds the int64 labels, the masked-pixel index, the
        # gathered bin labels and their undecided mask, B x C distances
        # and per-bin vectors, and span scratch for the fallback's pixels
        # only. One (C, span) block of the span kernel would add 4.2 MB.
        grid = ImageGrid(500, 500)
        n, c = grid.n_pixels, 16
        m = 200_000
        rng = np.random.default_rng(8)
        centers = np.stack([np.arange(c) % 4 * 2.0, np.arange(c) // 4 * 2.0], axis=1)
        noise = rng.normal(0.0, 0.1, size=(n, 2))
        emb = EmbeddingMap(grid, centers[rng.integers(0, c, size=n)] + noise)
        mask = PlanarMask(grid, np.arange(n) < m)
        config = MeanShiftConfig()
        clusters, assignment = cluster(emb, mask, config)
        assert len(clusters) == c
        box, centroids, counts, inverse = binned_values(emb, mask, config)
        side = BIN_SIDE * config.bandwidth
        decided = _decided_bins(box, centroids, counts, side, clusters.centers)
        fallback = int((decided[inverse] == 0).sum())
        bins = counts.shape[0]
        allowed = 8 * n + 17 * m + 8 * bins * (c + 12) + 8 * fallback * (c + 8) + (1 << 16)
        span_block = 8 * c * core._ASSIGN_SPAN
        tracemalloc.start()
        try:
            assignment.labels
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fallback < 2000
        assert peak <= allowed < 8 * n + 8 * m + span_block


class TestVanilla:
    def test_single_point(self):
        emb, mask = embedding_fixture([[1.5, 2.5]])
        clusters, sa = vanilla_mean_shift(emb, mask, bandwidth=0.5)
        assert len(clusters) == 1
        np.testing.assert_allclose(clusters.centers, [[1.5, 2.5]], atol=1e-12)
        assert sa.weights[0, 0] == 1.0

    def test_two_far_points_stay_apart(self):
        emb, mask = embedding_fixture(np.array([[0.0], [1.5]]))
        clusters, _ = vanilla_mean_shift(emb, mask, bandwidth=0.5)
        assert len(clusters) == 2

    @pytest.mark.parametrize("bandwidth", [1e-12, 1e-18, 1e-154])
    def test_tiny_bandwidth_keeps_distinct_points_apart(self, bandwidth):
        # Mode keys of 1e18 and more must not wrap into one shared key.
        values = np.random.default_rng(0).standard_normal((20, 2))
        emb, mask = embedding_fixture(values)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="invalid value encountered in cast")
            clusters, _ = vanilla_mean_shift(emb, mask, bandwidth=bandwidth)
        assert len(clusters) == 20

    def test_validates_arguments(self):
        emb, mask = embedding_fixture([[0.0]])
        for bandwidth in (0.0, -0.5, 1e-300, 1e-160, math.inf, math.nan):
            with pytest.raises(ValueError, match="bandwidth must be > 0"):
                vanilla_mean_shift(emb, mask, bandwidth=bandwidth)
        with pytest.raises(ValueError):
            vanilla_mean_shift(emb, mask, bandwidth=0.5, max_iters=0)

    @pytest.mark.parametrize("max_iters", [2.5, 2.0, True, "3"])
    def test_max_iters_must_be_an_integer(self, max_iters):
        emb, mask = embedding_fixture([[0.0]])
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            vanilla_mean_shift(emb, mask, bandwidth=0.5, max_iters=max_iters)

    @pytest.mark.parametrize("tol", [math.nan, -1e-5, -math.inf])
    def test_tol_must_be_at_least_zero(self, tol):
        emb, mask = embedding_fixture([[0.0]])
        with pytest.raises(ValueError, match="tol must be >= 0"):
            vanilla_mean_shift(emb, mask, bandwidth=0.5, tol=tol)

    @pytest.mark.parametrize("tol, passes", [(0.0, 3), (math.inf, 1)])
    def test_tol_stops_the_passes(self, tol, passes, monkeypatch):
        calls = []
        shift = clustering._gaussian_shift
        monkeypatch.setattr(
            clustering, "_gaussian_shift", lambda *a: calls.append(1) or shift(*a)
        )
        emb, mask = embedding_fixture([[0.0], [0.1], [0.3]])
        vanilla_mean_shift(emb, mask, bandwidth=0.5, max_iters=np.int64(3), tol=tol)
        assert len(calls) == passes


class TestHardLabels:
    def grid_assignment(self, rows):
        weights = np.asarray(rows, dtype=np.float64)
        grid = ImageGrid(1, weights.shape[0])
        return SoftAssignment(grid, weights)

    def test_argmax(self):
        sa = self.grid_assignment([[0.7, 0.3]])
        assert hard_labels(sa).labels.tolist() == [1]

    def test_tie_goes_to_lowest_index(self):
        sa = self.grid_assignment([[0.5, 0.5]])
        assert hard_labels(sa).labels.tolist() == [1]

    def test_unassigned_pixel_gets_zero(self):
        sa = self.grid_assignment([[0.0, 0.0], [0.2, 0.8]])
        seg = hard_labels(sa)
        assert seg.labels.tolist() == [0, 2]
        assert seg.n_instances == 2

    def test_labels_are_handed_over_without_a_copy(self):
        # Every producer's labels are read-only int64 in 0..C, so the
        # segmentation takes them as they are, and they equal what the
        # checked constructor makes of them.
        emb, _, _ = three_blob_input(n_per=20)
        mask = PlanarMask(emb.grid, np.arange(emb.grid.n_pixels) % 7 != 0)
        clusters, from_cluster = cluster(emb, mask, MeanShiftConfig())
        from_soft = soft_assign(emb, mask, clusters)
        one_hot = one_hot_assignment(hard_labels(from_soft))
        constructed = SoftAssignment(emb.grid, from_soft.weights)
        for sa in (from_cluster, from_soft, one_hot, constructed):
            seg = hard_labels(sa)
            assert seg.labels is sa.labels
            assert not seg.labels.flags.writeable
            checked = InstanceSegmentation(sa.grid, np.array(sa.labels), sa.clusters)
            assert seg.labels.dtype == checked.labels.dtype == np.int64
            np.testing.assert_array_equal(seg.labels, checked.labels)
            assert (seg.grid, seg.n_instances) == (checked.grid, checked.n_instances)
            assert (seg.labels == 0).sum() == (~mask.mask).sum()
