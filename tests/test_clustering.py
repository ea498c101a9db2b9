"""Anchor-based mean shift and its per-pixel oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarseg import clustering
from planarseg.clustering import (
    BIN_SIDE,
    MAX_ANCHORS,
    ZERO_DENSITY,
    AnchorState,
    ClusterSet,
    MeanShiftConfig,
    UnionFind,
    cluster,
    filter_low_density,
    hard_labels,
    init_anchors,
    merge_anchors,
    shift_anchors,
    soft_assign,
    vanilla_mean_shift,
)
from planarseg.clustering import _bin_points, _gaussian_shift, _group_rows, _merge_union
from planarseg.core import (
    EmbeddingMap,
    ImageGrid,
    PixelPlaneParams,
    PlanarMask,
    SoftAssignment,
)
from planarseg.geometry import one_hot_assignment, pool_instance_params


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
    """Exact merge groups: union every pair closer than ``radius``, with
    differences taken before squaring."""
    oracle = UnionFind(positions.shape[0])
    for start in range(0, positions.shape[0], rows):
        diff = positions[start : start + rows, None, :] - positions[None, :, :]
        close = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) < radius
        for i, j in zip(*np.nonzero(close)):
            oracle.union(start + int(i), int(j))
    return sorted(map(sorted, oracle.groups()))


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
    def test_merge_radius_defaults_to_bandwidth(self):
        assert MeanShiftConfig(bandwidth=0.7).effective_merge_radius == 0.7
        assert MeanShiftConfig(merge_radius=0.3).effective_merge_radius == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"anchors_per_dim": 1},
            {"bandwidth": 0.0},
            {"iterations": 0},
            {"density_fraction": 1.0},
            {"density_fraction": -0.1},
            {"merge_radius": 0.0},
            {"dim": 0},
            {"bandwidth": -0.5},
            {"bandwidth": 1e-300},
            {"bandwidth": 1e-160},
            {"anchors_per_dim": 100_000},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            MeanShiftConfig(**kwargs)

    def test_anchor_grid_bound(self):
        assert MAX_ANCHORS == 2**20
        MeanShiftConfig(anchors_per_dim=2, dim=20)
        MeanShiftConfig(anchors_per_dim=MAX_ANCHORS, dim=1)
        for k, d in [(2, 21), (MAX_ANCHORS + 1, 1), (10, 8), (10**400, 20), (3, 10**9)]:
            with pytest.raises(ValueError, match=r"anchors_per_dim \*\* dim must be <="):
                MeanShiftConfig(anchors_per_dim=k, dim=d)


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
        for bandwidth in (0.0, -0.5, 1e-300, 1e-160):
            with pytest.raises(ValueError, match=f"bandwidth must be > 0.*got {bandwidth!r}"):
                vanilla_mean_shift(emb, mask, bandwidth)


class TestInitAnchors:
    def test_corner_grid(self):
        emb, mask = embedding_fixture([[0, 0], [1, 0], [0, 1], [1, 1]])
        state = init_anchors(emb, mask, MeanShiftConfig(anchors_per_dim=2))
        expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        assert {tuple(p) for p in state.positions} == expected

    def test_zero_extent_box_collapses(self):
        emb, mask = embedding_fixture([[2.5, -1.0]] * 5)
        state = init_anchors(emb, mask, MeanShiftConfig(anchors_per_dim=3))
        assert len(state) == 9
        np.testing.assert_allclose(state.positions, [[2.5, -1.0]] * 9)

    def test_default_anchor_count(self):
        emb, mask, _ = three_blob_input()
        state = init_anchors(emb, mask, MeanShiftConfig())
        assert len(state) == 100

    def test_masked_pixels_ignored(self):
        emb, _ = embedding_fixture([[0, 0], [1, 1], [100, 100]])
        mask = PlanarMask(emb.grid, np.array([True, True, False]))
        state = init_anchors(emb, mask, MeanShiftConfig(anchors_per_dim=2))
        assert state.positions.max() == 1.0

    def test_empty_mask_rejected(self):
        emb, _ = embedding_fixture([[0, 0], [1, 1]])
        mask = PlanarMask(emb.grid, np.zeros(2, dtype=bool))
        with pytest.raises(ValueError, match="no planar pixels"):
            init_anchors(emb, mask, MeanShiftConfig())

    def test_dim_mismatch_rejected(self):
        emb, mask = embedding_fixture([[0, 0], [1, 1]])
        with pytest.raises(ValueError, match="dim"):
            init_anchors(emb, mask, MeanShiftConfig(dim=3))

    @pytest.mark.parametrize(
        "d, flat_axis, target",
        [(1, None, None), (2, None, None), (3, None, None), (3, 1, None), (3, None, 90)],
    )
    def test_separable_densities_match_gaussian_shift(
        self, d, flat_axis, target, monkeypatch
    ):
        # The grid densities come from per-axis factor tables; the shift
        # kernel sums the same weighted Gaussians at the same positions.
        # A 90-float chunk target holds 7 but not 7^2 rows, so the first
        # axis is looped over, two points per span.
        if target is not None:
            monkeypatch.setattr(clustering, "_CHUNK_TARGET", target)
        rng = np.random.default_rng(20 + d)
        values = rng.uniform(0.0, 2.0, size=(3000, d))
        values[1500:] = values[:1500] + 1e-4  # shared bins, counts > 1
        if flat_axis is not None:
            values[:, flat_axis] = 0.7
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(anchors_per_dim=7, dim=d, bandwidth=0.5)
        _, centroids, counts = _bin_points(values.T, BIN_SIDE * config.bandwidth)
        assert counts.max() >= 2
        state = init_anchors(emb, mask, config)
        _, expected = _gaussian_shift(state.positions, centroids, 0.5, weights=counts)
        np.testing.assert_allclose(state.densities, expected, rtol=1e-13, atol=0.0)

    def test_separable_contraction_stays_within_chunk_target(self):
        # d = 4, k = 10 against ~25k bins: the outer product of the first
        # three axes' tables over every bin would be 1000 x 25k floats
        # (200 MB). One span's tables and products stay within
        # _CHUNK_TARGET floats; beyond them only the k^d-row positions
        # (grid, mesh and frozen copy) and the O(N d) columns, keys and
        # bins may be live.
        n, d, k = 25_000, 4, 10
        values = np.random.default_rng(6).uniform(0.0, 1.0, size=(n, d))
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(anchors_per_dim=k, dim=d, bandwidth=0.5)
        tracemalloc.start()
        try:
            state = init_anchors(emb, mask, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _, _, counts = _bin_points(values.T, BIN_SIDE * config.bandwidth)
        assert counts.shape[0] >= 20_000 and len(state) == k**d
        assert peak <= 8 * (clustering._CHUNK_TARGET + 4 * k**d * d + 4 * n * d)


class TestShiftAnchors:
    def test_single_point_fixed_point(self):
        emb, mask = embedding_fixture([[3.0, -2.0]])
        state = AnchorState(np.array([[10.0, 10.0]]), np.array([1.0]))
        shifted = shift_anchors(state, emb, mask, MeanShiftConfig())
        np.testing.assert_allclose(shifted.positions, [[3.0, -2.0]], atol=1e-12)

    def test_symmetric_mode_is_stationary(self):
        emb, mask = embedding_fixture([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        state = AnchorState(np.array([[0.0, 0.0]]), np.array([1.0]))
        shifted = shift_anchors(state, emb, mask, MeanShiftConfig())
        np.testing.assert_allclose(shifted.positions, [[0.0, 0.0]], atol=1e-12)

    def test_equal_weights_stay_centered(self):
        # frozen: embeddings at 0 and 1 give equal kernel weights at 0.5
        emb, mask = embedding_fixture(np.array([[0.0], [1.0]]))
        state = AnchorState(np.array([[0.5]]), np.array([1.0]))
        config = MeanShiftConfig(dim=1, bandwidth=0.5)
        shifted = shift_anchors(state, emb, mask, config)
        np.testing.assert_allclose(shifted.positions, [[0.5]], atol=1e-12)

    def test_zero_density_anchor_stays(self):
        # kernel underflows at ~27 bandwidths: anchor must not move or NaN
        emb, mask = embedding_fixture([[0.0, 0.0]])
        state = AnchorState(np.array([[50.0, 50.0]]), np.array([0.0]))
        shifted = shift_anchors(state, emb, mask, MeanShiftConfig(bandwidth=0.5))
        np.testing.assert_array_equal(shifted.positions, [[50.0, 50.0]])
        assert shifted.densities[0] == 0.0

    def test_densities_match_potential_sums(self):
        emb, mask = embedding_fixture([[0.0, 0.0], [1.0, 0.0]])
        state = AnchorState(np.array([[0.25, 0.0]]), np.array([0.0]))
        config = MeanShiftConfig(bandwidth=0.5)
        shifted = shift_anchors(state, emb, mask, config)
        expected = pairwise_potential(
            state.positions[0], emb.values[0], 0.5
        ) + pairwise_potential(state.positions[0], emb.values[1], 0.5)
        assert shifted.densities[0] == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_contraction_into_bounding_box(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-5.0, 5.0, size=(40, 2))
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(anchors_per_dim=4, bandwidth=1.0)
        state = init_anchors(emb, mask, config)
        for _ in range(3):
            state = shift_anchors(state, emb, mask, config)
            assert np.all(state.positions >= values.min(axis=0) - 1e-12)
            assert np.all(state.positions <= values.max(axis=0) + 1e-12)


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
        out, dens = _gaussian_shift(seeds, points, 0.5, weights=weights)
        expected, expected_dens = reference_shift(seeds, points, 0.5, weights)
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(dens, expected_dens, rtol=1e-12, atol=0.0)
        assert dens[-1] == 0.0 and dens[:-1].min() > 0.0
        np.testing.assert_array_equal(out[-1], seeds[-1])


def anchor_grid(values, k=10):
    lo, hi = values.min(axis=0), values.max(axis=0)
    axes = [np.linspace(lo[a], hi[a], k) for a in range(values.shape[1])]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, values.shape[1])


class TestBinning:
    def test_shift_error_is_second_order_in_cell_side(self):
        # Each cell's centroid cancels the first-order term of the kernel's
        # Taylor expansion, so the binned step moves anchors by O(c^2 * b)
        # against the exact per-pixel step. Stated bound: c^2 * b / 4 on
        # positions (measured 0.05-0.15 c^2 * b) and c^2 / 2 relative on
        # densities (measured 0.06-0.16 c^2); halving c must at least halve
        # the position error.
        rng = np.random.default_rng(0)
        centers = np.array([[1.0, 1.0], [4.0, 1.5], [2.5, 5.0], [2.6, 2.4]])
        values = np.concatenate(
            [c + rng.normal(0.0, 0.2, size=(3000, 2)) for c in centers]
            + [rng.uniform(0.0, 6.0, size=(600, 2))]
        )
        b = 0.5
        anchors = anchor_grid(values)
        exact, exact_dens = _gaussian_shift(anchors, values, b)
        errors = []
        for c in (0.1, 0.05, 0.025):
            _, centroids, counts = _bin_points(values.T, c * b)
            assert centroids.shape[0] < values.shape[0]
            binned, binned_dens = _gaussian_shift(anchors, centroids, b, weights=counts)
            error = np.abs(binned - exact).max()
            assert error <= c * c * b / 4.0
            assert np.max(np.abs(binned_dens - exact_dens) / exact_dens) <= c * c / 2.0
            errors.append(error)
        assert errors[1] <= errors[0] / 2.0
        assert errors[2] <= errors[1] / 2.0

    def test_exact_when_every_point_sits_alone(self):
        # Points at least 0.2 apart never share a cell of side 0.025, so each
        # centroid is its point and each weight is 1: only the summation
        # order differs from the exact per-pixel step.
        rng = np.random.default_rng(1)
        lattice = np.stack(np.meshgrid(np.arange(12), np.arange(9), indexing="ij"), -1)
        values = 0.3 * lattice.reshape(-1, 2) + rng.uniform(-0.05, 0.05, size=(108, 2))
        emb, mask = embedding_fixture(values)
        config = MeanShiftConfig(bandwidth=0.5)
        _, centroids, counts = _bin_points(values.T, BIN_SIDE * config.bandwidth)
        np.testing.assert_array_equal(counts, np.ones(108))
        np.testing.assert_array_equal(
            centroids[np.lexsort(centroids.T)], values[np.lexsort(values.T)]
        )
        state = init_anchors(emb, mask, config)
        exact, exact_dens = _gaussian_shift(state.positions, values, config.bandwidth)
        np.testing.assert_allclose(state.densities, exact_dens, rtol=1e-12)
        shifted = shift_anchors(state, emb, mask, config)
        np.testing.assert_allclose(shifted.positions, exact, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(shifted.densities, exact_dens, rtol=1e-12)

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
            box, _, _ = _bin_points(values.T, 0.025)
            cells = np.prod(np.floor((box[1] - box[0]) / 0.025) + 1.0)
            assert (4 * 2000 < cells <= 8 * 2000) == dense_by_default
            monkeypatch.setattr(clustering, "_DENSE_KEYS_PER_POINT", 0)
            _, *sparse = _bin_points(values.T, 0.025)
            monkeypatch.setattr(clustering, "_DENSE_KEYS_PER_POINT", 1000)
            _, *dense = _bin_points(values.T, 0.025)
            monkeypatch.undo()
            np.testing.assert_array_equal(sparse[0], dense[0])
            np.testing.assert_array_equal(sparse[1], dense[1])
            assert sparse[1].sum() == 2000 and sparse[1].max() >= 2

    def test_key_space_beyond_int64_bins_by_sorting(self):
        # 8 axes of ~4e7 cells: the key space (~1e61) overflows int64.
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1e6, size=(300, 8))
        values[150:] = values[:150] + 1e-3
        _, centroids, counts = _bin_points(values.T, 0.025)
        keys = np.floor((values - values.min(axis=0)) / 0.025)
        groups = {}
        for key, row in zip(map(tuple, keys), values):
            groups.setdefault(key, []).append(row)
        assert counts.tolist() == [len(groups[k]) for k in sorted(groups)]
        np.testing.assert_allclose(
            centroids, [np.mean(groups[k], axis=0) for k in sorted(groups)], rtol=1e-15
        )


class TestFilterLowDensity:
    def test_zero_fraction_keeps_all(self):
        state = AnchorState(np.zeros((3, 2)), np.array([5.0, 1.0, 0.0]))
        kept = filter_low_density(state, MeanShiftConfig(density_fraction=0.0))
        assert len(kept) == 3

    def test_uniform_densities_survive(self):
        state = AnchorState(np.zeros((4, 2)), np.full(4, 2.0))
        kept = filter_low_density(state, MeanShiftConfig(density_fraction=0.9))
        assert len(kept) == 4

    def test_threshold_arithmetic(self):
        # frozen: densities (10, 1) with fraction 0.5 keep only the first
        state = AnchorState(np.array([[0.0], [1.0]]), np.array([10.0, 1.0]))
        kept = filter_low_density(state, MeanShiftConfig(density_fraction=0.5))
        assert len(kept) == 1
        assert kept.positions[0, 0] == 0.0

    def test_max_density_anchor_always_survives(self):
        state = AnchorState(np.array([[0.0], [1.0]]), np.array([3.0, 1.0]))
        kept = filter_low_density(state, MeanShiftConfig(density_fraction=0.99))
        assert len(kept) >= 1
        assert 0.0 in kept.positions


class TestMergeAnchors:
    def test_single_component_mean(self):
        state = AnchorState(np.array([[0.0], [0.2], [0.4]]), np.ones(3))
        merged = merge_anchors(state, MeanShiftConfig(dim=1, bandwidth=0.5))
        assert len(merged) == 1
        assert merged.centers[0, 0] == pytest.approx(0.2)
        assert merged.member_anchor_counts.tolist() == [3]

    def test_distance_two_bandwidths_stays_split(self):
        state = AnchorState(np.array([[0.0], [1.0]]), np.ones(2))
        merged = merge_anchors(state, MeanShiftConfig(dim=1, bandwidth=0.5))
        assert len(merged) == 2

    def test_chain_merges_transitively(self):
        # frozen: chain 0, 0.4, 0.8 under radius 0.5 is one component at 0.4
        state = AnchorState(np.array([[0.0], [0.4], [0.8]]), np.ones(3))
        merged = merge_anchors(state, MeanShiftConfig(dim=1, bandwidth=0.5))
        assert len(merged) == 1
        assert merged.centers[0, 0] == pytest.approx(0.4)

    def test_exact_radius_does_not_merge(self):
        state = AnchorState(np.array([[0.0], [0.5]]), np.ones(2))
        merged = merge_anchors(state, MeanShiftConfig(dim=1, bandwidth=0.5))
        assert len(merged) == 2

    def test_centers_sorted_lexicographically(self):
        state = AnchorState(np.array([[5.0, 0.0], [1.0, 2.0], [1.0, 1.0]]), np.ones(3))
        merged = merge_anchors(state, MeanShiftConfig(bandwidth=0.5))
        assert merged.centers.tolist() == [[1.0, 1.0], [1.0, 2.0], [5.0, 0.0]]


class TestUnionFind:
    def test_transitive_closure(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)

    def test_groups_order(self):
        uf = UnionFind(5)
        uf.union(3, 4)
        uf.union(0, 2)
        groups = uf.groups()
        assert sorted(map(sorted, groups)) == [[0, 2], [1], [3, 4]]


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
        # 3000 points take the spatial-hash path of _merge_union. Their cell
        # keys near 1e154 overflowed the old int64 cast into one shared key.
        base = np.random.default_rng(5).standard_normal((1500, 2))
        positions = np.concatenate([base, base])
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="invalid value encountered in cast")
            groups = _merge_union(positions, 1e-154).groups()
        assert sorted(map(sorted, groups)) == [[i, i + 1500] for i in range(1500)]

    def test_overflowing_hash_keys_fall_back_to_pairwise(self):
        # At radius 1e-320 the hash cell is subnormal and every key in
        # [1, 2]^2 overflows to inf; one shared inf key once merged all
        # 3000 anchors into one cluster. Only exact duplicates are closer.
        base = np.random.default_rng(8).uniform(1.0, 2.0, size=(2000, 2))
        positions = np.concatenate([base, base[:1000]])
        radius = 1e-320
        oracle = pairwise_groups(positions, radius)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            groups = _merge_union(positions, radius).groups()
            merged = merge_anchors(
                AnchorState(positions, np.ones(3000)), MeanShiftConfig(merge_radius=radius)
            )
        assert sorted(map(sorted, groups)) == oracle
        assert len(merged) == len(oracle) == 2000

    @pytest.mark.parametrize("radius", [1e-6, 1e-8, 1e-10])
    def test_spatial_hash_pair_check_keeps_tiny_gaps(self, radius):
        # 2100 points, 1.5 radii apart along x at y = 1: no pair is within
        # the radius. The cross-cell check once expanded |a|^2 + |b|^2 - 2ab,
        # whose rounding near 1 (about 1e-16) exceeds r^2 below r ~ 1e-8,
        # and merged them into 759 groups at 1e-8 and 310 at 1e-10.
        x = 1.0 + 1.5 * radius * np.arange(2100)
        positions = np.stack([x, np.ones(2100)], axis=1)
        oracle = pairwise_groups(positions, radius)
        assert sorted(map(sorted, _merge_union(positions, radius).groups())) == oracle
        assert len(oracle) == 2100


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
        monkeypatch.setattr(clustering, "_ASSIGN_SPAN", 1000)
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

    def test_peak_memory_is_one_weight_array_and_one_span(self):
        # 200k masked pixels, C = 8, d = 2. The built weights are one
        # N x C array, frozen in place; beyond it only one span's
        # scratch, the masked-pixel index and per-row check vectors may
        # be live. A frozen copy would add 16 MB, and an (N, C, d)
        # difference tensor alone 25.6 MB.
        grid = ImageGrid(500, 500)
        n, c, d = grid.n_pixels, 8, 2
        rng = np.random.default_rng(0)
        emb = EmbeddingMap(grid, rng.normal(size=(n, d)))
        mask = PlanarMask(grid, np.arange(n) < 200_000)
        clusters = ClusterSet(rng.normal(size=(c, d)), np.ones(c, dtype=np.int64))
        span = clustering._ASSIGN_SPAN
        weights = n * c * 8
        scratch = span * (c + d + 2) * 8 + 200_000 * 8 + 4 * n * 8
        tracemalloc.start()
        try:
            soft_assign(emb, mask, clusters).weights
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weights < peak <= weights + scratch


class TestCluster:
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

    def test_early_exit_matches_full_run_on_converged_input(self):
        emb, mask, _ = three_blob_input(seed=2)
        full, _ = cluster(emb, mask, MeanShiftConfig(iterations=30))
        short, _ = cluster(emb, mask, MeanShiftConfig(iterations=30, early_exit=True))
        np.testing.assert_allclose(full.centers, short.centers, atol=1e-4)


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
        for bandwidth in (0.0, -0.5, 1e-300, 1e-160):
            with pytest.raises(ValueError, match="bandwidth must be > 0"):
                vanilla_mean_shift(emb, mask, bandwidth=bandwidth)
        with pytest.raises(ValueError):
            vanilla_mean_shift(emb, mask, bandwidth=0.5, max_iters=0)


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
