"""Domain type construction, validation, and immutability."""

import numpy as np
import pytest

from planarseg import core
from planarseg.core import (
    CameraIntrinsics,
    DepthMap,
    EmbeddingMap,
    ImageGrid,
    InstanceSegmentation,
    LossReport,
    PixelPlaneParams,
    PlanarMask,
    PlanarProbabilityMap,
    PlaneInstanceParams,
    PointMap,
    SoftAssignment,
)

GRID = ImageGrid(2, 3)


class TestImageGrid:
    def test_pixel_count(self):
        assert ImageGrid(192, 256).n_pixels == 49152

    @pytest.mark.parametrize("h,w", [(0, 4), (4, 0), (-1, 2)])
    def test_rejects_degenerate(self, h, w):
        with pytest.raises(ValueError):
            ImageGrid(h, w)


class TestEmbeddingMap:
    def test_accepts_and_freezes(self):
        emb = EmbeddingMap(GRID, np.zeros((6, 2)))
        assert emb.dim == 2
        assert not emb.values.flags.writeable

    def test_widens_float32(self):
        emb = EmbeddingMap(GRID, np.zeros((6, 2), dtype=np.float32))
        assert emb.values.dtype == np.float64

    def test_rejects_wrong_rows(self):
        with pytest.raises(ValueError, match="shape"):
            EmbeddingMap(GRID, np.zeros((5, 2)))

    def test_rejects_nonfinite(self):
        values = np.zeros((6, 2))
        values[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            EmbeddingMap(GRID, values)

    def test_input_mutation_does_not_leak(self):
        source = np.zeros((6, 2))
        emb = EmbeddingMap(GRID, source)
        source[0, 0] = 99.0
        assert emb.values[0, 0] == 0.0


class TestProbabilityAndMask:
    def test_probability_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PlanarProbabilityMap(GRID, np.full(6, 1.5))

    def test_mask_counts(self):
        mask = PlanarMask(GRID, np.array([1, 1, 0, 0, 0, 1], dtype=bool))
        assert mask.foreground_count == 3


class TestInstanceSegmentation:
    def test_infers_count(self):
        seg = InstanceSegmentation(GRID, np.array([0, 1, 1, 2, 2, 2]))
        assert seg.n_instances == 2

    def test_explicit_count_allows_empty_instance(self):
        seg = InstanceSegmentation(GRID, np.array([0, 1, 1, 1, 3, 3]), 3)
        assert seg.n_instances == 3

    def test_rejects_count_below_max_label(self):
        with pytest.raises(ValueError, match="below max label"):
            InstanceSegmentation(GRID, np.array([0, 1, 1, 2, 2, 2]), 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            InstanceSegmentation(GRID, np.array([0, -1, 1, 2, 2, 2]))

    def test_planar_mask(self):
        seg = InstanceSegmentation(GRID, np.array([0, 1, 1, 2, 0, 2]))
        assert seg.planar_mask.mask.tolist() == [False, True, True, True, False, True]


class TestSoftAssignment:
    def test_rows_sum_to_one_or_zero(self):
        weights = np.zeros((6, 2))
        weights[0] = [0.25, 0.75]
        sa = SoftAssignment(GRID, weights)
        assert sa.clusters == 2
        assert sa.assigned_rows.tolist() == [True] + [False] * 5

    def test_rejects_partial_rows(self):
        weights = np.zeros((6, 2))
        weights[0] = [0.25, 0.25]
        with pytest.raises(ValueError, match="sum to 1"):
            SoftAssignment(GRID, weights)

    def test_rejects_out_of_range(self):
        weights = np.zeros((6, 2))
        weights[0] = [1.5, -0.5]
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SoftAssignment(GRID, weights)

    def test_assigned_rows_match_row_sums_and_are_read_only(self):
        rng = np.random.default_rng(0)
        for c in (1, 3, 8):
            weights = rng.random((500, c))
            weights /= weights.sum(axis=1, keepdims=True)
            weights[rng.random(500) < 0.3] = 0.0
            sa = SoftAssignment(ImageGrid(20, 25), weights)
            np.testing.assert_array_equal(sa.assigned_rows, sa.weights.sum(axis=1) > 0)
            assert not sa.assigned_rows.flags.writeable
            with pytest.raises(ValueError):
                sa.assigned_rows[0] = not sa.assigned_rows[0]

    @pytest.mark.parametrize(
        "row, message",
        [
            ([np.nan, 0.5], "sum to 1"),
            # these two sum to 1 within the tolerance; only the range check fails
            ([-5e-10, 1.0], r"\[0, 1\]"),
            ([1.0 + 5e-10, 0.0], r"\[0, 1\]"),
            ([0.5, 0.5 + 2e-9], "sum to 1"),
            ([0.5, 0.5 - 2e-9], "sum to 1"),
        ],
    )
    def test_rejects_invalid_rows(self, row, message):
        weights = np.zeros((6, 2))
        weights[[0, 4]] = [0.25, 0.75]
        weights[2] = row
        with pytest.raises(ValueError, match=message):
            SoftAssignment(GRID, weights)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([np.nan, 0.5], "sum to 1"),
            ([-5e-10, 1.0], r"\[0, 1\]"),
            ([1.0 + 5e-10, 0.0], r"\[0, 1\]"),
            ([0.5, 0.5 + 2e-9], "sum to 1"),
            ([0.5, 0.5 - 2e-9], "sum to 1"),
            ([0.0, 0.0], "sum to 1"),  # an assigned column must not be empty
        ],
    )
    def test_built_block_is_checked_like_rows(self, row, message):
        # A block built from a producer's column kernel passes the rules
        # of constructor weights, with the same messages and the range
        # checked first.
        weights = np.zeros((6, 2))
        weights[[0, 4]] = [0.25, 0.75]
        weights[2] = row
        assigned = np.array([True, False, True, False, True, False])
        assigned.flags.writeable = False

        def columns(rows, out):
            out[...] = weights[rows].T

        sa = SoftAssignment._from_source(GRID, 2, assigned, columns)
        with pytest.raises(ValueError, match=message):
            sa._block

    def test_block_is_the_assigned_rows_transposed(self):
        # Column j of the (C, M) block is row flatnonzero(assigned)[j] of
        # the weights, bit for bit; it is C-ordered, read-only and cached.
        rng = np.random.default_rng(3)
        grid = ImageGrid(20, 25)
        for c in (1, 3, 8):
            weights = rng.random((500, c))
            weights /= weights.sum(axis=1, keepdims=True)
            weights[rng.random(500) < 0.3] = 0.0
            sa = SoftAssignment(grid, weights)
            block = sa._block
            assert block is sa._block
            assert block.flags.c_contiguous and not block.flags.writeable
            assert block.dtype == np.float64 and block.shape == (c, sa.assigned_rows.sum())
            np.testing.assert_array_equal(block, sa.weights[sa.assigned_rows].T)

    def test_block_spans_cover_the_block_in_pixel_order(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_SPAN", 3)
        weights = np.zeros((6, 2))
        weights[[0, 2, 3, 5]] = [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.25, 0.75]]
        sa = SoftAssignment(GRID, weights)
        spans = list(sa._block_spans())
        assert [rows.tolist() for rows, _ in spans] == [[0, 2, 3], [5]]
        np.testing.assert_array_equal(
            np.concatenate([block for _, block in spans], axis=1), weights[[0, 2, 3, 5]].T
        )


class TestParams:
    def test_pixel_params_shape(self):
        with pytest.raises(ValueError, match="shape"):
            PixelPlaneParams(GRID, np.zeros((6, 2)))

    def test_instance_params_norm_floor(self):
        with pytest.raises(ValueError, match="norm"):
            PlaneInstanceParams(np.array([[0.0, 0.0, 1e-7]]))

    def test_instance_params_clusters(self):
        assert PlaneInstanceParams(np.eye(3)).clusters == 3


class TestDepthAndPoints:
    def test_invalid_depth_normalized_to_zero(self):
        depth = DepthMap(GRID, np.full(6, 2.0), np.array([1, 1, 1, 0, 1, 1], dtype=bool))
        assert depth.depth[3] == 0.0
        assert depth.depth[0] == 2.0

    def test_rejects_nonpositive_valid_depth(self):
        with pytest.raises(ValueError, match="> 0"):
            DepthMap(GRID, np.array([1.0, 0.0, 1, 1, 1, 1]))

    def test_default_validity_all_true(self):
        assert DepthMap(GRID, np.ones(6)).validity.all()

    def test_invalid_points_zeroed(self):
        points = np.ones((6, 3))
        pm = PointMap(GRID, points, np.array([1, 0, 1, 1, 1, 1], dtype=bool))
        assert pm.points[1].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.0])
    def test_only_valid_depths_are_checked(self, bad):
        validity = np.array([1, 0, 1, 1, 1, 1], dtype=bool)
        depth = np.full(6, 2.0)
        depth[1] = bad
        assert DepthMap(GRID, depth, validity).depth[1] == 0.0
        with pytest.raises(ValueError, match="finite and > 0"):
            DepthMap(GRID, depth)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_only_valid_points_are_checked(self, bad):
        validity = np.array([1, 0, 1, 1, 1, 1], dtype=bool)
        points = np.ones((6, 3))
        points[1, 2] = bad
        assert PointMap(GRID, points, validity).points[1].tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="finite"):
            PointMap(GRID, points)


class TestCameraIntrinsics:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError, match="focal"):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)


class TestLossReport:
    def test_consistent_report(self):
        report = LossReport(
            l_s=1.0, l_pull=0.5, l_push=0.25, l_e=0.75, l_pp=0.1, l_ip=0.2, total=2.05
        )
        assert report.total == pytest.approx(2.05)

    def test_rejects_broken_sum(self):
        with pytest.raises(ValueError, match="total"):
            LossReport(
                l_s=1.0, l_pull=0.5, l_push=0.25, l_e=0.75, l_pp=0.1, l_ip=0.2, total=3.0
            )

    def test_rejects_broken_embedding_sum(self):
        with pytest.raises(ValueError, match="l_pull"):
            LossReport(
                l_s=1.0, l_pull=0.5, l_push=0.25, l_e=0.9, l_pp=0.1, l_ip=0.2, total=2.2
            )

    def test_rejects_negative_component(self):
        with pytest.raises(ValueError):
            LossReport(
                l_s=-1.0, l_pull=0.0, l_push=0.0, l_e=0.0, l_pp=0.0, l_ip=0.0, total=-1.0
            )
