"""Domain type construction, validation, and immutability."""

import tracemalloc

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

    @pytest.mark.parametrize(
        "h, w, field",
        [
            (2.5, 3, "height"),
            (2, 3.0, "width"),
            (np.float64(2), 3, "height"),
            (True, 3, "height"),
            (2, np.True_, "width"),
            (2, "3", "width"),
        ],
    )
    def test_rejects_non_integers(self, h, w, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ImageGrid(h, w)

    def test_accepts_numpy_integers_as_ints(self):
        # numpy dimensions would wrap in the product
        for side in (np.int32(50_000), np.uint16(50_000)):
            grid = ImageGrid(side, side)
            assert grid.n_pixels == 2_500_000_000 and type(grid.n_pixels) is int
            assert grid == ImageGrid(50_000, 50_000)


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

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3), True, np.True_, "3"])
    def test_rejects_a_non_integer_count(self, count):
        with pytest.raises(ValueError, match="n_instances must be an integer"):
            InstanceSegmentation(GRID, np.array([0, 1, 1, 0, 0, 1]), count)

    def test_accepts_a_numpy_integer_count(self):
        seg = InstanceSegmentation(GRID, np.array([0, 1, 1, 0, 0, 1]), np.int32(3))
        assert seg.n_instances == 3 and type(seg.n_instances) is int

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

    def test_constructor_builds_the_block_from_the_input(self):
        # The constructor copies the assigned rows into the block at once
        # and keeps nothing else; the dense weights are the block
        # scattered on first read, and give back the input bit for bit.
        rng = np.random.default_rng(4)
        grid = ImageGrid(20, 25)
        for c in (1, 3, 8):
            weights = rng.random((500, c))
            weights /= weights.sum(axis=1, keepdims=True)
            weights[rng.random(500) < 0.3] = 0.0
            given = weights.copy()
            assigned = weights.sum(axis=1) > 0
            sa = SoftAssignment(grid, weights)
            assert "_member_block" in vars(sa) and "_weights" not in vars(sa)
            assert sa._block.tobytes() == weights[assigned].T.tobytes()
            np.testing.assert_array_equal(sa.assigned_rows, assigned)
            weights[:] = 1.0 / c  # later writes to the input do not leak
            assert sa.weights.tobytes() == given.tobytes()
            assert not sa.weights.flags.writeable

    def test_weights_keep_the_input_but_unassigned_negative_zeros(self):
        weights = np.zeros((6, 2))
        weights[0] = [1.0, -0.0]
        weights[3] = [-0.0, -0.0]
        weights[4] = [0.5, 0.5]
        sa = SoftAssignment(GRID, weights.astype(np.float32))
        np.testing.assert_array_equal(sa.weights, weights)
        assert np.signbit(sa.weights[0, 1])  # an assigned row keeps its bits
        assert not np.signbit(sa.weights[3]).any()  # an unassigned one reads +0.0
        assert sa.assigned_rows.tolist() == [True, False, False, False, True, False]

    def test_labels_are_the_first_maximum_of_each_row(self):
        rng = np.random.default_rng(6)
        for c in (1, 2, 5):
            weights = rng.integers(0, 3, size=(500, c)).astype(np.float64)  # many ties
            sums = weights.sum(axis=1, keepdims=True)
            weights /= np.where(sums > 0.0, sums, 1.0)
            sa = SoftAssignment(ImageGrid(20, 25), weights)
            want = (np.argmax(weights, axis=1) + 1) * (sums[:, 0] > 0.0)
            np.testing.assert_array_equal(sa.labels, want)
            assert sa.labels.dtype == np.int64 and not sa.labels.flags.writeable

    @pytest.mark.parametrize(
        "rows, message",
        [
            # an out-of-range entry is found before a bad sum in any row
            ({0: [0.5, 0.5 + 2e-9], 5: [-0.5, 0.5]}, r"\[0, 1\]"),
            ({2: [np.inf, -np.inf]}, r"\[0, 1\]"),
            # a NaN fails the sums and hides every entry from the range check
            ({0: [np.nan, 0.5], 5: [1.5, -0.5]}, "sum to 1"),
            ({0: [1.5, -0.5], 5: [np.nan, 0.5]}, "sum to 1"),
            ({0: [0.5, 0.5 - 2e-9], 5: [np.nan, 0.5]}, "sum to 1"),
            ({1: [0.0, 5e-324]}, "sum to 1"),
        ],
    )
    def test_checks_the_range_then_the_sums(self, rows, message):
        weights = np.zeros((6, 2))
        for row, values in rows.items():
            weights[row] = values
        with pytest.raises(ValueError, match=message):
            SoftAssignment(GRID, weights)

    @pytest.mark.parametrize(
        "weights, message",
        [
            (np.full((5, 2), np.nan), "shape"),
            (np.full(6, np.nan), "shape"),
            (np.zeros((6, 0)), "at least one cluster column"),
        ],
    )
    def test_checks_the_shape_first(self, weights, message):
        with pytest.raises(ValueError, match=message):
            SoftAssignment(GRID, weights)

    def test_keeps_no_dense_copy(self):
        # Only the (C, M) block and the assigned mask outlive the
        # constructor; the dense weights appear on their first read.
        rng = np.random.default_rng(7)
        grid, c = ImageGrid(100, 120), 8
        n = grid.n_pixels
        weights = rng.random((n, c))
        weights /= weights.sum(axis=1, keepdims=True)
        weights[rng.random(n) < 0.3] = 0.0
        block = c * int((weights.sum(axis=1) > 0).sum()) * 8
        tracemalloc.start()
        try:
            sa = SoftAssignment(grid, weights)
            held, _ = tracemalloc.get_traced_memory()
            sa.labels
            labelled, _ = tracemalloc.get_traced_memory()
            sa.weights
            dense, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block < held < block + n + 4096 < n * c * 8
        assert labelled - held < n * 8 + 4096
        assert dense - labelled >= n * c * 8

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
