"""Plane geometry: backprojection, rendering, pooling, fitting, merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarseg.clustering import hard_labels
from planarseg.core import (
    CameraIntrinsics,
    DepthMap,
    ImageGrid,
    InstanceSegmentation,
    PixelPlaneParams,
    PointMap,
    SoftAssignment,
)
from planarseg.geometry import (
    Plane,
    backproject,
    depth_from_plane,
    fit_plane_lsq,
    fit_planes_ransac_merge,
    normal_angle,
    one_hot_assignment,
    pool_instance_params,
    render_segment_depth,
)

GRID = ImageGrid(4, 6)
INTR = CameraIntrinsics(fx=100.0, fy=100.0, cx=2.5, cy=1.5)


def fronto_depth(grid, z):
    return DepthMap(grid, np.full(grid.n_pixels, float(z)))


class TestPlane:
    def test_unit_normal_and_offset(self):
        plane = Plane([0.0, 0.0, 0.5])
        np.testing.assert_allclose(plane.unit_normal, [0.0, 0.0, 1.0])
        assert plane.offset == pytest.approx(2.0)

    def test_rejects_near_zero_vector(self):
        with pytest.raises(ValueError, match="norm"):
            Plane([0.0, 0.0, 1e-7])


class TestBackproject:
    def test_principal_point_ray(self):
        grid = ImageGrid(2, 2)
        intr = CameraIntrinsics(fx=10.0, fy=10.0, cx=1.0, cy=1.0)
        pm = backproject(fronto_depth(grid, 2.0), intr)
        # pixel (row 1, col 1) sits on the principal point
        np.testing.assert_allclose(pm.points[3], [0.0, 0.0, 2.0])

    def test_unit_geometry(self):
        grid = ImageGrid(1, 2)
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
        pm = backproject(fronto_depth(grid, 1.0), intr)
        # pixel (row 0, col 1): u=1, v=0
        np.testing.assert_allclose(pm.points[1], [1.0, 0.0, 1.0])

    def test_invalid_depths_stay_invalid(self):
        depth = DepthMap(
            GRID, np.full(GRID.n_pixels, 2.0), np.arange(GRID.n_pixels) % 2 == 0
        )
        pm = backproject(depth, INTR)
        assert not pm.validity[1]
        np.testing.assert_array_equal(pm.points[1], [0.0, 0.0, 0.0])

    def test_matches_per_pixel_rays_exactly(self):
        # Oracle: the (u, v) of every pixel from a divmod, one ray per pixel.
        grid = ImageGrid(7, 5)
        intr = CameraIntrinsics(fx=4.5, fy=3.7, cx=2.3, cy=3.1)
        rng = np.random.default_rng(0)
        depth = DepthMap(grid, rng.uniform(0.5, 9.0, grid.n_pixels), rng.random(35) < 0.8)
        v, u = np.divmod(np.arange(grid.n_pixels), grid.width)
        rays = np.stack([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy,
                         np.ones(grid.n_pixels)], axis=1)
        pm = backproject(depth, intr)
        np.testing.assert_array_equal(pm.points, rays * depth.depth[:, None])
        np.testing.assert_array_equal(pm.validity, depth.validity)


class TestDepthFromPlane:
    def test_fronto_parallel_at_two_meters(self):
        depth = depth_from_plane(Plane([0.0, 0.0, 0.5]), GRID, INTR)
        assert depth.validity.all()
        np.testing.assert_allclose(depth.depth, 2.0)

    def test_unit_offset_plane(self):
        depth = depth_from_plane(Plane([0.0, 0.0, 1.0]), GRID, INTR)
        np.testing.assert_allclose(depth.depth, 1.0)

    def test_tilted_plane_matches_ray_intersection_oracle(self):
        # oracle: Hessian form n_hat . X = delta intersected with X = t * ray
        plane = Plane([0.1, 0.0, 0.5])
        depth = depth_from_plane(plane, GRID, INTR)
        n_hat = plane.unit_normal
        delta = plane.offset
        for i in range(GRID.n_pixels):
            v, u = divmod(i, GRID.width)
            ray = np.array([(u - INTR.cx) / INTR.fx, (v - INTR.cy) / INTR.fy, 1.0])
            t = delta / float(n_hat @ ray)
            assert depth.depth[i] == pytest.approx(t * 1.0, abs=1e-12)

    def test_behind_camera_marked_invalid(self):
        # plane facing away: every intersection is at negative depth
        depth = depth_from_plane(Plane([0.0, 0.0, -0.5]), GRID, INTR)
        assert not depth.validity.any()

    def test_round_trip_satisfies_plane_equation(self):
        plane = Plane([0.2, -0.1, 0.7])
        depth = depth_from_plane(plane, GRID, INTR)
        pm = backproject(depth, INTR)
        residual = np.abs(pm.points[pm.validity] @ plane.n - 1.0)
        assert residual.max() < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        nx=st.floats(-0.4, 0.4),
        ny=st.floats(-0.4, 0.4),
        nz=st.floats(0.2, 2.0),
        fx=st.floats(20.0, 500.0),
        fy=st.floats(20.0, 500.0),
    )
    def test_round_trip_property(self, nx, ny, nz, fx, fy):
        plane = Plane([nx, ny, nz])
        intr = CameraIntrinsics(fx=fx, fy=fy, cx=2.5, cy=1.5)
        depth = depth_from_plane(plane, GRID, intr)
        pm = backproject(depth, intr)
        if pm.validity.any():
            residual = np.abs(pm.points[pm.validity] @ plane.n - 1.0)
            assert residual.max() < 1e-9


class TestRenderSegmentDepth:
    def test_composes_per_instance(self):
        grid = ImageGrid(1, 4)
        seg = InstanceSegmentation(grid, np.array([1, 1, 2, 0]))
        planes = [Plane([0.0, 0.0, 0.5]), Plane([0.0, 0.0, 1.0])]
        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=1.5, cy=0.0)
        depth = render_segment_depth(seg, planes, intr)
        np.testing.assert_allclose(depth.depth[:3], [2.0, 2.0, 1.0])
        assert not depth.validity[3]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_plane_composition(self, seed):
        # Oracle: render every plane over the full grid with
        # depth_from_plane, then copy each label's pixels from its plane.
        rng = np.random.default_rng(seed)
        grid = ImageGrid(7, 9)
        intr = CameraIntrinsics(fx=5.0, fy=5.0, cx=4.0, cy=3.0)
        n_instances = 6
        labels = rng.integers(0, 5, grid.n_pixels)  # IDs 5 and 6 own no pixel
        labels[:2] = [0, 1]
        planes = [
            Plane(rng.uniform(-0.5, 0.5, 3) + [0.0, 0.0, 0.6])
            for _ in range(n_instances)
        ]
        # faces away from the columns left of x = -0.1 (x spans [-0.8, 0.8])
        planes[0] = Plane([1.0, 0.0, 0.1])
        depth = np.zeros(grid.n_pixels)
        valid = np.zeros(grid.n_pixels, dtype=bool)
        for idx, plane in enumerate(planes, start=1):
            member = labels == idx
            rendered = depth_from_plane(plane, grid, intr)
            depth[member] = rendered.depth[member]
            valid[member] = rendered.validity[member]
        got = render_segment_depth(
            InstanceSegmentation(grid, labels, n_instances), planes, intr
        )
        assert (~valid & (labels == 1)).any() and (valid & (labels == 1)).any()
        np.testing.assert_array_equal(got.validity, valid)
        np.testing.assert_allclose(got.depth, depth, rtol=1e-12, atol=0.0)

    def test_plane_count_must_match(self):
        grid = ImageGrid(1, 4)
        seg = InstanceSegmentation(grid, np.array([1, 1, 2, 0]))
        with pytest.raises(ValueError, match="one plane per instance"):
            render_segment_depth(seg, [Plane([0, 0, 1.0])], INTR)


class TestPooling:
    def test_constant_field_any_assignment(self):
        params = PixelPlaneParams(GRID, np.tile([0.0, 0.0, 0.5], (GRID.n_pixels, 1)))
        weights = np.full((GRID.n_pixels, 2), 0.5)
        pooled = pool_instance_params(params, SoftAssignment(GRID, weights))
        np.testing.assert_allclose(pooled.params, [[0, 0, 0.5], [0, 0, 0.5]])

    def test_one_hot_pooling_selects_member_params(self):
        grid = ImageGrid(1, 2)
        params = PixelPlaneParams(grid, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        weights = np.array([[1.0, 0.0], [0.0, 1.0]])
        pooled = pool_instance_params(params, SoftAssignment(grid, weights))
        np.testing.assert_allclose(pooled.params, [[1, 0, 0], [0, 1, 0]])

    def test_uniform_split_averages(self):
        # frozen: equal weights average (1,0,0) and (0,1,0) to (0.5,0.5,0)
        grid = ImageGrid(1, 2)
        params = PixelPlaneParams(grid, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        weights = np.full((2, 2), 0.5)
        pooled = pool_instance_params(params, SoftAssignment(grid, weights))
        np.testing.assert_allclose(pooled.params, [[0.5, 0.5, 0], [0.5, 0.5, 0]])

    def test_empty_instance_rejected(self):
        grid = ImageGrid(1, 2)
        params = PixelPlaneParams(grid, np.ones((2, 3)))
        weights = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="empty instance"):
            pool_instance_params(params, SoftAssignment(grid, weights))

    def test_unused_id_is_an_empty_instance(self):
        # Labels pool by bincount; an ID that owns no pixel has no mean.
        grid = ImageGrid(1, 3)
        seg = InstanceSegmentation(grid, np.array([1, 1, 3]), 3)
        params = PixelPlaneParams(grid, np.ones((3, 3)))
        with pytest.raises(ValueError, match="empty instance"):
            pool_instance_params(params, one_hot_assignment(seg))

    def test_indicator_pooling_matches_dense_product(self):
        rng = np.random.default_rng(5)
        grid = ImageGrid(30, 40)
        labels = rng.integers(0, 6, size=grid.n_pixels)
        params = PixelPlaneParams(grid, rng.normal(size=(grid.n_pixels, 3)) + 2.0)
        onehot = one_hot_assignment(InstanceSegmentation(grid, labels, 5))
        dense = SoftAssignment(grid, onehot.weights)
        np.testing.assert_allclose(
            pool_instance_params(params, onehot).params,
            pool_instance_params(params, dense).params,
            rtol=0.0,
            atol=1e-12,
        )

    def test_one_hot_matches_per_cluster_mean(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, size=GRID.n_pixels)
        labels[:3] = [1, 2, 3]
        seg = InstanceSegmentation(GRID, labels, 3)
        params_arr = rng.normal(size=(GRID.n_pixels, 3)) + 2.0
        pooled = pool_instance_params(
            PixelPlaneParams(GRID, params_arr), one_hot_assignment(seg)
        )
        for idx in (1, 2, 3):
            np.testing.assert_allclose(
                pooled.params[idx - 1], params_arr[labels == idx].mean(axis=0)
            )


class TestOneHotAssignment:
    def test_rows(self):
        grid = ImageGrid(1, 3)
        seg = InstanceSegmentation(grid, np.array([0, 1, 2]))
        sa = one_hot_assignment(seg)
        np.testing.assert_array_equal(sa.weights, [[0, 0], [1, 0], [0, 1]])

    def test_weights_built_once_from_labels(self):
        grid = ImageGrid(1, 4)
        seg = InstanceSegmentation(grid, np.array([2, 0, 1, 2]))
        sa = one_hot_assignment(seg)
        assert sa.clusters == 2
        assert sa.assigned_rows.tolist() == [True, False, True, True]
        np.testing.assert_array_equal(sa.labels, seg.labels)
        assert sa.weights is sa.weights
        assert not sa.weights.flags.writeable
        np.testing.assert_array_equal(hard_labels(sa).labels, seg.labels)

    def test_requires_instances(self):
        grid = ImageGrid(1, 3)
        seg = InstanceSegmentation(grid, np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="no instances"):
            one_hot_assignment(seg)


def plane_points(plane, grid=GRID, intr=INTR):
    return backproject(depth_from_plane(plane, grid, intr), intr)


class TestFitPlaneLsq:
    def test_recovers_fronto_plane(self):
        pm = plane_points(Plane([0.0, 0.0, 0.5]))
        plane, rms = fit_plane_lsq(pm, np.arange(GRID.n_pixels))
        np.testing.assert_allclose(plane.n, [0.0, 0.0, 0.5], atol=1e-9)
        assert rms < 1e-9

    def test_recovers_vertical_plane(self):
        # three points on the plane x = 1
        pm = PointMap(
            ImageGrid(1, 3),
            np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 2.0], [1.0, -1.0, 3.0]]),
        )
        plane, rms = fit_plane_lsq(pm, np.arange(3))
        np.testing.assert_allclose(plane.n, [1.0, 0.0, 0.0], atol=1e-9)
        assert rms < 1e-9

    def test_two_points_degenerate(self):
        pm = PointMap(ImageGrid(1, 2), np.array([[1.0, 0, 1], [0, 1.0, 1]]))
        with pytest.raises(ValueError, match="degenerate point set"):
            fit_plane_lsq(pm, np.arange(2))

    def test_collinear_points_degenerate(self):
        pts = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
        pm = PointMap(ImageGrid(1, 3), pts)
        with pytest.raises(ValueError, match="degenerate point set"):
            fit_plane_lsq(pm, np.arange(3))

    def test_ignores_invalid_points(self):
        pts = np.array(
            [[0.0, 0.0, 2.0], [1.0, 0.0, 2.0], [0.0, 1.0, 2.0], [9.0, 9.0, 9.0]]
        )
        validity = np.array([True, True, True, False])
        pm = PointMap(ImageGrid(1, 4), pts, validity)
        plane, _ = fit_plane_lsq(pm, np.arange(4))
        np.testing.assert_allclose(plane.n, [0.0, 0.0, 0.5], atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        nx=st.floats(-0.4, 0.4),
        ny=st.floats(-0.4, 0.4),
        nz=st.floats(0.2, 2.0),
    )
    def test_noiseless_recovery_property(self, nx, ny, nz):
        plane = Plane([nx, ny, nz])
        pm = plane_points(plane)
        if pm.validity.sum() < 3:
            return
        fitted, _ = fit_plane_lsq(pm, np.nonzero(pm.validity)[0])
        rel = np.linalg.norm(fitted.n - plane.n) / np.linalg.norm(plane.n)
        assert rel < 1e-8


def two_segment_points(z_left, z_right, grid=None):
    grid = grid or ImageGrid(6, 8)
    intr = CameraIntrinsics(fx=50.0, fy=50.0, cx=3.5, cy=2.5)
    cols = np.arange(grid.n_pixels) % grid.width
    labels = np.where(cols < grid.width // 2, 1, 2)
    depth = np.where(labels == 1, float(z_left), float(z_right))
    pm = backproject(DepthMap(grid, depth), intr)
    return pm, InstanceSegmentation(grid, labels), grid


class TestRansacMerge:
    def test_coplanar_segments_merge(self):
        pm, seg, _ = two_segment_points(2.0, 2.0)
        merged, planes = fit_planes_ransac_merge(pm, seg)
        assert len(planes) == 1
        assert merged.n_instances == 1
        np.testing.assert_allclose(planes[0].n, [0, 0, 0.5], atol=1e-9)
        assert (merged.labels == 1).all()

    def test_close_planes_merge_within_tolerance(self):
        # frozen: |0.5 * 2.05 - 1| / 0.5 = 0.05 mean distance, below 0.10
        pm, seg, _ = two_segment_points(2.0, 2.05)
        merged, planes = fit_planes_ransac_merge(pm, seg, merge_tol=0.10)
        assert len(planes) == 1

    def test_far_planes_stay_apart(self):
        pm, seg, _ = two_segment_points(2.0, 3.0)
        merged, planes = fit_planes_ransac_merge(pm, seg, merge_tol=0.10)
        assert len(planes) == 2
        assert merged.n_instances == 2

    def test_small_segment_dropped(self):
        grid = ImageGrid(1, 6)
        pts = np.array(
            [
                [0.0, 0.0, 2.0],
                [1.0, 0.0, 2.0],
                [0.0, 1.0, 2.0],
                [1.0, 1.0, 2.0],
                [0.5, 0.5, 2.0],
                [9.0, 9.0, 9.0],
            ]
        )
        pm = PointMap(grid, pts)
        seg = InstanceSegmentation(grid, np.array([1, 1, 1, 1, 1, 2]))
        merged, planes = fit_planes_ransac_merge(pm, seg)
        assert len(planes) == 1
        assert merged.labels[5] == 0

    def test_idempotent(self):
        pm, seg, _ = two_segment_points(2.0, 3.0)
        once_seg, once_planes = fit_planes_ransac_merge(pm, seg, rng_seed=9)
        twice_seg, twice_planes = fit_planes_ransac_merge(pm, once_seg, rng_seed=9)
        np.testing.assert_array_equal(once_seg.labels, twice_seg.labels)
        for a, b in zip(once_planes, twice_planes):
            np.testing.assert_allclose(a.n, b.n, atol=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(0)
        grid = ImageGrid(6, 8)
        intr = CameraIntrinsics(fx=50.0, fy=50.0, cx=3.5, cy=2.5)
        depth_arr = np.where(
            np.arange(grid.n_pixels) % grid.width < 4, 2.0, 3.0
        ) + rng.normal(0, 0.005, grid.n_pixels)
        pm = backproject(DepthMap(grid, depth_arr), intr)
        seg = InstanceSegmentation(
            grid, np.where(np.arange(grid.n_pixels) % grid.width < 4, 1, 2)
        )
        a_seg, a_planes = fit_planes_ransac_merge(pm, seg, rng_seed=5)
        b_seg, b_planes = fit_planes_ransac_merge(pm, seg, rng_seed=5)
        np.testing.assert_array_equal(a_seg.labels, b_seg.labels)
        for a, b in zip(a_planes, b_planes):
            np.testing.assert_array_equal(a.n, b.n)


class TestNormalAngle:
    def test_identical_planes(self):
        assert normal_angle(Plane([0, 0, 1.0]), Plane([0, 0, 1.0])) == pytest.approx(0.0)

    def test_orthogonal_planes(self):
        assert normal_angle(Plane([0, 0, 1.0]), Plane([0, 1.0, 0])) == pytest.approx(90.0)

    def test_offset_does_not_change_angle(self):
        assert normal_angle(Plane([0, 0, 1.0]), Plane([0, 0, 2.0])) == pytest.approx(0.0)

    def test_forty_five_degrees(self):
        angle = normal_angle(Plane([1.0, 0, 1.0]), Plane([0, 0, 1.0]))
        assert angle == pytest.approx(45.0)
