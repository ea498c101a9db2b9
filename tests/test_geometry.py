"""Plane geometry: backprojection, rendering, pooling, fitting."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarseg import core, geometry
from planarseg.clustering import hard_labels
from planarseg.core import (
    CameraIntrinsics,
    DepthMap,
    ImageGrid,
    InstanceSegmentation,
    PixelPlaneParams,
    PlaneInstanceParams,
    PointMap,
    SoftAssignment,
)
from planarseg.geometry import (
    EPS_PLANE,
    EPS_RAY,
    Plane,
    _ray_directions,
    _render,
    backproject,
    fit_plane_lsq,
    normal_angle,
    one_hot_assignment,
    pool_instance_params,
    render_segment_depth,
)
from planarseg.metrics import recall_depth
from planarseg.synth import SceneSpec, generate_scene

GRID = ImageGrid(4, 6)
INTR = CameraIntrinsics(fx=100.0, fy=100.0, cx=2.5, cy=1.5)


def fronto_depth(grid, z):
    return DepthMap(grid, np.full(grid.n_pixels, float(z)))


def plane_depth(plane, grid, intr):
    """The depth of one plane at every pixel ray: a one-instance
    segmentation rendered by :func:`render_segment_depth`."""
    seg = InstanceSegmentation(grid, np.ones(grid.n_pixels, dtype=np.int64))
    return render_segment_depth(seg, [plane], intr)


class TestPlane:
    def test_unit_normal_and_offset(self):
        plane = Plane([0.0, 0.0, 0.5])
        np.testing.assert_allclose(plane.unit_normal, [0.0, 0.0, 1.0])
        assert plane.offset == pytest.approx(2.0)

    def test_rejects_near_zero_vector(self):
        with pytest.raises(ValueError, match="norm"):
            Plane([0.0, 0.0, 1e-7])

    @pytest.mark.parametrize("row", [[1e300, 0.0, 0.7], [1e154, 1e154, 1e154]])
    def test_rejects_vector_whose_norm_overflows(self, row):
        # Its unit normal would be all zeros, at angle 0 to every plane.
        with pytest.raises(ValueError, match="norm must be finite"):
            Plane(row)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0.0, 0.0, 0.5], None),
            ([EPS_PLANE, 0.0, 0.0], None),
            ([0.0, -EPS_PLANE, 0.0], None),
            ([0.0, 0.0, 1e-7], "plane vector norm below 1e-06"),
            ([0.0, 0.0, 0.0], "plane vector norm below 1e-06"),
            ([1e300, 0.0, 0.7], "plane vector norm must be finite"),
            ([1e154, 1e154, 1e154], "plane vector norm must be finite"),
            ([np.nan, 0.0, 0.5], "plane vector must be finite"),
            ([0.0, -np.inf, 0.5], "plane vector must be finite"),
        ],
    )
    def test_instance_params_keep_the_plane_row_rule(self, row, message):
        # One rule for a plane and for each row of a (C, 3) table: the
        # same rows pass, and each rejection is one ValueError, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (Plane, lambda r: PlaneInstanceParams([[0.0, 0.0, 1.0], r])):
                if message is None:
                    build(row)
                    continue
                with pytest.raises(ValueError) as caught:
                    build(row)
                assert str(caught.value) == message
            assert PlaneInstanceParams(np.zeros((0, 3))).clusters == 0


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

    def test_matches_per_pixel_rays_exactly(self, each_tile):
        # Oracle: the (u, v) of every pixel from a divmod, one ray per pixel.
        grid = ImageGrid(7, 5)
        intr = CameraIntrinsics(fx=4.5, fy=3.7, cx=2.3, cy=3.1)
        rng = np.random.default_rng(0)
        depth = DepthMap(grid, rng.uniform(0.5, 9.0, grid.n_pixels), rng.random(35) < 0.8)
        v, u = np.divmod(np.arange(grid.n_pixels), grid.width)
        rays = np.stack([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy,
                         np.ones(grid.n_pixels)], axis=1)
        for _ in each_tile():
            pm = backproject(depth, intr)
            np.testing.assert_array_equal(pm.points, rays * depth.depth[:, None])
            np.testing.assert_array_equal(pm.validity, depth.validity)


class TestRayCoordinates:
    def test_per_pixel_rays_match_divmod_oracle_exactly(self):
        grid = ImageGrid(7, 5)
        intr = CameraIntrinsics(fx=4.5, fy=3.7, cx=2.3, cy=3.1)
        v, u = np.divmod(np.arange(grid.n_pixels), grid.width)
        want = np.stack([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy,
                         np.ones(grid.n_pixels)], axis=1)
        assert _ray_directions(grid, intr).tobytes() == want.tobytes()

    def test_overflowing_rays_are_an_error(self):
        # (col - cx) / 1e-310 overflows for every column 1 or more away
        intr = CameraIntrinsics(fx=1e-310, fy=1e-310, cx=2.5, cy=1.5)
        depth = fronto_depth(GRID, 2.0)
        for call in (
            lambda: backproject(depth, intr),
            lambda: plane_depth(Plane([0.0, 0.0, 0.5]), GRID, intr),
        ):
            with pytest.raises(ValueError, match="focal length too small"):
                call()


class TestDepthFromPlane:
    """The depth of one plane, rendered as a one-instance segmentation."""

    def test_fronto_parallel_at_two_meters(self):
        depth = plane_depth(Plane([0.0, 0.0, 0.5]), GRID, INTR)
        assert depth.validity.all()
        np.testing.assert_allclose(depth.depth, 2.0)

    def test_unit_offset_plane(self):
        depth = plane_depth(Plane([0.0, 0.0, 1.0]), GRID, INTR)
        np.testing.assert_allclose(depth.depth, 1.0)

    def test_tilted_plane_matches_ray_intersection_oracle(self):
        # oracle: Hessian form n_hat . X = delta intersected with X = t * ray
        plane = Plane([0.1, 0.0, 0.5])
        depth = plane_depth(plane, GRID, INTR)
        n_hat = plane.unit_normal
        delta = plane.offset
        for i in range(GRID.n_pixels):
            v, u = divmod(i, GRID.width)
            ray = np.array([(u - INTR.cx) / INTR.fx, (v - INTR.cy) / INTR.fy, 1.0])
            t = delta / float(n_hat @ ray)
            assert depth.depth[i] == pytest.approx(t * 1.0, abs=1e-12)

    def test_behind_camera_marked_invalid(self):
        # plane facing away: every intersection is at negative depth
        depth = plane_depth(Plane([0.0, 0.0, -0.5]), GRID, INTR)
        assert not depth.validity.any()

    def test_round_trip_satisfies_plane_equation(self):
        plane = Plane([0.2, -0.1, 0.7])
        depth = plane_depth(plane, GRID, INTR)
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
        depth = plane_depth(plane, GRID, intr)
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
    def test_matches_per_plane_composition(self, seed, each_tile):
        # Oracle: render every plane over the full grid as a one-instance
        # segmentation, then copy each label's pixels from its plane, at
        # the default tile, which covers the grid.
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
            rendered = plane_depth(plane, grid, intr)
            depth[member] = rendered.depth[member]
            valid[member] = rendered.validity[member]
        assert (~valid & (labels == 1)).any() and (valid & (labels == 1)).any()
        seg = InstanceSegmentation(grid, labels, n_instances)
        for _ in each_tile():
            got = render_segment_depth(seg, planes, intr)
            np.testing.assert_array_equal(got.validity, valid)
            np.testing.assert_allclose(got.depth, depth, rtol=1e-12, atol=0.0)

    def test_plane_count_must_match(self):
        grid = ImageGrid(1, 4)
        seg = InstanceSegmentation(grid, np.array([1, 1, 2, 0]))
        with pytest.raises(ValueError, match="one plane per instance"):
            render_segment_depth(seg, [Plane([0, 0, 1.0])], INTR)


def masked_render(grid, intr, labels, normals):
    """The masked kernel that ``_render`` replaced: bounds-checked
    gathers, a zero-filled depth and a divide only where the denominator
    exceeds EPS_RAY, all into the checked DepthMap constructor."""
    x = (np.arange(grid.width) - intr.cx) / intr.fx
    y = (np.arange(grid.height) - intr.cy) / intr.fy
    nx, ny, nz = (
        np.ascontiguousarray(column).take(labels).reshape(grid.height, grid.width)
        for column in normals.T
    )
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(nx, x, out=nx)
        np.multiply(ny, y[:, None], out=ny)
        nx += ny
        nx += nz
    denom = nx.reshape(-1)
    valid = denom > EPS_RAY
    depth = np.zeros(grid.n_pixels, dtype=np.float64)
    np.divide(1.0, denom, out=depth, where=valid)
    return DepthMap(grid, depth, valid)


def checked_backproject(depth, intr):
    """``backproject`` with every point passed through the checked
    PointMap constructor, which copies, zeroes invalid rows and checks."""
    grid = depth.grid
    x = (np.arange(grid.width) - intr.cx) / intr.fx
    y = (np.arange(grid.height) - intr.cy) / intr.fy
    z = depth.depth.reshape(grid.height, grid.width)
    points = np.empty((grid.height, grid.width, 3), dtype=np.float64)
    with np.errstate(over="ignore"):
        np.multiply(x, z, out=points[:, :, 0])
        np.multiply(y[:, None], z, out=points[:, :, 1])
    points[:, :, 2] = z
    return PointMap(grid, points.reshape(-1, 3), depth.validity)


def same_bits(a, b):
    """Equal arrays, signed zeros and NaN payloads included."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# x spans [-2.5, 2.5] and y [-1.5, 1.5], so huge plane entries overflow
# the products, and the zero column and row give exact zeros.
EDGE_GRID = ImageGrid(4, 6)
EDGE_INTR = CameraIntrinsics(fx=1.0, fy=1.0, cx=2.5, cy=1.5)
EDGE_ROWS = {
    "eps": [0.0, 0.0, EPS_RAY],  # denominator exactly EPS_RAY: invalid
    "above_eps": [0.0, 0.0, np.nextafter(EPS_RAY, 1.0)],
    "zero": [0.0, 0.0, 0.0],
    "negative": [0.0, 0.0, -1.0],
    "tilted": [0.3, -0.2, 0.9],  # negative on part of the grid
    "opposing_huge": [1e308, 1e308, 0.0],  # inf - inf = NaN where x, y differ in sign
    "huge_negative": [-1e308, 0.0, 0.5],  # -inf and huge negative: invalid
    "huge_finite": [0.0, 0.0, 1.7e308],  # a tiny but valid depth
}


def finite_side_labels(rows):
    """Labels cycling through ``rows`` (row 0 included), with every pixel
    whose denominator on its row would be +inf moved to row 0."""
    x = (np.arange(EDGE_GRID.width) - EDGE_INTR.cx) / EDGE_INTR.fx
    y = (np.arange(EDGE_GRID.height) - EDGE_INTR.cy) / EDGE_INTR.fy
    labels = np.arange(EDGE_GRID.n_pixels) % len(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.asarray(rows)[labels].reshape(EDGE_GRID.height, EDGE_GRID.width, 3)
        denom = (n[..., 0] * x + n[..., 1] * y[:, None]) + n[..., 2]
    labels[denom.reshape(-1) == np.inf] = 0
    return labels


class TestRenderOracle:
    """``_render`` against the masked kernel, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(EDGE_ROWS))
    def test_edge_denominators(self, kind, each_tile):
        normals = np.array([[0.0, 0.0, 0.5], EDGE_ROWS[kind]])
        labels = finite_side_labels(normals)
        assert (labels == 1).any()
        want = masked_render(EDGE_GRID, EDGE_INTR, labels, normals)
        for _ in each_tile():
            got = _render(EDGE_GRID, EDGE_INTR, labels, normals)
            same_bits(got.depth, want.depth)
            same_bits(got.validity, want.validity)
            assert not got.depth.flags.writeable and not got.validity.flags.writeable

    def test_every_edge_row_at_once(self, each_tile):
        normals = np.array([[0.0, 0.0, 0.0]] + list(EDGE_ROWS.values()))
        labels = finite_side_labels(normals)
        want = masked_render(EDGE_GRID, EDGE_INTR, labels, normals)
        for _ in each_tile():
            got = _render(EDGE_GRID, EDGE_INTR, labels, normals)
            same_bits(got.depth, want.depth)
            same_bits(got.validity, want.validity)

    @pytest.mark.parametrize("row", [[1e308, 0.0, 0.0], [0.0, 1e308, 1e308]])
    def test_positive_infinite_denominator_raises_the_same_error(self, row, each_tile):
        normals = np.array([[0.0, 0.0, 0.5], row])
        labels = np.arange(EDGE_GRID.n_pixels) % 2
        with pytest.raises(ValueError) as want:
            masked_render(EDGE_GRID, EDGE_INTR, labels, normals)
        for _ in each_tile():
            with pytest.raises(ValueError) as got:
                _render(EDGE_GRID, EDGE_INTR, labels, normals)
            assert str(got.value) == str(want.value) == "valid depths must be finite and > 0"

    @pytest.mark.parametrize("seed", range(4))
    def test_segments_with_gapped_ids(self, seed):
        rng = np.random.default_rng(seed)
        grid = ImageGrid(9, 11)
        intr = CameraIntrinsics(fx=6.0, fy=5.0, cx=5.2, cy=3.9)
        labels = rng.choice([0, 1, 2, 5], grid.n_pixels)  # IDs 3 and 4 own no pixel
        planes = [Plane(rng.uniform(-0.6, 0.6, 3) + [0.0, 0.0, 0.4]) for _ in range(5)]
        seg = InstanceSegmentation(grid, labels, 5)
        normals = np.concatenate([np.zeros((1, 3))] + [p.n[None, :] for p in planes])
        got = render_segment_depth(seg, planes, intr)
        want = masked_render(grid, intr, labels, normals)
        assert not want.validity.all() and want.validity.any()
        same_bits(got.depth, want.depth)
        same_bits(got.validity, want.validity)


class TestBackprojectOracle:
    """``backproject`` against the checked constructor path, bit for bit."""

    @pytest.mark.parametrize(
        "low", [0.5, 1e-300, 1e-320, 5e-324], ids=["plain", "tiny", "subnormal", "least"]
    )
    def test_matches_checked_points(self, low, each_tile):
        # Tiny valid depths underflow some coordinates to signed zeros,
        # which the checked path keeps as they are.
        rng = np.random.default_rng(1)
        depth = DepthMap(
            EDGE_GRID,
            rng.uniform(1.0, 3.0, EDGE_GRID.n_pixels) * low,
            rng.random(EDGE_GRID.n_pixels) < 0.7,
        )
        for intr in (EDGE_INTR, CameraIntrinsics(fx=700.0, fy=650.0, cx=2.4, cy=1.6)):
            want = checked_backproject(depth, intr)
            for _ in each_tile():
                got = backproject(depth, intr)
                same_bits(got.points, want.points)
                same_bits(got.validity, want.validity)
                assert not got.points.flags.writeable

    @pytest.mark.parametrize("top", [1e308, 1.7976931348623157e308])
    def test_overflowing_points_raise_the_same_error(self, top, each_tile):
        depth = DepthMap(EDGE_GRID, np.full(EDGE_GRID.n_pixels, top))
        with pytest.raises(ValueError) as want:
            checked_backproject(depth, EDGE_INTR)
        for _ in each_tile():
            with pytest.raises(ValueError) as got:
                backproject(depth, EDGE_INTR)
            assert str(got.value) == str(want.value) == "valid points must be finite"

    def test_huge_depth_that_fits_is_kept(self, each_tile):
        # |x|, |y| < 1 here, so 1e308 depths give finite points
        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=2.5, cy=1.5)
        depth = DepthMap(EDGE_GRID, np.full(EDGE_GRID.n_pixels, 1e308))
        want = checked_backproject(depth, intr).points
        for _ in each_tile():
            same_bits(backproject(depth, intr).points, want)


def traced_peak(fn, *args):
    """The result of ``fn(*args)`` and the peak of the memory traced
    during the call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestTiles:
    @pytest.mark.parametrize(
        "shape, size",
        [((1, 1), 3), ((4, 6), 3), ((4, 6), 5), ((7, 5), 3), ((7, 5), 13), ((3, 20), 13),
         ((480, 640), 1 << 14), ((2, 40000), 1 << 14)],
    )
    def test_tiles_cover_the_grid_in_contiguous_runs(self, monkeypatch, shape, size):
        monkeypatch.setattr(core, "_PIXEL_TILE", size)
        grid = ImageGrid(*shape)
        flat = np.arange(grid.n_pixels).reshape(shape)
        runs = [flat[tile].ravel() for tile in core._tiles(grid)]
        np.testing.assert_array_equal(np.concatenate(runs), np.arange(grid.n_pixels))
        for run in runs:
            assert 1 <= run.size <= size
            np.testing.assert_array_equal(run, np.arange(run[0], run[0] + run.size))

    def vga_case(self):
        grid = ImageGrid(480, 640)
        intr = CameraIntrinsics(fx=576.0, fy=576.0, cx=319.5, cy=239.5)
        labels = np.arange(grid.n_pixels) // 40000  # bands 0..7, band 0 unlabeled
        planes = [Plane([0.02 * k, -0.01 * k, 0.5]) for k in range(1, 8)]
        return InstanceSegmentation(grid, labels, 7), planes, intr

    def test_render_holds_no_full_grid_scratch(self):
        # Beside its depth and validity the render holds two tile buffers
        # (the indices and one term) and numpy's own per-call buffers,
        # under a tile here; a full-grid term alone would be 2.4 MB.
        seg, planes, intr = self.vga_case()
        render_segment_depth(seg, planes, intr)  # first-call costs
        depth, peak = traced_peak(render_segment_depth, seg, planes, intr)
        outputs = depth.depth.nbytes + depth.validity.nbytes
        assert depth.validity.any() and not depth.validity.all()
        assert peak < outputs + 4 * core._PIXEL_TILE * 8

    def test_backproject_holds_no_full_grid_scratch(self):
        seg, planes, intr = self.vga_case()
        depth = render_segment_depth(seg, planes, intr)
        backproject(depth, intr)  # first-call costs
        points, peak = traced_peak(backproject, depth, intr)
        assert peak < points.points.nbytes + core._PIXEL_TILE * 8


class TestNoCheckedCopies:
    def test_kernels_build_no_checked_maps(self, monkeypatch):
        # On a finite scene, the render, the depth recall and the
        # backprojection hand their fresh arrays over without the
        # copying constructors. A silent fallback to those fails here.
        intr = CameraIntrinsics(fx=28.8, fy=28.8, cx=15.5, cy=11.5)
        scene = generate_scene(SceneSpec(ImageGrid(24, 32), intr, plane_count=4, seed=2))
        planes = list(scene.planes)
        calls = []
        for cls in (DepthMap, PointMap):
            checked = cls.__post_init__

            def counting(self, checked=checked, name=cls.__name__):
                calls.append(name)
                checked(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        depth = render_segment_depth(scene.segmentation, planes, intr)
        recall_depth(scene.segmentation, planes, scene.segmentation, scene.depth, intr)
        points = backproject(scene.depth, intr)
        assert calls == []
        assert depth.validity.any() and points.validity.any()


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

    @pytest.mark.parametrize("shape", [(1, 1), (17, 23), (48, 64)])
    def test_soft_pooling_matches_two_products(self, shape):
        # The one-pass product [params | 1]^T @ W against the two products
        # it replaced, the masses 1^T W and the sums W^T params.
        rng = np.random.default_rng(shape[0])
        grid = ImageGrid(*shape)
        weights = rng.random((grid.n_pixels, 16))
        weights[rng.random(grid.n_pixels) < 0.2] = 0.0
        weights[0] = rng.random(16) + 0.1  # no instance is empty
        weights /= np.maximum(weights.sum(axis=1, keepdims=True), 1e-300)
        params = rng.normal(size=(grid.n_pixels, 3)) + 2.0
        pooled = pool_instance_params(
            PixelPlaneParams(grid, params), SoftAssignment(grid, weights)
        )
        expected = (weights.T @ params) / (np.ones(grid.n_pixels) @ weights)[:, None]
        np.testing.assert_allclose(pooled.params, expected, rtol=1e-14, atol=0.0)

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

    def test_weights_and_block_match_the_indicator_table(self):
        # Weights equal the (C + 1, C) indicator table gathered by label,
        # and the block equals their assigned rows transposed, bit for bit.
        rng = np.random.default_rng(8)
        grid = ImageGrid(9, 11)
        for c in (1, 4, 12):
            seg = InstanceSegmentation(grid, rng.integers(0, c + 1, grid.n_pixels), c)
            sa = one_hot_assignment(seg)
            table = np.eye(c + 1, c, k=-1)
            np.testing.assert_array_equal(sa.weights, table[seg.labels])
            np.testing.assert_array_equal(sa._block, sa.weights[sa.assigned_rows].T)
            assert sa.weights.dtype == sa._block.dtype == np.float64

    def test_huge_instance_count_builds_nothing_until_read(self):
        # 10**6 IDs on 16 pixels: a (C + 1, C) table would need 7.3 TiB.
        # The assignment is built from the labels alone; pooling sums by
        # label and finds the IDs that own no pixel empty, as for any
        # unused ID.
        grid = ImageGrid(4, 4)
        labels = np.arange(16) % 5
        labels[-1] = 10**6
        seg = InstanceSegmentation(grid, labels, 10**6)
        tracemalloc.start()
        try:
            sa = one_hot_assignment(seg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096
        assert sa.clusters == 10**6
        np.testing.assert_array_equal(hard_labels(sa).labels, labels)
        params = PixelPlaneParams(grid, np.tile([0.0, 0.0, 0.5], (16, 1)))
        with pytest.raises(ValueError, match="empty instance"):
            pool_instance_params(params, sa)


def plane_points(plane, grid=GRID, intr=INTR):
    return backproject(plane_depth(plane, grid, intr), intr)


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

    def test_invalid_points_in_the_subset_are_skipped(self):
        # A subset that reaches invalid pixels fits its valid points alone,
        # bit for bit as a map holding only those points, and fails when
        # fewer than three of them are valid.
        rng = np.random.default_rng(4)
        q = rng.normal(size=(12, 3)) + [0.0, 0.0, 4.0]
        valid = np.ones(12, dtype=bool)
        valid[[1, 5, 6, 11]] = False
        pm = PointMap(ImageGrid(1, 12), q, valid)
        subset = np.array([11, 0, 5, 3, 2, 6, 7, 1, 9])
        plane, rms = fit_plane_lsq(pm, subset)
        kept = q[[0, 3, 2, 7, 9]]
        want_plane, want_rms = fit_plane_lsq(PointMap(ImageGrid(1, 5), kept), np.arange(5))
        assert plane.n.tobytes() == want_plane.n.tobytes() and rms == want_rms
        with pytest.raises(ValueError, match="need >= 3 valid points"):
            fit_plane_lsq(pm, np.array([1, 5, 6, 11, 0, 2]))

    @pytest.mark.parametrize(
        "subset, message",
        [
            (np.ones(12, dtype=bool), "integer indices, got dtype bool"),
            (np.array([0.0, 2.0, 3.9]), "integer indices, got dtype float64"),
            (np.array([0, 2, -1]), r"must lie in \[0, 12\)"),
            (np.array([0, 2, 12]), r"must lie in \[0, 12\)"),
            (np.array([0, 2, 2**64 - 1], dtype=np.uint64), r"must lie in \[0, 12\)"),
            ([], "need >= 3 valid points"),
        ],
    )
    def test_subset_must_be_integer_indices_in_range(self, subset, message):
        # A mask would read as indices {0, 1}, a negative index would wrap
        # to the end of the map, and a float index would truncate.
        q = np.random.default_rng(5).normal(size=(12, 3)) + [0.0, 0.0, 4.0]
        with pytest.raises(ValueError, match=message):
            fit_plane_lsq(PointMap(ImageGrid(3, 4), q), subset)

    def test_any_integer_subset_dtype_fits_the_same_plane(self):
        q = np.random.default_rng(6).normal(size=(12, 3)) + [0.0, 0.0, 4.0]
        pm = PointMap(ImageGrid(3, 4), q)
        want, want_rms = fit_plane_lsq(pm, np.array([[0, 3, 5], [7, 8, 11]]))
        for dtype in (np.int64, np.int32, np.uint8, np.uint64):
            plane, rms = fit_plane_lsq(pm, np.array([0, 3, 5, 7, 8, 11], dtype=dtype))
            assert plane.n.tobytes() == want.n.tobytes() and rms == want_rms

    def test_two_points_degenerate(self):
        pm = PointMap(ImageGrid(1, 2), np.array([[1.0, 0, 1], [0, 1.0, 1]]))
        with pytest.raises(ValueError, match="degenerate point set"):
            fit_plane_lsq(pm, np.arange(2))

    def test_collinear_points_degenerate(self):
        pts = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
        pm = PointMap(ImageGrid(1, 3), pts)
        with pytest.raises(ValueError, match="degenerate point set"):
            fit_plane_lsq(pm, np.arange(3))

    @pytest.mark.parametrize(
        "scale, far, message",
        [
            (1e200, 1.0, "norm below"),
            (1.5e308, 1.0, "too large to fit"),
            (1.0, 1e308, "collinear or coincident"),
        ],
    )
    def test_huge_points_fail_with_an_error(self, scale, far, message):
        # At 1e200 the plane's norm falls below EPS_PLANE. At 1.5e308 the
        # QR overflows, and the SVD would raise LinAlgError on its NaN.
        # One point at 1e308 makes the rank tolerance s_max * m * eps
        # overflow unless m * eps is taken first.
        pts = PointMap(ImageGrid(1, 5), scale * np.array(
            [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.1], [0.5, 0.2, 1.0],
             [0.3, 0.3, far]]
        ))
        with pytest.raises(ValueError, match=message):
            fit_plane_lsq(pts, np.arange(5))

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


def oracle_fit_plane(q):
    """The SVD fit: a ``matrix_rank`` test, ``lstsq``, then a residual pass."""
    if q.shape[0] < 3:
        raise ValueError("degenerate point set: need >= 3 valid points")
    if np.linalg.matrix_rank(q) < 3:
        raise ValueError("degenerate point set: points are collinear or coincident")
    n, _, _, _ = np.linalg.lstsq(q, np.ones(q.shape[0]), rcond=None)
    return n, float(np.sqrt(np.mean((q @ n - 1.0) ** 2)))


def _unit(v):
    return v / np.linalg.norm(v)


def patch_points(kind, rng):
    """Points on a random plane patch, with a little off-plane noise.

    ``small``: 1 cm across at 1-5 m; ``far``: a few metres across at
    50-200 m; ``tilted``: seen at a grazing angle; ``three``: three
    corners of a triangle 1 m across.
    """
    depth = rng.uniform(50.0, 200.0) if kind == "far" else rng.uniform(1.0, 5.0)
    center = depth * np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4), 1.0])
    if kind == "tilted":
        view = _unit(center)
        normal = _unit(np.cross(view, rng.normal(size=3)) + 0.05 * view)
    else:
        normal = _unit(rng.uniform(-0.5, 0.5, 3) - _unit(center))
    u = _unit(np.cross(normal, rng.normal(size=3)))
    v = np.cross(normal, u)
    size = {"small": 0.01, "far": rng.uniform(1.0, 5.0)}.get(kind, 1.0)
    if kind == "three":
        angle = 2.0 * np.pi * np.arange(3) / 3.0 + rng.uniform(-0.5, 0.5, 3)
        a, b = size * np.cos(angle), size * np.sin(angle)
        return center + a[:, None] * u + b[:, None] * v
    m = int(rng.integers(4, 60))
    a, b = rng.uniform(-size, size, (2, m))
    noise = 1e-3 * size * rng.normal(size=(m, 1))
    return center + a[:, None] * u + b[:, None] * v + noise * normal


class TestFitPlaneLsqOracle:
    """The QR fit against the SVD fit it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["small", "far", "tilted", "three"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_on_patches(self, kind, seed):
        q = patch_points(kind, np.random.default_rng(seed))
        n_ref, rms_ref = oracle_fit_plane(q)
        m = q.shape[0]
        plane, rms = fit_plane_lsq(PointMap(ImageGrid(1, m), q), np.arange(m))
        rel = np.linalg.norm(plane.n - n_ref) / np.linalg.norm(n_ref)
        assert rel <= 1e-9
        assert abs(rms - rms_ref) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        exponent=st.floats(3.0, 12.0),
        scale=st.floats(0.0, 4.0),
        m=st.integers(3, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_decision_near_collinear(self, exponent, scale, m, seed):
        # m points on a line 10^scale from the camera; one moved off it
        # by 10^-exponent
        rng = np.random.default_rng(seed)
        direction = _unit(rng.normal(size=3))
        origin = 10.0**scale * _unit(rng.normal(size=3))
        q = origin + rng.uniform(-1.0, 1.0, (m, 1)) * direction
        q[0] += 10.0**-exponent * _unit(np.cross(direction, rng.normal(size=3)))
        pm = PointMap(ImageGrid(1, m), q)
        try:
            oracle_fit_plane(q)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                fit_plane_lsq(pm, np.arange(m))
        else:
            fit_plane_lsq(pm, np.arange(m))


def qr_fit(q):
    """The QR fallback of ``fit_plane_lsq`` on the (m, 3) points ``q``."""
    block = np.empty((4, q.shape[0]))
    block[:3], block[3] = q.T, 1.0
    return geometry._fit_plane_qr(block)


def gram_ratio(q):
    lam = np.linalg.eigvalsh(q.T @ q)
    return lam[0] / lam[-1]


def conditioned_points(ratio, m, rng):
    """m points whose Gram has eigenvalue ratio ``ratio``, about 1 m from
    the camera."""
    u, _ = np.linalg.qr(rng.normal(size=(m, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return (u * [1.0, 0.5, np.sqrt(ratio)]) @ v.T


def forbid_qr(monkeypatch):
    def qr(*args, **kwargs):
        raise AssertionError("the QR fallback ran")

    monkeypatch.setattr(np.linalg, "qr", qr)


FIVE_POINTS = np.array(
    [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.1], [0.5, 0.2, 1.0], [0.3, 0.3, 1.2]]
)


class TestFitPlaneLsqFallback:
    """Each Gram the normal equations cannot trust goes to the QR, whose
    plane bits and error text ``fit_plane_lsq`` then returns."""

    def assert_same_as_qr(self, q):
        pm = PointMap(ImageGrid(1, q.shape[0]), q)
        try:
            want, want_rms = qr_fit(q)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                fit_plane_lsq(pm, np.arange(q.shape[0]))
            return str(exc)
        plane, rms = fit_plane_lsq(pm, np.arange(q.shape[0]))
        assert plane.n.tobytes() == want.n.tobytes() and rms == want_rms
        return None

    @pytest.mark.parametrize(
        "scale, message",
        [
            (1e160, "norm below"),  # the Gram overflows
            (1e140, "norm below"),  # finite, above 2^900
            (1e-140, None),  # normal, below 2^-900
            (1e-160, "norm must be finite"),  # subnormal
        ],
    )
    def test_gram_out_of_range(self, scale, message):
        error = self.assert_same_as_qr(scale * FIVE_POINTS)
        assert error is None if message is None else message in error

    @pytest.mark.parametrize(
        "offset, message", [(1e-15, "collinear or coincident"), (1e-9, None)]
    )
    def test_near_collinear(self, offset, message):
        # 20 points on a line, one moved off it by ``offset``: at 1e-15
        # the QR's rank test rejects them, at 1e-9 it fits a plane
        rng = np.random.default_rng(11)
        q = np.array([0.2, -0.1, 2.0]) + rng.uniform(-1.0, 1.0, (20, 1)) * [0.6, 0.0, 0.8]
        q[0, 1] += offset
        error = self.assert_same_as_qr(q)
        assert error is None if message is None else message in error

    @pytest.mark.parametrize("m", [3, 50])
    def test_conditioning_just_past_the_ratio(self, m):
        q = conditioned_points(0.9 * geometry._GRAM_MIN_RATIO, m, np.random.default_rng(m))
        assert gram_ratio(q) < geometry._GRAM_MIN_RATIO
        assert self.assert_same_as_qr(q) is None

    @pytest.mark.parametrize("m", [3, 50, 20000])
    def test_conditioning_just_inside_the_ratio(self, m, monkeypatch):
        rng = np.random.default_rng(m)
        q = conditioned_points(1.1 * geometry._GRAM_MIN_RATIO, m, rng)
        assert gram_ratio(q) > geometry._GRAM_MIN_RATIO
        forbid_qr(monkeypatch)
        plane, _ = fit_plane_lsq(PointMap(ImageGrid(1, m), q), np.arange(m))
        n_ref, _ = oracle_fit_plane(q)
        assert np.linalg.norm(plane.n - n_ref) <= 1e-9 * np.linalg.norm(n_ref)

    def test_vga_scene_fits_every_segment_on_the_gram_path(self, monkeypatch):
        # 480x640 with 32 planes, as the eval benchmark scores: every
        # reference segment is certified by its Gram.
        grid = ImageGrid(480, 640)
        intr = CameraIntrinsics(fx=576.0, fy=576.0, cx=319.5, cy=239.5)
        scene = generate_scene(SceneSpec(grid, intr, plane_count=32, seed=27))
        points = backproject(scene.depth, intr)
        labels = scene.segmentation.labels
        forbid_qr(monkeypatch)
        for idx, truth in enumerate(scene.planes, start=1):
            members = np.flatnonzero((labels == idx) & points.validity)
            plane, rms = fit_plane_lsq(points, members)
            assert np.linalg.norm(plane.n - truth.n) <= 1e-9 * np.linalg.norm(truth.n)
            assert rms < 1e-9


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
