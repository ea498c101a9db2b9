"""Synthetic scene generators: determinism, geometry, noise calibration,
input checks, and bit-for-bit agreement with reference implementations."""

import math
import warnings
from statistics import NormalDist
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarseg.clustering import MeanShiftConfig, cluster, hard_labels
from planarseg.core import CameraIntrinsics, DepthMap, ImageGrid, InstanceSegmentation
from planarseg.geometry import Plane, _ray_directions, backproject
from planarseg.losses import Margins, embedding_loss
from planarseg.metrics import rand_index
from planarseg.synth import (
    EmbeddingNoiseSpec,
    SceneSpec,
    corrupt_probability,
    generate_embeddings,
    generate_pixel_params,
    generate_scene,
    _voronoi_labels,
)

GRID = ImageGrid(16, 24)
INTR = CameraIntrinsics(fx=200.0, fy=200.0, cx=11.5, cy=7.5)


def spec(**kw):
    defaults = dict(grid=GRID, intr=INTR, plane_count=3, seed=0)
    defaults.update(kw)
    return SceneSpec(**defaults)


class TestSceneSpec:
    def test_plane_count_bounds(self):
        with pytest.raises(ValueError, match="plane_count"):
            spec(plane_count=0)
        with pytest.raises(ValueError, match="plane_count"):
            spec(plane_count=65)

    def test_nonplanar_fraction_range(self):
        with pytest.raises(ValueError, match="nonplanar_fraction"):
            spec(nonplanar_fraction=1.0)

    def test_depth_range_ordering(self):
        with pytest.raises(ValueError, match="depth_range"):
            spec(depth_range=(3.0, 1.0))

    @pytest.mark.parametrize(
        "depth_range",
        [(1.0, math.inf), (math.nan, 4.0), (1.0, math.nan), (0.0, 4.0), (-0.0, 4.0)],
    )
    def test_depth_range_must_be_finite_and_positive(self, depth_range):
        with pytest.raises(ValueError, match="depth_range must be finite"):
            spec(depth_range=depth_range)

    def test_more_planes_than_pixels(self):
        with pytest.raises(ValueError, match="more planes"):
            SceneSpec(ImageGrid(1, 2), INTR, plane_count=3)


class TestEmbeddingNoiseSpec:
    def test_gap_positive(self):
        with pytest.raises(ValueError, match="center_min_gap"):
            EmbeddingNoiseSpec(center_min_gap=0.0)

    def test_sigma_nonnegative(self):
        with pytest.raises(ValueError, match="sigma"):
            EmbeddingNoiseSpec(sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            EmbeddingNoiseSpec(sigma=sigma)


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        a = generate_scene(spec(seed=7))
        b = generate_scene(spec(seed=7))
        np.testing.assert_array_equal(a.segmentation.labels, b.segmentation.labels)
        np.testing.assert_array_equal(a.depth.depth, b.depth.depth)
        for pa, pb in zip(a.planes, b.planes):
            np.testing.assert_array_equal(pa.n, pb.n)

    def test_seed_changes_scene(self):
        a = generate_scene(spec(seed=0))
        b = generate_scene(spec(seed=1))
        assert not np.array_equal(a.segmentation.labels, b.segmentation.labels)

    def test_every_instance_present(self):
        scene = generate_scene(spec(plane_count=5))
        labels = scene.segmentation.labels
        assert set(np.unique(labels[labels > 0])) == {1, 2, 3, 4, 5}
        assert len(scene.planes) == 5

    def test_cells_stay_balanced(self):
        scene = generate_scene(spec(plane_count=4, nonplanar_fraction=0.15))
        sizes = np.bincount(
            scene.segmentation.labels, minlength=5
        )[1:]
        assert sizes.min() >= 0.2 * sizes.max()

    def test_nonplanar_fraction_carved_exactly(self):
        frac = 0.1
        scene = generate_scene(spec(nonplanar_fraction=frac))
        zeros = int((scene.segmentation.labels == 0).sum())
        assert zeros == round(frac * GRID.n_pixels)

    def test_zero_fraction_labels_everything(self):
        scene = generate_scene(spec(nonplanar_fraction=0.0))
        assert (scene.segmentation.labels > 0).all()

    def test_depths_inside_requested_range(self):
        scene = generate_scene(spec(depth_range=(1.0, 4.0)))
        assert scene.depth.validity.all()
        assert scene.depth.depth.min() >= 1.0
        assert scene.depth.depth.max() <= 4.0

    def test_points_satisfy_plane_equations(self):
        scene = generate_scene(spec(plane_count=4))
        labels = scene.segmentation.labels
        worst = 0.0
        for idx, plane in enumerate(scene.planes, start=1):
            members = labels == idx
            residual = np.abs(scene.points.points[members] @ plane.n - 1.0)
            worst = max(worst, float(residual.max()))
        assert worst < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        count=st.integers(1, 6),
    )
    def test_generation_property(self, seed, count):
        scene = generate_scene(spec(seed=seed, plane_count=count))
        labels = scene.segmentation.labels
        assert np.unique(labels[labels > 0]).size == count
        assert scene.depth.depth.min() >= 1.0
        assert scene.depth.depth.max() <= 4.0


class TestGenerateEmbeddings:
    def test_noiseless_embeddings_sit_on_centers(self):
        scene = generate_scene(spec())
        emb = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.0))
        labels = scene.segmentation.labels
        for idx in range(1, 4):
            member_values = emb.values[labels == idx]
            assert np.ptp(member_values, axis=0).max() == 0.0

    def test_centers_respect_min_gap(self):
        scene = generate_scene(spec(plane_count=6))
        emb = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.0, center_min_gap=1.5))
        labels = scene.segmentation.labels
        centers = np.stack(
            [emb.values[labels == idx][0] for idx in range(1, 7)]
        )
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.linalg.norm(centers[i] - centers[j]) >= 1.5

    def test_noiseless_embedding_loss_is_zero(self):
        scene = generate_scene(spec(plane_count=4))
        emb = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.0))
        value, grad = embedding_loss(emb, scene.segmentation, Margins(0.5, 1.5))
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_small_noise_keeps_loss_negligible(self):
        # sigma = delta_v / 5: escape beyond the pull margin is ~ exp(-12.5)
        scene = generate_scene(spec(plane_count=4, seed=3))
        emb = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.1, seed=3))
        value, _ = embedding_loss(emb, scene.segmentation, Margins(0.5, 1.5))
        assert value < 1e-3

    def test_background_falls_inside_planar_bbox(self):
        scene = generate_scene(spec(nonplanar_fraction=0.2))
        emb = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.05))
        labels = scene.segmentation.labels
        planar_vals = emb.values[labels > 0]
        bg_vals = emb.values[labels == 0]
        assert (bg_vals >= planar_vals.min(axis=0) - 1e-12).all()
        assert (bg_vals <= planar_vals.max(axis=0) + 1e-12).all()

    def test_dimension_control(self):
        scene = generate_scene(spec())
        emb = generate_embeddings(scene, EmbeddingNoiseSpec(), dim=3)
        assert emb.dim == 3
        with pytest.raises(ValueError, match="dim"):
            generate_embeddings(scene, EmbeddingNoiseSpec(), dim=0)

    @pytest.mark.parametrize(
        "fraction, message",
        [(0.0, "embedding values must be finite"), (0.2, "embeddings overflow")],
    )
    def test_overflowing_noise_raises_one_error(self, fraction, message):
        # Without background the map's own check meets the overflowed
        # values; with background, the box for its draw is checked first.
        scene = generate_scene(spec(nonplanar_fraction=fraction))
        with pytest.raises(ValueError, match=message):
            generate_embeddings(scene, EmbeddingNoiseSpec(sigma=1e308))

    def test_background_box_wider_than_max_float_raises(self):
        # A sigma that keeps every sigma * jitter finite but makes the box
        # of the planar embeddings wider than max_float, which the uniform
        # background draw cannot span.
        scene = generate_scene(spec(nonplanar_fraction=0.2))
        jitter = oracle_jitter(scene, EmbeddingNoiseSpec())
        jitter = jitter[scene.segmentation.labels > 0]
        farthest, widest = np.abs(jitter).max(), np.ptp(jitter, axis=0).max()
        assert farthest < widest
        sigma = np.finfo(float).max / (0.5 * (farthest + widest))
        with pytest.raises(ValueError, match="embeddings overflow"):
            generate_embeddings(scene, EmbeddingNoiseSpec(sigma=sigma))

    def test_deterministic_per_seed(self):
        scene = generate_scene(spec())
        a = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.1, seed=5))
        b = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.1, seed=5))
        np.testing.assert_array_equal(a.values, b.values)


class TestGeneratePixelParams:
    def test_noiseless_params_equal_instance_truth(self):
        scene = generate_scene(spec(nonplanar_fraction=0.1))
        params = generate_pixel_params(scene)
        labels = scene.segmentation.labels
        for idx, plane in enumerate(scene.planes, start=1):
            np.testing.assert_array_equal(
                params.params[labels == idx], np.tile(plane.n, ((labels == idx).sum(), 1))
            )
        np.testing.assert_array_equal(params.params[labels == 0], 0.0)

    def test_noise_perturbs_only_planar(self):
        scene = generate_scene(spec(nonplanar_fraction=0.1))
        clean = generate_pixel_params(scene)
        noisy = generate_pixel_params(scene, param_noise_sigma=0.05, seed=2)
        labels = scene.segmentation.labels
        assert not np.array_equal(clean.params[labels > 0], noisy.params[labels > 0])
        np.testing.assert_array_equal(noisy.params[labels == 0], 0.0)

    def test_negative_sigma_rejected(self):
        scene = generate_scene(spec())
        with pytest.raises(ValueError, match="param_noise_sigma"):
            generate_pixel_params(scene, param_noise_sigma=-1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_sigma_must_be_finite(self, sigma):
        scene = generate_scene(spec())
        with pytest.raises(ValueError, match="param_noise_sigma must be finite"):
            generate_pixel_params(scene, param_noise_sigma=sigma)


class TestCorruptProbability:
    def test_clean_probabilities_binary_split(self):
        scene = generate_scene(spec(nonplanar_fraction=0.1))
        probs = corrupt_probability(scene)
        labels = scene.segmentation.labels
        hi = 1.0 / (1.0 + np.exp(-2.0))
        np.testing.assert_allclose(probs.probs[labels > 0], hi)
        np.testing.assert_allclose(probs.probs[labels == 0], 1.0 - hi)

    def test_flip_rate_calibration(self):
        big = SceneSpec(
            ImageGrid(64, 64),
            CameraIntrinsics(fx=300.0, fy=300.0, cx=31.5, cy=31.5),
            plane_count=4,
            nonplanar_fraction=0.2,
            seed=1,
        )
        scene = generate_scene(big)
        probs = corrupt_probability(scene, flip_rate=0.1, seed=1)
        gt = scene.segmentation.labels > 0
        wrong = (probs.probs >= 0.5) != gt
        observed = wrong.mean()
        assert 0.08 <= observed <= 0.12

    def test_invalid_rate_rejected(self):
        scene = generate_scene(spec())
        with pytest.raises(ValueError, match="flip_rate"):
            corrupt_probability(scene, flip_rate=1.0)

    @pytest.mark.parametrize("rate", [0.5, 0.7, -0.1])
    def test_unreachable_rates_rejected(self, rate):
        scene = generate_scene(spec())
        with pytest.raises(ValueError, match=r"\[0, 0\.5\)"):
            corrupt_probability(scene, flip_rate=rate)

    def test_rate_near_half_saturates_without_warning(self):
        # The logit noise is so wide that exp(-logit) overflows to inf for
        # some pixels; their probability is the limit 1 / (1 + inf) = 0.
        scene = generate_scene(spec(nonplanar_fraction=0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = corrupt_probability(scene, flip_rate=0.4999999999, seed=3).probs
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert np.any(probs == 0.0) and np.any(probs == 1.0)

    def test_deterministic_per_seed(self):
        scene = generate_scene(spec())
        a = corrupt_probability(scene, flip_rate=0.05, seed=9)
        b = corrupt_probability(scene, flip_rate=0.05, seed=9)
        np.testing.assert_array_equal(a.probs, b.probs)


class TestPipelineProperty:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_clustering_recovers_generated_instances(self, seed):
        scene = generate_scene(spec(seed=seed, plane_count=3, nonplanar_fraction=0.0))
        emb = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.1, seed=seed))
        clusters, assignment = cluster(
            emb, scene.mask, MeanShiftConfig(bandwidth=0.5)
        )
        assert len(clusters) == 3
        predicted = hard_labels(assignment)
        assert rand_index(predicted, scene.segmentation) >= 0.99


# --- Reference generators -------------------------------------------------
# The generators written with boolean row masks, per-plane label scans and
# one full (N x count) distance matrix per site draw. They share no helper
# with planarseg.synth, so the library must reproduce every bit of their
# outputs from the same random draws.


def oracle_voronoi(rng, grid, count):
    rows, cols = np.divmod(np.arange(grid.n_pixels), grid.width)
    pix = np.stack([rows, cols], axis=1).astype(np.float64)
    min_sep = 0.7 * math.sqrt(grid.n_pixels / count)
    for _ in range(500):
        sites: List[np.ndarray] = []
        tries = 0
        while len(sites) < count and tries < 1000:
            tries += 1
            cand = np.array([rng.uniform(0, grid.height), rng.uniform(0, grid.width)])
            if all(np.linalg.norm(cand - s) >= min_sep for s in sites):
                sites.append(cand)
        if len(sites) < count:
            continue
        site_arr = np.asarray(sites)
        d2 = (
            np.einsum("ij,ij->i", pix, pix)[:, None]
            + np.einsum("ij,ij->i", site_arr, site_arr)[None, :]
            - 2.0 * pix @ site_arr.T
        )
        labels = np.argmin(d2, axis=1) + 1
        sizes = np.bincount(labels, minlength=count + 1)[1:]
        if sizes.min() >= max(1, 0.2 * sizes.max()):
            return labels
    raise ValueError("could not draw a balanced cell partition")


def oracle_cell_plane(rng, rays, members, depth_range):
    lo, hi = depth_range
    margin = 0.1 * (hi - lo)
    cell_rays = rays[members]
    anchor_ray = cell_rays.mean(axis=0)
    for _ in range(1000):
        normal = rng.normal(size=3)
        normal[2] = abs(normal[2]) + 1.0
        normal /= np.linalg.norm(normal)
        z0 = rng.uniform(lo + margin, hi - margin)
        offset = float(normal @ (anchor_ray * z0))
        if offset <= 1e-3:
            continue
        n = normal / offset
        denom = cell_rays @ n
        if denom.min() <= 1e-8:
            continue
        z = 1.0 / denom
        if z.min() >= lo and z.max() <= hi:
            return Plane(n), z
    raise ValueError("could not satisfy depth_range for a cell plane")


def oracle_scene(spec):
    """(labels, depth, points, plane normals) of the scene."""
    rng = np.random.default_rng(spec.seed)
    labels = oracle_voronoi(rng, spec.grid, spec.plane_count)
    rays = _ray_directions(spec.grid, spec.intr)
    depth = np.zeros(spec.grid.n_pixels, dtype=np.float64)
    planes = []
    for idx in range(1, spec.plane_count + 1):
        members = np.nonzero(labels == idx)[0]
        plane, z = oracle_cell_plane(rng, rays, members, spec.depth_range)
        planes.append(plane)
        depth[members] = z
    carve_count = int(round(spec.nonplanar_fraction * spec.grid.n_pixels))
    if carve_count:
        for _ in range(100):
            carved = rng.choice(spec.grid.n_pixels, size=carve_count, replace=False)
            trial = labels.copy()
            trial[carved] = 0
            sizes = np.bincount(trial, minlength=spec.plane_count + 1)[1:]
            if sizes.min() >= max(1, 0.2 * sizes.max()):
                labels = trial
                break
        else:
            raise ValueError("carving kept unbalancing the cells")
    segmentation = InstanceSegmentation(spec.grid, labels, spec.plane_count)
    depth_map = DepthMap(spec.grid, depth)
    points = backproject(depth_map, spec.intr)
    normals = np.stack([p.n for p in planes])
    return segmentation.labels, depth_map.depth, points.points, normals


def oracle_centers(rng, count, gap, dim):
    centers: List[np.ndarray] = []
    while len(centers) < count:
        cand = rng.uniform(0.0, 10.0, size=dim)
        if all(np.linalg.norm(cand - c) >= gap for c in centers):
            centers.append(cand)
    return np.asarray(centers)


def oracle_embeddings(labels, count, noise, dim):
    rng = np.random.default_rng(noise.seed)
    centers = oracle_centers(rng, count, noise.center_min_gap, dim)
    values = np.zeros((labels.size, dim), dtype=np.float64)
    planar = labels > 0
    jitter = rng.normal(0.0, 1.0, size=(labels.size, dim))
    values[planar] = centers[labels[planar] - 1] + noise.sigma * jitter[planar]
    background = ~planar
    if background.any():
        lo = values[planar].min(axis=0)
        hi = values[planar].max(axis=0)
        values[background] = rng.uniform(lo, hi, size=(int(background.sum()), dim))
    return values


def oracle_pixel_params(labels, normals, sigma, seed):
    rng = np.random.default_rng(seed)
    params = np.zeros((labels.size, 3), dtype=np.float64)
    planar = labels > 0
    params[planar] = normals[labels[planar] - 1]
    if sigma > 0.0:
        params[planar] += rng.normal(0.0, sigma, size=(int(planar.sum()), 3))
    return params


def oracle_probability(labels, flip_rate, seed):
    rng = np.random.default_rng(seed)
    logits = np.where(labels > 0, 2.0, -2.0)
    if flip_rate > 0.0:
        sigma = 2.0 / NormalDist().inv_cdf(1.0 - flip_rate)
        logits = logits + rng.normal(0.0, sigma, size=logits.shape)
    return 1.0 / (1.0 + np.exp(-logits))


def oracle_jitter(scene, noise, dim=2):
    """The unit Gaussian draw that generate_embeddings scales by sigma."""
    rng = np.random.default_rng(noise.seed)
    oracle_centers(rng, scene.spec.plane_count, noise.center_min_gap, dim)
    return rng.normal(0.0, 1.0, size=(scene.spec.grid.n_pixels, dim))


def assert_same_bits(got, want):
    """Equal dtype, shape, values and sign bits (NaN payloads too)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


def vga_intrinsics(grid):
    w, h = grid.width, grid.height
    return CameraIntrinsics(fx=0.9 * w, fy=0.9 * w, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)


class FixedSites:
    """Stands in for the random generator: ``uniform`` returns the given
    values in turn, so the Voronoi sites are chosen by the test."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, low, high):
        return next(self.values)


# (height, width, planes): the benchmark's grids and two odd small ones,
# each with a pixel count that is no multiple of VORONOI_BLOCK.
ORACLE_GRIDS = [
    (480, 640, 8), (480, 640, 32), (192, 256, 16), (37, 53, 5), (61, 29, 11)
]


class TestMatchesReferenceGenerators:
    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    @pytest.mark.parametrize("height, width, planes", ORACLE_GRIDS)
    def test_every_output_is_bit_identical(self, height, width, planes, fraction):
        grid = ImageGrid(height, width)
        for seed in range(5):
            spec = SceneSpec(
                grid, vga_intrinsics(grid), plane_count=planes,
                nonplanar_fraction=fraction, seed=seed,
            )
            scene = generate_scene(spec)
            labels, depth, points, normals = oracle_scene(spec)
            assert_same_bits(scene.segmentation.labels, labels)
            assert_same_bits(scene.depth.depth, depth)
            assert_same_bits(scene.depth.validity, np.ones(grid.n_pixels, dtype=bool))
            assert_same_bits(scene.points.points, points)
            assert_same_bits(np.stack([p.n for p in scene.planes]), normals)
            assert scene.segmentation.n_instances == planes
            # Each seed takes one dimension, so every grid sees 1..4.
            dim = 1 + seed % 4
            for sigma in (0.0, 0.25):
                noise = EmbeddingNoiseSpec(
                    center_min_gap=0.2, sigma=sigma, seed=seed + 7
                )
                assert_same_bits(
                    generate_embeddings(scene, noise, dim=dim).values,
                    oracle_embeddings(labels, planes, noise, dim),
                )
            for sigma in (0.0, 0.05):
                assert_same_bits(
                    generate_pixel_params(scene, sigma, seed=seed).params,
                    oracle_pixel_params(labels, normals, sigma, seed),
                )
            for rate in (0.0, 0.05, 0.3):
                assert_same_bits(
                    corrupt_probability(scene, rate, seed=seed).probs,
                    oracle_probability(labels, rate, seed),
                )

    @pytest.mark.parametrize("dim", [1, 3, 4])
    @pytest.mark.parametrize("sigma", [-0.0, 1e-300, 3.0])
    def test_embedding_edge_noise_is_bit_identical(self, dim, sigma):
        scene = generate_scene(spec(plane_count=4, nonplanar_fraction=0.3, seed=2))
        noise = EmbeddingNoiseSpec(center_min_gap=0.5, sigma=sigma, seed=4)
        assert_same_bits(
            generate_embeddings(scene, noise, dim=dim).values,
            oracle_embeddings(scene.segmentation.labels, 4, noise, dim),
        )

    # Pixel counts one below, at, and just past one block, just below two,
    # and past three, so that blocks end inside an image row.
    @pytest.mark.parametrize(
        "height, width", [(63, 65), (64, 64), (41, 100), (91, 90), (97, 127)]
    )
    @pytest.mark.parametrize("count", [1, 3, 32, 64])
    def test_voronoi_blocks_match_the_full_matrix(self, height, width, count):
        grid = ImageGrid(height, width)
        for seed in range(3):
            want = oracle_voronoi(np.random.default_rng(seed), grid, count)
            got = _voronoi_labels(np.random.default_rng(seed), grid, count)
            assert_same_bits(got, want)

    # Sites on whole pixels put many pixels at exactly equal distances
    # from two or more sites; each such pixel goes to the lowest site.
    @pytest.mark.parametrize(
        "height, width, sites",
        [
            (8, 8, [(2, 2), (2, 6)]),
            (9, 9, [(4, 0), (0, 4), (8, 4), (4, 8)]),
            (71, 90, [(10, 10), (10, 50), (50, 10), (50, 50), (30, 30), (30, 80)]),
        ],
    )
    def test_voronoi_ties_go_to_the_first_site(self, height, width, sites):
        grid = ImageGrid(height, width)
        draws = [float(c) for site in sites for c in site]
        want = oracle_voronoi(FixedSites(draws), grid, len(sites))
        got = _voronoi_labels(FixedSites(draws), grid, len(sites))
        assert_same_bits(got, want)
        rows, cols = np.divmod(np.arange(grid.n_pixels), width)
        d2 = np.stack([(rows - r) ** 2 + (cols - c) ** 2 for r, c in sites], axis=1)
        assert np.any((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1)
        np.testing.assert_array_equal(got, np.argmin(d2, axis=1) + 1)

