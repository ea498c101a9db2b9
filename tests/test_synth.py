"""Synthetic scene generators: determinism, geometry, and noise calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarseg.clustering import MeanShiftConfig, cluster, hard_labels
from planarseg.core import CameraIntrinsics, ImageGrid
from planarseg.losses import Margins, embedding_loss
from planarseg.metrics import rand_index
from planarseg.synth import (
    EmbeddingNoiseSpec,
    SceneSpec,
    corrupt_probability,
    generate_embeddings,
    generate_pixel_params,
    generate_scene,
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
