"""Loss values frozen by hand evaluation plus finite-difference gradients,
and the vectorised losses against per-instance loop oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarseg import core
from planarseg.clustering import cluster
from planarseg.core import (
    CameraIntrinsics,
    EmbeddingMap,
    ImageGrid,
    InstanceSegmentation,
    PixelPlaneParams,
    PlanarMask,
    PlanarProbabilityMap,
    PlaneInstanceParams,
    PointMap,
    SoftAssignment,
)
from planarseg.losses import (
    Margins,
    balanced_bce,
    central_difference,
    embedding_loss,
    instance_param_loss,
    pixel_param_loss,
    pull_loss,
    push_loss,
    total_loss,
)
from planarseg.geometry import pool_instance_params
from planarseg.gradcheck import run_gradient_checks
from planarseg.synth import (
    EmbeddingNoiseSpec,
    SceneSpec,
    corrupt_probability,
    generate_embeddings,
    generate_pixel_params,
    generate_scene,
)

GRID = ImageGrid(3, 4)
FD_TOL = 1e-6


def rel_err(analytic, numeric):
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


def oracle_members(gt):
    """(instance_id, member_index_array) for each nonempty instance."""
    for idx in range(1, gt.n_instances + 1):
        members = np.nonzero(gt.labels == idx)[0]
        if members.shape[0]:
            yield idx, members


def oracle_pull(embeddings, gt, margins=Margins()):
    """pull_loss as a loop over instances and their member rows."""
    x = embeddings.values
    grad = np.zeros_like(x)
    groups = list(oracle_members(gt))
    if not groups:
        return 0.0, grad
    inv_c = 1.0 / len(groups)
    value = 0.0
    for _, members in groups:
        mu = x[members].mean(axis=0)
        diff = mu[None, :] - x[members]
        dist = np.linalg.norm(diff, axis=1)
        excess = dist - margins.delta_v
        active = excess > 0.0
        size = members.shape[0]
        value += inv_c * float(excess[active].sum()) / size
        if not active.any():
            continue
        unit = diff[active] / dist[active, None]
        coeff = inv_c / size
        grad[members[active]] -= coeff * unit
        grad[members] += (coeff / size) * unit.sum(axis=0)
    return value, grad


def oracle_push(embeddings, gt, margins=Margins()):
    """push_loss as a loop over the pairs of instance means."""
    x = embeddings.values
    grad = np.zeros_like(x)
    groups = list(oracle_members(gt))
    means = np.array([x[m].mean(axis=0) for _, m in groups]).reshape(
        len(groups), embeddings.dim
    )
    c = len(groups)
    if c <= 1:
        return 0.0, grad
    norm = 1.0 / (c * (c - 1))
    value = 0.0
    mean_grad = np.zeros_like(means)
    for a in range(c):
        for b in range(a + 1, c):
            gap = means[a] - means[b]
            dist = float(np.linalg.norm(gap))
            short = margins.delta_d - dist
            if short <= 0.0:
                continue
            value += 2.0 * norm * short
            if dist > 0.0:
                pair = 2.0 * norm * gap / dist
                mean_grad[a] -= pair
                mean_grad[b] += pair
    for (_, members), g in zip(groups, mean_grad):
        grad[members] += g / members.shape[0]
    return value, grad


def oracle_embedding(embeddings, gt, margins=Margins()):
    v_pull, g_pull = oracle_pull(embeddings, gt, margins)
    v_push, g_push = oracle_push(embeddings, gt, margins)
    return v_pull + v_push, g_pull + g_push


def oracle_pixel_param(pred, gt, mask):
    """pixel_param_loss over the gathered masked rows."""
    members = np.nonzero(mask.mask)[0]
    grad = np.zeros_like(pred.params)
    if members.shape[0] == 0:
        return 0.0, grad
    diff = pred.params[members] - gt.params[members]
    dist = np.linalg.norm(diff, axis=1)
    count = members.shape[0]
    value = float(dist.sum()) / count
    nonzero = dist > 0.0
    grad[members[nonzero]] = diff[nonzero] / (dist[nonzero, None] * count)
    return value, grad


ORACLE_TOL = 1e-12


def assert_matches_oracle(got, want):
    """Values within 1e-12 (relative, or absolute near zero); gradients
    within 1e-12 of the oracle's largest entry, so zero stays zero."""
    (value, grad), (o_value, o_grad) = got, want
    assert abs(value - o_value) <= ORACLE_TOL * max(1.0, abs(o_value))
    assert grad.shape == o_grad.shape
    scale = float(np.abs(o_grad).max(initial=0.0))
    np.testing.assert_allclose(grad, o_grad, rtol=ORACLE_TOL, atol=ORACLE_TOL * scale)


EMBEDDING_PAIRS = [
    (pull_loss, oracle_pull),
    (push_loss, oracle_push),
    (embedding_loss, oracle_embedding),
]


class TestMargins:
    def test_defaults(self):
        m = Margins()
        assert m.delta_v == 0.5
        assert m.delta_d == 1.5

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="delta_d"):
            Margins(delta_v=1.0, delta_d=0.5)

    def test_positive_pull_margin(self):
        with pytest.raises(ValueError, match="delta_v"):
            Margins(delta_v=0.0, delta_d=1.0)


def half_mask():
    return PlanarMask(GRID, np.arange(GRID.n_pixels) < GRID.n_pixels // 2)


class TestBalancedBce:
    def test_perfect_predictions_near_zero(self):
        gt = half_mask()
        probs = PlanarProbabilityMap(GRID, gt.mask.astype(np.float64))
        value, _ = balanced_bce(probs, gt)
        assert 0.0 <= value < 1e-9 * GRID.n_pixels

    def test_uniform_half_probability(self):
        # frozen: |F| = |B|, p = 0.5 everywhere -> 0.5 * N * log 2
        gt = half_mask()
        probs = PlanarProbabilityMap(GRID, np.full(GRID.n_pixels, 0.5))
        value, _ = balanced_bce(probs, gt)
        assert value == pytest.approx(0.5 * GRID.n_pixels * math.log(2.0))

    def test_unbalanced_mask_weighs_by_planar_fraction(self):
        # frozen: |F|=2, |B|=6, w = 2/8, p=0.5:
        # (1 - w) * 2 log2 + w * 6 log2 = 3 log2
        grid = ImageGrid(2, 4)
        gt = PlanarMask(grid, np.arange(8) < 2)
        probs = PlanarProbabilityMap(grid, np.full(8, 0.5))
        value, _ = balanced_bce(probs, gt)
        assert value == pytest.approx(3.0 * math.log(2.0))

    def test_single_class_rejected(self):
        gt = PlanarMask(GRID, np.ones(GRID.n_pixels, dtype=bool))
        probs = PlanarProbabilityMap(GRID, np.full(GRID.n_pixels, 0.5))
        with pytest.raises(ValueError, match="degenerate class balance"):
            balanced_bce(probs, gt)

    def test_grid_mismatch(self):
        probs = PlanarProbabilityMap(ImageGrid(2, 2), np.full(4, 0.5))
        with pytest.raises(ValueError, match="grids"):
            balanced_bce(probs, half_mask())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        gt = half_mask()
        p = rng.uniform(0.05, 0.95, GRID.n_pixels)
        _, grad = balanced_bce(PlanarProbabilityMap(GRID, p), gt)
        fd = central_difference(
            lambda arr: balanced_bce(PlanarProbabilityMap(GRID, arr), gt)[0], p
        )
        assert rel_err(grad, fd) < FD_TOL


    @pytest.mark.parametrize("seed", range(4))
    def test_matches_boolean_mask_formula_bit_for_bit(self, seed):
        # The index gathers take the same pixels in the same order as the
        # boolean masks they replaced, so every sum is the same.
        rng = np.random.default_rng(seed)
        grid = ImageGrid(30, 40)
        fg = rng.random(grid.n_pixels) < 0.6
        raw = rng.random(grid.n_pixels)
        edges = [0.0, 1.0, 1e-12, 1.0 - 1e-12, 5e-13, 1.0 - 5e-13]
        raw[rng.choice(grid.n_pixels, 60, replace=False)] = np.repeat(edges, 10)
        value, grad = balanced_bce(PlanarProbabilityMap(grid, raw), PlanarMask(grid, fg))
        w = fg.sum() / grid.n_pixels
        p = np.clip(raw, 1e-12, 1.0 - 1e-12)
        expected = -(1.0 - w) * float(np.log(p[fg]).sum())
        expected -= w * float(np.log1p(-p[~fg]).sum())
        live = (raw > 1e-12) & (raw < 1.0 - 1e-12)
        want = np.zeros(grid.n_pixels)
        want[fg & live] = -(1.0 - w) / p[fg & live]
        want[~fg & live] = w / (1.0 - p[~fg & live])
        assert value == expected
        np.testing.assert_array_equal(grad, want)


def two_cluster_labels():
    labels = np.zeros(GRID.n_pixels, dtype=np.int64)
    labels[:4] = 1
    labels[4:8] = 2
    return InstanceSegmentation(GRID, labels)


class TestPullLoss:
    def test_two_points_straddling_mean(self):
        # frozen: mu = (1,0); each point sits 1.0 away, excess 0.5 -> 0.5
        grid = ImageGrid(1, 2)
        emb = EmbeddingMap(grid, np.array([[0.0, 0.0], [2.0, 0.0]]))
        seg = InstanceSegmentation(grid, np.array([1, 1]))
        value, _ = pull_loss(emb, seg, Margins(0.5, 1.5))
        assert value == pytest.approx(0.5)

    def test_tight_cluster_is_free(self):
        grid = ImageGrid(1, 3)
        emb = EmbeddingMap(grid, np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]))
        seg = InstanceSegmentation(grid, np.array([1, 1, 1]))
        value, grad = pull_loss(emb, seg)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_averages_over_instances(self):
        # frozen: instance 1 contributes 0.5, instance 2 is tight -> 0.25
        grid = ImageGrid(1, 4)
        emb = EmbeddingMap(
            grid, np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        )
        seg = InstanceSegmentation(grid, np.array([1, 1, 2, 2]))
        value, _ = pull_loss(emb, seg)
        assert value == pytest.approx(0.25)

    def test_unlabeled_pixels_ignored(self):
        grid = ImageGrid(1, 3)
        emb = EmbeddingMap(grid, np.array([[0.0, 0.0], [2.0, 0.0], [99.0, 99.0]]))
        seg = InstanceSegmentation(grid, np.array([1, 1, 0]))
        value, grad = pull_loss(emb, seg)
        assert value == pytest.approx(0.5)
        np.testing.assert_array_equal(grad[2], 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        seg = two_cluster_labels()
        x = rng.normal(0.0, 2.0, (GRID.n_pixels, 2))
        _, grad = pull_loss(EmbeddingMap(GRID, x), seg)
        fd = central_difference(
            lambda arr: pull_loss(EmbeddingMap(GRID, arr), seg)[0], x
        )
        assert rel_err(grad, fd) < FD_TOL

    def test_translation_invariant_value(self):
        rng = np.random.default_rng(3)
        seg = two_cluster_labels()
        x = rng.normal(size=(GRID.n_pixels, 2))
        base, _ = pull_loss(EmbeddingMap(GRID, x), seg)
        moved, _ = pull_loss(EmbeddingMap(GRID, x + np.array([7.0, -3.0])), seg)
        assert moved == pytest.approx(base, abs=1e-12)


class TestPushLoss:
    def test_single_instance_is_zero(self):
        grid = ImageGrid(1, 2)
        emb = EmbeddingMap(grid, np.array([[0.0, 0.0], [9.0, 9.0]]))
        seg = InstanceSegmentation(grid, np.array([1, 1]))
        value, grad = push_loss(emb, seg)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_two_centers_inside_margin(self):
        # frozen: centers 1.0 apart, delta_d = 1.5, ordered pairs -> 0.5
        grid = ImageGrid(1, 2)
        emb = EmbeddingMap(grid, np.array([[0.0, 0.0], [1.0, 0.0]]))
        seg = InstanceSegmentation(grid, np.array([1, 2]))
        value, _ = push_loss(emb, seg, Margins(0.5, 1.5))
        assert value == pytest.approx(0.5)

    def test_separated_centers_are_free(self):
        grid = ImageGrid(1, 2)
        emb = EmbeddingMap(grid, np.array([[0.0, 0.0], [5.0, 0.0]]))
        seg = InstanceSegmentation(grid, np.array([1, 2]))
        value, grad = push_loss(emb, seg)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_three_centers_hand_value(self):
        # frozen: pair gaps 1.0, 1.0, 2.0 under delta_d=1.5 give shorts
        # 0.5, 0.5, 0; 2 * (0.5 + 0.5) / (3 * 2) = 1/3
        grid = ImageGrid(1, 3)
        emb = EmbeddingMap(grid, np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        seg = InstanceSegmentation(grid, np.array([1, 2, 3]))
        value, _ = push_loss(emb, seg)
        assert value == pytest.approx(1.0 / 3.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        seg = two_cluster_labels()
        x = rng.normal(0.0, 0.3, (GRID.n_pixels, 2))
        _, grad = push_loss(EmbeddingMap(GRID, x), seg)
        fd = central_difference(
            lambda arr: push_loss(EmbeddingMap(GRID, arr), seg)[0], x
        )
        assert rel_err(grad, fd) < FD_TOL


class TestEmbeddingLoss:
    def test_equals_sum_of_parts(self):
        rng = np.random.default_rng(5)
        seg = two_cluster_labels()
        x = rng.normal(size=(GRID.n_pixels, 2))
        emb = EmbeddingMap(GRID, x)
        v, g = embedding_loss(emb, seg)
        v_pull, g_pull = pull_loss(emb, seg)
        v_push, g_push = push_loss(emb, seg)
        assert v == v_pull + v_push
        np.testing.assert_array_equal(g, g_pull + g_push)

    def test_separated_tight_clusters_are_free(self):
        grid = ImageGrid(1, 4)
        emb = EmbeddingMap(
            grid, np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]])
        )
        seg = InstanceSegmentation(grid, np.array([1, 1, 2, 2]))
        value, grad = embedding_loss(emb, seg)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)


class TestEmbeddingLossIdSpace:
    # IDs keep their order when renumbered, so gaps and huge IDs give the
    # value and gradient of the compact-ID map bit for bit.
    @staticmethod
    def scene():
        grid = ImageGrid(30, 40)
        rng = np.random.default_rng(11)
        compact = rng.integers(0, 5, size=grid.n_pixels)
        centers = rng.normal(0.0, 0.4, size=(5, 3))
        values = centers[compact] + rng.normal(0.0, 0.6, size=(grid.n_pixels, 3))
        return grid, EmbeddingMap(grid, values), compact

    @pytest.mark.parametrize(
        "ids, n_instances",
        [
            ([0, 1, 5, 9, 12], None),
            ([0, 1, 5, 9, 12], 2**40),
            ([0, 3, 2**40 - 7, 2**40 - 1, 2**40], None),
        ],
    )
    def test_matches_compact_ids(self, ids, n_instances):
        grid, emb, compact = self.scene()
        sparse = InstanceSegmentation(grid, np.array(ids)[compact], n_instances)
        dense = InstanceSegmentation(grid, compact)
        for fn in (embedding_loss, pull_loss, push_loss):
            value, grad = fn(emb, sparse)
            want_value, want_grad = fn(emb, dense)
            assert value == want_value and value > 0.0, fn.__name__
            assert grad.tobytes() == want_grad.tobytes(), fn.__name__


class TestPixelParamLoss:
    def test_exact_match_is_zero(self):
        params = PixelPlaneParams(GRID, np.ones((GRID.n_pixels, 3)))
        value, grad = pixel_param_loss(params, params, half_mask())
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_pixel_offset(self):
        # frozen: one masked pixel off by (0.3, 0, 0.4) -> norm 0.5
        grid = ImageGrid(1, 2)
        gt = PixelPlaneParams(grid, np.zeros((2, 3)))
        pred = PixelPlaneParams(grid, np.array([[0.3, 0.0, 0.4], [9.0, 9.0, 9.0]]))
        mask = PlanarMask(grid, np.array([True, False]))
        value, grad = pixel_param_loss(pred, gt, mask)
        assert value == pytest.approx(0.5)
        np.testing.assert_array_equal(grad[1], 0.0)

    def test_averages_over_masked_pixels_only(self):
        # frozen: offsets of norm 0.5 and 1.0 over N=2 -> 0.75
        grid = ImageGrid(1, 3)
        gt = PixelPlaneParams(grid, np.zeros((3, 3)))
        pred = PixelPlaneParams(
            grid, np.array([[0.3, 0.0, 0.4], [0.0, 1.0, 0.0], [5.0, 5.0, 5.0]])
        )
        mask = PlanarMask(grid, np.array([True, True, False]))
        value, _ = pixel_param_loss(pred, gt, mask)
        assert value == pytest.approx(0.75)

    def test_empty_mask_is_zero(self):
        params = PixelPlaneParams(GRID, np.ones((GRID.n_pixels, 3)))
        mask = PlanarMask(GRID, np.zeros(GRID.n_pixels, dtype=bool))
        value, grad = pixel_param_loss(params, params, mask)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        gt = PixelPlaneParams(GRID, rng.normal(size=(GRID.n_pixels, 3)))
        pred_arr = rng.normal(size=(GRID.n_pixels, 3))
        mask = half_mask()
        _, grad = pixel_param_loss(PixelPlaneParams(GRID, pred_arr), gt, mask)
        fd = central_difference(
            lambda arr: pixel_param_loss(PixelPlaneParams(GRID, arr), gt, mask)[0],
            pred_arr,
        )
        assert rel_err(grad, fd) < FD_TOL


def embedding_case(name):
    """(segmentation, embeddings) of one degenerate label map on a 2x4 grid."""
    grid = ImageGrid(2, 4)
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.5, (grid.n_pixels, 2))
    if name == "gapped":
        labels, count = [1, 1, 1, 3, 3, 3, 0, 0], 3
    elif name == "one_instance":
        labels, count = [1, 1, 1, 1, 1, 0, 1, 0], None
    elif name == "all_unlabeled":
        labels, count = [0] * 8, 2
    elif name == "coincident_means":
        # both means are exactly (1, 0), so the pair sits inside delta_d
        # at distance 0
        labels, count = [1, 1, 2, 2, 0, 0, 0, 0], None
        x[:4] = [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0]]
    elif name == "huge_unlabeled":
        labels, count = [1, 1, 0, 2, 2, 0, 3, 0], None
        x[[2, 5, 7]] = [[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300]]
    else:
        raise ValueError(name)
    return InstanceSegmentation(grid, np.array(labels), count), EmbeddingMap(grid, x)


EMBEDDING_CASES = [
    "gapped", "one_instance", "all_unlabeled", "coincident_means", "huge_unlabeled"
]


def pixel_case(name):
    """(pred, gt, mask) of one degenerate mask on a 2x4 grid."""
    grid = ImageGrid(2, 4)
    rng = np.random.default_rng(17)
    pred = rng.normal(size=(grid.n_pixels, 3))
    truth = rng.normal(size=(grid.n_pixels, 3))
    mask = np.array([True, True, False, True, False, True, True, False])
    if name == "empty_mask":
        mask[:] = False
    elif name == "exact_rows":
        truth[[0, 3]] = pred[[0, 3]]
    elif name == "huge_unmasked":
        pred[~mask] = 1e300
        truth[~mask] = -1e300
        pred[7] = -1e300
    else:
        raise ValueError(name)
    return (
        PixelPlaneParams(grid, pred),
        PixelPlaneParams(grid, truth),
        PlanarMask(grid, mask),
    )


class TestLoopOracles:
    """The vectorised losses against the per-instance loops they replace."""

    @pytest.mark.parametrize("case", EMBEDDING_CASES)
    @pytest.mark.parametrize("fn, oracle", EMBEDDING_PAIRS)
    def test_embedding_edge_cases(self, case, fn, oracle):
        seg, emb = embedding_case(case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fn(emb, seg)
        assert_matches_oracle(got, oracle(emb, seg))

    def test_coincident_means_add_value_but_no_gradient(self):
        seg, emb = embedding_case("coincident_means")
        value, grad = push_loss(emb, seg)
        assert value == pytest.approx(Margins().delta_d)
        np.testing.assert_array_equal(grad, 0.0)

    @pytest.mark.parametrize("case", ["empty_mask", "exact_rows", "huge_unmasked"])
    def test_pixel_param_edge_cases(self, case):
        pred, truth, mask = pixel_case(case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pixel_param_loss(pred, truth, mask)
        assert_matches_oracle(got, oracle_pixel_param(pred, truth, mask))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_instances=st.integers(1, 40),
        d=st.integers(1, 4),
        height=st.integers(1, 12),
        width=st.integers(1, 12),
        scale=st.sampled_from([0.01, 0.3, 1.0, 10.0]),
    )
    def test_random_maps_match_oracles(self, seed, n_instances, d, height, width, scale):
        # Labels draw from 0..C with some IDs left out, so maps carry
        # unlabeled pixels, gaps and any number of live instances.
        rng = np.random.default_rng(seed)
        grid = ImageGrid(height, width)
        n = grid.n_pixels
        ids = np.arange(n_instances + 1)
        keep = ids[rng.random(n_instances + 1) < rng.uniform(0.3, 1.0)]
        labels = rng.choice(keep, n) if keep.size else np.zeros(n, dtype=np.int64)
        seg = InstanceSegmentation(grid, labels, n_instances)
        emb = EmbeddingMap(grid, rng.normal(0.0, scale, (n, d)))
        margins = Margins(0.5 * scale, 1.5 * scale)
        for fn, oracle in EMBEDDING_PAIRS:
            assert_matches_oracle(fn(emb, seg, margins), oracle(emb, seg, margins))
        mask = PlanarMask(grid, rng.random(n) < rng.uniform(0.0, 1.0))
        pred = PixelPlaneParams(grid, rng.normal(0.0, scale, (n, 3)))
        truth = PixelPlaneParams(grid, rng.normal(0.0, scale, (n, 3)))
        assert_matches_oracle(
            pixel_param_loss(pred, truth, mask), oracle_pixel_param(pred, truth, mask)
        )


def assignment_fixture():
    grid = ImageGrid(1, 2)
    points = PointMap(grid, np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]]))
    weights = np.array([[1.0, 0.0], [0.0, 1.0]])
    return grid, points, SoftAssignment(grid, weights)


class TestInstanceParamLoss:
    def test_single_pixel_unit_residual(self):
        # frozen: Q = (0,0,2), n = (0,0,1) -> |2 - 1| / (1 * 1) = 1
        grid = ImageGrid(1, 1)
        points = PointMap(grid, np.array([[0.0, 0.0, 2.0]]))
        sa = SoftAssignment(grid, np.array([[1.0]]))
        value, _ = instance_param_loss(
            PlaneInstanceParams(np.array([[0.0, 0.0, 1.0]])), sa, points
        )
        assert value == pytest.approx(1.0)

    def test_on_plane_params_are_free(self):
        grid, points, sa = assignment_fixture()
        params = PlaneInstanceParams(np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 1.0]]))
        value, grad = instance_param_loss(params, sa, points)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_soft_weights_hand_value(self):
        # frozen: residuals 1 and -0.5 at weight 0.5 -> (0.5 + 0.25) / 2
        grid = ImageGrid(1, 1)
        points = PointMap(grid, np.array([[0.0, 0.0, 2.0]]))
        sa = SoftAssignment(grid, np.array([[0.5, 0.5]]))
        params = PlaneInstanceParams(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.25]]))
        value, _ = instance_param_loss(params, sa, points)
        assert value == pytest.approx(0.375)

    def test_cluster_count_mismatch(self):
        grid, points, sa = assignment_fixture()
        with pytest.raises(ValueError, match="cluster counts"):
            instance_param_loss(
                PlaneInstanceParams(np.array([[0.0, 0.0, 1.0]])), sa, points
            )

    def test_assigned_invalid_point_rejected(self):
        grid = ImageGrid(1, 2)
        points = PointMap(
            grid,
            np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]),
            np.array([True, False]),
        )
        sa = SoftAssignment(grid, np.array([[1.0], [1.0]]))
        with pytest.raises(ValueError, match="valid points"):
            instance_param_loss(
                PlaneInstanceParams(np.array([[0.0, 0.0, 1.0]])), sa, points
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        grid = ImageGrid(2, 3)
        pts = rng.normal(size=(6, 3)) + np.array([0.0, 0.0, 3.0])
        points = PointMap(grid, pts)
        raw = rng.uniform(0.1, 1.0, (6, 2))
        sa = SoftAssignment(grid, raw / raw.sum(axis=1, keepdims=True))
        params_arr = rng.normal(0.0, 0.4, (2, 3)) + np.array([0.0, 0.0, 0.5])
        _, grad = instance_param_loss(PlaneInstanceParams(params_arr), sa, points)
        fd = central_difference(
            lambda arr: instance_param_loss(PlaneInstanceParams(arr), sa, points)[0],
            params_arr,
        )
        assert rel_err(grad, fd) < FD_TOL


    def test_spans_match_whole_array_formula(self, monkeypatch):
        # 2500 assigned pixels in spans of 1000: three spans, against the
        # one-shot formula over all assigned rows.
        monkeypatch.setattr(core, "_BLOCK_SPAN", 1000)
        rng = np.random.default_rng(11)
        grid = ImageGrid(50, 60)
        pts = rng.normal(size=(3000, 3)) + np.array([0.0, 0.0, 3.0])
        points = PointMap(grid, pts)
        raw = rng.uniform(0.1, 1.0, (3000, 4))
        raw[rng.permutation(3000)[:500]] = 0.0
        sums = raw.sum(axis=1, keepdims=True)
        sa = SoftAssignment(grid, raw / np.where(sums > 0.0, sums, 1.0))
        params = rng.normal(0.0, 0.4, (4, 3)) + np.array([0.0, 0.0, 0.3])
        value, grad = instance_param_loss(PlaneInstanceParams(params), sa, points)
        rows = sa.assigned_rows
        residual = pts[rows] @ params.T - 1.0
        scale = 1.0 / (int(rows.sum()) * 4)
        assert value == pytest.approx(
            scale * float((sa.weights[rows] * np.abs(residual)).sum()), rel=1e-12
        )
        expected = scale * ((sa.weights[rows] * np.sign(residual)).T @ pts[rows])
        np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", [501, 502])
def test_block_readers_match_dense_formulas_on_training_scenes(seed):
    # Inputs as the benchmark's training workload makes them (192x256,
    # 16 planes), clustered by mean shift. Soft pooling and
    # instance_param_loss read the (C, M) block; BLAS sums in another
    # order than the dense (N, C) formulas, so they agree to rounding.
    grid = ImageGrid(192, 256)
    intr = CameraIntrinsics(fx=230.4, fy=230.4, cx=127.5, cy=95.5)
    scene = generate_scene(SceneSpec(grid=grid, intr=intr, plane_count=16, seed=seed))
    emb = generate_embeddings(
        scene, EmbeddingNoiseSpec(center_min_gap=1.5, sigma=0.2, seed=seed)
    )
    mask = PlanarMask(grid, corrupt_probability(scene, 0.05, seed=seed).probs >= 0.5)
    params = generate_pixel_params(scene, 0.02, seed=seed)
    _, assignment = cluster(emb, mask)
    pooled = pool_instance_params(params, assignment)
    value, grad = instance_param_loss(pooled, assignment, scene.points)
    weights = assignment.weights
    expected = (weights.T @ params.params) / (np.ones(grid.n_pixels) @ weights)[:, None]
    q, s = scene.points.points[mask.mask], weights[mask.mask]
    residual = q @ pooled.params.T - 1.0
    scale = 1.0 / (mask.foreground_count * pooled.clusters)
    want_value = scale * float((s * np.abs(residual)).sum())
    want_grad = scale * ((s * np.sign(residual)).T @ q)

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    assert rel(pooled.params, expected) <= 1e-12
    assert abs(value - want_value) <= 1e-12 * want_value
    assert rel(grad, want_grad) <= 1e-12


def total_loss_inputs(seed=0):
    rng = np.random.default_rng(seed)
    grid = ImageGrid(2, 4)
    n = grid.n_pixels
    gt_mask = PlanarMask(grid, np.arange(n) < 6)
    probs = PlanarProbabilityMap(grid, rng.uniform(0.1, 0.9, n))
    labels = np.where(np.arange(n) < 3, 1, np.where(np.arange(n) < 6, 2, 0))
    seg = InstanceSegmentation(grid, labels)
    emb = EmbeddingMap(grid, rng.normal(size=(n, 2)))
    pred_pp = PixelPlaneParams(grid, rng.normal(size=(n, 3)))
    gt_pp = PixelPlaneParams(grid, rng.normal(size=(n, 3)))
    points = PointMap(grid, rng.normal(size=(n, 3)) + np.array([0, 0, 3.0]))
    raw = rng.uniform(0.1, 1.0, (n, 2))
    sa = SoftAssignment(grid, raw / raw.sum(axis=1, keepdims=True))
    inst = PlaneInstanceParams(rng.normal(0.0, 0.4, (2, 3)))
    return probs, gt_mask, emb, seg, pred_pp, gt_pp, inst, sa, points


class TestTotalLoss:
    def test_matches_component_calls(self):
        probs, gt_mask, emb, seg, pred_pp, gt_pp, inst, sa, points = (
            total_loss_inputs()
        )
        report = total_loss(
            probs, gt_mask, emb, seg, pred_pp, gt_pp, inst, sa, points
        )
        assert report.l_s == balanced_bce(probs, gt_mask)[0]
        assert report.l_pull == pull_loss(emb, seg)[0]
        assert report.l_push == push_loss(emb, seg)[0]
        assert report.l_pp == pixel_param_loss(pred_pp, gt_pp, gt_mask)[0]
        assert report.l_ip == instance_param_loss(inst, sa, points)[0]
        assert report.total == pytest.approx(
            report.l_s + report.l_e + report.l_pp + report.l_ip, abs=1e-15
        )

    def test_perfect_inputs_give_zero_components(self):
        grid = ImageGrid(2, 3)
        n = grid.n_pixels
        gt_mask = PlanarMask(grid, np.arange(n) < 4)
        probs = PlanarProbabilityMap(grid, gt_mask.mask.astype(np.float64))
        labels = np.where(np.arange(n) < 2, 1, np.where(np.arange(n) < 4, 2, 0))
        seg = InstanceSegmentation(grid, labels)
        emb_arr = np.zeros((n, 2))
        emb_arr[labels == 2] = [5.0, 0.0]
        emb = EmbeddingMap(grid, emb_arr)
        pp = PixelPlaneParams(grid, np.tile([0.0, 0.0, 0.5], (n, 1)))
        points = PointMap(grid, np.tile([0.0, 0.0, 2.0], (n, 1)))
        weights = np.zeros((n, 2))
        weights[labels == 1, 0] = 1.0
        weights[labels == 2, 1] = 1.0
        sa = SoftAssignment(grid, weights)
        inst = PlaneInstanceParams(np.tile([0.0, 0.0, 0.5], (2, 1)))
        report = total_loss(probs, gt_mask, emb, seg, pp, pp, inst, sa, points)
        assert report.l_pull == 0.0
        assert report.l_push == 0.0
        assert report.l_pp == 0.0
        assert report.l_ip == 0.0
        assert report.total == pytest.approx(report.l_s)
        assert report.l_s < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_every_component_nonnegative(self, seed):
        report = total_loss(*total_loss_inputs(seed))
        for value in (
            report.l_s,
            report.l_pull,
            report.l_push,
            report.l_pp,
            report.l_ip,
        ):
            assert value >= 0.0


class TestCentralDifference:
    def test_quadratic_gradient(self):
        x = np.array([1.0, -2.0, 3.0])
        fd = central_difference(lambda a: float((a**2).sum()), x)
        np.testing.assert_allclose(fd, 2.0 * x, atol=1e-8)

    def test_matrix_input_shape(self):
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        fd = central_difference(lambda a: float(a.sum()), x)
        assert fd.shape == (2, 3)
        np.testing.assert_allclose(fd, 1.0, atol=1e-9)

    @pytest.mark.parametrize("h", [0.0, -1e-5, math.nan, math.inf])
    def test_rejects_a_step_not_finite_and_positive(self, h):
        calls = []
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            central_difference(lambda a: calls.append(a) or 0.0, np.ones(2), h)
        assert calls == []
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            run_gradient_checks(samples=1, h=h)
