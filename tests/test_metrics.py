"""Evaluation metrics against brute-force oracles and hand-derived values."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarseg.clustering import MeanShiftConfig, cluster, hard_labels
from planarseg.core import CameraIntrinsics, DepthMap, ImageGrid, InstanceSegmentation
from planarseg.geometry import (
    EPS_RAY,
    Plane,
    _normal_angles,
    backproject,
    fit_plane_lsq,
    normal_angle,
    one_hot_assignment,
    pool_instance_params,
    render_segment_depth,
)
from planarseg.metrics import (
    DEPTH_THRESHOLDS,
    NORMAL_THRESHOLDS,
    DepthMetrics,
    Evaluation,
    RecallCurve,
    depth_metrics,
    evaluate,
    metrics_to_json,
    plane_count_histogram,
    rand_index,
    recall_curve_to_csv,
    recall_depth,
    recall_normal,
    segmentation_covering,
    variation_of_information,
)
from planarseg.metrics import _contingency, _iou
from planarseg.synth import (
    EmbeddingNoiseSpec,
    SceneSpec,
    generate_embeddings,
    generate_pixel_params,
    generate_scene,
)


def seg(labels, n_instances=None, width=None):
    labels = np.asarray(labels, dtype=np.int64)
    grid = ImageGrid(1, labels.size) if width is None else ImageGrid(
        labels.size // width, width
    )
    return InstanceSegmentation(grid, labels, n_instances)


def brute_rand(a, b):
    n = len(a)
    if n < 2:
        return 1.0
    agree = total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            agree += (a[i] == a[j]) == (b[i] == b[j])
    return agree / total


def brute_vi(a, b):
    n = len(a)
    h_a = -sum(c / n * math.log(c / n) for c in Counter(a).values())
    h_b = -sum(c / n * math.log(c / n) for c in Counter(b).values())
    h_ab = -sum(c / n * math.log(c / n) for c in Counter(zip(a, b)).values())
    return 2.0 * h_ab - h_a - h_b


def brute_sc(gt, pred):
    total = 0.0
    for g in sorted(set(gt)):
        members = {i for i in range(len(gt)) if gt[i] == g}
        best = 0.0
        for p in sorted(set(pred)):
            others = {i for i in range(len(pred)) if pred[i] == p}
            best = max(best, len(members & others) / len(members | others))
        total += len(members) * best
    return total / len(gt)


def all_partitions(n):
    """Every set partition of range(n) as a 1-based label list."""
    if n == 0:
        yield []
        return
    for part in all_partitions(n - 1):
        blocks = max(part) if part else 0
        for b in range(1, blocks + 1):
            yield part + [b]
        yield part + [blocks + 1]


def iou_matrix(pred, gt):
    """IOU per (pred, gt) instance pair, as the recall matching takes it."""
    return _iou(_contingency(pred, gt)[0])[1:, 1:]


def whole_table_iou(table):
    """Segmentation covering's own IOU matrix over the whole table,
    label 0 included: the oracle for the whole-table ``_iou``."""
    table = table.astype(np.float64)
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    union = rows[:, None] + cols[None, :] - table
    iou = np.zeros_like(union)
    np.divide(table, union, out=iou, where=union > 0.0)
    return iou


class TestIouMatrix:
    def test_identical_segmentation(self):
        s = seg([1, 1, 2, 2, 3, 3])
        np.testing.assert_allclose(iou_matrix(s, s), np.eye(3))

    def test_disjoint_instances_zero(self):
        pred = seg([1, 1, 0, 0])
        gt = seg([0, 0, 1, 1])
        np.testing.assert_array_equal(iou_matrix(pred, gt), [[0.0]])

    def test_half_overlap_is_one_third(self):
        # frozen: |inter| = 1, |union| = 3 for equal-size shifted instances
        pred = seg([1, 1, 0, 0])
        gt = seg([0, 1, 1, 0])
        np.testing.assert_allclose(iou_matrix(pred, gt), [[1.0 / 3.0]])

    def test_label_zero_excluded(self):
        pred = seg([0, 0, 0, 1])
        gt = seg([1, 1, 1, 1])
        np.testing.assert_allclose(iou_matrix(pred, gt), [[0.25]])

    def test_shape(self):
        pred = seg([1, 2, 0, 0], n_instances=3)
        gt = seg([1, 1, 2, 2])
        assert iou_matrix(pred, gt).shape == (3, 2)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="grids"):
            iou_matrix(seg([1, 1]), seg([1, 1, 1]))

    def test_one_kernel_for_matching_and_covering(self):
        # The whole-table IOU equals, bit for bit, both the instance IOU
        # that the matching read and the matrix that covering built; the
        # counts are integers, so every union is exact.
        rng = np.random.default_rng(5)
        for _ in range(300):
            rows, cols = rng.integers(1, 7, size=2)
            table = rng.integers(0, 50, size=(rows, cols))
            table[rng.uniform(size=table.shape) < 0.4] = 0  # empty segments too
            got = _iou(table)
            assert got.shape == table.shape
            np.testing.assert_array_equal(got, whole_table_iou(table))
            np.testing.assert_array_equal(got[1:, 1:], loop_iou(table))


class TestRandIndex:
    def test_identical_partitions(self):
        s = seg([1, 2, 2, 3])
        assert rand_index(s, s) == pytest.approx(1.0)

    def test_singletons_vs_one_block(self):
        n = 6
        a = seg(np.ones(n, dtype=int))
        b = seg(np.arange(1, n + 1))
        expected = brute_rand([1] * n, list(range(n)))
        assert rand_index(a, b) == pytest.approx(expected, abs=1e-12)

    def test_exhaustive_small_partitions(self):
        for n in range(1, 6):
            parts = list(all_partitions(n))
            segs = [seg(p) for p in parts]
            for pa, sa in zip(parts, segs):
                for pb, sb in zip(parts, segs):
                    assert rand_index(sa, sb) == pytest.approx(
                        brute_rand(pa, pb), abs=1e-12
                    )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_labelings_match_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 4, n)
        got = rand_index(seg(a), seg(b))
        assert got == pytest.approx(brute_rand(list(a), list(b)), abs=1e-12)

    def test_single_labeled_pixel_is_perfect(self):
        # one pixel makes no pair, so nothing can disagree
        assert rand_index(seg([1]), seg([2])) == 1.0
        assert rand_index(seg([0]), seg([1])) == 1.0

    def test_relabel_invariance(self):
        a = seg([1, 1, 2, 3, 3, 2])
        b = seg([2, 2, 1, 1, 3, 3])
        a_swapped = seg([3, 3, 1, 2, 2, 1])
        assert rand_index(a, b) == pytest.approx(rand_index(a_swapped, b), abs=1e-15)


class TestVariationOfInformation:
    def test_identical_partitions_zero(self):
        s = seg([1, 1, 2, 3])
        assert variation_of_information(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_independent_binary_splits(self):
        # frozen: independent halvings of 4 pixels -> H(a|b) + H(b|a) = 2 ln 2
        a = seg([1, 1, 2, 2])
        b = seg([1, 2, 1, 2])
        assert variation_of_information(a, b) == pytest.approx(2.0 * math.log(2.0))

    def test_symmetry(self):
        a = seg([1, 1, 2, 3, 3, 2, 1])
        b = seg([2, 1, 1, 1, 3, 3, 2])
        assert variation_of_information(a, b) == pytest.approx(
            variation_of_information(b, a), abs=1e-12
        )

    def test_exhaustive_small_partitions(self):
        for n in range(1, 6):
            parts = list(all_partitions(n))
            segs = [seg(p) for p in parts]
            for pa, sa in zip(parts, segs):
                for pb, sb in zip(parts, segs):
                    assert variation_of_information(sa, sb) == pytest.approx(
                        brute_vi(pa, pb), abs=1e-12
                    )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_labelings_match_entropy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 4, n)
        got = variation_of_information(seg(a), seg(b))
        assert got == pytest.approx(brute_vi(list(a), list(b)), abs=1e-12)


class TestSegmentationCovering:
    def test_identical_is_one(self):
        s = seg([1, 1, 2, 2])
        assert segmentation_covering(s, s) == pytest.approx(1.0)

    def test_one_block_over_two_equal_segments(self):
        # frozen: each segment covered with IOU 0.5, size-weighted -> 0.5
        gt = seg([1, 1, 2, 2])
        pred = seg([1, 1, 1, 1])
        assert segmentation_covering(gt, pred) == pytest.approx(0.5)

    def test_refinement_toward_gt_does_not_decrease(self):
        gt = seg([1, 1, 2, 2, 3, 3])
        coarse = seg([1, 1, 1, 1, 2, 2])
        finer = seg([1, 1, 2, 2, 2, 2])
        assert segmentation_covering(gt, finer) >= segmentation_covering(gt, coarse)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_labelings_match_cover_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        gt = rng.integers(0, 4, n)
        pred = rng.integers(0, 4, n)
        got = segmentation_covering(seg(gt), seg(pred))
        assert got == pytest.approx(brute_sc(list(gt), list(pred)), abs=1e-12)


# --- Loop oracles ---------------------------------------------------------
# The per-instance and per-threshold loops, boolean gathers and full
# bincounts that the metric kernels replaced. They share no helper with
# planarseg.metrics, so a fault in a helper cannot hide in its oracle.


def loop_table(pred, gt):
    """(pred, gt) pixel counts per label pair, added one pixel at a time."""
    table = np.zeros((pred.n_instances + 1, gt.n_instances + 1), dtype=np.int64)
    np.add.at(table, (pred.labels, gt.labels), 1)
    return table


def loop_iou(table):
    inter = table[1:, 1:].astype(np.float64)
    pred_sizes = table[1:, :].sum(axis=1, dtype=np.float64)
    gt_sizes = table[:, 1:].sum(axis=0, dtype=np.float64)
    union = pred_sizes[:, None] + gt_sizes[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def loop_match_instances(table):
    """gt_id -> pred_id for pairs with IOU > 0.5, one column at a time."""
    iou = loop_iou(table)
    pairs = {}
    for g in range(iou.shape[1]):
        winners = np.nonzero(iou[:, g] > 0.5)[0]
        if winners.shape[0]:
            pairs[g + 1] = int(winners[0]) + 1
    return pairs


def loop_recall_curve(table, scores, matched_pred, thresholds):
    """Plane and pixel recall, one threshold at a time; ``scores`` maps
    the scored gt IDs to their errors."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    n_gt = table.shape[1] - 1
    total_planar = int(table[:, 1:].sum())
    plane = np.zeros(thresholds.size)
    pixel = np.zeros(thresholds.size)
    overlap = {g: int(table[p, g]) for g, p in matched_pred.items()}
    for t_idx, t in enumerate(thresholds):
        correct = [g for g, err in scores.items() if err <= t]
        plane[t_idx] = 100.0 * len(correct) / n_gt if n_gt else 0.0
        if total_planar:
            covered = sum(overlap[g] for g in correct)
            pixel[t_idx] = 100.0 * covered / total_planar
    return RecallCurve(thresholds, plane, pixel)


def loop_normal_angle(a, b):
    """The angle of one pair of planes, from its own unit normals."""
    u, v = a.unit_normal, b.unit_normal
    sin = float(np.linalg.norm(np.cross(u, v)))
    cos = float(u @ v)
    return float(np.degrees(np.arctan2(sin, cos)))


def ray_render(seg, planes, intr):
    """Depth 1 / ((nx·x + ny·y) + nz) on each pixel's own plane where that
    denominator exceeds EPS_RAY; label 0 and the rest are invalid."""
    grid = seg.grid
    x = (np.arange(grid.width) - intr.cx) / intr.fx
    y = (np.arange(grid.height) - intr.cy) / intr.fy
    normals = np.concatenate([np.zeros((1, 3))] + [p.n[None, :] for p in planes])
    n = normals[seg.labels].reshape(grid.height, grid.width, 3)
    denom = ((n[..., 0] * x + n[..., 1] * y[:, None]) + n[..., 2]).reshape(-1)
    valid = denom > EPS_RAY
    depth = np.zeros(grid.n_pixels)
    np.divide(1.0, denom, out=depth, where=valid)
    return DepthMap(grid, depth, valid)


def gathered_depth_scores(pred_seg, pred_planes, gt_seg, gt_depth, intr):
    """(table, matches, scores) of the depth recall: the jointly valid
    pixels are gathered first, and two bincounts run over them."""
    table = loop_table(pred_seg, gt_seg)
    matched = loop_match_instances(table)
    rendered = ray_render(pred_seg, pred_planes, intr)
    both = np.flatnonzero(rendered.validity & gt_depth.validity)
    cols = table.shape[1]
    key = pred_seg.labels[both] * cols + gt_seg.labels[both]
    error = np.abs(rendered.depth[both] - gt_depth.depth[both])
    sums = np.bincount(key, error, minlength=table.size).reshape(table.shape)
    counts = np.bincount(key, minlength=table.size).reshape(table.shape)
    scores = {
        g: float(sums[p, g] / counts[p, g]) for g, p in matched.items() if counts[p, g]
    }
    return table, matched, scores


def gathered_recall_depth(pred_seg, pred_planes, gt_seg, gt_depth, intr, thresholds):
    table, matched, scores = gathered_depth_scores(
        pred_seg, pred_planes, gt_seg, gt_depth, intr
    )
    return loop_recall_curve(table, scores, matched, thresholds)


def loop_recall_normal(pred_seg, pred_planes, gt_seg, gt_planes, thresholds):
    """Normal recall with every matched pair scored on its own."""
    table = loop_table(pred_seg, gt_seg)
    matched = loop_match_instances(table)
    scores = {
        g: loop_normal_angle(pred_planes[p - 1], gt_planes[g - 1])
        for g, p in matched.items()
    }
    return loop_recall_curve(table, scores, matched, thresholds)


def loop_segmentation_covering(gt, pred):
    """Segmentation covering, one reference row at a time."""
    table = loop_table(gt, pred).astype(np.float64)
    gt_sizes = table.sum(axis=1)
    pred_sizes = table.sum(axis=0)
    total = 0.0
    for g in range(table.shape[0]):
        if gt_sizes[g] == 0.0:
            continue
        union = gt_sizes[g] + pred_sizes - table[g]
        iou = np.zeros_like(union)
        np.divide(table[g], union, out=iou, where=union > 0.0)
        total += gt_sizes[g] * float(iou.max())
    return float(total / gt_sizes.sum())


def bincount_plane_count_histogram(segmentations):
    hist = {}
    for s in segmentations:
        count = int(np.count_nonzero(np.bincount(s.labels)[1:]))
        hist[count] = hist.get(count, 0) + 1
    return hist


def gathered_depth_metrics(pred, gt):
    """``depth_metrics`` with the jointly valid depths taken by two
    boolean gathers."""
    joint = pred.validity & gt.validity
    if not joint.any():
        raise ValueError("no jointly valid pixels")
    p = pred.depth[joint]
    g = gt.depth[joint]
    with np.errstate(over="ignore", divide="ignore"):
        diff = p - g
        sq = diff**2
        rmse = float(np.sqrt(np.mean(sq)))
        rel_sqr = float(np.mean(np.divide(sq, g, out=sq)))
        rel = float(np.mean(np.divide(np.abs(diff, out=diff), g, out=diff)))
        forward = np.divide(p, g, out=sq)
        log_ratio = np.log(forward, out=diff)
        ratio = np.maximum(forward, np.divide(g, p, out=p), out=forward)
        n = ratio.size
        acc = [100.0 * (np.count_nonzero(ratio < 1.25**k) / n) for k in (1, 2, 3)]
        rmse_log = float(np.sqrt(np.mean(np.square(log_ratio, out=g))))
        log10 = float(np.mean(np.abs(log_ratio, out=log_ratio)) / np.log(10.0))
    return DepthMetrics(rel, rel_sqr, log10, rmse, rmse_log, *acc)


INTR = CameraIntrinsics(fx=60.0, fy=60.0, cx=3.5, cy=2.5)


def banded_scene(widths, planes, grid_width=8, rows=6):
    grid = ImageGrid(rows, grid_width)
    cols = np.arange(grid.n_pixels) % grid_width
    labels = np.zeros(grid.n_pixels, dtype=np.int64)
    start = 0
    for idx, w in enumerate(widths, start=1):
        labels[(cols >= start) & (cols < start + w)] = idx
        start += w
    gt_seg = InstanceSegmentation(grid, labels, len(widths))
    gt_depth = ray_render(gt_seg, planes, INTR)
    return grid, gt_seg, gt_depth


def oracle_recall_depth(pred_seg, pred_planes, gt_seg, gt_depth, intr, thresholds):
    n_gt = gt_seg.n_instances
    scores, overlaps = {}, {}
    for g in range(1, n_gt + 1):
        gt_px = set(np.nonzero(gt_seg.labels == g)[0].tolist())
        if not gt_px:
            continue
        for p in range(1, pred_seg.n_instances + 1):
            pred_px = set(np.nonzero(pred_seg.labels == p)[0].tolist())
            union = len(gt_px | pred_px)
            inter = gt_px & pred_px
            if union == 0 or len(inter) / union <= 0.5:
                continue
            overlaps[g] = len(inter)
            one = InstanceSegmentation(gt_seg.grid, np.ones(gt_seg.grid.n_pixels, int), 1)
            rendered = ray_render(one, [pred_planes[p - 1]], intr)
            region = [
                i for i in inter if gt_depth.validity[i] and rendered.validity[i]
            ]
            if region:
                scores[g] = float(
                    np.mean(
                        [abs(rendered.depth[i] - gt_depth.depth[i]) for i in region]
                    )
                )
    total = int((gt_seg.labels > 0).sum())
    plane, pixel = [], []
    for t in thresholds:
        correct = [g for g, s in scores.items() if s <= t]
        plane.append(100.0 * len(correct) / n_gt if n_gt else 0.0)
        covered = sum(overlaps[g] for g in correct)
        pixel.append(100.0 * covered / total if total else 0.0)
    return np.array(plane), np.array(pixel)


def oracle_recall_normal(pred_seg, pred_planes, gt_seg, gt_planes, thresholds):
    n_gt = gt_seg.n_instances
    scores, overlaps = {}, {}
    for g in range(1, n_gt + 1):
        gt_px = set(np.nonzero(gt_seg.labels == g)[0].tolist())
        if not gt_px:
            continue
        for p in range(1, pred_seg.n_instances + 1):
            pred_px = set(np.nonzero(pred_seg.labels == p)[0].tolist())
            union = len(gt_px | pred_px)
            inter = gt_px & pred_px
            if union == 0 or len(inter) / union <= 0.5:
                continue
            overlaps[g] = len(inter)
            scores[g] = loop_normal_angle(pred_planes[p - 1], gt_planes[g - 1])
    total = int((gt_seg.labels > 0).sum())
    plane, pixel = [], []
    for t in thresholds:
        correct = [g for g, s in scores.items() if s <= t]
        plane.append(100.0 * len(correct) / n_gt if n_gt else 0.0)
        covered = sum(overlaps[g] for g in correct)
        pixel.append(100.0 * covered / total if total else 0.0)
    return np.array(plane), np.array(pixel)


def random_eval_case(seed):
    rng = np.random.default_rng(seed)
    n_planes = int(rng.integers(2, 5))
    widths = [2] * n_planes
    planes = [
        Plane([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(0.3, 0.7)])
        for _ in range(n_planes)
    ]
    grid, gt_seg, gt_depth = banded_scene(widths, planes)
    pred_labels = gt_seg.labels.copy()
    flip = rng.uniform(size=grid.n_pixels) < 0.15
    pred_labels[flip] = rng.integers(0, n_planes + 1, int(flip.sum()))
    pred_seg = InstanceSegmentation(grid, pred_labels, n_planes)
    pred_planes = [
        Plane(p.n / (1.0 + rng.choice([0.0, 0.05, 0.4]))) for p in planes
    ]
    return pred_seg, pred_planes, gt_seg, gt_depth, planes


class TestRecallDepth:
    def test_exact_prediction_everywhere_correct(self):
        planes = [Plane([0, 0, 0.5]), Plane([0, 0, 0.4]), Plane([0, 0, 1.0])]
        _, gt_seg, gt_depth = banded_scene([3, 3, 2], planes)
        curve = recall_depth(gt_seg, planes, gt_seg, gt_depth, INTR)
        np.testing.assert_allclose(curve.plane_recall, 100.0)
        np.testing.assert_allclose(curve.pixel_recall, 100.0)
        np.testing.assert_allclose(curve.thresholds, DEPTH_THRESHOLDS)

    def test_no_match_means_zero(self):
        planes = [Plane([0, 0, 0.5]), Plane([0, 0, 0.4])]
        grid, gt_seg, gt_depth = banded_scene([4, 4], planes)
        pred_seg = InstanceSegmentation(
            grid, np.zeros(grid.n_pixels, dtype=np.int64), 0
        )
        curve = recall_depth(pred_seg, [], gt_seg, gt_depth, INTR)
        np.testing.assert_array_equal(curve.plane_recall, 0.0)
        np.testing.assert_array_equal(curve.pixel_recall, 0.0)

    def test_offset_plane_needs_matching_threshold(self):
        # one band predicted 0.18 m too deep: correct only from t = 0.20 up
        planes = [Plane([0, 0, 0.5]), Plane([0, 0, 0.5]), Plane([0, 0, 0.5])]
        _, gt_seg, gt_depth = banded_scene([3, 3, 2], planes)
        pred_planes = [planes[0], Plane([0, 0, 1.0 / 2.18]), planes[2]]
        curve = recall_depth(gt_seg, pred_planes, gt_seg, gt_depth, INTR)
        below = curve.thresholds < 0.2
        np.testing.assert_allclose(curve.plane_recall[below], 200.0 / 3.0)
        np.testing.assert_allclose(curve.plane_recall[~below], 100.0)

    def test_matches_brute_force_oracle(self, each_tile):
        for seed in range(20):
            pred_seg, pred_planes, gt_seg, gt_depth, _ = random_eval_case(seed)
            plane, pixel = oracle_recall_depth(
                pred_seg, pred_planes, gt_seg, gt_depth, INTR, DEPTH_THRESHOLDS
            )
            for _ in each_tile():
                curve = recall_depth(pred_seg, pred_planes, gt_seg, gt_depth, INTR)
                np.testing.assert_allclose(curve.plane_recall, plane, atol=1e-12)
                np.testing.assert_allclose(curve.pixel_recall, pixel, atol=1e-12)

    def test_huge_threshold_counts_every_match(self):
        pred_seg, pred_planes, gt_seg, gt_depth, _ = random_eval_case(99)
        curve = recall_depth(
            pred_seg, pred_planes, gt_seg, gt_depth, INTR, thresholds=[1e9]
        )
        matched = len(loop_match_instances(loop_table(pred_seg, gt_seg)))
        assert curve.plane_recall[0] == pytest.approx(
            100.0 * matched / gt_seg.n_instances
        )

    @pytest.mark.parametrize("hole", ["reference", "rendered"])
    def test_pair_without_jointly_valid_pixels_is_unscored(self, hole):
        # band 1 is matched, but no pixel of it is valid in both depth maps
        planes = [Plane([0, 0, 0.5]), Plane([0, 0, 0.4])]
        grid, gt_seg, gt_depth = banded_scene([4, 4], planes)
        pred_planes = planes
        if hole == "reference":
            gt_depth = DepthMap(
                grid, gt_depth.depth, gt_depth.validity & (gt_seg.labels != 1)
            )
        else:
            pred_planes = [Plane([0, 0, -0.5]), planes[1]]  # behind the camera
        curve = recall_depth(
            gt_seg, pred_planes, gt_seg, gt_depth, INTR, thresholds=[1e9]
        )
        np.testing.assert_array_equal(curve.plane_recall, [50.0])
        np.testing.assert_array_equal(curve.pixel_recall, [50.0])
        plane, pixel = oracle_recall_depth(
            gt_seg, pred_planes, gt_seg, gt_depth, INTR, [1e9]
        )
        np.testing.assert_array_equal(curve.plane_recall, plane)
        np.testing.assert_array_equal(curve.pixel_recall, pixel)

    def test_plane_list_length_checked(self):
        planes = [Plane([0, 0, 0.5]), Plane([0, 0, 0.4])]
        _, gt_seg, gt_depth = banded_scene([4, 4], planes)
        with pytest.raises(ValueError, match="one plane per"):
            recall_depth(gt_seg, planes[:1], gt_seg, gt_depth, INTR)


class TestRecallDepthGatherOracle:
    """``recall_depth`` against the gather-based kernel, bit for bit."""

    def assert_same(
        self, each_tile, pred_seg, pred_planes, gt_seg, gt_depth, thresholds
    ):
        want = gathered_recall_depth(
            pred_seg, pred_planes, gt_seg, gt_depth, INTR, thresholds
        )
        for _ in each_tile():
            got = recall_depth(pred_seg, pred_planes, gt_seg, gt_depth, INTR, thresholds)
            for name in ("thresholds", "plane_recall", "pixel_recall"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_gapped_ids_and_unlabeled_predictions(self, seed, each_tile):
        pred_seg, pred_planes, gt_seg, gt_depth, _ = random_eval_case(seed)
        rng = np.random.default_rng(seed)
        # Shift predicted IDs up by one so ID 1 owns no pixel, and leave
        # a block of predicted label 0 over labeled reference pixels.
        labels = np.where(pred_seg.labels > 0, pred_seg.labels + 1, 0)
        labels[rng.integers(0, labels.size, 8)] = 0
        pred_seg = InstanceSegmentation(pred_seg.grid, labels, pred_seg.n_instances + 1)
        pred_planes = [Plane([0.0, 0.0, 0.3])] + pred_planes
        # Holes in the reference depth, and a continuous error spread.
        holes = rng.random(gt_depth.depth.size) < 0.2
        gt_depth = DepthMap(
            gt_depth.grid,
            gt_depth.depth * rng.uniform(0.9, 1.1, gt_depth.depth.size),
            gt_depth.validity & ~holes,
        )
        thresholds = np.sort(rng.uniform(0.0, 0.5, 7))
        self.assert_same(each_tile, pred_seg, pred_planes, gt_seg, gt_depth, thresholds)

    @pytest.mark.parametrize("hole", ["reference", "rendered"])
    def test_matched_pair_without_jointly_valid_pixels(self, hole, each_tile):
        planes = [Plane([0, 0, 0.5]), Plane([0, 0, 0.4]), Plane([0, 0, 0.6])]
        grid, gt_seg, gt_depth = banded_scene([3, 3, 2], planes)
        pred_planes = planes
        if hole == "reference":
            gt_depth = DepthMap(
                grid, gt_depth.depth, gt_depth.validity & (gt_seg.labels != 2)
            )
        else:
            pred_planes = [planes[0], Plane([0, 0, -0.5]), planes[2]]
        self.assert_same(each_tile, gt_seg, pred_planes, gt_seg, gt_depth, DEPTH_THRESHOLDS)

    def test_prediction_all_unlabeled(self, each_tile):
        planes = [Plane([0, 0, 0.5]), Plane([0, 0, 0.4])]
        grid, gt_seg, gt_depth = banded_scene([4, 4], planes)
        pred_seg = InstanceSegmentation(grid, np.zeros(grid.n_pixels, dtype=np.int64), 2)
        self.assert_same(each_tile, pred_seg, planes, gt_seg, gt_depth, DEPTH_THRESHOLDS)


def shift_ids(seg, planes, filler):
    """The segmentation with every ID moved up by one, so ID 1 owns no
    pixel, and its plane list with ``filler`` as plane 1."""
    labels = np.where(seg.labels > 0, seg.labels + 1, 0)
    return InstanceSegmentation(seg.grid, labels, seg.n_instances + 1), [filler] + planes


def oracle_case(name):
    """(pred_seg, pred_planes, gt_seg, gt_depth, gt_planes) of a named
    edge case for the loop-oracle comparisons."""
    if name.startswith("random-"):
        seed = int(name.split("-")[1])
        pred_seg, pred_planes, gt_seg, gt_depth, gt_planes = random_eval_case(seed)
        rng = np.random.default_rng(seed)
        labels = pred_seg.labels.copy()
        labels[rng.integers(0, labels.size, 6)] = 0
        pred_seg = InstanceSegmentation(pred_seg.grid, labels, pred_seg.n_instances)
        holes = rng.random(gt_depth.depth.size) < 0.2
        gt_depth = DepthMap(gt_depth.grid, gt_depth.depth, gt_depth.validity & ~holes)
        return pred_seg, list(pred_planes), gt_seg, gt_depth, list(gt_planes)
    if name == "gapped":
        # Both ID spaces have an empty ID 1, and the prediction leaves a
        # few labeled reference pixels unlabeled.
        pred_seg, pred_planes, gt_seg, gt_depth, gt_planes = oracle_case("random-7")
        pred_seg, pred_planes = shift_ids(pred_seg, pred_planes, Plane([0.0, 0.0, 0.3]))
        gt_seg, gt_planes = shift_ids(gt_seg, gt_planes, Plane([0.1, 0.0, 0.3]))
        return pred_seg, pred_planes, gt_seg, gt_depth, gt_planes
    planes = [Plane([0, 0, 0.5]), Plane([0.05, 0, 0.4]), Plane([0, -0.05, 0.6])]
    grid, gt_seg, gt_depth = banded_scene([3, 3, 2], planes)
    if name == "no-match":
        # One predicted instance over the first six of eight columns: its
        # IOU with bands 1 and 2 is exactly 0.5, which is no match.
        cols = np.arange(grid.n_pixels) % grid.width
        one = InstanceSegmentation(grid, (cols < 6).astype(np.int64), 1)
        assert np.array_equal(loop_iou(loop_table(one, gt_seg)), [[0.5, 0.5, 0.0]])
        return one, planes[:1], gt_seg, gt_depth, planes
    if name == "all-unlabeled":
        none = InstanceSegmentation(grid, np.zeros(grid.n_pixels, dtype=np.int64), 3)
        return none, planes, gt_seg, gt_depth, planes
    if name == "no-joint-valid":
        # Pair 2 has no valid reference depth, and pair 3 renders behind
        # the camera: both are matched, neither has a jointly valid pixel.
        gt_depth = DepthMap(grid, gt_depth.depth, gt_depth.validity & (gt_seg.labels != 2))
        pred_planes = [planes[0], planes[1], Plane([0, 0, -0.6])]
        return gt_seg, pred_planes, gt_seg, gt_depth, planes
    assert name == "at-threshold"
    # Depth errors 0 and 2 and angles 0, 90 and 180 degrees, all exact.
    gt_planes = [Plane([0, 0, 0.5])] * 4
    grid, gt_seg, gt_depth = banded_scene([2, 2, 2, 2], gt_planes)
    pred_planes = [
        Plane([0, 0, 0.5]), Plane([0, 0, 0.25]), Plane([0.5, 0, 0]), Plane([0, 0, -0.5]),
    ]
    return gt_seg, pred_planes, gt_seg, gt_depth, gt_planes


ORACLE_CASES = [
    "gapped", "no-match", "all-unlabeled", "no-joint-valid", "at-threshold",
] + [f"random-{seed}" for seed in range(8)]


def same_bytes(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestLoopOracles:
    """Every metric kernel against the loop it replaced, byte for byte.

    The thresholds include every score the oracle gives, so a score
    exactly at a threshold must count as correct on both sides.
    """

    def assert_same_curve(self, got, want):
        for name in ("thresholds", "plane_recall", "pixel_recall"):
            assert same_bytes(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_recall_depth(self, name, each_tile):
        pred_seg, pred_planes, gt_seg, gt_depth, _ = oracle_case(name)
        _, _, scores = gathered_depth_scores(pred_seg, pred_planes, gt_seg, gt_depth, INTR)
        thresholds = np.unique(np.concatenate([DEPTH_THRESHOLDS, list(scores.values())]))
        want = gathered_recall_depth(
            pred_seg, pred_planes, gt_seg, gt_depth, INTR, thresholds
        )
        for _ in each_tile():
            got = recall_depth(pred_seg, pred_planes, gt_seg, gt_depth, INTR, thresholds)
            self.assert_same_curve(got, want)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_recall_normal(self, name):
        pred_seg, pred_planes, gt_seg, _, gt_planes = oracle_case(name)
        thresholds = np.asarray(NORMAL_THRESHOLDS)
        if name == "at-threshold":
            angles = [loop_normal_angle(p, g) for p, g in zip(pred_planes, gt_planes)]
            assert angles == [0.0, 0.0, 90.0, 180.0]
            thresholds = np.unique(np.concatenate([thresholds, angles]))
        got = recall_normal(pred_seg, pred_planes, gt_seg, gt_planes, thresholds)
        want = loop_recall_normal(pred_seg, pred_planes, gt_seg, gt_planes, thresholds)
        self.assert_same_curve(got, want)

    def test_at_threshold_case_counts_its_edges(self):
        pred_seg, pred_planes, gt_seg, gt_depth, gt_planes = oracle_case("at-threshold")
        depth = recall_depth(pred_seg, pred_planes, gt_seg, gt_depth, INTR, [0.0, 2.0])
        np.testing.assert_array_equal(depth.plane_recall, [25.0, 50.0])
        normal = recall_normal(pred_seg, pred_planes, gt_seg, gt_planes, [0.0, 90.0, 180.0])
        np.testing.assert_array_equal(normal.plane_recall, [50.0, 75.0, 100.0])

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_contingency_tables(self, name):
        pred_seg, _, gt_seg, _, _ = oracle_case(name)
        for a, b in ((pred_seg, gt_seg), (gt_seg, pred_seg)):
            got = _contingency(a, b)[0]
            want = loop_table(a, b)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert same_bytes(got, want)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    @pytest.mark.parametrize("swapped", [False, True])
    def test_segmentation_covering(self, name, swapped):
        # Covering is not symmetric: each case is scored both ways round.
        pred_seg, _, gt_seg, _, _ = oracle_case(name)
        if swapped:
            pred_seg, gt_seg = gt_seg, pred_seg
        got = segmentation_covering(gt_seg, pred_seg)
        want = loop_segmentation_covering(gt_seg, pred_seg)
        assert same_bytes(got, want)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_depth_metrics(self, name):
        pred_seg, pred_planes, _, gt_depth, _ = oracle_case(name)
        pred_depth = ray_render(pred_seg, pred_planes, INTR)
        try:
            want = gathered_depth_metrics(pred_depth, gt_depth)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                depth_metrics(pred_depth, gt_depth)
            return
        got = depth_metrics(pred_depth, gt_depth)
        for key, value in want.as_dict().items():
            assert same_bytes(got.as_dict()[key], value), key

    def test_plane_count_histogram(self):
        segs = []
        for name in ORACLE_CASES:
            pred_seg, _, gt_seg, _, _ = oracle_case(name)
            segs += [pred_seg, gt_seg]
        got = plane_count_histogram(segs)
        assert got == bincount_plane_count_histogram(segs)
        assert all(type(k) is int and type(v) is int for k, v in got.items())


class TestNormalAngleKernel:
    """The vectorised angle kernel against the one-pair formula."""

    def test_matches_one_pair_formula(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(400, 3)) * rng.uniform(1e-3, 1e3, (400, 1))
        # near-parallel and near-antiparallel pairs, where arccos would fail
        b = np.concatenate([
            rng.normal(size=(200, 3)),
            a[:100] * 2.0 + rng.normal(scale=1e-9, size=(100, 3)),
            -a[100:200] + rng.normal(scale=1e-9, size=(100, 3)),
        ])
        got = _normal_angles(a, b)
        for row, (u, v) in enumerate(zip(a, b)):
            # the rows take the same dot products as one pair does
            assert got[row] == loop_normal_angle(Plane(u), Plane(v))
            assert normal_angle(Plane(u), Plane(v)) == got[row]

    def test_identical_and_opposite_normals_are_exact(self):
        a = np.array([[0.3, -0.2, 0.7], [1e-3, 2e-3, 5e-3]])
        np.testing.assert_array_equal(_normal_angles(a, 4.0 * a), [0.0, 0.0])
        np.testing.assert_array_equal(_normal_angles(a, -a), [180.0, 180.0])

    def test_no_pairs(self):
        assert _normal_angles(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)


class TestRecallNormal:
    def test_identical_planes_always_correct(self):
        planes = [Plane([0, 0, 0.5]), Plane([0.2, 0, 0.5])]
        _, gt_seg, _ = banded_scene([4, 4], planes)
        curve = recall_normal(gt_seg, planes, gt_seg, planes)
        np.testing.assert_allclose(curve.plane_recall, 100.0)
        np.testing.assert_allclose(curve.thresholds, NORMAL_THRESHOLDS)

    def test_tilted_normal_needs_angle_budget(self):
        gt_planes = [Plane([0, 0, 0.5]), Plane([0, 0, 0.5])]
        # frozen: tan(10 deg) tilt on one normal
        tilt = math.tan(math.radians(10.0))
        pred_planes = [Plane([0, 0, 0.5]), Plane([0.5 * tilt, 0, 0.5])]
        _, gt_seg, _ = banded_scene([4, 4], gt_planes)
        curve = recall_normal(gt_seg, pred_planes, gt_seg, gt_planes)
        below = np.asarray(NORMAL_THRESHOLDS) < 10.0
        np.testing.assert_allclose(curve.plane_recall[below], 50.0)
        np.testing.assert_allclose(curve.plane_recall[~below], 100.0)

    def test_orthogonal_normal_never_correct(self):
        gt_planes = [Plane([0, 0, 0.5])]
        pred_planes = [Plane([0.5, 0, 1e-5])]
        _, gt_seg, _ = banded_scene([8], gt_planes)
        curve = recall_normal(gt_seg, pred_planes, gt_seg, gt_planes)
        np.testing.assert_array_equal(curve.plane_recall, 0.0)

    def test_matches_brute_force_oracle(self):
        for seed in range(20, 40):
            pred_seg, pred_planes, gt_seg, _, gt_planes = random_eval_case(seed)
            curve = recall_normal(pred_seg, pred_planes, gt_seg, gt_planes)
            plane, pixel = oracle_recall_normal(
                pred_seg, pred_planes, gt_seg, gt_planes, NORMAL_THRESHOLDS
            )
            np.testing.assert_allclose(curve.plane_recall, plane, atol=1e-12)
            np.testing.assert_allclose(curve.pixel_recall, pixel, atol=1e-12)


class TestRecallCurveType:
    def test_rejects_decreasing_recall(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            RecallCurve(np.array([0.1, 0.2]), np.array([50.0, 40.0]), np.zeros(2))

    def test_rejects_unsorted_thresholds(self):
        with pytest.raises(ValueError, match="ascending"):
            RecallCurve(np.array([0.2, 0.1]), np.zeros(2), np.zeros(2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="plane_recall"):
            RecallCurve(np.array([0.1]), np.array([101.0]), np.array([0.0]))

    def test_immutable(self):
        curve = RecallCurve(np.array([0.1]), np.array([50.0]), np.array([25.0]))
        with pytest.raises(ValueError):
            curve.plane_recall[0] = 0.0


def oracle_depth_metrics(pred, gt):
    """The four-log formulas: log10 and ln of each depth taken apart."""
    joint = pred.validity & gt.validity
    p = pred.depth[joint]
    g = gt.depth[joint]
    diff = p - g
    ratio = np.maximum(p / g, g / p)
    return DepthMetrics(
        rel=float(np.mean(np.abs(diff) / g)),
        rel_sqr=float(np.mean(diff**2 / g)),
        log10=float(np.mean(np.abs(np.log10(p) - np.log10(g)))),
        rmse=float(np.sqrt(np.mean(diff**2))),
        rmse_log=float(np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2))),
        acc_1=float(100.0 * np.mean(ratio < 1.25)),
        acc_2=float(100.0 * np.mean(ratio < 1.25**2)),
        acc_3=float(100.0 * np.mean(ratio < 1.25**3)),
    )


class TestDepthMetrics:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3000),
        spread=st.floats(0.01, 3.0),
    )
    def test_matches_four_log_oracle(self, seed, n, spread):
        rng = np.random.default_rng(seed)
        grid = ImageGrid(1, n)
        g = rng.uniform(0.1, 50.0, n)
        p = g * np.exp(rng.normal(0.0, spread, n))
        pred_valid, gt_valid = rng.random((2, n)) < 0.9
        pred_valid[0] = gt_valid[0] = True
        pred, gt = DepthMap(grid, p, pred_valid), DepthMap(grid, g, gt_valid)
        got = depth_metrics(pred, gt).as_dict()
        want = oracle_depth_metrics(pred, gt).as_dict()
        for key in ("rel", "rel_sqr", "rmse", "acc_1", "acc_2", "acc_3"):
            assert got[key] == want[key], key
        for key in ("log10", "rmse_log"):
            assert abs(got[key] - want[key]) <= 1e-12, key

    def test_ratio_ties_fail_accuracy(self):
        # frozen: a ratio of exactly 1.25^k fails acc_k, either way round
        grid = ImageGrid(1, 6)
        g = np.array([1.0, 1.0, 1.0, 1.25, 1.5625, 1.953125])
        p = np.array([1.25, 1.5625, 1.953125, 1.0, 1.0, 1.0])
        m = depth_metrics(DepthMap(grid, p), DepthMap(grid, g))
        assert m.acc_1 == 0.0
        assert m.acc_2 == pytest.approx(100.0 / 3.0)
        assert m.acc_3 == pytest.approx(200.0 / 3.0)
        want = oracle_depth_metrics(DepthMap(grid, p), DepthMap(grid, g))
        assert (m.acc_1, m.acc_2, m.acc_3) == (want.acc_1, want.acc_2, want.acc_3)

    def test_exact_prediction(self):
        grid = ImageGrid(2, 3)
        gt = DepthMap(grid, np.linspace(1.0, 3.0, 6))
        m = depth_metrics(gt, gt)
        assert m.rel == m.rel_sqr == m.log10 == m.rmse == m.rmse_log == 0.0
        assert m.acc_1 == m.acc_2 == m.acc_3 == 100.0

    def test_twenty_percent_overshoot(self):
        # frozen: ratio 1.2 < 1.25 so acc_1 stays 100 while rel = 0.2
        grid = ImageGrid(2, 3)
        g = np.linspace(1.0, 3.0, 6)
        m = depth_metrics(DepthMap(grid, 1.2 * g), DepthMap(grid, g))
        assert m.rel == pytest.approx(0.2)
        assert m.acc_1 == 100.0

    def test_single_pixel_double(self):
        # frozen: pred 2 vs gt 1 -> rel = rmse = rel_sqr = 1, ratio 2 fails
        # every 1.25^k bound, log10 = log10 2, rmse_log = ln 2
        grid = ImageGrid(1, 1)
        m = depth_metrics(
            DepthMap(grid, np.array([2.0])), DepthMap(grid, np.array([1.0]))
        )
        assert m.rel == pytest.approx(1.0)
        assert m.rel_sqr == pytest.approx(1.0)
        assert m.rmse == pytest.approx(1.0)
        assert m.log10 == pytest.approx(math.log10(2.0))
        assert m.rmse_log == pytest.approx(math.log(2.0))
        assert m.acc_1 == m.acc_2 == m.acc_3 == 0.0

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(0.2, 3.0))
    def test_constant_scaling_property(self, alpha):
        grid = ImageGrid(2, 2)
        g = np.array([1.0, 2.0, 0.5, 3.0])
        m = depth_metrics(DepthMap(grid, alpha * g), DepthMap(grid, g))
        assert m.rel == pytest.approx(abs(alpha - 1.0), abs=1e-12)

    def test_restricts_to_jointly_valid(self):
        grid = ImageGrid(1, 3)
        pred = DepthMap(grid, np.array([1.0, 9.0, 1.0]), np.array([True, True, False]))
        gt = DepthMap(grid, np.array([1.0, 9.0, 5.0]), np.array([True, False, True]))
        m = depth_metrics(pred, gt)
        assert m.rel == 0.0

    def test_depths_far_apart_in_scale_read_inf(self):
        grid = ImageGrid(1, 3)
        # 1 / 5e-324 overflows, and 5e-324 / 1e10 underflows to 0
        pred = DepthMap(grid, np.array([1.0, 5e-324, 2.0]))
        gt = DepthMap(grid, np.array([5e-324, 1e10, 2.0]))
        m = depth_metrics(pred, gt)
        for name in ("rel", "rel_sqr", "log10", "rmse_log"):
            assert getattr(m, name) == math.inf
        assert math.isfinite(m.rmse)
        assert m.acc_1 == m.acc_3 == pytest.approx(100.0 / 3.0)

    def test_no_joint_validity_rejected(self):
        grid = ImageGrid(1, 2)
        pred = DepthMap(grid, np.ones(2), np.array([True, False]))
        gt = DepthMap(grid, np.ones(2), np.array([False, True]))
        with pytest.raises(ValueError, match="jointly valid"):
            depth_metrics(pred, gt)

    def test_as_dict_keys(self):
        m = DepthMetrics(0, 0, 0, 0, 0, 100, 100, 100)
        assert set(m.as_dict()) == {
            "rel", "rel_sqr", "log10", "rmse", "rmse_log", "acc_1", "acc_2", "acc_3",
        }


class TestPlaneCountHistogram:
    def test_empty_batch(self):
        assert plane_count_histogram([]) == {}

    def test_counts_distinct_nonzero_labels(self):
        a = seg([1, 1, 2, 3])
        b = seg([0, 1, 1, 2], n_instances=3)
        c = seg([0, 0, 0, 0])
        assert plane_count_histogram([a, b, c]) == {3: 1, 2: 1, 0: 1}

    def test_total_equals_batch_size(self):
        batch = [seg([1, 1, 2, 2]) for _ in range(5)]
        assert sum(plane_count_histogram(batch).values()) == 5


class TestHugeIds:
    """The partition metrics depend only on the partition: a map holding
    IDs up to 2**62 scores as the same map with compact IDs."""

    CASES = [
        # (huge labels, n_instances, the same partition with compact IDs)
        ([2**62, 2**62, 0, 7], None, [2, 2, 0, 1]),
        ([2**62, 5, 2**61, 5], None, [3, 1, 2, 1]),  # no label 0
        ([1, 2, 3, 4], 10**6, [1, 2, 3, 4]),  # a large ID space, small IDs
        ([0, 0, 0, 0], 2**62, [0, 0, 0, 0]),
    ]
    OTHERS = [[1, 1, 2, 2], [0, 1, 1, 0], [3, 1, 2, 0]]

    @pytest.mark.parametrize("huge, n_instances, compact", CASES)
    @pytest.mark.parametrize("other", OTHERS)
    def test_pair_metrics_match_compact_ids(self, huge, n_instances, compact, other):
        big, small, ref = seg(huge, n_instances), seg(compact), seg(other)
        for fn in (rand_index, variation_of_information, segmentation_covering):
            assert same_bytes(fn(big, ref), fn(small, ref)), fn.__name__
            assert same_bytes(fn(ref, big), fn(ref, small)), fn.__name__
            assert same_bytes(fn(big, big), fn(small, small)), fn.__name__

    def test_plane_count_matches_compact_ids(self):
        batch = [seg(huge, n) for huge, n, _ in self.CASES]
        assert plane_count_histogram(batch) == plane_count_histogram(
            [seg(compact) for _, _, compact in self.CASES]
        )
        assert plane_count_histogram(batch) == {2: 1, 3: 1, 4: 1, 0: 1}


def chain_evaluation(pred_seg, pred_planes, gt_seg, gt_depth, intr):
    """The per-function chain that ``evaluate`` replaces: one full-grid
    mask and plane fit per reference segment, then each metric on its
    own, rendering the prediction twice and building the table five
    times."""
    points = backproject(gt_depth, intr)
    gt_planes = []
    for idx in range(1, gt_seg.n_instances + 1):
        try:
            plane, _ = fit_plane_lsq(points, np.nonzero(gt_seg.labels == idx)[0])
        except ValueError as exc:
            raise ValueError(f"reference segment {idx}: {exc}") from exc
        gt_planes.append(plane)
    depth_curve = recall_depth(pred_seg, pred_planes, gt_seg, gt_depth, intr)
    normal_curve = recall_normal(pred_seg, pred_planes, gt_seg, gt_planes)
    pred_depth = render_segment_depth(pred_seg, pred_planes, intr)
    (count,) = plane_count_histogram([pred_seg])
    return Evaluation(
        depth_curve,
        normal_curve,
        rand_index(pred_seg, gt_seg),
        variation_of_information(pred_seg, gt_seg),
        segmentation_covering(gt_seg, pred_seg),
        depth_metrics(pred_depth, gt_depth),
        count,
    )


def clustered_case(seed, planes=4, nonplanar=0.1):
    """A small synthetic scene with its prediction made the paper's way:
    mean shift clusters, then one-hot pooled plane rows."""
    grid = ImageGrid(24, 32)
    intr = CameraIntrinsics(fx=28.8, fy=28.8, cx=15.5, cy=11.5)
    scene = generate_scene(
        SceneSpec(
            grid, intr, plane_count=planes, nonplanar_fraction=nonplanar, seed=seed
        )
    )
    emb = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.15, seed=seed))
    _, assignment = cluster(emb, scene.mask, MeanShiftConfig(bandwidth=0.5))
    pred = hard_labels(assignment)
    params = generate_pixel_params(scene, 0.02, seed=seed)
    pooled = pool_instance_params(params, one_hot_assignment(pred))
    planes = [Plane(row) for row in pooled.params]
    return pred, planes, scene.segmentation, scene.depth, intr


def assert_same_evaluation(got, want):
    for name in ("recall_depth", "recall_normal"):
        a, b = getattr(got, name), getattr(want, name)
        for field in ("thresholds", "plane_recall", "pixel_recall"):
            assert same_bytes(getattr(a, field), getattr(b, field)), (name, field)
    for name in ("rand_index", "variation_of_information", "segmentation_covering"):
        assert same_bytes(getattr(got, name), getattr(want, name)), name
    depths = [list(e.depth.as_dict().values()) for e in (got, want)]
    assert same_bytes(*depths)
    assert got.depth == want.depth and got.plane_count == want.plane_count


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestEvaluate:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_chain_on_clustered_scenes(self, seed, each_tile):
        # The chain runs at the default tile, which covers these grids.
        case = clustered_case(seed, planes=2 + seed % 4)
        want = chain_evaluation(*case)
        for _ in each_tile():
            assert_same_evaluation(evaluate(*case), want)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_matches_the_chain_on_oracle_cases(self, name, each_tile):
        # Gapped reference IDs and no jointly valid pixel raise the same
        # error in both; every other case scores the same bits.
        pred_seg, pred_planes, gt_seg, gt_depth, _ = oracle_case(name)
        args = (pred_seg, pred_planes, gt_seg, gt_depth, INTR)
        want = outcome(chain_evaluation, *args)
        for _ in each_tile():
            got = outcome(evaluate, *args)
            if isinstance(want, str):
                assert got == want
            else:
                assert_same_evaluation(got, want)

    @pytest.mark.parametrize(
        "relabel, n_instances, message",
        [
            ({2: 2**62}, None, "reference segment 2: degenerate point set"),
            ({3: 7}, None, "reference segment 3: degenerate point set"),
            ({}, 6, "reference segment 5: degenerate point set"),
        ],
        ids=["huge-label", "gap", "trailing-ids"],
    )
    def test_first_missing_reference_segment_named(self, relabel, n_instances, message):
        # The grouping sorts the pixels, so a label of 2**62 costs nothing,
        # and the first ID without pixels, in ascending order, is named.
        pred_seg, pred_planes, gt_seg, gt_depth, intr = clustered_case(1)
        labels = gt_seg.labels.copy()
        for old, new in relabel.items():
            labels[gt_seg.labels == old] = new
        gt = InstanceSegmentation(gt_seg.grid, labels, n_instances)
        with pytest.raises(ValueError) as raised:
            evaluate(pred_seg, pred_planes, gt, gt_depth, intr)
        assert str(raised.value).startswith(message)
        if relabel != {2: 2**62}:  # the chain loops up to the label
            assert str(raised.value) == outcome(
                chain_evaluation, pred_seg, pred_planes, gt, gt_depth, intr
            )

    def test_rejects_mismatched_inputs(self):
        pred_seg, pred_planes, gt_seg, gt_depth, intr = clustered_case(3)
        small = InstanceSegmentation(ImageGrid(2, 2), np.ones(4, dtype=np.int64))
        with pytest.raises(ValueError, match="grids must match"):
            evaluate(small, pred_planes, gt_seg, gt_depth, intr)
        with pytest.raises(ValueError, match="need one plane per instance"):
            evaluate(pred_seg, pred_planes[:-1], gt_seg, gt_depth, intr)


class TestSerialization:
    def test_recall_csv_header_and_rows(self):
        curve = RecallCurve(
            np.array([0.05, 0.1]), np.array([50.0, 100.0]), np.array([25.0, 75.0])
        )
        text = recall_curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "threshold,plane_recall,pixel_recall"
        assert lines[1] == "0.05,50.000000,25.000000"
        assert len(lines) == 3

    def test_json_sorted_and_parseable(self):
        text = metrics_to_json({"b": 1.0, "a": {"z": 2}})
        assert json.loads(text) == {"b": 1.0, "a": {"z": 2}}
        assert text.index('"a"') < text.index('"b"')
