"""Segmentation and depth evaluation.

Partition metrics (Rand index, variation of information, segmentation
covering) come from an O(C_a * C_b) contingency table over every pixel,
label 0 counting as one more segment. A segmentation whose ID space is
at least its pixel count has its present IDs renumbered first, so the
table stays sized by the pixel count. Recall curves match predicted
instances to reference instances by IOU > 0.5 and then apply a
per-threshold geometric test (mean depth difference or normal angle).
Depth metrics follow the standard monocular evaluation set.
:func:`evaluate` scores one image under the whole protocol in one pass;
each per-metric function is a thin wrapper over the same table-level
kernel that it calls.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .core import (
    CameraIntrinsics,
    DepthMap,
    InstanceSegmentation,
    _compact,
    _frozen,
    _tiles,
)
from .geometry import (
    Plane,
    _instance_normals,
    _normal_angles,
    _render_arrays,
    backproject,
    fit_plane_lsq,
)

__all__ = [
    "RecallCurve",
    "DepthMetrics",
    "Evaluation",
    "DEPTH_THRESHOLDS",
    "NORMAL_THRESHOLDS",
    "recall_depth",
    "recall_normal",
    "rand_index",
    "variation_of_information",
    "segmentation_covering",
    "depth_metrics",
    "evaluate",
    "plane_count_histogram",
    "recall_curve_to_csv",
    "metrics_to_json",
]

DEPTH_THRESHOLDS = tuple(np.arange(1, 13) * 0.05)
NORMAL_THRESHOLDS = tuple(np.arange(0, 13) * 2.5)


@dataclass(frozen=True)
class RecallCurve:
    """Plane and pixel recall percentages over ascending thresholds."""

    thresholds: np.ndarray
    plane_recall: np.ndarray
    pixel_recall: np.ndarray

    def __post_init__(self) -> None:
        thresholds = _frozen(self.thresholds, np.float64)
        plane = _frozen(self.plane_recall, np.float64)
        pixel = _frozen(self.pixel_recall, np.float64)
        if not (thresholds.shape == plane.shape == pixel.shape):
            raise ValueError("curve arrays must share one shape")
        if thresholds.ndim != 1 or thresholds.size < 1:
            raise ValueError("need at least one threshold")
        if np.any(np.diff(thresholds) <= 0.0):
            raise ValueError("thresholds must be strictly ascending")
        for name, arr in (("plane_recall", plane), ("pixel_recall", pixel)):
            if arr.min() < 0.0 or arr.max() > 100.0:
                raise ValueError(f"{name} must lie in [0, 100]")
            if np.any(np.diff(arr) < 0.0):
                raise ValueError(f"{name} must be non-decreasing in threshold")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "plane_recall", plane)
        object.__setattr__(self, "pixel_recall", pixel)


@dataclass(frozen=True)
class DepthMetrics:
    """Standard depth errors and threshold accuracies (percent)."""

    rel: float
    rel_sqr: float
    log10: float
    rmse: float
    rmse_log: float
    acc_1: float
    acc_2: float
    acc_3: float

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class Evaluation:
    """One image's scores from :func:`evaluate`: both recall curves at
    the default thresholds, the partition metrics of (prediction,
    reference), the depth errors and the predicted instances present."""

    recall_depth: RecallCurve
    recall_normal: RecallCurve
    rand_index: float
    variation_of_information: float
    segmentation_covering: float
    depth: DepthMetrics
    plane_count: int


def _contingency(
    a: InstanceSegmentation, b: InstanceSegmentation
) -> Tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) table of pixel counts per label pair, label 0 in
    row and column 0, and each pixel's flat pair key ``a·cols + b`` that
    indexes it, built in place."""
    if a.grid != b.grid:
        raise ValueError("segmentation grids must match")
    shape = (a.n_instances + 1, b.n_instances + 1)
    key = np.multiply(a.labels, shape[1])
    key += b.labels
    return np.bincount(key, minlength=shape[0] * shape[1]).reshape(shape), key


def _iou(table: np.ndarray) -> np.ndarray:
    """IOU per label pair of a contingency table, label 0's row and
    column included; 0 where both segments are empty. The counts are
    integers, so every union is exact."""
    inter = table.astype(np.float64)
    rows = table.sum(axis=1, dtype=np.float64)
    cols = table.sum(axis=0, dtype=np.float64)
    union = rows[:, None] + cols[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def _match_instances(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(gt_ids, pred_ids) of the pairs with IOU > 0.5, gt IDs ascending.

    ``table`` is the (pred, gt) contingency table. Each gt instance takes
    the first predicted instance whose IOU with it exceeds 0.5, by one
    ``argmax`` per column; predicted instances are disjoint, so no other
    can also exceed 0.5.
    """
    won = _iou(table)[1:, 1:] > 0.5
    gt = np.flatnonzero(won.any(axis=0))
    pred = won[:, gt].argmax(axis=0) if gt.size else gt
    return gt + 1, pred + 1


def _recall_curve(
    table: np.ndarray,
    matched: Tuple[np.ndarray, np.ndarray],
    scores: np.ndarray,
    thresholds: Sequence[float],
) -> RecallCurve:
    """Fold per-pair scores into plane and pixel recall curves.

    ``table`` is the (pred, gt) contingency table, ``matched`` the
    (gt_ids, pred_ids) of :func:`_match_instances` and ``scores[i]`` the
    geometric error of matched pair i; a NaN score never counts as
    correct, and neither do unmatched gt instances. One (thresholds x
    pairs) comparison gives the correct pairs; their count and their
    overlaps sum in integers.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    gt, pred = matched
    n_gt = table.shape[1] - 1
    total_planar = int(table[:, 1:].sum())
    correct = scores <= thresholds[:, None]
    plane = np.zeros(thresholds.size)
    pixel = np.zeros(thresholds.size)
    if n_gt:
        plane = 100.0 * np.count_nonzero(correct, axis=1) / n_gt
    if total_planar:
        pixel = 100.0 * (correct @ table[pred, gt]) / total_planar
    return RecallCurve(thresholds, plane, pixel)


def _depth_errors(
    table: np.ndarray,
    key: np.ndarray,
    matched: Tuple[np.ndarray, np.ndarray],
    depth: np.ndarray,
    validity: np.ndarray,
    gt: DepthMap,
) -> np.ndarray:
    """Mean absolute depth difference of each matched pair over its
    jointly valid pixels, NaN for a pair with none.

    ``depth`` and ``validity`` are the prediction's rendered arrays,
    which become ``|depth − gt|·both`` and then its complement in place,
    where ``both`` marks the jointly valid pixels. The four elementwise
    passes that form them run tile by tile (``core._tiles``), so each
    tile stays in cache between them. One weighted bincount over the
    pair keys of the full grid gives each pair's error sum; the other
    pixels add +0.0 terms, which leave every sum as the sum over the
    jointly valid pixels alone. The jointly valid count per pair is the
    table less a bincount over the keys of the other pixels, in exact
    integers. The cost is O(N) whatever the plane count.
    """
    shape = (gt.grid.height, gt.grid.width)
    views = [a.reshape(shape) for a in (depth, validity, gt.depth, gt.validity)]
    for tile in _tiles(gt.grid):
        diff, both, ref, ref_valid = (view[tile] for view in views)
        np.logical_and(both, ref_valid, out=both)
        np.subtract(diff, ref, out=diff)
        np.abs(diff, out=diff)
        diff *= both
    gt_ids, pred_ids = matched
    sums = np.bincount(key, depth, minlength=table.size).reshape(table.shape)
    apart = key.take(np.flatnonzero(np.logical_not(validity, out=validity)))
    counts = table - np.bincount(apart, minlength=table.size).reshape(table.shape)
    counts = counts[pred_ids, gt_ids]
    scores = np.full(gt_ids.size, np.nan)
    np.divide(sums[pred_ids, gt_ids], counts, out=scores, where=counts > 0)
    return scores


def recall_depth(
    pred_seg: InstanceSegmentation,
    pred_planes: Sequence[Plane],
    gt_seg: InstanceSegmentation,
    gt_depth: DepthMap,
    intr: CameraIntrinsics,
    thresholds: Sequence[float] = DEPTH_THRESHOLDS,
) -> RecallCurve:
    """Recall vs depth-difference threshold.

    A reference instance is correct at threshold t when a predicted
    instance overlaps it with IOU > 0.5 and the mean absolute difference
    between the predicted plane's rendered depth and the reference depth
    over their valid overlap is at most t; a matched pair with no such
    pixel gets no score.

    The predicted depth is rendered once over all predicted labels, and
    :func:`_depth_errors` scores the pairs in the render's own buffers.
    The render comes first, so its tile buffers are freed before the
    pair key is made.
    """
    if pred_seg.grid != gt_seg.grid or gt_seg.grid != gt_depth.grid:
        raise ValueError("prediction, reference, and depth grids must match")
    normals = _instance_normals(pred_seg, pred_planes)
    depth, validity = _render_arrays(pred_seg.grid, intr, pred_seg.labels, normals)
    table, key = _contingency(pred_seg, gt_seg)
    matched = _match_instances(table)
    scores = _depth_errors(table, key, matched, depth, validity, gt_depth)
    return _recall_curve(table, matched, scores, thresholds)


def recall_normal(
    pred_seg: InstanceSegmentation,
    pred_planes: Sequence[Plane],
    gt_seg: InstanceSegmentation,
    gt_planes: Sequence[Plane],
    thresholds: Sequence[float] = NORMAL_THRESHOLDS,
) -> RecallCurve:
    """Recall vs surface-normal angle threshold (degrees).

    Every matched pair is scored in one pass of :func:`_normal_angles`,
    over the plane rows of :func:`_instance_normals` indexed by ID.
    """
    if pred_seg.grid != gt_seg.grid:
        raise ValueError("prediction and reference grids must match")
    pred_n = _instance_normals(pred_seg, pred_planes)
    gt_n = _instance_normals(gt_seg, gt_planes)
    table, _ = _contingency(pred_seg, gt_seg)
    gt, pred = matched = _match_instances(table)
    scores = _normal_angles(pred_n[pred], gt_n[gt])
    return _recall_curve(table, matched, scores, thresholds)


def _rand_index(table: np.ndarray) -> float:
    table = table.astype(np.float64)
    n = table.sum()
    if n < 2:
        return 1.0
    pairs = n * (n - 1.0) / 2.0
    same_both = (table * (table - 1.0) / 2.0).sum()
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    same_a = (rows * (rows - 1.0) / 2.0).sum()
    same_b = (cols * (cols - 1.0) / 2.0).sum()
    return float((pairs + 2.0 * same_both - same_a - same_b) / pairs)


def rand_index(a: InstanceSegmentation, b: InstanceSegmentation) -> float:
    """Fraction of pixel pairs on which the two partitions agree.

    Label 0 participates as one extra segment.
    """
    return _rand_index(_contingency(_compact(a), _compact(b))[0])


def _variation_of_information(table: np.ndarray) -> float:
    table = table.astype(np.float64)
    p = table / table.sum()
    rows = p.sum(axis=1)
    cols = p.sum(axis=0)
    nz = p > 0.0
    h_a = -float(np.sum(rows[rows > 0.0] * np.log(rows[rows > 0.0])))
    h_b = -float(np.sum(cols[cols > 0.0] * np.log(cols[cols > 0.0])))
    mutual = float(
        np.sum(
            p[nz]
            * np.log(p[nz] / (rows[:, None] * cols[None, :])[nz])
        )
    )
    return max(h_a + h_b - 2.0 * mutual, 0.0)


def variation_of_information(
    a: InstanceSegmentation, b: InstanceSegmentation
) -> float:
    """Summed conditional entropies H(a|b) + H(b|a) in nats."""
    return _variation_of_information(_contingency(_compact(a), _compact(b))[0])


def _segmentation_covering(table: np.ndarray) -> float:
    """Covering from the (gt, pred) table. Every count and union is an
    exact integer, so a transposed view gives the same bits."""
    gt_sizes = table.sum(axis=1, dtype=np.float64)
    best = _iou(table).max(axis=1, initial=0.0)
    # summed in row order, as a running float, over the non-empty rows
    total = sum((gt_sizes * best)[gt_sizes > 0.0].tolist())
    return float(total / gt_sizes.sum())


def segmentation_covering(
    gt: InstanceSegmentation, pred: InstanceSegmentation
) -> float:
    """Size-weighted best-IOU cover of reference segments by prediction."""
    return _segmentation_covering(_contingency(_compact(gt), _compact(pred))[0])


def _depth_metrics(
    depth: np.ndarray, validity: np.ndarray, gt: DepthMap
) -> DepthMetrics:
    """:func:`depth_metrics` of the predicted ``depth`` and ``validity``
    arrays, which it only reads."""
    joint = np.flatnonzero(validity & gt.validity)
    if not joint.size:
        raise ValueError("no jointly valid pixels")
    p = depth.take(joint)
    g = gt.depth.take(joint)
    del joint  # freed before the two work buffers are made
    with np.errstate(over="ignore", divide="ignore"):  # inf is the limit here
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


def depth_metrics(pred: DepthMap, gt: DepthMap) -> DepthMetrics:
    """Error statistics over jointly valid pixels.

    The jointly valid depths p and g are taken once through their
    indices (one ``flatnonzero``, two ``take``s, no boolean gather), and
    every later term is computed in place in four buffers of that
    length. Both log errors come from one natural log of p / g
    (``log10`` divides its mean by ln 10). ``acc_k`` is the share with
    max(p / g, g / p) < 1.25^k, so a ratio of exactly 1.25^k fails it.
    Depths far apart in scale (say 1e-300 against 1) can overflow a
    term, or underflow p / g to 0; such a term and the errors built on
    it read inf, with no warning, and the pixel fails every accuracy
    threshold.
    """
    if pred.grid != gt.grid:
        raise ValueError("depth grids must match")
    return _depth_metrics(pred.depth, pred.validity, gt)


def _reference_planes(
    segments: InstanceSegmentation, depth: DepthMap, intr: CameraIntrinsics
) -> List[Plane]:
    """The least-squares plane of each reference segment, in ascending ID
    order, from one stable argsort of the valid pixels' labels.

    Each ID's group holds its valid pixels in ascending index order: the
    points :func:`fit_plane_lsq` keeps from the segment's full member
    list, so each plane has the same bits. The labels are sorted in the
    narrowest unsigned type that holds ``n_instances``; up to 16 bits
    that sort is a radix sort. An ID with fewer than 3 valid pixels, or
    none, fails its fit, and the first failure raises with its ID. Every
    array is sized by the pixel count, never by the largest label, and
    the loop ends at the first ID that owns no valid pixel.
    """
    points = backproject(depth, intr)
    valid = np.flatnonzero(points.validity)
    narrow = np.min_scalar_type(segments.n_instances).type
    labels = segments.labels.take(valid).astype(narrow)
    order = labels.argsort(kind="stable")
    members, labels = valid.take(order), labels.take(order)
    planes = []
    start = labels.searchsorted(narrow(1))
    for idx in range(1, segments.n_instances + 1):
        # a key of the labels' own type, or the search casts the labels
        stop = labels.searchsorted(narrow(idx), side="right")
        try:
            plane, _ = fit_plane_lsq(points, members[start:stop])
        except ValueError as exc:
            raise ValueError(f"reference segment {idx}: {exc}") from exc
        planes.append(plane)
        start = stop
    return planes


def evaluate(
    pred_seg: InstanceSegmentation,
    pred_planes: Sequence[Plane],
    gt_seg: InstanceSegmentation,
    gt_depth: DepthMap,
    intr: CameraIntrinsics,
) -> Evaluation:
    """Score a prediction against a reference image, the protocol that
    ``planarseg eval`` writes.

    The reference planes are fitted to the backprojected reference depth,
    one per segment, and the recall curves use the default thresholds.
    Each step runs once: one grouping of the reference pixels, one render
    of the prediction, whose arrays serve :func:`depth_metrics` and then
    the depth recall in place, and one pair key and contingency table,
    which feed the matching, both curves and every partition metric.
    Every result has the bits of the per-metric functions, and the
    errors come in their order: a reference segment's fit, the render,
    then "no jointly valid pixels".
    """
    if pred_seg.grid != gt_seg.grid or gt_seg.grid != gt_depth.grid:
        raise ValueError("prediction, reference, and depth grids must match")
    gt_n = _instance_normals(gt_seg, _reference_planes(gt_seg, gt_depth, intr))
    pred_n = _instance_normals(pred_seg, pred_planes)
    depth, validity = _render_arrays(pred_seg.grid, intr, pred_seg.labels, pred_n)
    depth_scores = _depth_metrics(depth, validity, gt_depth)
    table, key = _contingency(pred_seg, gt_seg)
    gt, pred = matched = _match_instances(table)
    errors = _depth_errors(table, key, matched, depth, validity, gt_depth)
    angles = _normal_angles(pred_n[pred], gt_n[gt])
    return Evaluation(
        recall_depth=_recall_curve(table, matched, errors, DEPTH_THRESHOLDS),
        recall_normal=_recall_curve(table, matched, angles, NORMAL_THRESHOLDS),
        rand_index=_rand_index(table),
        variation_of_information=_variation_of_information(table),
        segmentation_covering=_segmentation_covering(table.T),
        depth=depth_scores,
        plane_count=_plane_count(pred_seg),
    )


def _plane_count(seg: InstanceSegmentation) -> int:
    """Distinct instance IDs present in ``seg``, label 0 excluded, from a
    table of n_instances + 1 flags."""
    present = np.zeros(seg.n_instances + 1, dtype=bool)
    present[seg.labels] = True
    return int(np.count_nonzero(present[1:]))


def plane_count_histogram(
    segmentations: Sequence[InstanceSegmentation],
) -> Dict[int, int]:
    """Images per distinct-instance count (label 0 excluded)."""
    hist: Dict[int, int] = {}
    for seg in segmentations:
        count = _plane_count(_compact(seg))
        hist[count] = hist.get(count, 0) + 1
    return hist


def recall_curve_to_csv(curve: RecallCurve) -> str:
    """Serialize a curve as CSV with a threshold,plane,pixel header."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["threshold", "plane_recall", "pixel_recall"])
    for t, plane, pixel in zip(
        curve.thresholds, curve.plane_recall, curve.pixel_recall
    ):
        writer.writerow([f"{t:g}", f"{plane:.6f}", f"{pixel:.6f}"])
    return buffer.getvalue()


def metrics_to_json(record: Mapping[str, object]) -> str:
    """Serialize a metric record as deterministic, indented JSON."""
    return json.dumps(record, indent=2, sort_keys=True)
