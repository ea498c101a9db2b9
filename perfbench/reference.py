"""Plain-numpy reference for the evaluation outputs the benchmark checks.

Written from the metric definitions, not from the library code: label
pairs are counted with ``np.unique``, pair counts use exact Python
integers, and a matched plane's depth is rendered only over the pixels
it is scored on. Runs outside the timed loop.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

DEPTH_THRESHOLDS = np.arange(1, 13) * 0.05
NORMAL_THRESHOLDS = np.arange(0, 13) * 2.5


def contingency(a: np.ndarray, b: np.ndarray) -> Dict[Tuple[int, int], int]:
    """Pixel count for every (a label, b label) pair that occurs."""
    base = int(b.max()) + 1
    keys, counts = np.unique(a * base + b, return_counts=True)
    return {(int(k // base), int(k % base)): int(c) for k, c in zip(keys, counts)}


def _sizes(table: Dict[Tuple[int, int], int], side: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for key, count in table.items():
        out[key[side]] = out.get(key[side], 0) + count
    return out


def rand_index(a: np.ndarray, b: np.ndarray) -> float:
    table = contingency(a, b)
    n = sum(table.values())
    if n < 2:
        return 1.0

    def pairs(m: int) -> int:
        return m * (m - 1) // 2

    both = sum(pairs(c) for c in table.values())
    in_a = sum(pairs(c) for c in _sizes(table, 0).values())
    in_b = sum(pairs(c) for c in _sizes(table, 1).values())
    # Agreeing pairs: together in both, plus apart in both.
    agree = both + (pairs(n) - in_a - in_b + both)
    return agree / pairs(n)


def variation_of_information(a: np.ndarray, b: np.ndarray) -> float:
    table = contingency(a, b)
    n = float(sum(table.values()))
    size_a = _sizes(table, 0)
    size_b = _sizes(table, 1)
    total = 0.0
    for (p, q), c in table.items():
        total -= (c / n) * (np.log(c / size_a[p]) + np.log(c / size_b[q]))
    return max(float(total), 0.0)


def segmentation_covering(gt: np.ndarray, pred: np.ndarray) -> float:
    """Size-weighted best IOU of each reference segment, label 0 included."""
    table = contingency(gt, pred)
    size_g = _sizes(table, 0)
    size_p = _sizes(table, 1)
    total = 0.0
    for g, g_size in size_g.items():
        best = 0.0
        for (p_g, p), inter in table.items():
            if p_g == g:
                best = max(best, inter / (g_size + size_p[p] - inter))
        total += g_size * best
    return total / sum(size_g.values())


def match(pred: np.ndarray, gt: np.ndarray, n_gt: int) -> Dict[int, int]:
    """Reference instance -> lowest predicted instance with IOU > 0.5."""
    table = contingency(pred, gt)
    size_p = _sizes(table, 0)
    size_g = _sizes(table, 1)
    matched: Dict[int, int] = {}
    for g in range(1, n_gt + 1):
        winners = [
            p
            for (p, q), inter in table.items()
            if q == g and p > 0
            and inter / (size_p[p] + size_g[g] - inter) > 0.5
        ]
        if winners:
            matched[g] = min(winners)
    return matched


def _curve(
    scores: Dict[int, float],
    overlap: Dict[int, int],
    n_gt: int,
    planar: int,
    thresholds: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    plane = np.zeros(len(thresholds))
    pixel = np.zeros(len(thresholds))
    for i, t in enumerate(thresholds):
        correct = [g for g, err in scores.items() if err <= t]
        plane[i] = 100.0 * len(correct) / n_gt
        pixel[i] = 100.0 * sum(overlap[g] for g in correct) / planar
    return plane, pixel


def _overlap(pred, gt, matched) -> Dict[int, int]:
    return {g: int(np.count_nonzero((gt == g) & (pred == p))) for g, p in matched.items()}


def recall_depth(
    pred: np.ndarray,
    pred_n: np.ndarray,
    gt: np.ndarray,
    gt_depth: np.ndarray,
    n_gt: int,
    width: int,
    fx: float,
    fy: float,
    cx: float,
    cy: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Plane and pixel recall over depth thresholds; all depths valid."""
    matched = match(pred, gt, n_gt)
    scores: Dict[int, float] = {}
    for g, p in matched.items():
        region = np.nonzero((gt == g) & (pred == p))[0]
        v, u = np.divmod(region, width)
        n = pred_n[p - 1]
        denom = n[0] * (u - cx) / fx + n[1] * (v - cy) / fy + n[2]
        region, denom = region[denom > 1e-8], denom[denom > 1e-8]
        if region.size:
            scores[g] = float(np.mean(np.abs(1.0 / denom - gt_depth[region])))
    return _curve(
        scores, _overlap(pred, gt, matched), n_gt,
        int(np.count_nonzero(gt)), DEPTH_THRESHOLDS,
    )


def recall_normal(
    pred: np.ndarray, pred_n: np.ndarray, gt: np.ndarray, gt_n: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Plane and pixel recall over normal-angle thresholds in degrees."""
    n_gt = gt_n.shape[0]
    matched = match(pred, gt, n_gt)
    scores: Dict[int, float] = {}
    for g, p in matched.items():
        u = pred_n[p - 1] / np.linalg.norm(pred_n[p - 1])
        w = gt_n[g - 1] / np.linalg.norm(gt_n[g - 1])
        scores[g] = float(np.degrees(np.arctan2(np.linalg.norm(np.cross(u, w)), u @ w)))
    return _curve(
        scores, _overlap(pred, gt, matched), n_gt,
        int(np.count_nonzero(gt)), NORMAL_THRESHOLDS,
    )


def fit_planes(points: np.ndarray, gt: np.ndarray, n_gt: int) -> np.ndarray:
    """Least-squares n with n . Q = 1 over each reference segment's points."""
    rows: List[np.ndarray] = []
    for g in range(1, n_gt + 1):
        q = points[gt == g]
        rows.append(np.linalg.lstsq(q, np.ones(q.shape[0]), rcond=None)[0])
    return np.asarray(rows)
