"""The benchmark's workloads: seeded inputs, the per-image step, checks.

Every workload is a closed loop with one caller that processes one image
at a time in one process. Inputs are generated from the workload seed
during set-up, so the timed step receives only the generated arrays.
Library calls use their defaults: ``workers=1`` and the default
``MeanShiftConfig``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from planarseg import (
    CameraIntrinsics,
    DepthMap,
    EmbeddingMap,
    EmbeddingNoiseSpec,
    ImageGrid,
    InstanceSegmentation,
    MeanShiftConfig,
    PixelPlaneParams,
    PlanarMask,
    PlanarProbabilityMap,
    Plane,
    RecallCurve,
    Scene,
    SceneSpec,
    backproject,
    balanced_bce,
    cluster,
    corrupt_probability,
    depth_metrics,
    embedding_loss,
    fit_plane_lsq,
    generate_embeddings,
    generate_pixel_params,
    generate_scene,
    hard_labels,
    instance_param_loss,
    one_hot_assignment,
    pixel_param_loss,
    plane_count_histogram,
    pool_instance_params,
    rand_index,
    recall_depth,
    recall_normal,
    render_segment_depth,
    segmentation_covering,
    variation_of_information,
)

import reference
from spans import NullTracer

CONFIG = MeanShiftConfig()
RECALL_AT = 0.10  # metres; the depth threshold of plane_recall_0.10m
REFERENCE_TOL = 1e-9
REPEAT_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "infer", "eval" or "train"
    height: int
    width: int
    planes: int
    scenes: int
    sigma: float
    center_gap: float
    flip_rate: float
    param_noise: float

    @property
    def grid(self) -> ImageGrid:
        return ImageGrid(self.height, self.width)

    @property
    def intr(self) -> CameraIntrinsics:
        # The defaults of ``planarseg synth``.
        w, h = self.width, self.height
        return CameraIntrinsics(fx=0.9 * w, fy=0.9 * w, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)


# Image cost and quality vary from scene to scene; enough scenes per run
# keep a run's medians and means steady across seeds. An odd scene count
# makes the traced images of a trace run (every other image) cycle
# through every scene.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("infer-vga-8p", "infer", 480, 640, 8, 11, 0.2, 1.5, 0.05, 0.02),
        Workload("eval-vga-32p", "eval", 480, 640, 32, 11, 0.35, 1.0, 0.05, 0.05),
        Workload("train-qvga-16p", "train", 192, 256, 16, 21, 0.2, 1.5, 0.05, 0.02),
    )
}


@dataclass(frozen=True)
class Item:
    """One scene's generated inputs; fields a workload does not use are None."""

    scene: Scene
    embeddings: Optional[EmbeddingMap] = None
    probs: Optional[PlanarProbabilityMap] = None
    params: Optional[PixelPlaneParams] = None
    gt_params: Optional[PixelPlaneParams] = None
    pred_labels: Optional[InstanceSegmentation] = None
    pred_params: Optional[np.ndarray] = None
    pred_planes: Tuple[Plane, ...] = ()


@dataclass(frozen=True)
class Evaluation:
    depth_curve: RecallCurve
    normal_curve: RecallCurve
    rand_index: float
    variation_of_information: float
    segmentation_covering: float
    depth_rel: float


@dataclass(frozen=True)
class Output:
    mask: Optional[PlanarMask] = None
    clusters: int = 0
    assignment: object = None
    pooled: Optional[np.ndarray] = None
    labels: Optional[InstanceSegmentation] = None
    depth: Optional[DepthMap] = None
    evaluation: Optional[Evaluation] = None
    losses: Tuple[Tuple[str, float, np.ndarray, tuple], ...] = ()


def scene_seeds(seed: int, count: int) -> List[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def make_inputs(w: Workload, seed: int, tr) -> List[Item]:
    """Generate every scene of the workload; synth calls are traced per scene."""
    items = []
    for s in scene_seeds(seed, w.scenes):
        with tr.root("setup"):
            items.append(_make_item(w, s, tr))
    return items


def _make_item(w: Workload, s: int, tr) -> Item:
    spec = SceneSpec(grid=w.grid, intr=w.intr, plane_count=w.planes, seed=s)
    scene = tr.call("synth.generate_scene", generate_scene, spec)
    noise = EmbeddingNoiseSpec(center_min_gap=w.center_gap, sigma=w.sigma, seed=s)
    emb = tr.call("synth.generate_embeddings", generate_embeddings, scene, noise)
    probs = tr.call("synth.corrupt_probability", corrupt_probability, scene, w.flip_rate, seed=s)
    params = tr.call(
        "synth.generate_pixel_params", generate_pixel_params, scene, w.param_noise, seed=s
    )
    if w.kind == "infer":
        return Item(scene, emb, probs, params)
    if w.kind == "train":
        gt_params = tr.call("synth.generate_pixel_params", generate_pixel_params, scene)
        return Item(scene, emb, probs, params, gt_params)
    # eval: a prediction made without clustering. Each masked pixel takes
    # the reference instance whose mean embedding is nearest; planes are
    # the per-label means of the noisy parameters. Both are plain numpy, so
    # the inputs (and their digest) depend on ``synth`` alone.
    gt = scene.segmentation.labels
    x = emb.values
    means = np.stack([x[gt == g].mean(axis=0) for g in range(1, w.planes + 1)])
    masked = np.nonzero(probs.probs >= 0.5)[0]
    # |x - m|^2 less the per-pixel |x|^2, which does not change the argmin.
    d2 = (means**2).sum(axis=1)[None, :] - 2.0 * x[masked] @ means.T
    labels = np.zeros(w.grid.n_pixels, dtype=np.int64)
    labels[masked] = np.argmin(d2, axis=1) + 1
    pred = InstanceSegmentation(w.grid, labels, w.planes)
    lab = labels[masked] - 1
    sums = [np.bincount(lab, params.params[masked, a], w.planes) for a in range(3)]
    pooled = np.stack(sums, axis=1) / np.bincount(lab, minlength=w.planes)[:, None]
    return Item(scene, pred_labels=pred, pred_params=pooled,
                pred_planes=tuple(Plane(r) for r in pooled))


def digest(items: List[Item]) -> str:
    """SHA-256 over every generated array, in a fixed order. The arrays
    come from ``synth`` and from plain numpy only."""
    h = hashlib.sha256()

    def add(arr) -> None:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())

    for item in items:
        add(item.scene.segmentation.labels)
        add(item.scene.depth.depth)
        add(np.stack([p.n for p in item.scene.planes]))
        if item.embeddings is not None:
            add(item.embeddings.values)
        if item.probs is not None:
            add(item.probs.probs)
        for params in (item.params, item.gt_params):
            if params is not None:
                add(params.params)
        if item.pred_labels is not None:
            add(item.pred_labels.labels)
            add(item.pred_params)
    return h.hexdigest()


def reference_digest(w: Workload, seed: int) -> str:
    """Digest of the first scene of ``seed``: any change to what the
    generators produce for this workload changes it."""
    return digest([_make_item(w, scene_seeds(seed, w.scenes)[0], NullTracer())])


# --- the per-image step ---------------------------------------------------


def _evaluate(tr, w: Workload, scene: Scene, labels, planes, depth):
    """The calls ``planarseg eval`` makes; ``depth`` is rendered if None.

    Returns the evaluation and the predicted depth map.
    """
    gt_seg, gt_depth, intr = scene.segmentation, scene.depth, w.intr
    gt_points = tr.call("geometry.backproject", backproject, gt_depth, intr)
    gt_planes = []
    for idx in range(1, gt_seg.n_instances + 1):
        members = np.nonzero((gt_seg.labels == idx) & gt_points.validity)[0]
        plane, _ = tr.call("geometry.fit_plane_lsq", fit_plane_lsq, gt_points, members)
        gt_planes.append(plane)
    depth_curve = tr.call(
        "metrics.recall_depth", recall_depth, labels, planes, gt_seg, gt_depth, intr
    )
    normal_curve = tr.call(
        "metrics.recall_normal", recall_normal, labels, planes, gt_seg, gt_planes
    )
    if depth is None:
        depth = tr.call(
            "geometry.render_segment_depth", render_segment_depth, labels, planes, intr
        )
    ri = tr.call("metrics.rand_index", rand_index, labels, gt_seg)
    vi = tr.call(
        "metrics.variation_of_information", variation_of_information, labels, gt_seg
    )
    sc = tr.call("metrics.segmentation_covering", segmentation_covering, gt_seg, labels)
    dm = tr.call("metrics.depth_metrics", depth_metrics, depth, gt_depth)
    tr.call("metrics.plane_count_histogram", plane_count_histogram, [labels])
    return Evaluation(depth_curve, normal_curve, ri, vi, sc, dm.rel), depth


def _infer_step(tr, w: Workload, item: Item) -> Output:
    mask = PlanarMask(w.grid, item.probs.probs >= 0.5)
    clusters, assignment = tr.call("clustering.cluster", cluster, item.embeddings, mask, CONFIG)
    labels = tr.call("clustering.hard_labels", hard_labels, assignment)
    onehot = tr.call("geometry.one_hot_assignment", one_hot_assignment, labels)
    pooled = tr.call(
        "geometry.pool_instance_params", pool_instance_params, item.params, onehot
    )
    planes = tuple(Plane(row) for row in pooled.params)
    depth = tr.call(
        "geometry.render_segment_depth", render_segment_depth, labels, planes, w.intr
    )
    evaluation, _ = _evaluate(tr, w, item.scene, labels, planes, depth)
    return Output(mask, len(clusters), labels=labels, depth=depth, evaluation=evaluation)


def _eval_step(tr, w: Workload, item: Item) -> Output:
    evaluation, depth = _evaluate(
        tr, w, item.scene, item.pred_labels, item.pred_planes, None
    )
    return Output(labels=item.pred_labels, depth=depth, evaluation=evaluation)


def _train_step(tr, w: Workload, item: Item) -> Output:
    scene = item.scene
    mask = PlanarMask(w.grid, item.probs.probs >= 0.5)
    clusters, assignment = tr.call("clustering.cluster", cluster, item.embeddings, mask, CONFIG)
    pooled = tr.call(
        "geometry.pool_instance_params", pool_instance_params, item.params, assignment
    )
    terms = (
        ("balanced_bce", balanced_bce, (item.probs, scene.mask), item.probs.probs),
        ("embedding_loss", embedding_loss, (item.embeddings, scene.segmentation),
         item.embeddings.values),
        ("pixel_param_loss", pixel_param_loss, (item.params, item.gt_params, scene.mask),
         item.params.params),
        ("instance_param_loss", instance_param_loss, (pooled, assignment, scene.points),
         pooled.params),
    )
    losses = []
    for name, fn, args, wrt in terms:
        value, grad = tr.call("losses." + name, fn, *args)
        losses.append((name, value, grad, wrt.shape))
    return Output(mask, len(clusters), assignment=assignment, pooled=pooled.params,
                  losses=tuple(losses))


STEPS: Dict[str, Callable] = {
    "infer": _infer_step, "eval": _eval_step, "train": _train_step,
}


def step(tr, w: Workload, item: Item) -> Output:
    return STEPS[w.kind](tr, w, item)


# --- checks and scores, run outside the timed loop ------------------------


def check(w: Workload, item: Item, out: Output, cache: dict) -> Optional[str]:
    """Why the image's output is wrong, or None. ``cache`` holds per-item
    reference results across images."""
    if w.kind == "infer":
        labels = out.labels.labels
        if not np.array_equal(labels > 0, out.mask.mask):
            return "labels are not nonzero exactly on masked pixels"
        if labels.max() > out.clusters or out.labels.n_instances != out.clusters:
            return "labels outside 1..C"
        valid = out.depth.validity
        d = out.depth.depth[valid]
        if not (np.all(np.isfinite(d)) and np.all(d > 0.0)):
            return "rendered depth not finite and positive where valid"
        return None
    if w.kind == "train":
        for name, value, grad, shape in out.losses:
            if not np.isfinite(value) or not np.all(np.isfinite(grad)):
                return f"{name}: value or gradient not finite"
            if grad.shape != shape:
                return f"{name}: gradient shape {grad.shape} != input shape {shape}"
        return None
    key = id(item)
    if key not in cache:
        cache[key] = _reference_eval(w, item)
    ref = cache[key]
    ev = out.evaluation
    got = {
        "recall_depth": np.concatenate([ev.depth_curve.plane_recall, ev.depth_curve.pixel_recall]),
        "recall_normal": np.concatenate([ev.normal_curve.plane_recall, ev.normal_curve.pixel_recall]),
        "rand_index": np.array([ev.rand_index]),
        "variation_of_information": np.array([ev.variation_of_information]),
        "segmentation_covering": np.array([ev.segmentation_covering]),
    }
    for name, value in got.items():
        err = float(np.max(np.abs(value - ref[name])))
        if not err <= REFERENCE_TOL:
            return f"{name} differs from the reference by {err:.3g}"
    return None


def _reference_eval(w: Workload, item: Item) -> Dict[str, np.ndarray]:
    scene = item.scene
    gt = scene.segmentation.labels
    pred = item.pred_labels.labels
    pred_n = item.pred_params
    intr = w.intr
    gt_n = reference.fit_planes(scene.points.points, gt, w.planes)
    return {
        "recall_depth": np.concatenate(reference.recall_depth(
            pred, pred_n, gt, scene.depth.depth, w.planes, w.width,
            intr.fx, intr.fy, intr.cx, intr.cy)),
        "recall_normal": np.concatenate(reference.recall_normal(pred, pred_n, gt, gt_n)),
        "rand_index": np.array([reference.rand_index(pred, gt)]),
        "variation_of_information": np.array([reference.variation_of_information(pred, gt)]),
        "segmentation_covering": np.array([reference.segmentation_covering(gt, pred)]),
    }


def fingerprint(w: Workload, out: Output) -> np.ndarray:
    """The numbers an image produces; a scene must repeat them exactly."""
    if w.kind == "train":
        values = [value for _, value, _, _ in out.losses]
        return np.concatenate([values, [out.clusters], out.pooled.ravel()])
    ev = out.evaluation
    return np.concatenate([
        ev.depth_curve.plane_recall, ev.depth_curve.pixel_recall,
        ev.normal_curve.plane_recall, ev.normal_curve.pixel_recall,
        [ev.rand_index, ev.variation_of_information, ev.segmentation_covering,
         ev.depth_rel, out.clusters],
    ])


def score(w: Workload, item: Item, out: Output) -> Dict[str, float]:
    """Quality metrics and per-layer counts of one image's output.

    ``infer`` and ``eval`` take the quality from the evaluation their
    step ran. The training step runs none, so its quality is that of the
    inference its clustering would give: hard labels, one-hot pooled
    planes, rendered depth.
    """
    scene = item.scene
    if w.kind == "train":
        labels = hard_labels(out.assignment)
        pooled = pool_instance_params(item.params, one_hot_assignment(labels))
        planes = [Plane(row) for row in pooled.params]
        curve = recall_depth(labels, planes, scene.segmentation, scene.depth, w.intr)
        ri = rand_index(labels, scene.segmentation)
        depth = render_segment_depth(labels, planes, w.intr)
        rel = depth_metrics(depth, scene.depth).rel
    else:
        labels, ev = out.labels, out.evaluation
        curve, ri, rel = ev.depth_curve, ev.rand_index, ev.depth_rel
    at = int(np.argmin(np.abs(curve.thresholds - RECALL_AT)))
    matched = reference.match(labels.labels, scene.segmentation.labels, w.planes)
    n_pixels = w.grid.n_pixels
    return {
        "rand_index": float(ri),
        "plane_recall_0.10m": float(curve.plane_recall[at]),
        "depth_rel": float(rel),
        "clustering.pixels": float(out.mask.foreground_count) if out.mask else 0.0,
        "clustering.clusters": float(out.clusters),
        "clustering.clusters_per_plane": out.clusters / w.planes,
        "clustering.assignment_mb": n_pixels * out.clusters * 8 / 2**20,
        "metrics.matched_frac": len(matched) / w.planes,
    }
