"""Command-line front door.

Subcommands: ``cluster`` (embeddings + probabilities to hard labels and
a summary), ``eval`` (prediction vs reference metrics), ``synth``
(scene generation), ``gradcheck`` (finite-difference verification), and
``bench`` (timing sweep). Exit codes: 0 success, 1 computation error,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .bench import DEFAULT_SIZES, bench_clustering, bench_results_to_csv
from .clustering import MeanShiftConfig, cluster, hard_labels
from .core import (
    CameraIntrinsics,
    DepthMap,
    EmbeddingMap,
    ImageGrid,
    InstanceSegmentation,
    PlanarMask,
    PlanarProbabilityMap,
)
from .gradcheck import run_gradient_checks
from .geometry import Plane
from .metrics import evaluate, metrics_to_json, recall_curve_to_csv
from .synth import (
    EmbeddingNoiseSpec,
    SceneSpec,
    corrupt_probability,
    generate_embeddings,
    generate_pixel_params,
    generate_scene,
)
from .tensor_io import TensorFormatError, read_tensor, write_tensor

__all__ = ["main", "build_parser"]

USAGE_ERROR = 2
COMPUTE_ERROR = 1


class UsageError(Exception):
    """Input or I/O problem: bad paths, malformed files, shape mismatch."""


def _load_tensor(path: str, name: str, form: Sequence) -> np.ndarray:
    """The tensor at ``path``, of the ``form`` that names each axis, such as
    ``("H", "W", "d")``: it must have one axis per entry, and an axis
    whose entry is an int must have that size."""
    try:
        raw = read_tensor(path)
    except FileNotFoundError as exc:
        raise UsageError(f"missing file: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except TensorFormatError as exc:
        raise UsageError(str(exc)) from exc
    if raw.ndim != len(form) or any(
        isinstance(size, int) and size != got for size, got in zip(form, raw.shape)
    ):
        raise UsageError(
            f"{name} must be a ({', '.join(map(str, form))}) tensor, "
            f"got shape {raw.shape}"
        )
    return raw


def _intrinsics_from_args(args: argparse.Namespace) -> CameraIntrinsics:
    given = [f"--{f}" for f in ("fx", "fy", "cx", "cy") if getattr(args, f) is not None]
    if args.intrinsics is not None and given:
        raise UsageError(
            f"pass either --intrinsics FILE or --fx --fy --cx --cy, not both "
            f"(got --intrinsics and {' '.join(given)})"
        )
    if args.intrinsics is not None:
        try:
            raw = json.loads(Path(args.intrinsics).read_text())
        except FileNotFoundError as exc:
            raise UsageError(f"missing file: {args.intrinsics}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot parse intrinsics {args.intrinsics}: {exc}") from exc
        fields = ("fx", "fy", "cx", "cy")
        if isinstance(raw, dict) and not any(f in raw for f in fields):
            raw = raw.get("intrinsics", raw)  # the manifest.json of `synth`
        try:
            return CameraIntrinsics(
                fx=float(raw["fx"]),
                fy=float(raw["fy"]),
                cx=float(raw["cx"]),
                cy=float(raw["cy"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(
                f"intrinsics file must supply numeric fx, fy, cx, cy: {exc}"
            ) from exc
    if len(given) < 4:
        raise UsageError(
            "camera intrinsics required: pass --intrinsics FILE or all of "
            "--fx --fy --cx --cy"
        )
    return CameraIntrinsics(fx=args.fx, fy=args.fy, cx=args.cx, cy=args.cy)


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: {exc}") from exc
    if not os.access(out, os.W_OK):
        raise UsageError(f"output directory not writable: {path}")
    return out


def _write(path: Union[str, Path], content: Union[str, np.ndarray]) -> None:
    """Write ``content`` to ``path``: a string as text, an array as a
    ``.pten`` tensor. A failed write is a usage error that names the path."""
    try:
        if isinstance(content, str):
            Path(path).write_text(content)
        else:
            write_tensor(path, content)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _check_out_dir(path: str) -> None:
    """Reject an output directory that :func:`_out_dir` could not create
    or write, without creating it: the path, or else its nearest existing
    ancestor, must be a writable directory."""
    out = Path(path).absolute()
    existing = out
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise UsageError(
            f"cannot create output directory {path}: {existing} is not a directory"
        )
    if not os.access(existing, os.W_OK | os.X_OK):
        raise UsageError(f"output directory not writable: {path}")


def _cmd_cluster(args: argparse.Namespace) -> int:
    emb_raw = _load_tensor(args.embeddings, "embeddings", ("H", "W", "d"))
    prob_raw = _load_tensor(args.probs, "probabilities", ("H", "W"))
    if emb_raw.shape[:2] != prob_raw.shape:
        raise UsageError(
            f"grid mismatch: embeddings {emb_raw.shape[:2]} vs "
            f"probabilities {prob_raw.shape}"
        )
    grid = ImageGrid(*prob_raw.shape)
    embeddings = EmbeddingMap(grid, emb_raw.reshape(grid.n_pixels, -1))
    probs = PlanarProbabilityMap(grid, prob_raw.reshape(-1).astype(np.float64))
    mask = PlanarMask(grid, probs.probs >= args.mask_threshold)
    config = MeanShiftConfig(
        anchors_per_dim=args.k,
        bandwidth=args.bandwidth,
        iterations=args.iters,
        density_fraction=args.tau,
    )
    _check_out_dir(args.out)  # before the clustering work; created once it succeeds
    start = time.perf_counter()
    clusters, assignment = cluster(embeddings, mask, config)
    wall_ms = (time.perf_counter() - start) * 1000.0
    labels = hard_labels(assignment)
    out = _out_dir(args.out)
    _write(
        out / "labels.pten",
        labels.labels.reshape(grid.height, grid.width).astype(np.int32),
    )
    summary = {
        "cluster_count": len(clusters),
        "iterations": config.iterations,
        "wall_ms": wall_ms,
        "k": config.anchors_per_dim,
        "bandwidth": config.bandwidth,
        "tau": config.density_fraction,
    }
    _write(out / "summary.json", metrics_to_json(summary) + "\n")
    print(f"clusters: {len(clusters)}  outputs: {out}")
    return 0


def _read_segmentation(path: str) -> InstanceSegmentation:
    raw = _load_tensor(path, "labels", ("H", "W"))
    if raw.dtype.kind == "f":
        if not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise UsageError(f"labels in {path} must be finite integers")
        if not np.all(np.abs(raw) < 2.0**63):  # else the int64 cast is undefined
            raise UsageError(f"labels in {path} must lie within the int64 range")
    grid = ImageGrid(*raw.shape)
    return InstanceSegmentation(grid, raw.reshape(-1).astype(np.int64))


def _cmd_eval(args: argparse.Namespace) -> int:
    pred_seg = _read_segmentation(args.pred_labels)
    gt_seg = _read_segmentation(args.gt_labels)
    depth_raw = _load_tensor(args.gt_depth, "depth", ("H", "W"))
    if pred_seg.grid != gt_seg.grid or depth_raw.shape != (
        gt_seg.grid.height,
        gt_seg.grid.width,
    ):
        raise UsageError("prediction, reference, and depth grids must match")
    grid = gt_seg.grid
    gt_depth = DepthMap(grid, depth_raw.reshape(-1), depth_raw.reshape(-1) > 0)
    intr = _intrinsics_from_args(args)
    params_raw = _load_tensor(args.pred_params, "instance params", ("C", 3))
    if params_raw.shape[0] != pred_seg.n_instances:
        raise UsageError(
            f"instance params rows ({params_raw.shape[0]}) must match predicted "
            f"instance count ({pred_seg.n_instances})"
        )
    pred_planes = [Plane(row) for row in params_raw]
    _check_out_dir(args.out)  # before the evaluation; created once it succeeds
    result = evaluate(pred_seg, pred_planes, gt_seg, gt_depth, intr)
    record = {
        "rand_index": result.rand_index,
        "variation_of_information": result.variation_of_information,
        "segmentation_covering": result.segmentation_covering,
        "depth_metrics": result.depth.as_dict(),
        "plane_count_histogram": {str(result.plane_count): 1},
    }
    out = _out_dir(args.out)
    _write(out / "metrics.json", metrics_to_json(record) + "\n")
    _write(out / "recall_depth.csv", recall_curve_to_csv(result.recall_depth))
    _write(out / "recall_normal.csv", recall_curve_to_csv(result.recall_normal))
    print(
        f"RI {record['rand_index']:.4f}  "
        f"VI {record['variation_of_information']:.4f}  "
        f"SC {record['segmentation_covering']:.4f}  outputs: {out}"
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    grid = ImageGrid(args.height, args.width)
    intr = CameraIntrinsics(
        fx=args.fx if args.fx is not None else 0.9 * args.width,
        fy=args.fy if args.fy is not None else 0.9 * args.width,
        cx=args.cx if args.cx is not None else (args.width - 1) / 2.0,
        cy=args.cy if args.cy is not None else (args.height - 1) / 2.0,
    )
    spec = SceneSpec(
        grid=grid,
        intr=intr,
        plane_count=args.planes,
        nonplanar_fraction=args.nonplanar_fraction,
        depth_range=(args.depth_min, args.depth_max),
        seed=args.seed,
    )
    _check_out_dir(args.out)  # before the generation; created once it succeeds
    scene = generate_scene(spec)
    noise = EmbeddingNoiseSpec(sigma=args.sigma, seed=args.seed)
    embeddings = generate_embeddings(scene, noise, dim=args.dim)
    params = generate_pixel_params(scene, args.param_noise, seed=args.seed)
    probs = corrupt_probability(scene, args.flip_rate, seed=args.seed)
    out = _out_dir(args.out)
    h, w = grid.height, grid.width
    _write(
        out / "segmentation.pten",
        scene.segmentation.labels.reshape(h, w).astype(np.int32),
    )
    _write(out / "depth.pten", scene.depth.depth.reshape(h, w))
    _write(out / "embeddings.pten", embeddings.values.reshape(h, w, -1))
    _write(out / "params.pten", params.params.reshape(h, w, 3))
    _write(out / "probs.pten", probs.probs.reshape(h, w))
    manifest = {
        "spec": {
            "height": h,
            "width": w,
            "plane_count": spec.plane_count,
            "nonplanar_fraction": spec.nonplanar_fraction,
            "depth_range": list(spec.depth_range),
            "seed": spec.seed,
        },
        "intrinsics": dataclasses.asdict(intr),
        "embedding_noise": {
            "center_min_gap": noise.center_min_gap,
            "sigma": noise.sigma,
            "seed": noise.seed,
        },
        "param_noise": args.param_noise,
        "flip_rate": args.flip_rate,
        "planes": [list(p.n) for p in scene.planes],
    }
    _write(out / "manifest.json", metrics_to_json(manifest) + "\n")
    print(f"scene with {spec.plane_count} planes written to {out}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    results = run_gradient_checks(samples=args.samples, seed=args.seed)
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.name}: max rel err {r.max_rel_err:.3e} "
            f"(tolerance {r.tolerance:.1e}, {r.samples} samples)"
        )
        all_passed &= r.passed
    return 0 if all_passed else COMPUTE_ERROR


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"--sizes must be comma-separated integers: {exc}") from exc
    if not sizes:
        raise UsageError("--sizes must name at least one size")
    results = bench_clustering(
        sizes=sizes,
        config=MeanShiftConfig(anchors_per_dim=args.k, iterations=args.iters),
        repeats=args.repeats,
        vanilla_iters=args.vanilla_iters,
        rng_seed=args.seed,
    )
    text = bench_results_to_csv(results)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write(args.out, text)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarseg",
        description="Plane-instance segmentation toolkit: clustering, "
        "geometry, losses, metrics, synthetic scenes, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser(
        "cluster", help="cluster embeddings into plane instances"
    )
    p_cluster.add_argument("embeddings", help="PTEN (H, W, d) embedding tensor")
    p_cluster.add_argument("probs", help="PTEN (H, W) planar probability tensor")
    p_cluster.add_argument("--k", type=int, default=10, help="anchors per dimension")
    p_cluster.add_argument("--bandwidth", type=float, default=0.5)
    p_cluster.add_argument("--iters", type=int, default=10)
    p_cluster.add_argument("--tau", type=float, default=0.1)
    p_cluster.add_argument("--mask-threshold", type=float, default=0.5)
    p_cluster.add_argument("--out", default=".", help="output directory")
    p_cluster.set_defaults(func=_cmd_cluster)

    p_eval = sub.add_parser("eval", help="score a prediction against reference data")
    p_eval.add_argument("--pred-labels", required=True)
    p_eval.add_argument("--pred-params", required=True, help="PTEN (C, 3) tensor")
    p_eval.add_argument("--gt-labels", required=True)
    p_eval.add_argument("--gt-depth", required=True)
    p_eval.add_argument(
        "--intrinsics",
        help="JSON file with fx, fy, cx, cy, or a synth manifest.json",
    )
    p_eval.add_argument("--fx", type=float)
    p_eval.add_argument("--fy", type=float)
    p_eval.add_argument("--cx", type=float)
    p_eval.add_argument("--cy", type=float)
    p_eval.add_argument("--out", default=".", help="output directory")
    p_eval.set_defaults(func=_cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--height", type=int, default=48)
    p_synth.add_argument("--width", type=int, default=64)
    p_synth.add_argument("--planes", type=int, default=4)
    p_synth.add_argument("--nonplanar-fraction", type=float, default=0.1)
    p_synth.add_argument("--depth-min", type=float, default=1.0)
    p_synth.add_argument("--depth-max", type=float, default=4.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--dim", type=int, default=2)
    p_synth.add_argument("--sigma", type=float, default=0.1)
    p_synth.add_argument("--param-noise", type=float, default=0.0)
    p_synth.add_argument("--flip-rate", type=float, default=0.0)
    p_synth.add_argument("--fx", type=float)
    p_synth.add_argument("--fy", type=float)
    p_synth.add_argument("--cx", type=float)
    p_synth.add_argument("--cy", type=float)
    p_synth.add_argument("--out", default=".", help="output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_grad = sub.add_parser("gradcheck", help="verify loss gradients numerically")
    p_grad.add_argument("--samples", type=int, default=100)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_bench = sub.add_parser("bench", help="time both clustering variants")
    p_bench.add_argument(
        "--sizes", default=",".join(str(s) for s in DEFAULT_SIZES)
    )
    p_bench.add_argument("--k", type=int, default=10)
    p_bench.add_argument("--iters", type=int, default=10)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--vanilla-iters", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="CSV path (default: stdout)")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return COMPUTE_ERROR


if __name__ == "__main__":
    sys.exit(main())
