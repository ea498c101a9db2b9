"""Timing harness for the clustering variants.

Measures per-iteration shift cost and whole-call cost for the anchor
variant and the per-pixel baseline on identical synthetic inputs, so the
linear-vs-quadratic scaling and the speed ratio between them can be read
off one CSV. One timing loop runs both variants; each differs only in
its shift seeds (the filtered anchors or every pixel, shifted against
every pixel), its iteration count and the whole call it times.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

import numpy as np

from .core import EmbeddingMap, ImageGrid, PlanarMask, _checked_int
from .clustering import (
    MeanShiftConfig,
    _gaussian_shift,
    _seed_anchors,
    cluster,
    vanilla_mean_shift,
)

__all__ = [
    "BenchResult",
    "bench_clustering",
    "fit_loglog_slope",
    "bench_results_to_csv",
    "DEFAULT_SIZES",
]

DEFAULT_SIZES = (4096, 8192, 16384, 32768, 49152)
_MIXTURE_COMPONENTS = 6


@dataclass(frozen=True)
class BenchResult:
    """One timed configuration of one variant."""

    variant: str
    n: int
    k: int
    d: int
    iterations: int
    iter_ms: float
    total_ms: float

    def __post_init__(self) -> None:
        if self.iter_ms <= 0.0 or self.total_ms <= 0.0:
            raise ValueError("times must be > 0")


def _mixture_input(
    n: int, d: int, rng_seed: int
) -> Tuple[EmbeddingMap, PlanarMask]:
    """Synthetic embedding blob mixture on a 1 x n grid, fully planar."""
    rng = np.random.default_rng(rng_seed)
    centers = rng.uniform(1.0, 9.0, size=(_MIXTURE_COMPONENTS, d))
    while True:
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        dist[np.diag_indices_from(dist)] = np.inf
        bad = np.nonzero(dist.min(axis=1) < 2.0)[0]
        if bad.size == 0:
            break
        centers[bad] = rng.uniform(1.0, 9.0, size=(bad.size, d))
    which = rng.integers(0, _MIXTURE_COMPONENTS, size=n)
    values = centers[which] + rng.normal(0.0, 0.15, size=(n, d))
    grid = ImageGrid(1, n)
    return EmbeddingMap(grid, values), PlanarMask(grid, np.ones(n, dtype=bool))


def _median_time(fn, repeats: int) -> float:
    """Median wall time of ``fn`` over ``repeats`` runs after one warm-up."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def bench_clustering(
    sizes: Sequence[int] = DEFAULT_SIZES,
    config: MeanShiftConfig = MeanShiftConfig(),
    repeats: int = 3,
    vanilla_iters: int = 1,
    rng_seed: int = 0,
) -> List[BenchResult]:
    """Time both variants over problem sizes at one ``config``.

    ``iter_ms`` times a single exact, unweighted shift pass over all N
    points (anchors for the fast variant, every point for the baseline),
    through the same kernel with the plain table ``[p | 1]``, so it
    scales as N and N^2; :func:`cluster` itself shifts anchors against
    the moment cells of its bins. ``total_ms`` times the whole call.
    The baseline runs ``vanilla_iters`` iterations in its total so large
    sizes stay affordable. Every size and ``vanilla_iters`` must be an
    integer of at least 1 and ``repeats`` one of at least 3, all checked
    before any timing.
    """
    repeats = _checked_int("repeats", repeats)
    sizes = [_checked_int("sizes", n) for n in sizes]
    vanilla_iters = _checked_int("vanilla_iters", vanilla_iters)
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    if min(sizes, default=1) < 1:
        raise ValueError(f"sizes must be >= 1, got {min(sizes)}")
    if vanilla_iters < 1:
        raise ValueError(f"vanilla_iters must be >= 1, got {vanilla_iters}")
    results: List[BenchResult] = []
    for n in sizes:
        emb, mask = _mixture_input(n, 2, rng_seed)
        values = emb.values
        anchors = _seed_anchors(emb, mask, config)[0]
        vanilla = partial(
            vanilla_mean_shift,
            emb,
            mask,
            bandwidth=config.bandwidth,
            max_iters=vanilla_iters,
            tol=0.0,
        )
        # (variant, shift seeds, iterations, whole call)
        for variant, seeds, iterations, whole in (
            ("fast", anchors, config.iterations, partial(cluster, emb, mask, config)),
            ("vanilla", values, vanilla_iters, vanilla),
        ):
            shift = partial(_gaussian_shift, seeds, values, config.bandwidth)
            results.append(
                BenchResult(
                    variant=variant,
                    n=n,
                    k=config.anchors_per_dim,
                    d=2,
                    iterations=iterations,
                    iter_ms=_median_time(shift, repeats) * 1000.0,
                    total_ms=_median_time(whole, repeats) * 1000.0,
                )
            )
    return results


def fit_loglog_slope(
    sizes: Sequence[int], times: Sequence[float]
) -> float:
    """Least-squares slope of log(time) against log(size). Sizes and
    times must be finite and > 0, with at least two distinct sizes."""
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need matching sizes and times, at least two points")
    for name, values in (("sizes", sizes), ("times", times)):
        if not all(0.0 < value < np.inf for value in values):  # NaN fails too
            raise ValueError(f"{name} must be finite and > 0")
    if len(set(sizes)) < 2:
        raise ValueError("need at least two distinct sizes")
    lx = np.log(np.asarray(sizes, dtype=np.float64))
    ly = np.log(np.asarray(times, dtype=np.float64))
    lx -= lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def bench_results_to_csv(results: Sequence[BenchResult]) -> str:
    """Serialize results with the canonical column order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["variant", "N", "k", "d", "T", "iter_ms", "total_ms"])
    for r in results:
        writer.writerow(
            [
                r.variant,
                r.n,
                r.k,
                r.d,
                r.iterations,
                f"{r.iter_ms:.3f}",
                f"{r.total_ms:.3f}",
            ]
        )
    return buffer.getvalue()
