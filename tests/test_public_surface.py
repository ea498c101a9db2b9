"""The settable public values: keyword defaults of the functions in
``planarseg.__all__`` plus dataclass fields with defaults.

Each one is an option that tests and benchmarks must cover, so adding or
removing one is a deliberate edit to this list.
"""

import dataclasses
import inspect

import planarseg

SETTABLE = [
    "DepthMap.validity",
    "InstanceSegmentation.n_instances",
    "PointMap.validity",
    "MeanShiftConfig.anchors_per_dim",
    "MeanShiftConfig.bandwidth",
    "MeanShiftConfig.iterations",
    "MeanShiftConfig.density_fraction",
    "cluster.config",
    "vanilla_mean_shift.max_iters",
    "vanilla_mean_shift.tol",
    "Margins.delta_v",
    "Margins.delta_d",
    "central_difference.h",
    "embedding_loss.margins",
    "pull_loss.margins",
    "push_loss.margins",
    "total_loss.margins",
    "run_gradient_checks.samples",
    "run_gradient_checks.seed",
    "recall_depth.thresholds",
    "recall_normal.thresholds",
    "EmbeddingNoiseSpec.center_min_gap",
    "EmbeddingNoiseSpec.sigma",
    "EmbeddingNoiseSpec.seed",
    "SceneSpec.plane_count",
    "SceneSpec.nonplanar_fraction",
    "SceneSpec.depth_range",
    "SceneSpec.seed",
    "corrupt_probability.flip_rate",
    "corrupt_probability.seed",
    "generate_embeddings.dim",
    "generate_pixel_params.param_noise_sigma",
    "generate_pixel_params.seed",
    "bench_clustering.sizes",
    "bench_clustering.config",
    "bench_clustering.repeats",
    "bench_clustering.vanilla_iters",
    "bench_clustering.rng_seed",
]


def settable_values():
    found = []
    for name in planarseg.__all__:
        obj = getattr(planarseg, name)
        if dataclasses.is_dataclass(obj):
            found += [
                f"{name}.{field.name}"
                for field in dataclasses.fields(obj)
                if field.default is not dataclasses.MISSING
                or field.default_factory is not dataclasses.MISSING
            ]
        elif inspect.isfunction(obj):
            found += [
                f"{name}.{param.name}"
                for param in inspect.signature(obj).parameters.values()
                if param.default is not inspect.Parameter.empty
            ]
    return found


def test_settable_values_are_pinned():
    assert settable_values() == SETTABLE
