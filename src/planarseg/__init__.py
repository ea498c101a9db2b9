"""Plane-instance segmentation toolkit.

Clusters per-pixel embeddings into plane instances with an anchor-based
mean shift, estimates per-instance plane parameters by soft pooling,
provides the training losses with analytic gradients, and evaluates
segmentations and depth with the standard metric set. Synthetic scene
generation and a benchmark harness make the whole pipeline testable
without any dataset or network.
"""

from .core import (
    CameraIntrinsics,
    DepthMap,
    EmbeddingMap,
    ImageGrid,
    InstanceSegmentation,
    LossReport,
    PixelPlaneParams,
    PlanarMask,
    PlanarProbabilityMap,
    PlaneInstanceParams,
    PointMap,
    SoftAssignment,
)
from .tensor_io import TensorFormatError, read_tensor, write_tensor
from .clustering import (
    ClusterSet,
    MeanShiftConfig,
    cluster,
    hard_labels,
    soft_assign,
    vanilla_mean_shift,
)
from .geometry import (
    Plane,
    backproject,
    fit_plane_lsq,
    normal_angle,
    one_hot_assignment,
    pool_instance_params,
    render_segment_depth,
)
from .losses import (
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
from .gradcheck import GradCheckResult, run_gradient_checks
from .metrics import (
    DepthMetrics,
    Evaluation,
    RecallCurve,
    depth_metrics,
    evaluate,
    plane_count_histogram,
    rand_index,
    recall_depth,
    recall_normal,
    segmentation_covering,
    variation_of_information,
)
from .synth import (
    EmbeddingNoiseSpec,
    Scene,
    SceneSpec,
    corrupt_probability,
    generate_embeddings,
    generate_pixel_params,
    generate_scene,
)
from .bench import BenchResult, bench_clustering, fit_loglog_slope

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "DepthMap",
    "EmbeddingMap",
    "ImageGrid",
    "InstanceSegmentation",
    "LossReport",
    "PixelPlaneParams",
    "PlanarMask",
    "PlanarProbabilityMap",
    "PlaneInstanceParams",
    "PointMap",
    "SoftAssignment",
    "TensorFormatError",
    "read_tensor",
    "write_tensor",
    "ClusterSet",
    "MeanShiftConfig",
    "cluster",
    "hard_labels",
    "soft_assign",
    "vanilla_mean_shift",
    "Plane",
    "backproject",
    "fit_plane_lsq",
    "normal_angle",
    "one_hot_assignment",
    "pool_instance_params",
    "render_segment_depth",
    "Margins",
    "balanced_bce",
    "central_difference",
    "embedding_loss",
    "instance_param_loss",
    "pixel_param_loss",
    "pull_loss",
    "push_loss",
    "total_loss",
    "GradCheckResult",
    "run_gradient_checks",
    "DepthMetrics",
    "Evaluation",
    "RecallCurve",
    "depth_metrics",
    "evaluate",
    "plane_count_histogram",
    "rand_index",
    "recall_depth",
    "recall_normal",
    "segmentation_covering",
    "variation_of_information",
    "EmbeddingNoiseSpec",
    "Scene",
    "SceneSpec",
    "corrupt_probability",
    "generate_embeddings",
    "generate_pixel_params",
    "generate_scene",
    "BenchResult",
    "bench_clustering",
    "fit_loglog_slope",
    "__version__",
]
