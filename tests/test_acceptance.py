"""Acceptance gate: seven system-level criteria with stated tolerances.

Each test prints one [PASS]/[FAIL] line naming its criterion so the
suite output doubles as a scorecard. Criteria:

1. fast-vs-baseline clustering equivalence on 50 synthetic scenes
2. near-linear vs near-quadratic per-iteration scaling, >= 5x speedup
3. analytic gradients within 1e-4 of finite differences, 100 points each
4. plane/depth round trip < 1e-9 and noiseless fitting < 1e-8, 1000 draws
5. partition metrics equal brute-force oracles; recall matches all-pairs
6. end-to-end pipeline: 100% plane recall at 0.05 m and RI >= 0.99
7. loss report additivity, perfect-scene zeros, zero-loss recovery
"""

import time

import numpy as np
import pytest

from test_metrics import (
    all_partitions,
    brute_rand,
    brute_sc,
    brute_vi,
    oracle_recall_depth,
    oracle_recall_normal,
    random_eval_case,
    seg,
)

from planarseg.bench import bench_clustering, fit_loglog_slope
from planarseg.clustering import MeanShiftConfig, cluster, hard_labels, vanilla_mean_shift
from planarseg.core import (
    CameraIntrinsics,
    EmbeddingMap,
    ImageGrid,
    InstanceSegmentation,
    PixelPlaneParams,
    PlanarProbabilityMap,
    PlaneInstanceParams,
    PointMap,
    SoftAssignment,
)
from planarseg.geometry import (
    Plane,
    _render,
    backproject,
    fit_plane_lsq,
    one_hot_assignment,
    pool_instance_params,
    render_segment_depth,
)
from planarseg.gradcheck import run_gradient_checks
from planarseg.losses import Margins, embedding_loss, total_loss
from planarseg.metrics import (
    DEPTH_THRESHOLDS,
    NORMAL_THRESHOLDS,
    rand_index,
    recall_depth,
    recall_normal,
    segmentation_covering,
    variation_of_information,
)
from planarseg.synth import (
    EmbeddingNoiseSpec,
    SceneSpec,
    corrupt_probability,
    generate_embeddings,
    generate_pixel_params,
    generate_scene,
)

GRID = ImageGrid(48, 64)
INTR = CameraIntrinsics(fx=60.0, fy=60.0, cx=31.5, cy=23.5)
MARGINS = Margins(delta_v=0.5, delta_d=1.5)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def scene_spec(seed: int, plane_count: int, nonplanar: float = 0.1) -> SceneSpec:
    return SceneSpec(
        grid=GRID,
        intr=INTR,
        plane_count=plane_count,
        nonplanar_fraction=nonplanar,
        seed=seed,
    )


class TestCriterion1OracleEquivalence:
    def test_fast_matches_vanilla_on_fifty_scenes(self):
        start = time.perf_counter()
        config = MeanShiftConfig(anchors_per_dim=10, bandwidth=0.5, iterations=10)
        agree = planar = 0
        count_matches = 0
        for i in range(50):
            scene = generate_scene(scene_spec(seed=1000 + i, plane_count=2 + i % 11))
            emb = generate_embeddings(
                scene,
                EmbeddingNoiseSpec(center_min_gap=1.5, sigma=0.5 / 3.0, seed=2000 + i),
            )
            mask = scene.mask
            fast_clusters, fast_sa = cluster(emb, mask, config)
            van_clusters, van_sa = vanilla_mean_shift(emb, mask, bandwidth=0.5)
            fast_labels = hard_labels(fast_sa).labels
            van_labels = hard_labels(van_sa).labels
            m = mask.mask
            agree += int((fast_labels[m] == van_labels[m]).sum())
            planar += int(m.sum())
            count_matches += len(fast_clusters) == len(van_clusters)
        elapsed = time.perf_counter() - start
        fraction = agree / planar
        ok = fraction >= 0.99 and count_matches >= 48 and elapsed < 300.0
        report(
            "criterion 1 (oracle equivalence)",
            ok,
            f"pixel agreement {100.0 * fraction:.3f}% (need >= 99%), "
            f"count matches {count_matches}/50 (need >= 48), "
            f"{elapsed:.1f}s (budget 300s)",
        )


@pytest.mark.slow
class TestCriterion2Complexity:
    def test_loglog_slopes_and_speedup(self):
        start = time.perf_counter()
        sizes = (4096, 8192, 16384, 32768, 49152)
        results = bench_clustering(sizes=sizes, repeats=3, vanilla_iters=1)
        fast = {r.n: r for r in results if r.variant == "fast"}
        vanilla = {r.n: r for r in results if r.variant == "vanilla"}
        fast_slope = fit_loglog_slope(sizes, [fast[n].iter_ms for n in sizes])
        vanilla_slope = fit_loglog_slope(sizes, [vanilla[n].iter_ms for n in sizes])
        ratio = vanilla[49152].iter_ms / fast[49152].iter_ms
        elapsed = time.perf_counter() - start
        ok = (
            abs(fast_slope - 1.0) <= 0.25
            and abs(vanilla_slope - 2.0) <= 0.35
            and ratio >= 5.0
            and elapsed < 600.0
        )
        report(
            "criterion 2 (complexity)",
            ok,
            f"fast slope {fast_slope:.3f} (need 1.0 +/- 0.25), "
            f"baseline slope {vanilla_slope:.3f} (need 2.0 +/- 0.35), "
            f"per-iteration speedup {ratio:.1f}x at N=49152 (need >= 5x), "
            f"{elapsed:.1f}s (budget 600s)",
        )


class TestCriterion3Gradients:
    def test_hundred_point_sweep_per_loss(self):
        start = time.perf_counter()
        results = run_gradient_checks(samples=100, seed=0, h=1e-5, tolerance=1e-4)
        elapsed = time.perf_counter() - start
        worst = max(r.max_rel_err for r in results)
        ok = all(r.passed for r in results) and elapsed < 60.0
        report(
            "criterion 3 (gradient correctness)",
            ok,
            f"worst rel err {worst:.3e} over "
            f"{', '.join(r.name for r in results)} (need < 1e-4), "
            f"{elapsed:.1f}s (budget 60s)",
        )


def criterion4_cases():
    """The 1000 random (plane, intrinsics) pairs of criterion 4, on a 6x8
    grid: (grid, one-instance segmentation, cases)."""
    rng = np.random.default_rng(0)
    grid = ImageGrid(6, 8)
    cases = []
    for _ in range(1000):
        nz = rng.uniform(0.2, 2.0)
        n = np.array([rng.uniform(-0.3, 0.3) * nz, rng.uniform(-0.3, 0.3) * nz, nz])
        intr = CameraIntrinsics(
            fx=rng.uniform(20.0, 500.0),
            fy=rng.uniform(20.0, 500.0),
            cx=rng.uniform(2.0, 5.0),
            cy=rng.uniform(1.5, 4.0),
        )
        cases.append((Plane(n), intr))
    whole = InstanceSegmentation(grid, np.ones(grid.n_pixels, dtype=np.int64))
    return grid, whole, cases


class TestCriterion4GeometryRoundTrip:
    def test_thousand_random_planes(self):
        _, whole, cases = criterion4_cases()
        worst_residual = 0.0
        worst_recovery = 0.0
        for plane, intr in cases:
            depth = render_segment_depth(whole, [plane], intr)
            pm = backproject(depth, intr)
            valid = np.nonzero(pm.validity)[0]
            assert valid.size >= 3
            residual = float(np.abs(pm.points[valid] @ plane.n - 1.0).max())
            worst_residual = max(worst_residual, residual)
            fitted, _ = fit_plane_lsq(pm, valid)
            recovery = float(
                np.linalg.norm(fitted.n - plane.n) / np.linalg.norm(plane.n)
            )
            worst_recovery = max(worst_recovery, recovery)
        ok = worst_residual < 1e-9 and worst_recovery < 1e-8
        report(
            "criterion 4 (geometry round trip)",
            ok,
            f"max plane-equation residual {worst_residual:.2e} (need < 1e-9), "
            f"max fit recovery error {worst_recovery:.2e} (need < 1e-8), "
            f"1000 random planes/intrinsics",
        )

    def test_one_instance_render_is_the_plane_render(self):
        # Row 1 of the [0, n] normals that render a one-instance
        # segmentation is row 0 of [n], which all-zero labels gather.
        grid, whole, cases = criterion4_cases()
        zeros = np.zeros(grid.n_pixels, dtype=np.int64)
        for plane, intr in cases:
            got = render_segment_depth(whole, [plane], intr)
            want = _render(grid, intr, zeros, plane.n[None, :])
            assert got.depth.tobytes() == want.depth.tobytes()
            assert got.validity.tobytes() == want.validity.tobytes()


class TestCriterion5MetricOracles:
    def test_partition_metrics_and_recall_matching(self):
        worst = 0.0
        for n in range(1, 6):
            parts = list(all_partitions(n))
            segs = [seg(p) for p in parts]
            for pa, sa in zip(parts, segs):
                for pb, sb in zip(parts, segs):
                    worst = max(
                        worst,
                        abs(rand_index(sa, sb) - brute_rand(pa, pb)),
                        abs(variation_of_information(sa, sb) - brute_vi(pa, pb)),
                        abs(segmentation_covering(sa, sb) - brute_sc(pa, pb)),
                    )
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            a = list(rng.integers(0, 5, n))
            b = list(rng.integers(0, 5, n))
            sa, sb = seg(a), seg(b)
            worst = max(
                worst,
                abs(rand_index(sa, sb) - brute_rand(a, b)),
                abs(variation_of_information(sa, sb) - brute_vi(a, b)),
                abs(segmentation_covering(sa, sb) - brute_sc(a, b)),
            )
        partitions_ok = worst < 1e-12

        recall_ok = True
        intr = CameraIntrinsics(fx=60.0, fy=60.0, cx=3.5, cy=2.5)
        for case_seed in range(20):
            pred_seg, pred_planes, gt_seg, gt_depth, gt_planes = random_eval_case(
                case_seed
            )
            curve = recall_depth(pred_seg, pred_planes, gt_seg, gt_depth, intr)
            plane_oracle, pixel_oracle = oracle_recall_depth(
                pred_seg, pred_planes, gt_seg, gt_depth, intr, DEPTH_THRESHOLDS
            )
            recall_ok &= np.allclose(curve.plane_recall, plane_oracle, atol=1e-12)
            recall_ok &= np.allclose(curve.pixel_recall, pixel_oracle, atol=1e-12)
            ncurve = recall_normal(pred_seg, pred_planes, gt_seg, gt_planes)
            nplane, npixel = oracle_recall_normal(
                pred_seg, pred_planes, gt_seg, gt_planes, NORMAL_THRESHOLDS
            )
            recall_ok &= np.allclose(ncurve.plane_recall, nplane, atol=1e-12)
            recall_ok &= np.allclose(ncurve.pixel_recall, npixel, atol=1e-12)

        ident = seg([1, 1, 2, 2, 3, 3])
        identity_ok = (
            rand_index(ident, ident) == 1.0
            and variation_of_information(ident, ident) == 0.0
            and segmentation_covering(ident, ident) == 1.0
        )
        planes = [Plane([0, 0, 0.5]), Plane([0, 0, 0.4])]
        grid = ImageGrid(1, 6)
        gt_seg = InstanceSegmentation(grid, np.array([1, 1, 1, 2, 2, 2]))
        gt_depth = render_segment_depth(gt_seg, planes, intr)
        ident_curve = recall_depth(gt_seg, planes, gt_seg, gt_depth, intr)
        identity_ok &= bool((ident_curve.plane_recall == 100.0).all())
        identity_ok &= bool((ident_curve.pixel_recall == 100.0).all())

        ok = partitions_ok and recall_ok and identity_ok
        report(
            "criterion 5 (metric oracles)",
            ok,
            f"partition metrics worst |diff| {worst:.2e} vs brute force "
            f"(need < 1e-12, exhaustive n<=5 plus 200 random n<=30), "
            f"recall curves {'match' if recall_ok else 'diverge from'} "
            f"all-pairs matcher on 20 cases, identity scores "
            f"{'exact' if identity_ok else 'wrong'}",
        )


class TestCriterion6EndToEndPipeline:
    def test_fifty_seed_pipeline(self):
        start = time.perf_counter()
        config = MeanShiftConfig(anchors_per_dim=10, bandwidth=0.5, iterations=10)
        successes = 0
        for i in range(50):
            scene = generate_scene(scene_spec(seed=3000 + i, plane_count=2 + i % 5))
            emb = generate_embeddings(
                scene, EmbeddingNoiseSpec(center_min_gap=1.5, sigma=0.1, seed=4000 + i)
            )
            probs = corrupt_probability(scene, flip_rate=0.0)
            mask_arr = probs.probs >= 0.5
            np.testing.assert_array_equal(mask_arr, scene.mask.mask)
            pixel_params = generate_pixel_params(scene)
            try:
                _, assignment = cluster(emb, scene.mask, config)
                pred_seg = hard_labels(assignment)
                pooled = pool_instance_params(
                    pixel_params, one_hot_assignment(pred_seg)
                )
                pred_planes = [Plane(row) for row in pooled.params]
                curve = recall_depth(
                    pred_seg, pred_planes, scene.segmentation, scene.depth, INTR
                )
                ri = rand_index(pred_seg, scene.segmentation)
            except ValueError:
                continue
            if curve.plane_recall[0] == 100.0 and ri >= 0.99:
                successes += 1
        elapsed = time.perf_counter() - start
        ok = successes >= 48
        report(
            "criterion 6 (end-to-end pipeline)",
            ok,
            f"{successes}/50 seeds with 100% plane recall at 0.05 m and "
            f"RI >= 0.99 (need >= 48), {elapsed:.1f}s",
        )


class TestCriterion7LossSanity:
    def test_report_additivity_perfect_zeros_and_recovery(self):
        rng = np.random.default_rng(5)
        additive_ok = True
        grid = ImageGrid(4, 6)
        n = grid.n_pixels
        for _ in range(20):
            labels = rng.integers(0, 3, n)
            labels[:2] = [1, 2]
            gt_seg = InstanceSegmentation(grid, labels, 2)
            mask = gt_seg.planar_mask
            if not (mask.mask.any() and (~mask.mask).any()):
                continue
            raw = rng.uniform(0.1, 1.0, (n, 2))
            report_obj = total_loss(
                PlanarProbabilityMap(grid, rng.uniform(0.05, 0.95, n)),
                mask,
                EmbeddingMap(grid, rng.normal(size=(n, 2))),
                gt_seg,
                PixelPlaneParams(grid, rng.normal(size=(n, 3))),
                PixelPlaneParams(grid, rng.normal(size=(n, 3))),
                PlaneInstanceParams(rng.normal(0.0, 0.4, (2, 3))),
                SoftAssignment(grid, raw / raw.sum(axis=1, keepdims=True)),
                PointMap(grid, rng.normal(size=(n, 3)) + np.array([0, 0, 3.0])),
            )
            additive_ok &= (
                report_obj.total
                == report_obj.l_s
                + report_obj.l_e
                + report_obj.l_pp
                + report_obj.l_ip
            )
            additive_ok &= report_obj.l_e == report_obj.l_pull + report_obj.l_push

        scene = generate_scene(scene_spec(seed=7, plane_count=3))
        emb = generate_embeddings(scene, EmbeddingNoiseSpec(sigma=0.0))
        probs = PlanarProbabilityMap(
            scene.spec.grid, scene.mask.mask.astype(np.float64)
        )
        pixel_params = generate_pixel_params(scene)
        points = scene.points
        one_hot = one_hot_assignment(scene.segmentation)
        inst = pool_instance_params(pixel_params, one_hot)
        perfect = total_loss(
            probs,
            scene.mask,
            emb,
            scene.segmentation,
            pixel_params,
            pixel_params,
            inst,
            one_hot,
            points,
            MARGINS,
        )
        perfect_ok = (
            perfect.l_pull == 0.0
            and perfect.l_push == 0.0
            and perfect.l_pp == 0.0
            and perfect.l_ip < 1e-9
            and perfect.l_s < 1e-6 * scene.spec.grid.n_pixels
        )

        recovery_ok = True
        config = MeanShiftConfig(anchors_per_dim=10, bandwidth=0.5, iterations=10)
        for i in range(10):
            s = generate_scene(scene_spec(seed=5000 + i, plane_count=2 + i % 4))
            e = generate_embeddings(
                s, EmbeddingNoiseSpec(center_min_gap=1.5, sigma=0.0, seed=i)
            )
            value, _ = embedding_loss(e, s.segmentation, MARGINS)
            recovery_ok &= value == 0.0
            _, assignment = cluster(e, s.mask, config)
            pred = hard_labels(assignment)
            recovery_ok &= rand_index(pred, s.segmentation) == 1.0

        ok = additive_ok and perfect_ok and recovery_ok
        report(
            "criterion 7 (loss sanity)",
            ok,
            f"report additivity {'exact' if additive_ok else 'broken'} on 20 "
            f"random inputs, perfect-scene components "
            f"{'zero' if perfect_ok else 'nonzero'} "
            f"(pull/push/param exactly 0, probability term clamp-limited), "
            f"zero embedding loss implies exact recovery on "
            f"{'10/10' if recovery_ok else 'fewer'} seeds with b = 0.5",
        )
