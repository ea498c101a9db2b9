"""Benchmark harness: smoke runs on tiny sizes plus exact slope math."""

import math

import numpy as np
import pytest

from planarseg import MeanShiftConfig, bench
from planarseg.bench import (
    DEFAULT_SIZES,
    BenchResult,
    bench_clustering,
    bench_results_to_csv,
    fit_loglog_slope,
)
from planarseg.clustering import _seed_anchors


class TestBenchResult:
    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError, match="times"):
            BenchResult("fast", 100, 10, 2, 10, 0.0, 1.0)


class TestDefaultSizes:
    def test_ascending_and_plausible(self):
        assert list(DEFAULT_SIZES) == sorted(DEFAULT_SIZES)
        assert DEFAULT_SIZES[0] >= 1024
        assert len(DEFAULT_SIZES) == 5


class TestBenchClustering:
    def test_smoke_on_tiny_sizes(self):
        results = bench_clustering(sizes=(256, 512), repeats=3)
        assert len(results) == 4
        variants = [(r.variant, r.n) for r in results]
        assert variants == [
            ("fast", 256),
            ("vanilla", 256),
            ("fast", 512),
            ("vanilla", 512),
        ]
        for r in results:
            assert r.iter_ms > 0.0
            assert r.total_ms > 0.0
            assert r.k == 10
            assert r.d == 2

    def test_config_sets_k_and_iterations(self):
        config = MeanShiftConfig(anchors_per_dim=5, iterations=3)
        results = bench_clustering(
            sizes=(256,), config=config, repeats=3, vanilla_iters=2
        )
        assert [(r.variant, r.k, r.iterations) for r in results] == [
            ("fast", 5, 3),
            ("vanilla", 5, 2),
        ]

    def test_repeats_floor(self):
        with pytest.raises(ValueError, match="repeats"):
            bench_clustering(sizes=(256,), repeats=2)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"repeats": 3.0}, "repeats"),
            ({"repeats": True}, "repeats"),
            ({"vanilla_iters": 1.5}, "vanilla_iters"),
            ({"sizes": (256, 2.5)}, "sizes"),
            ({"sizes": (True,)}, "sizes"),
        ],
    )
    def test_counts_must_be_integers(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            bench_clustering(**{"sizes": (256,), **kwargs})

    def test_shift_timing_inputs(self, monkeypatch):
        # The per-iteration time is N for fast (the filtered anchors
        # against all pixels) and N^2 for vanilla (all pixels against
        # all pixels); criterion 2 reads its slopes.
        calls = []
        shift = bench._gaussian_shift

        def spy(seeds, points, bandwidth):
            calls.append((seeds, points, bandwidth))
            return shift(seeds, points, bandwidth)

        monkeypatch.setattr(bench, "_gaussian_shift", spy)
        config = MeanShiftConfig(bandwidth=0.4)
        bench_clustering(sizes=(300,), config=config, repeats=3)
        emb, mask = bench._mixture_input(300, 2, 0)
        anchors = _seed_anchors(emb, mask, config)[0]
        assert 0 < anchors.shape[0] < config.anchors_per_dim**2
        assert len(calls) == 8  # a warm-up and three repeats per variant
        for i, (seeds, points, bandwidth) in enumerate(calls):
            np.testing.assert_array_equal(points, emb.values)
            np.testing.assert_array_equal(seeds, anchors if i < 4 else emb.values)
            assert bandwidth == 0.4


class TestFitLoglogSlope:
    def test_exact_linear_scaling(self):
        sizes = [1000, 2000, 4000, 8000]
        times = [0.002 * n for n in sizes]
        assert fit_loglog_slope(sizes, times) == pytest.approx(1.0, abs=1e-12)

    def test_exact_quadratic_scaling(self):
        sizes = [1000, 2000, 4000, 8000]
        times = [1e-7 * n**2 for n in sizes]
        assert fit_loglog_slope(sizes, times) == pytest.approx(2.0, abs=1e-12)

    def test_power_law_recovery(self):
        sizes = np.array([512, 1024, 4096, 16384])
        times = 3.0 * sizes**1.37
        assert fit_loglog_slope(sizes, times) == pytest.approx(1.37, abs=1e-12)

    def test_least_squares_on_noisy_points(self):
        # frozen: symmetric residuals in log space leave the slope exact
        sizes = [math.e, math.e**2, math.e**3]
        times = [math.e * 2.0, math.e**2, math.e**3 * 2.0]
        assert fit_loglog_slope(sizes, times) == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two"):
            fit_loglog_slope([100], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="matching"):
            fit_loglog_slope([100, 200], [1.0])

    def test_needs_two_distinct_sizes(self):
        # one repeated size gives a 0/0 slope
        with pytest.raises(ValueError, match="two distinct sizes"):
            fit_loglog_slope([4, 4], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_sizes_and_times_not_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="sizes must be finite and > 0"):
            fit_loglog_slope([bad, 200], [1.0, 2.0])
        with pytest.raises(ValueError, match="times must be finite and > 0"):
            fit_loglog_slope([100, 200], [1.0, bad])


class TestBenchCsv:
    def test_header_exact(self):
        text = bench_results_to_csv([])
        assert text == "variant,N,k,d,T,iter_ms,total_ms\n"

    def test_row_formatting(self):
        r = BenchResult("vanilla", 4096, 10, 2, 1, 12.3456, 99.9999)
        lines = bench_results_to_csv([r]).strip().split("\n")
        assert lines[1] == "vanilla,4096,10,2,1,12.346,100.000"
