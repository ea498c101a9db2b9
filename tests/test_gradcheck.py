"""Finite-difference harness: clean runs pass, corrupted runs fail."""

import numpy as np
import pytest

from planarseg import gradcheck
from planarseg.core import EmbeddingMap, ImageGrid, InstanceSegmentation
from planarseg.cli import main
from planarseg.gradcheck import LOSS_NAMES, GradCheckResult, run_gradient_checks
from planarseg.losses import Margins


class TestGradCheckResult:
    def test_passed_below_tolerance(self):
        r = GradCheckResult("pull_loss", 10, 1e-6, 1e-4)
        assert r.passed

    def test_failed_at_tolerance(self):
        r = GradCheckResult("pull_loss", 10, 1e-4, 1e-4)
        assert not r.passed


class TestRunGradientChecks:
    def test_covers_every_loss_once(self):
        results = run_gradient_checks(samples=3, seed=0)
        assert [r.name for r in results] == list(LOSS_NAMES)

    def test_clean_run_passes(self):
        results = run_gradient_checks(samples=10, seed=0)
        for r in results:
            assert r.passed, f"{r.name}: {r.max_rel_err}"
            assert r.max_rel_err < 1e-4

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_fewer_than_one_sample(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            run_gradient_checks(samples=samples)

    def test_deterministic_per_seed(self):
        a = run_gradient_checks(samples=5, seed=3)
        b = run_gradient_checks(samples=5, seed=3)
        assert [r.max_rel_err for r in a] == [r.max_rel_err for r in b]

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_corrupted_loss_fails(self, name, monkeypatch, capsys):
        # The loss keeps its value but reports a gradient 1% too large.
        loss = getattr(gradcheck, name)

        def wrong_gradient(*args):
            value, grad = loss(*args)
            return value, 1.01 * grad

        monkeypatch.setattr(gradcheck, name, wrong_gradient)
        results = run_gradient_checks(samples=2, seed=0)
        by_name = {r.name: r for r in results}
        assert not by_name[name].passed
        for other in LOSS_NAMES:
            if other != name:
                assert by_name[other].passed
        assert main(["gradcheck", "--samples", "2"]) == 1
        assert f"FAIL {name}" in capsys.readouterr().out


def loop_pull_off_kink(emb, seg, margins):
    """The per-instance loop that the pull predicate replaced."""
    for idx in range(1, seg.n_instances + 1):
        members = np.nonzero(seg.labels == idx)[0]
        if not members.shape[0]:
            continue
        mu = emb.values[members].mean(axis=0)
        dist = np.linalg.norm(mu[None, :] - emb.values[members], axis=1)
        if np.any(np.abs(dist - margins.delta_v) < gradcheck.KINK_MARGIN):
            return False
    return True


def loop_push_off_kink(emb, seg, margins):
    """The per-pair loop that the push predicate replaced."""
    means = []
    for idx in range(1, seg.n_instances + 1):
        members = np.nonzero(seg.labels == idx)[0]
        if members.shape[0]:
            means.append(emb.values[members].mean(axis=0))
    for a in range(len(means)):
        for b in range(a + 1, len(means)):
            dist = float(np.linalg.norm(means[a] - means[b]))
            if (
                abs(dist - margins.delta_d) < gradcheck.KINK_MARGIN
                or dist < gradcheck.KINK_MARGIN
            ):
                return False
    return True


# Offsets from a kink, in units of KINK_MARGIN: inside, just either side
# of the margin, and outside.
KINK_OFFSETS = [0.0, 0.5, -0.5, 0.999, -0.999, 1.001, -1.001, 3.0, -3.0]


class TestKinkPredicates:
    """The bincount predicates against the loops they replaced, on the
    gradient checks' own draws and on draws placed near each kink."""

    GRID = ImageGrid(3, 4)

    def segmentations(self, rng):
        # The checks' segmentation, one with an empty ID and unlabeled
        # pixels, and one with a single instance.
        labels = rng.integers(0, 3, size=self.GRID.n_pixels)
        labels[:2] = [1, 2]
        return [
            gradcheck._random_segmentation(rng, self.GRID, 3),
            InstanceSegmentation(self.GRID, labels, 4),
            InstanceSegmentation(self.GRID, np.ones(self.GRID.n_pixels, int)),
        ]

    @pytest.mark.parametrize("delta_v", [0.5, 5e-4])
    def test_pull_matches_loop(self, delta_v):
        # A delta_v below KINK_MARGIN puts unlabeled pixels, whose offset
        # is zero, within the margin; only members count.
        rng = np.random.default_rng(0)
        margins = Margins(delta_v=delta_v)
        seen = set()
        for _ in range(60):
            for seg in self.segmentations(rng):
                x = rng.normal(0.0, 2.0, size=(self.GRID.n_pixels, 2))
                draws = [x]
                # Scale one instance about its mean so that its farthest
                # member sits at delta_v plus an offset.
                idx = int(seg.labels[rng.integers(self.GRID.n_pixels)]) or 1
                members = np.flatnonzero(seg.labels == idx)
                mu = x[members].mean(axis=0)
                dist = np.linalg.norm(x[members] - mu, axis=1).max()
                for offset in KINK_OFFSETS if dist > 0.0 else []:
                    target = margins.delta_v + offset * gradcheck.KINK_MARGIN
                    near = x.copy()
                    near[members] = mu + (target / dist) * (x[members] - mu)
                    draws.append(near)
                for values in draws:
                    emb = EmbeddingMap(self.GRID, values)
                    want = loop_pull_off_kink(emb, seg, margins)
                    assert gradcheck._pull_off_kink(emb, seg, margins) == want
                    seen.add(want)
        assert seen == {True, False}

    def test_push_matches_loop(self):
        rng = np.random.default_rng(1)
        margins = Margins()
        seen = set()
        for _ in range(60):
            for seg in self.segmentations(rng):
                x = rng.normal(0.0, 1.0, size=(self.GRID.n_pixels, 2))
                draws = [x]
                # Shift instance 2 so that its mean sits at delta_d plus
                # an offset from the mean of instance 1, or at the
                # offset alone.
                first = np.flatnonzero(seg.labels == 1)
                second = np.flatnonzero(seg.labels == 2)
                if second.size:
                    a, b = x[first].mean(axis=0), x[second].mean(axis=0)
                    unit = rng.normal(size=2)
                    unit /= np.linalg.norm(unit)
                    for base in (margins.delta_d, 0.0):
                        for offset in KINK_OFFSETS:
                            gap = abs(base + offset * gradcheck.KINK_MARGIN)
                            near = x.copy()
                            near[second] += a + gap * unit - b
                            draws.append(near)
                for values in draws:
                    emb = EmbeddingMap(self.GRID, values)
                    want = loop_push_off_kink(emb, seg, margins)
                    assert gradcheck._push_off_kink(emb, seg, margins) == want
                    seen.add(want)
        assert seen == {True, False}
