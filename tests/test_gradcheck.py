"""Finite-difference harness: clean runs pass, corrupted runs fail."""

import pytest

from planarseg import gradcheck
from planarseg.cli import main
from planarseg.gradcheck import LOSS_NAMES, GradCheckResult, run_gradient_checks


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
