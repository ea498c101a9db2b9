"""End-to-end command-line runs against temporary directories."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import planarseg
from planarseg import gradcheck
from planarseg.cli import build_parser, main
from planarseg.tensor_io import read_tensor, write_tensor

SYNTH_ARGS = [
    "synth",
    "--height", "16",
    "--width", "24",
    "--planes", "3",
    "--nonplanar-fraction", "0.0",
    "--sigma", "0.08",
    "--flip-rate", "0.0",
    "--seed", "1",
]


def run_synth(tmp_path, extra=()):
    out = tmp_path / "scene"
    code = main(SYNTH_ARGS + list(extra) + ["--out", str(out)])
    assert code == 0
    return out


def run_cluster(tmp_path, scene_dir, extra=()):
    out = tmp_path / "pred"
    code = main(
        [
            "cluster",
            str(scene_dir / "embeddings.pten"),
            str(scene_dir / "probs.pten"),
            "--out", str(out),
        ]
        + list(extra)
    )
    assert code == 0
    return out


class TestDefaults:
    def test_cluster_flag_defaults(self):
        args = build_parser().parse_args(["cluster", "e.pten", "p.pten"])
        assert args.k == 10
        assert args.bandwidth == 0.5
        assert args.iters == 10
        assert args.tau == 0.1
        assert args.mask_threshold == 0.5
        assert args.out == "."

    def test_bench_flag_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.sizes == "4096,8192,16384,32768,49152"
        assert args.k == 10
        assert args.iters == 10
        assert args.repeats == 3
        assert args.vanilla_iters == 1

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "e.pten", "p.pten", "--workers", "2"],
            ["gradcheck", "--corrupt", "pull_loss"],
        ],
        ids=["cluster-workers", "gradcheck-corrupt"],
    )
    def test_parser_rejects(self, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2


class TestSynthCommand:
    def test_writes_scene_bundle(self, tmp_path):
        out = run_synth(tmp_path)
        for name in (
            "segmentation.pten",
            "depth.pten",
            "embeddings.pten",
            "params.pten",
            "probs.pten",
            "manifest.json",
        ):
            assert (out / name).exists()
        seg = read_tensor(out / "segmentation.pten")
        assert seg.shape == (16, 24)
        assert seg.dtype == np.int32
        assert set(np.unique(seg)) == {1, 2, 3}
        emb = read_tensor(out / "embeddings.pten")
        assert emb.shape == (16, 24, 2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["planes"]) == 3
        assert manifest["spec"]["seed"] == 1

    def test_deterministic_bytes(self, tmp_path):
        a = run_synth(tmp_path / "a")
        b = run_synth(tmp_path / "b")
        assert (a / "segmentation.pten").read_bytes() == (
            b / "segmentation.pten"
        ).read_bytes()
        assert (a / "embeddings.pten").read_bytes() == (
            b / "embeddings.pten"
        ).read_bytes()

    def test_default_intrinsics_recorded(self, tmp_path):
        out = run_synth(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["intrinsics"]["fx"] == pytest.approx(0.9 * 24)
        assert manifest["intrinsics"]["cx"] == pytest.approx(11.5)

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        code = main(
            ["synth", "--planes", "0", "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "plane_count" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["0.5", "0.7"])
    def test_unreachable_flip_rate_exits_one(self, tmp_path, capsys, rate):
        out = tmp_path / "x"
        code = main(SYNTH_ARGS + ["--flip-rate", rate, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: flip_rate must lie in [0, 0.5)")
        assert err.count("\n") == 1
        assert not out.exists()


class TestClusterCommand:
    def test_full_run_outputs(self, tmp_path):
        scene = run_synth(tmp_path)
        pred = run_cluster(tmp_path, scene)
        labels = read_tensor(pred / "labels.pten")
        assert labels.shape == (16, 24)
        assert labels.dtype == np.int32
        assignment = read_tensor(pred / "assignment.pten")
        summary = json.loads((pred / "summary.json").read_text())
        assert summary["cluster_count"] == 3
        assert assignment.shape == (16, 24, 3)
        assert summary["k"] == 10
        assert summary["bandwidth"] == 0.5
        assert summary["wall_ms"] > 0.0
        assert set(np.unique(labels)) == {1, 2, 3}

    def test_deterministic_rerun(self, tmp_path):
        scene = run_synth(tmp_path)
        a = run_cluster(tmp_path / "a", scene)
        b = run_cluster(tmp_path / "b", scene)
        assert (a / "labels.pten").read_bytes() == (b / "labels.pten").read_bytes()

    def test_missing_embedding_file_exits_two(self, tmp_path, capsys):
        scene = run_synth(tmp_path)
        code = main(
            [
                "cluster",
                str(scene / "nope.pten"),
                str(scene / "probs.pten"),
                "--out", str(tmp_path / "pred"),
            ]
        )
        assert code == 2
        assert "nope.pten" in capsys.readouterr().err

    def test_wrong_rank_embeddings_exits_two(self, tmp_path, capsys):
        scene = run_synth(tmp_path)
        code = main(
            [
                "cluster",
                str(scene / "probs.pten"),
                str(scene / "probs.pten"),
                "--out", str(tmp_path / "pred"),
            ]
        )
        assert code == 2
        assert "(H, W, d)" in capsys.readouterr().err

    def test_grid_mismatch_exits_two(self, tmp_path, capsys):
        scene = run_synth(tmp_path)
        other = tmp_path / "small.pten"
        write_tensor(other, np.full((4, 4), 0.9))
        code = main(
            [
                "cluster",
                str(scene / "embeddings.pten"),
                str(other),
                "--out", str(tmp_path / "pred"),
            ]
        )
        assert code == 2
        assert "grid mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth", ["1e-300", "1e-160", "-0.5"])
    def test_unusable_bandwidth_exits_one(self, tmp_path, capsys, bandwidth):
        scene = run_synth(tmp_path)
        out = tmp_path / "pred"
        code = main(
            [
                "cluster",
                str(scene / "embeddings.pten"),
                str(scene / "probs.pten"),
                f"--bandwidth={bandwidth}",
                "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bandwidth must be > 0")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_tiny_bandwidth_runs_without_warnings(self, tmp_path):
        # At b = 1e-154 the scaled squared distances overflow to -inf on
        # purpose (their exp is the right kernel value of 0), and so does
        # the binning's key-space size; numpy must not warn about either.
        # A subprocess shows the real stderr, which pytest's warning
        # capture would hide.
        scene, out = tmp_path / "scene", tmp_path / "pred"
        assert main(["synth", "--height", "8", "--width", "8", "--out", str(scene)]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(planarseg.__file__).parents[1]))
        done = subprocess.run(
            [
                sys.executable, "-m", "planarseg.cli", "cluster",
                str(scene / "embeddings.pten"),
                str(scene / "probs.pten"),
                "--bandwidth", "1e-154",
                "--out", str(out),
            ],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0
        assert done.stderr == ""
        assert (out / "labels.pten").exists()

    def test_anchor_grid_beyond_bound_exits_one(self, tmp_path, capsys):
        # 100000^2 anchors would need 74.5 GiB; the config refuses them
        # before anything is allocated or written.
        scene = run_synth(tmp_path)
        out = tmp_path / "pred"
        code = main(
            [
                "cluster",
                str(scene / "embeddings.pten"),
                str(scene / "probs.pten"),
                "--k", "100000",
                "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: anchors_per_dim ** dim must be <= ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestEvalCommand:
    def eval_args(self, scene, out, pred_labels=None, params_path=None):
        manifest = json.loads((scene / "manifest.json").read_text())
        params = np.array(manifest["planes"], dtype=np.float64)
        if params_path is None:
            params_path = scene / "gt_params.pten"
            write_tensor(params_path, params)
        intr = manifest["intrinsics"]
        return [
            "eval",
            "--pred-labels", str(pred_labels or scene / "segmentation.pten"),
            "--pred-params", str(params_path),
            "--gt-labels", str(scene / "segmentation.pten"),
            "--gt-depth", str(scene / "depth.pten"),
            "--fx", str(intr["fx"]),
            "--fy", str(intr["fy"]),
            "--cx", str(intr["cx"]),
            "--cy", str(intr["cy"]),
            "--out", str(out),
        ]

    def test_perfect_prediction_scores(self, tmp_path):
        scene = run_synth(tmp_path)
        out = tmp_path / "eval"
        assert main(self.eval_args(scene, out)) == 0
        record = json.loads((out / "metrics.json").read_text())
        assert record["rand_index"] == pytest.approx(1.0)
        assert record["variation_of_information"] == pytest.approx(0.0, abs=1e-9)
        assert record["segmentation_covering"] == pytest.approx(1.0)
        assert record["depth_metrics"]["rel"] < 1e-9
        assert record["plane_count_histogram"] == {"3": 1}
        depth_lines = (out / "recall_depth.csv").read_text().strip().split("\n")
        assert depth_lines[0] == "threshold,plane_recall,pixel_recall"
        assert len(depth_lines) == 13
        assert depth_lines[1].endswith("100.000000,100.000000")
        normal_lines = (out / "recall_normal.csv").read_text().strip().split("\n")
        assert len(normal_lines) == 14

    def test_intrinsics_file(self, tmp_path):
        scene = run_synth(tmp_path)
        manifest = json.loads((scene / "manifest.json").read_text())
        intr_path = tmp_path / "intr.json"
        intr_path.write_text(json.dumps(manifest["intrinsics"]))
        params_path = scene / "gt_params.pten"
        write_tensor(
            params_path, np.array(manifest["planes"], dtype=np.float64)
        )
        out = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--pred-labels", str(scene / "segmentation.pten"),
                "--pred-params", str(params_path),
                "--gt-labels", str(scene / "segmentation.pten"),
                "--gt-depth", str(scene / "depth.pten"),
                "--intrinsics", str(intr_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "metrics.json").exists()

    def test_clustered_prediction_chain(self, tmp_path):
        scene = run_synth(tmp_path)
        pred = run_cluster(tmp_path, scene)
        out = tmp_path / "eval"
        args = self.eval_args(scene, out, pred_labels=pred / "labels.pten")
        assert main(args) == 0
        record = json.loads((out / "metrics.json").read_text())
        assert record["rand_index"] >= 0.9

    def test_missing_intrinsics_exits_two(self, tmp_path, capsys):
        scene = run_synth(tmp_path)
        params_path = scene / "gt_params.pten"
        manifest = json.loads((scene / "manifest.json").read_text())
        write_tensor(
            params_path, np.array(manifest["planes"], dtype=np.float64)
        )
        code = main(
            [
                "eval",
                "--pred-labels", str(scene / "segmentation.pten"),
                "--pred-params", str(params_path),
                "--gt-labels", str(scene / "segmentation.pten"),
                "--gt-depth", str(scene / "depth.pten"),
                "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        assert "intrinsics" in capsys.readouterr().err

    def test_param_row_mismatch_exits_two(self, tmp_path, capsys):
        scene = run_synth(tmp_path)
        bad = tmp_path / "bad_params.pten"
        write_tensor(bad, np.array([[0.0, 0.0, 0.5]]))
        out = tmp_path / "eval"
        code = main(self.eval_args(scene, out, params_path=bad))
        assert code == 2
        assert "instance params rows" in capsys.readouterr().err

    def test_grid_mismatch_exits_two(self, tmp_path, capsys):
        scene = run_synth(tmp_path)
        small = tmp_path / "small_labels.pten"
        write_tensor(small, np.ones((4, 4), dtype=np.int32))
        out = tmp_path / "eval"
        code = main(self.eval_args(scene, out, pred_labels=small))
        assert code == 2
        assert "grids must match" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["gradcheck", "--samples", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)
        assert "max rel err" in lines[0]

    def test_corrupt_run_exits_one(self, monkeypatch, capsys):
        # pull_loss keeps its value but reports a gradient 1% too large.
        loss = gradcheck.pull_loss

        def wrong_gradient(*args):
            value, grad = loss(*args)
            return value, 1.01 * grad

        monkeypatch.setattr(gradcheck, "pull_loss", wrong_gradient)
        code = main(["gradcheck", "--samples", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL pull_loss" in out


class TestBenchCommand:
    def test_csv_to_file(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--sizes", "256,512",
                "--repeats", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "variant,N,k,d,T,iter_ms,total_ms"
        assert len(lines) == 5
        assert lines[1].startswith("fast,256,10,2,10,")
        assert lines[2].startswith("vanilla,256,10,2,1,")

    def test_csv_to_stdout(self, capsys):
        code = main(["bench", "--sizes", "256", "--repeats", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("variant,N,k,d,T,iter_ms,total_ms\n")

    def test_bad_sizes_exits_two(self, capsys):
        code = main(["bench", "--sizes", "abc"])
        assert code == 2
        assert "--sizes" in capsys.readouterr().err
