"""End-to-end command-line runs against temporary directories."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import planarseg
from planarseg import bench, cli, gradcheck
from planarseg.cli import build_parser, main
from planarseg.core import SoftAssignment
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


# The numeric flags of ``planarseg synth`` and the special values fed to
# them. The integer flags take only "0" of these; argparse refuses the rest.
SYNTH_FLAGS = [
    "--height", "--width", "--planes", "--seed", "--dim",
    "--nonplanar-fraction", "--depth-min", "--depth-max", "--sigma",
    "--param-noise", "--flip-rate", "--fx", "--fy", "--cx", "--cy",
]
SYNTH_VALUES = ["nan", "inf", "-inf", "-0.0", "1e308", "0"]


def _no_constants(name):
    raise ValueError(f"manifest holds the non-JSON constant {name}")


def synth_with(flags):
    """Run ``synth`` on a 12x16 grid with ``flags`` ((flag, value) pairs,
    later ones winning) and every warning an error. Returns the exit
    code, stderr, whether the output directory exists, and the manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = (
            ["synth", "--height=12", "--width=16", "--planes=3"]
            + [f"{flag}={value}" for flag, value in flags]
            + ["--out", str(out)]
        )
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()
        ), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused a value
                code = exc.code
        manifest = out / "manifest.json"
        text = manifest.read_text() if manifest.exists() else None
        return code, err.getvalue(), out.exists(), text


def assert_synth_contract(code, message, wrote, manifest):
    """Exit 0 with strict JSON in the manifest, or exit 1 or 2 with one
    ``error:`` line (argparse puts its usage lines first) and nothing
    written. A traceback or a warning would have escaped ``main``."""
    if code == 0:
        assert message == ""
        json.loads(manifest, parse_constant=_no_constants)
        return
    assert code in (1, 2)
    lines = message.splitlines()
    assert message.endswith("\n")
    assert [line for line in lines if "error:" in line] == lines[-1:]
    if not lines[0].startswith("usage: "):
        assert message.startswith("error: ") and len(lines) == 1
    assert not wrote


class TestSynthFuzz:
    @pytest.mark.parametrize("value", SYNTH_VALUES)
    @pytest.mark.parametrize("flag", SYNTH_FLAGS)
    def test_special_value_exits_cleanly(self, flag, value):
        assert_synth_contract(*synth_with([(flag, value)]))

    @settings(max_examples=60, deadline=None)
    @given(
        flags=st.lists(
            st.tuples(st.sampled_from(SYNTH_FLAGS), st.sampled_from(SYNTH_VALUES)),
            min_size=2,
            max_size=4,
        )
    )
    def test_special_value_combinations_exit_cleanly(self, flags):
        assert_synth_contract(*synth_with(flags))

    @pytest.mark.parametrize(
        "flags, code, start",
        [
            (["--sigma=nan"], 1, "error: sigma must be finite and >= 0"),
            (["--sigma=inf"], 1, "error: sigma must be finite and >= 0"),
            (["--sigma=1e308"], 1, "error: embeddings overflow"),
            # Finite embeddings whose bounding box is wider than max_float.
            (["--sigma=3e307", "--height=48", "--width=64"], 1,
             "error: embeddings overflow"),
            (["--param-noise=nan"], 1, "error: param_noise_sigma must be finite"),
            (["--param-noise=inf"], 1, "error: param_noise_sigma must be finite"),
            (["--depth-max=inf"], 1, "error: depth_range must be finite"),
            # Rays so far off axis that their mean overflows.
            (["--cx=1e308"], 1, "error: could not satisfy depth_range"),
            # Rays whose plane offsets sum to inf - inf, a NaN offset.
            (["--cx=1e308", "--cy=1e308"], 1, "error: could not satisfy depth_range"),
            # exp overflows on the far side of the logit noise; 1/(1+inf) = 0.
            (["--flip-rate=0.4999999999"], 0, ""),
            # 1 - rate rounds to 1, where the normal quantile is undefined.
            (["--flip-rate=1e-17"], 0, ""),
            (["--flip-rate=5e-324"], 0, ""),
        ],
        ids=lambda x: "".join(x) if isinstance(x, list) else None,
    )
    def test_reported_faults(self, flags, code, start):
        result = synth_with([flag.split("=") for flag in flags])
        assert_synth_contract(*result)
        assert result[0] == code and result[1].startswith(start)


class TestClusterCommand:
    def test_full_run_outputs(self, tmp_path):
        scene = run_synth(tmp_path)
        pred = run_cluster(tmp_path, scene)
        labels = read_tensor(pred / "labels.pten")
        assert labels.shape == (16, 24)
        assert labels.dtype == np.int32
        assert sorted(path.name for path in pred.iterdir()) == ["labels.pten", "summary.json"]
        summary = json.loads((pred / "summary.json").read_text())
        assert summary["cluster_count"] == 3
        assert summary["k"] == 10
        assert summary["bandwidth"] == 0.5
        assert summary["wall_ms"] > 0.0
        assert set(np.unique(labels)) == {1, 2, 3}

    def test_builds_no_dense_weights(self, tmp_path, monkeypatch):
        # The dense N x C weights are built only on a read of
        # SoftAssignment.weights; cluster never reads them.
        def no_weights(self):
            raise AssertionError("cluster read the dense weights")

        monkeypatch.setattr(SoftAssignment, "weights", property(no_weights))
        scene = run_synth(tmp_path)
        pred = run_cluster(tmp_path, scene)
        assert sorted(path.name for path in pred.iterdir()) == ["labels.pten", "summary.json"]

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

    @pytest.mark.parametrize(
        "which, shape, message",
        [
            ("embeddings", (16, 24), "embeddings must be a (H, W, d) tensor"),
            ("probs", (16, 24, 1), "probabilities must be a (H, W) tensor"),
        ],
    )
    def test_wrong_rank_inputs_name_the_form(
        self, tmp_path, capsys, which, shape, message
    ):
        scene = run_synth(tmp_path)
        write_tensor(scene / f"{which}.pten", np.full(shape, 0.5))
        out = tmp_path / "pred"
        code = main(
            [
                "cluster",
                str(scene / "embeddings.pten"),
                str(scene / "probs.pten"),
                "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}, got shape {shape}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("bandwidth", ["1e-300", "1e-160", "-0.5", "inf"])
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

    @staticmethod
    def cluster_in_subprocess(embeddings, probs, out):
        """Run ``cluster`` at bandwidth 1e-154 in a subprocess, which shows
        the real stderr that pytest's warning capture would hide."""
        env = dict(os.environ, PYTHONPATH=str(Path(planarseg.__file__).parents[1]))
        return subprocess.run(
            [
                sys.executable, "-m", "planarseg.cli", "cluster",
                str(embeddings), str(probs), "--bandwidth", "1e-154", "--out", str(out),
            ],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_tiny_bandwidth_runs_without_warnings(self, tmp_path):
        # At b = 1e-154 the scaled squared distances overflow to -inf on
        # purpose (their exp is the right kernel value of 0), and so does
        # the binning's key-space size; numpy must not warn about either.
        # The embeddings sit on the corners of the unit square, which are
        # grid nodes, so four anchors have positive density and the run
        # goes through the shifts, the merge and the labels.
        emb, probs, out = tmp_path / "emb.pten", tmp_path / "probs.pten", tmp_path / "pred"
        rng = np.random.default_rng(0)
        write_tensor(emb, rng.integers(0, 2, (8, 8, 2)).astype(np.float64))
        write_tensor(probs, np.ones((8, 8)))
        done = self.cluster_in_subprocess(emb, probs, out)
        assert done.returncode == 0
        assert done.stderr == ""
        assert (out / "labels.pten").exists()
        labels = read_tensor(out / "labels.pten")
        assert np.unique(labels).size == 4

    def test_all_zero_anchor_densities_exit_one(self, tmp_path):
        # On a synth scene at b = 1e-154 no grid node lies within the
        # kernel's reach of any embedding: one error line, no warning,
        # no output directory.
        scene, out = tmp_path / "scene", tmp_path / "pred"
        assert main(["synth", "--height", "8", "--width", "8", "--out", str(scene)]) == 0
        done = self.cluster_in_subprocess(
            scene / "embeddings.pten", scene / "probs.pten", out
        )
        assert done.returncode == 1
        assert done.stderr == (
            "error: no anchor has positive density at bandwidth 1e-154 "
            "on the 10^2 anchor grid\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("scale, code", [(1e308, 1), (1e150, 0)])
    def test_huge_embeddings(self, tmp_path, capsys, scale, code):
        # 1e308 lies beyond the kernels' bound of ~4.7e153 at d = 2 and is
        # refused with one line; 1e150 lies within it and, with the
        # bandwidth scaled alike, clusters as the unscaled scene does, with
        # no numpy warning (which the test settings turn into an error).
        scene = run_synth(tmp_path)
        embeddings = tmp_path / "huge.pten"
        values = read_tensor(scene / "embeddings.pten")
        factor = scale / np.abs(values).max()
        write_tensor(embeddings, values * factor)
        out = tmp_path / "pred"
        args = [
            "cluster", str(embeddings), str(scene / "probs.pten"),
            f"--bandwidth={float(0.5 * factor)!r}", "--out", str(out),
        ]
        assert main(args) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: masked embeddings must lie within")
            assert err.count("\n") == 1
        else:
            assert err == ""
            unscaled = run_cluster(tmp_path / "unscaled", scene)
            np.testing.assert_array_equal(
                read_tensor(out / "labels.pten"), read_tensor(unscaled / "labels.pten")
            )

    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys):
        # The directory is created only once clustering has succeeded.
        scene = run_synth(tmp_path)
        embeddings = tmp_path / "huge.pten"
        values = read_tensor(scene / "embeddings.pten")
        write_tensor(embeddings, values * (1e308 / np.abs(values).max()))
        out = tmp_path / "new" / "pred"
        args = ["cluster", str(embeddings), str(scene / "probs.pten"), "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: masked embeddings")
        assert not (tmp_path / "new").exists()

    def test_anchor_grid_beyond_bound_exits_one(self, tmp_path, capsys):
        # 100000^2 anchors would need 74.5 GiB; cluster refuses them, at
        # the embeddings' d = 2, before anything is allocated or written.
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


# Values a malformed tensor may carry, and --bandwidth values from
# ordinary through tiny, zero, negative and non-finite to huge.
FUZZ_VALUES = [np.nan, np.inf, -np.inf, 1e300, -1e300, 4.7e153, -4.7e153, 1e-300, 0.0]
FUZZ_BANDWIDTHS = [
    "0.5", "1e-8", "1e-154", "1e-160", "1e-300", "5e-324", "0", "-1",
    "nan", "inf", "-inf", "1e154", "1e308",
]


@st.composite
def malformed_cluster_inputs(draw):
    """Embedding and probability files for ``planarseg cluster``: small
    valid tensors at scales up to the kernels' bound, then spoilt in one
    way or none: special values, a wrong rank, another dtype, or a
    truncated, padded or corrupted byte."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w, d = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e150, 1e153, 4e153]))
    tensors = {
        "emb": rng.normal(size=(h, w, d)) * scale,
        "probs": rng.uniform(size=(h, w)),
    }
    name = draw(st.sampled_from(sorted(tensors)))
    spoil = draw(st.sampled_from(["none", "values", "rank", "dtype", "bytes"]))
    edit = None
    if spoil == "values":
        for _ in range(draw(st.integers(1, 3))):
            values = tensors[draw(st.sampled_from(sorted(tensors)))].reshape(-1)
            where = draw(st.integers(0, values.size - 1))
            values[where] = draw(st.sampled_from(FUZZ_VALUES))
    elif spoil == "rank":
        tensor = tensors[name]
        if draw(st.booleans()):
            tensors[name] = tensor.reshape(tensor.shape[:-2] + (-1,))
        else:
            tensors[name] = tensor[..., None]
    elif spoil == "dtype":
        dtype = draw(st.sampled_from([np.float32, np.int32, np.uint8]))
        if dtype is np.float32:
            with np.errstate(over="ignore"):  # huge values become inf, on purpose
                tensors[name] = tensors[name].astype(np.float32)
        else:
            info = np.iinfo(dtype)
            tensors[name] = np.clip(tensors[name], info.min, info.max).astype(dtype)
    elif spoil == "bytes":
        edit = (
            draw(st.sampled_from(["truncate", "pad", "flip"])),
            draw(st.integers(0, 10_000)),
            draw(st.integers(0, 255)),
        )
    return tensors, name, edit


class TestClusterFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=malformed_cluster_inputs(), bandwidth=st.sampled_from(FUZZ_BANDWIDTHS))
    @example(  # every anchor density underflows to 0
        case=(
            {
                "emb": np.random.default_rng(0).standard_normal((5, 5, 2)) * 1e153,
                "probs": np.ones((5, 5)),
            },
            "emb",
            None,
        ),
        bandwidth="1e-154",
    )
    def test_malformed_inputs_exit_with_one_line(self, case, bandwidth):
        # Every input gives exit code 0, 1 or 2 and at most one stderr
        # line: "error: ..." on failure, nothing on success. Warnings are
        # errors under the test settings, so a numpy warning fails here.
        tensors, name, edit = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {key: Path(tmp) / f"{key}.pten" for key in tensors}
            for key, tensor in tensors.items():
                write_tensor(paths[key], tensor)
            if edit is not None:
                kind, where, byte = edit
                raw = bytearray(paths[name].read_bytes())
                if kind == "truncate":
                    del raw[where % len(raw) :]
                elif kind == "pad":
                    raw.append(byte)
                else:
                    raw[where % len(raw)] = byte
                paths[name].write_bytes(bytes(raw))
            err = io.StringIO()
            quiet = contextlib.redirect_stdout(io.StringIO())
            with contextlib.redirect_stderr(err), quiet:
                code = main(
                    [
                        "cluster", str(paths["emb"]), str(paths["probs"]),
                        f"--bandwidth={bandwidth}", "--out", str(Path(tmp) / "out"),
                    ]
                )
        message = err.getvalue()
        assert code in (0, 1, 2)
        if code == 0:
            assert message == ""
        else:
            assert message.startswith("error: ") and message.count("\n") == 1
            assert message.endswith("\n")


# Values a spoilt eval input may carry: labels that are not integers, or
# negative, or beyond int64; depths that are missing, negative, huge or
# tiny; plane rows that are missing, huge or opposing.
FUZZ_LABELS = [
    0.5, -0.5, np.nan, np.inf, -np.inf, -1.0, -3.0, 1e30, 2.0**63, 2.0**62, 7.0,
]
FUZZ_DEPTHS = [
    np.nan, np.inf, -np.inf, -1.0, 0.0, 1e-308, 5e-324, 1e300, 1e308, 1.7e308,
]
FUZZ_PARAMS = [np.nan, np.inf, -np.inf, 0.0, 1e300, -1e300, 1e308, -1e308, 1e-300]


@st.composite
def malformed_eval_inputs(draw):
    """Label, parameter and depth files for ``planarseg eval`` from a
    small synthetic scene, with the prediction equal to the reference,
    then spoilt in one way or none: special values in labels, depths or
    plane rows, a wrong rank, another dtype or a wrong plane count. The
    scene is made with the default focal length, and the evaluation's
    may shrink to 0.01, so that rays reach far outside the unit square
    and huge values overflow, or to 1e-310, where the rays overflow."""
    seed = draw(st.integers(0, 2**16))
    h, w = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    planes = draw(st.integers(1, 3))
    scene_intr, intr = (
        planarseg.CameraIntrinsics(fx=focal, fy=focal, cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)
        for focal in (0.9 * w, draw(st.sampled_from([0.9 * w, 1.0, 0.01, 1e-310])))
    )
    spec = planarseg.SceneSpec(
        planarseg.ImageGrid(h, w), scene_intr, plane_count=planes,
        nonplanar_fraction=0.0, seed=seed,
    )
    scene = planarseg.generate_scene(spec)
    labels = scene.segmentation.labels.reshape(h, w).astype(np.float64)
    tensors = {
        "pred_labels": labels.copy(),
        "gt_labels": labels,
        "pred_params": np.stack([p.n for p in scene.planes]),
        "gt_depth": scene.depth.depth.reshape(h, w).copy(),
    }
    spoil = draw(
        st.sampled_from(["none", "labels", "depth", "params", "rank", "dtype", "count"])
    )
    pools = {"labels": FUZZ_LABELS, "depth": FUZZ_DEPTHS, "params": FUZZ_PARAMS}
    if spoil in pools:
        names = {
            "labels": ["pred_labels", "gt_labels"],
            "depth": ["gt_depth"],
            "params": ["pred_params"],
        }[spoil]
        for _ in range(draw(st.integers(1, 4))):
            values = tensors[draw(st.sampled_from(names))].reshape(-1)
            values[draw(st.integers(0, values.size - 1))] = draw(
                st.sampled_from(pools[spoil])
            )
    elif spoil == "rank":
        name = draw(st.sampled_from(sorted(tensors)))
        tensors[name] = tensors[name].reshape(-1) if draw(st.booleans()) else (
            tensors[name][..., None]
        )
    elif spoil == "dtype":
        name = draw(st.sampled_from(sorted(tensors)))
        dtype = draw(st.sampled_from([np.float32, np.int32, np.uint8]))
        with np.errstate(over="ignore", invalid="ignore"):  # lossy on purpose
            tensors[name] = tensors[name].astype(dtype)
    elif spoil == "count":
        params = tensors["pred_params"]
        tensors["pred_params"] = (
            params[:-1] if draw(st.booleans()) and len(params) > 1
            else np.concatenate([params, params[:1]])
        )
    return tensors, intr


class TestEvalFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=malformed_eval_inputs())
    def test_malformed_inputs_exit_with_one_line(self, case):
        # As for ``cluster``: exit code 0, 1 or 2, and at most one stderr
        # line, "error: ..." on failure. Warnings are errors here.
        tensors, intr = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {key: Path(tmp) / f"{key}.pten" for key in tensors}
            for key, tensor in tensors.items():
                write_tensor(paths[key], tensor)
            err = io.StringIO()
            quiet = contextlib.redirect_stdout(io.StringIO())
            with contextlib.redirect_stderr(err), quiet:
                code = main(
                    ["eval"]
                    + [f"--{key.replace('_', '-')}={paths[key]}" for key in sorted(paths)]
                    + [f"--{name}={getattr(intr, name)!r}" for name in ("fx", "fy", "cx", "cy")]
                    + ["--out", str(Path(tmp) / "out")]
                )
        message = err.getvalue()
        assert code in (0, 1, 2)
        if code == 0:
            assert message == ""
        else:
            assert message.startswith("error: ") and message.count("\n") == 1
            assert message.endswith("\n")


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

    def test_synth_manifest_as_intrinsics(self, tmp_path):
        # --intrinsics takes the manifest.json that synth writes, through
        # its "intrinsics" key, and scores exactly as the four flags do.
        scene = run_synth(tmp_path)
        flags = tmp_path / "flags"
        assert main(self.eval_args(scene, flags)) == 0
        args = self.eval_args(scene, tmp_path / "manifest")
        at = args.index("--fx")
        args[at:at + 8] = ["--intrinsics", str(scene / "manifest.json")]
        assert main(args) == 0
        for name in ("metrics.json", "recall_depth.csv", "recall_normal.csv"):
            want = (flags / name).read_bytes()
            assert (tmp_path / "manifest" / name).read_bytes() == want

    @pytest.mark.parametrize(
        "content",
        [
            {"spec": {"height": 4}},
            {"intrinsics": {"fx": 1.0, "fy": 1.0}},
            {"intrinsics": "fx"},
            {"fx": 1.0, "intrinsics": {"fx": 1.0, "fy": 1.0, "cx": 0.0, "cy": 0.0}},
            [1.0, 2.0],
        ],
    )
    def test_intrinsics_file_without_fields_exits_two(self, tmp_path, capsys, content):
        # A file with neither complete top-level fields nor a complete
        # "intrinsics" key gets the same message as before; top-level
        # fields, when any is present, are the ones read.
        scene = run_synth(tmp_path)
        intr_path = tmp_path / "intr.json"
        intr_path.write_text(json.dumps(content))
        args = self.eval_args(scene, tmp_path / "eval")
        at = args.index("--fx")
        args[at:at + 8] = ["--intrinsics", str(intr_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: intrinsics file must supply numeric fx, fy, cx, cy")
        assert err.count("\n") == 1
        assert not (tmp_path / "eval").exists()

    def test_intrinsics_file_with_flags_exits_two(self, tmp_path, capsys):
        # A file and flags together would leave one of them unread.
        scene = run_synth(tmp_path)
        args = self.eval_args(scene, tmp_path / "eval")
        at = args.index("--fx")
        args[at:at + 8] = ["--intrinsics", str(scene / "manifest.json"), "--fx", "1e-3"]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: pass either --intrinsics FILE or --fx --fy --cx --cy, not both "
            "(got --intrinsics and --fx)\n"
        )
        assert not (tmp_path / "eval").exists()

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

    @pytest.mark.parametrize("case", ["two_pixels", "label_gap", "huge_label"])
    def test_unfittable_reference_segment_named(self, tmp_path, capsys, case):
        # The first segment, in ascending ID order, that cannot be fitted
        # is named. Relabelled 2**62, segment 2 is left empty: the fits
        # group the pixels by sorting, so nothing is sized by that label.
        scene = run_synth(tmp_path)
        labels = read_tensor(scene / "segmentation.pten")
        segment = np.flatnonzero(labels == 2)
        if case == "huge_label":
            labels = labels.astype(np.float64)
            labels.reshape(-1)[segment] = 2.0**62
        else:
            spare = segment[2:] if case == "two_pixels" else segment
            labels.reshape(-1)[spare] = 1
        gt_labels = tmp_path / "gt_labels.pten"
        write_tensor(gt_labels, labels)
        args = self.eval_args(scene, tmp_path / "eval")
        args[args.index("--gt-labels") + 1] = str(gt_labels)
        code = main(args)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: reference segment 2: degenerate point set: "
            "need >= 3 valid points\n"
        )

    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf])
    def test_non_integral_labels_exit_two(self, tmp_path, capsys, bad):
        scene = run_synth(tmp_path)
        labels = read_tensor(scene / "segmentation.pten").astype(np.float64)
        labels[0, 0] += bad
        pred_labels = tmp_path / "float_labels.pten"
        write_tensor(pred_labels, labels)
        out = tmp_path / "eval"
        assert main(self.eval_args(scene, out, pred_labels=pred_labels)) == 2
        assert capsys.readouterr().err == (
            f"error: labels in {pred_labels} must be finite integers\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("huge", [1e30, -1e30, 2.0**63])
    def test_labels_beyond_int64_exit_two(self, tmp_path, capsys, huge):
        # Integral floats that int64 cannot hold are refused before the
        # cast, whose result numpy leaves undefined (with a warning).
        scene = run_synth(tmp_path)
        labels = read_tensor(scene / "segmentation.pten").astype(np.float64)
        labels[0, 0] = huge
        pred_labels = tmp_path / "huge_labels.pten"
        write_tensor(pred_labels, labels)
        out = tmp_path / "eval"
        assert main(self.eval_args(scene, out, pred_labels=pred_labels)) == 2
        assert capsys.readouterr().err == (
            f"error: labels in {pred_labels} must lie within the int64 range\n"
        )
        assert not out.exists()

    def test_integral_float_labels_load_as_integers(self, tmp_path):
        scene = run_synth(tmp_path)
        labels = read_tensor(scene / "segmentation.pten")
        pred_labels = tmp_path / "float_labels.pten"
        write_tensor(pred_labels, labels.astype(np.float32))
        as_int, as_float = tmp_path / "int", tmp_path / "float"
        assert main(self.eval_args(scene, as_int)) == 0
        assert main(self.eval_args(scene, as_float, pred_labels=pred_labels)) == 0
        for name in ("metrics.json", "recall_depth.csv", "recall_normal.csv"):
            assert (as_float / name).read_bytes() == (as_int / name).read_bytes()

    @pytest.mark.parametrize(
        "flag, shape, message",
        [
            ("--pred-labels", (16, 24, 1), "labels must be a (H, W) tensor"),
            ("--gt-labels", (384,), "labels must be a (H, W) tensor"),
            ("--gt-depth", (16, 24, 1), "depth must be a (H, W) tensor"),
            ("--pred-params", (3,), "instance params must be a (C, 3) tensor"),
            ("--pred-params", (3, 4), "instance params must be a (C, 3) tensor"),
        ],
    )
    def test_wrong_rank_inputs_name_the_form(
        self, tmp_path, capsys, flag, shape, message
    ):
        scene = run_synth(tmp_path)
        bad = tmp_path / "bad.pten"
        write_tensor(bad, np.ones(shape))
        out = tmp_path / "eval"
        args = self.eval_args(scene, out)
        args[args.index(flag) + 1] = str(bad)
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}, got shape {shape}\n"
        assert not out.exists()

    def test_grid_mismatch_exits_two(self, tmp_path, capsys):
        scene = run_synth(tmp_path)
        small = tmp_path / "small_labels.pten"
        write_tensor(small, np.ones((4, 4), dtype=np.int32))
        out = tmp_path / "eval"
        code = main(self.eval_args(scene, out, pred_labels=small))
        assert code == 2
        assert "grids must match" in capsys.readouterr().err


def command_args(command, scene, out):
    """Arguments that run ``command`` on the scene bundle at ``scene``."""
    if command == "synth":
        return SYNTH_ARGS + ["--out", str(out)]
    if command == "cluster":
        return ["cluster", str(scene / "embeddings.pten"), str(scene / "probs.pten"),
                "--out", str(out)]
    if command == "eval":
        return TestEvalCommand().eval_args(scene, out)
    return ["bench", "--sizes", "256", "--repeats", "3", "--out", str(out)]


# The call that does each command's work.
WORK = {"synth": "generate_scene", "cluster": "cluster", "eval": "evaluate"}


class TestOutputPaths:
    @staticmethod
    def refuse_work(monkeypatch, command):
        def fail(*args, **kwargs):
            raise AssertionError(f"{command} ran before its output directory was checked")

        monkeypatch.setattr(cli, WORK[command], fail)

    @pytest.mark.parametrize("command", sorted(WORK))
    def test_uncreatable_out_exits_two_before_work(
        self, tmp_path, capsys, monkeypatch, command
    ):
        scene = run_synth(tmp_path)
        blocker = tmp_path / "file.txt"
        blocker.write_text("")
        self.refuse_work(monkeypatch, command)
        for out in (blocker, blocker / "pred"):
            assert main(command_args(command, scene, out)) == 2
            err = capsys.readouterr().err
            assert err == (
                f"error: cannot create output directory {out}: "
                f"{blocker} is not a directory\n"
            )
        assert blocker.is_file()

    @pytest.mark.parametrize("command", sorted(WORK))
    @pytest.mark.parametrize("exists", [True, False])
    def test_unwritable_out_exits_two_before_work(
        self, tmp_path, capsys, monkeypatch, exists, command
    ):
        # Checked with os.access, which a root user would pass for any
        # mode bits, so the denial is injected.
        scene = run_synth(tmp_path)
        parent = tmp_path / "locked"
        parent.mkdir()
        out = parent if exists else parent / "pred"
        self.refuse_work(monkeypatch, command)
        monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != parent)
        assert main(command_args(command, scene, out)) == 2
        assert capsys.readouterr().err == f"error: output directory not writable: {out}\n"
        assert list(parent.iterdir()) == []

    @pytest.mark.parametrize(
        "command, name",
        [
            ("synth", "manifest.json"),
            ("cluster", "labels.pten"),
            ("eval", "metrics.json"),
            ("bench", None),
        ],
    )
    def test_failed_write_exits_two(self, tmp_path, capsys, command, name):
        # An output name taken by a directory cannot be written.
        scene = run_synth(tmp_path)
        out = tmp_path / "out"
        target = out if name is None else out / name
        target.mkdir(parents=True)
        assert main(command_args(command, scene, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1


class TestMainErrors:
    @pytest.mark.parametrize(
        "raised, message",
        [
            (MemoryError("Unable to allocate 7.28 PiB for an array"),
             "error: out of memory: Unable to allocate 7.28 PiB for an array\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["message", "bare"],
    )
    def test_memory_error_exits_one(
        self, tmp_path, capsys, monkeypatch, raised, message
    ):
        def exhausted(*args, **kwargs):
            raise raised

        monkeypatch.setattr(cli, "generate_scene", exhausted)
        assert main(SYNTH_ARGS + ["--out", str(tmp_path / "scene")]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "scene").exists()


class TestGradcheckCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["gradcheck", "--samples", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)
        assert "max rel err" in lines[0]

    def test_zero_samples_exits_one(self, capsys):
        assert main(["gradcheck", "--samples", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samples must be >= 1, got 0\n"

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sizes", "-5"], "error: sizes must be >= 1, got -5\n"),
            (["--sizes", "256,0"], "error: sizes must be >= 1, got 0\n"),
            (["--vanilla-iters", "0"], "error: vanilla_iters must be >= 1, got 0\n"),
        ],
    )
    def test_bad_values_exit_one_before_timing(
        self, flags, message, monkeypatch, capsys
    ):
        # No clustering call runs: the fast variant is not timed first.
        calls = []

        def counted(name):
            real = getattr(bench, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        timed = ("_seed_anchors", "_gaussian_shift", "cluster", "vanilla_mean_shift")
        for name in timed:
            monkeypatch.setattr(bench, name, counted(name))
        code = main(["bench", "--sizes", "256", "--repeats", "3"] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == message and captured.out == ""
        assert calls == []
