"""Tests of the benchmark itself; run with ``python -m pytest perfbench``."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_library()

import workloads as wl  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(w):
    """The workload at 48x64 with few planes and scenes, for fast runs."""
    return dataclasses.replace(
        w, name=w.name + "-tiny", height=48, width=64, planes=min(w.planes, 6), scenes=3
    )


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result, record = run.run(tiny(wl.WORKLOADS[name]), seed=3, seconds=0.0, trace=trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert record["fail_frac"] == 0.0
    json.dumps(result, allow_nan=False)


def test_traced_self_times_add_up_to_each_image():
    _, record = run.run(tiny(wl.WORKLOADS["infer-vga-8p"]), seed=1, seconds=0.0, trace=True)
    tracer = Tracer()
    tracer.spans = [[s["id"], s["parent"], s["name"], s["start"], s["end"]]
                    for s in record["spans"]]
    rows = tracer.self_times("image")
    totals = tracer.root_durations("image")
    assert rows and len(rows) == len(totals)
    for row, total in zip(rows, totals):
        assert "clustering.cluster" in row and row["image"] >= 0.0
        assert sum(row.values()) == pytest.approx(total, abs=1e-9)
    assert run.reconciles(tracer)


@pytest.mark.parametrize("children, ok", [
    ([(1.0, 2.0), (2.0, 4.0)], True),
    ([(1.0, 3.0), (2.0, 4.0)], False),  # siblings overlap
    ([(1.0, 2.0), (1.5, 1.8)], False),  # one nested in another
    ([(1.0, 6.0)], False),  # ends after the image
    ([(-1.0, 2.0)], False),  # starts before the image
    ([(5.5, 6.0)], False),  # runs after the image
])
def test_reconciles_rejects_spans_outside_or_overlapping(children, ok):
    tracer = Tracer()
    tracer.spans = [[0, -1, "image", 0.0, 5.0]] + [
        [1 + j, 0, f"call{j}", start, end] for j, (start, end) in enumerate(children)
    ]
    assert run.reconciles(tracer) is ok


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_one_seed_reproduces_identical_inputs(name):
    w = tiny(wl.WORKLOADS[name])
    first = wl.digest(wl.make_inputs(w, 7, NullTracer()))
    assert wl.digest(wl.make_inputs(w, 7, NullTracer())) == first
    assert wl.digest(wl.make_inputs(w, 8, NullTracer())) != first


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_stored_digests_match_the_generators(name):
    stored = json.loads(run.DIGESTS.read_text())
    assert wl.reference_digest(wl.WORKLOADS[name], run.REFERENCE_SEED) == stored[name]


def test_checks_reject_wrong_outputs():
    w = tiny(wl.WORKLOADS["eval-vga-32p"])
    item = wl.make_inputs(w, 2, NullTracer())[0]
    out = wl.step(NullTracer(), w, item)
    assert wl.check(w, item, out, {}) is None
    ev = dataclasses.replace(out.evaluation, rand_index=out.evaluation.rand_index + 1e-6)
    assert "rand_index" in wl.check(w, item, dataclasses.replace(out, evaluation=ev), {})

    w = tiny(wl.WORKLOADS["infer-vga-8p"])
    item = wl.make_inputs(w, 2, NullTracer())[0]
    out = wl.step(NullTracer(), w, item)
    assert wl.check(w, item, out, {}) is None
    labels = out.labels.labels.copy()
    labels[~out.mask.mask] = 1
    bad = dataclasses.replace(
        out, labels=dataclasses.replace(out.labels, labels=labels)
    )
    assert "masked" in wl.check(w, item, bad, {})


def test_benchmark_json_names_every_workload_and_layer():
    assert [x["name"] for x in SPEC["workloads"]] == list(wl.WORKLOADS)
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert list(layer_map) == [m["name"] for m in SPEC["per_layer"]]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["on"]) | set(entry["unchanged_on"]) <= set(wl.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-vga-8p",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_speed_factor_scales_to_the_nominal_probe():
    import calibrate

    assert calibrate.probe() > 0.0
    nominal = calibrate.NOMINAL_PROBE_S
    assert calibrate.speed_factor([nominal] * 3) == pytest.approx(1.0)
    # A machine half as fast doubles the probe, and halves the factor.
    assert calibrate.speed_factor([1.5 * nominal, 2.5 * nominal]) == pytest.approx(0.5)
