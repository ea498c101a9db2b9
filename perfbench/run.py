"""Benchmark of the planarseg library on seeded synthetic workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload infer-vga-8p --seed 0 --seconds 20 --trace 0

Set-up imports the library, then three times generates the workload's
scenes from ``--seed`` and runs one warm-up image; the median of the three
counts. The timed loop then processes one image at a time, cycling through
the scenes, until ``--seconds`` of image time have passed and every scene
ran at least once. Each image's output is checked outside the timed
region.

Times that are gated are the process's CPU seconds, scaled to a machine
of nominal speed: a fixed probe (``calibrate.py``) runs before every image
and every set-up repeat, and the run's CPU times are multiplied by the
nominal probe time over the run's mean probe time. On a shared host
the raw CPU time of the same image drifts by a third over minutes; the
probe drifts with it. Raw CPU and wall times are printed on the ``#``
lines. BLAS runs one thread: idle OpenBLAS workers spin between calls, so
with more threads the CPU time counts that spinning, and how much of it
depends on the machine's other load.

With ``--trace 0`` the last stdout line is one JSON object holding the
end-to-end metrics; with ``--trace 1`` every other image is traced and
the object holds the per-layer metrics instead, and the spans are
written to ``.perfbench/`` at the checkout root. Lines before it,
starting with ``#``, record the environment and the input digests.
``--workload all`` runs every workload in turn, each in its own process. The
program exits with code 2, printing no result, when the checkout holds
no ``src/planarseg``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
REFERENCE_SEED = 0
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".perfbench"


def load_library():
    """Import planarseg from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "planarseg" / "__init__.py").is_file():
        raise ImportError(f"no planarseg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import planarseg

    if Path(planarseg.__file__).resolve().parent != SRC / "planarseg":
        raise ImportError(f"planarseg imported from {planarseg.__file__}, not {SRC}")
    return planarseg


def environment(seed: int, scene_seeds) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workers": 1,
        "seed": seed,
        "scene_seeds": scene_seeds,
    }


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(w, seed: int, seconds: float, trace: bool, import_cpu_s: float = 0.0):
    """Run one workload; returns (result object, record of the run)."""
    import workloads as wl
    from spans import NullTracer, Tracer

    null = NullTracer()
    tracer = Tracer() if trace else None
    # Set-up, repeated: generate the inputs, then one warm-up image, which
    # pays first-call costs. The median CPU time of the repeats counts.
    setup_cpu, probes = [], []
    for _ in range(SETUP_REPEATS):
        items = None  # so only one copy is alive at a time
        probes.append(calibrate.probe())
        c0 = time.process_time()
        items = wl.make_inputs(w, seed, tracer or null)
        try:
            wl.step(null, w, items[0])
        except Exception:  # the same failure is counted when the loop runs this scene
            pass
        setup_cpu.append(time.process_time() - c0)

    latencies, cpu_times, traced_cpu, untraced_cpu = [], [], [], []
    first, failures, cache = {}, [], {}
    busy = 0.0
    i = 0
    loop_start = time.perf_counter()
    while busy < seconds or i < len(items):
        k = i % len(items)
        traced = trace and i % 2 == 1
        probes.append(calibrate.probe())
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.root("image"):
                    out = wl.step(tracer, w, items[k])
            else:
                out = wl.step(null, w, items[k])
            error = None
        except Exception as exc:  # an image that raises is a counted failure
            out, error = None, f"raised {exc!r}"
        dt = time.perf_counter() - t0
        dc = time.process_time() - c0
        busy += dt
        latencies.append(dt)
        cpu_times.append(dc)
        (traced_cpu if traced else untraced_cpu).append(dc)
        if error is None:
            error = _check(wl, w, items[k], out, cache, first, k)
        if error is not None:
            failures.append(error)
            print(f"# image {i} (scene {k}) failed: {error}", file=sys.stderr)
        i += 1
    loop_s = time.perf_counter() - loop_start
    speed = calibrate.speed_factor(probes)
    # Per scene, the median of its passes, so scenes that the last partial
    # pass ran twice do not weigh more than the others.
    scene_cpu = [statistics.median(cpu_times[k::len(items)]) for k in range(len(items))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_digest = wl.digest(items)
    ref_digest = wl.reference_digest(w, REFERENCE_SEED)
    stored = json.loads(DIGESTS.read_text()).get(w.name)
    digest_ok = ref_digest == stored
    if not digest_ok:
        print(f"# {w.name}: first scene of seed {REFERENCE_SEED} hashes to {ref_digest}, "
              f"{DIGESTS.name} holds {stored}", file=sys.stderr)

    scenes = [first[k][1] for k in sorted(first)]

    def over_scenes(name, stat=np.mean):
        # With no scene scored the run is not correct; 0 keeps the JSON valid.
        return float(stat([s[name] for s in scenes])) if scenes else 0.0

    if trace:
        metrics = per_layer_metrics(tracer, traced_cpu, untraced_cpu, over_scenes)
        consistent = reconciles(tracer)
    else:
        metrics = {
            "setup_s": (speed * (import_cpu_s + statistics.median(setup_cpu)), "s"),
            "images_per_norm_s": (len(scene_cpu) / (speed * sum(scene_cpu)), "1/s"),
            "image_norm_ms_p50": (1000.0 * speed * statistics.median(scene_cpu), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "rand_index": (over_scenes("rand_index"), "ratio"),
            "plane_recall_0.10m": (over_scenes("plane_recall_0.10m"), "%"),
            # A median: one scene with two planes merged can hold several
            # times the others' error, which made the mean swing with the seed.
            "depth_rel": (over_scenes("depth_rel", np.median), "ratio"),
        }
        consistent = True
    result = {
        "correct": not failures and digest_ok and consistent and len(scenes) == len(items),
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": w.name,
        "digest": run_digest,
        "reference_digest": ref_digest,
        "reference_digest_ok": digest_ok,
        "fail_frac": len(failures) / len(latencies),
        "setup_cpu_s": setup_cpu,
        "import_cpu_s": import_cpu_s,
        "latencies_s": latencies,
        "cpu_s": cpu_times,
        "scene_cpu_s": scene_cpu,
        "probe_cpu_s": probes,
        "speed_factor": speed,
        "busy_s": busy,
        "loop_s": loop_s,
    }
    if trace:
        record["spans"] = tracer.as_records()
    return result, record


def _check(wl, w, item, out, cache, first, k):
    """Correctness of one image. The first pass over scene ``k`` stores its
    fingerprint and scores; later passes must repeat the fingerprint."""
    try:
        error = wl.check(w, item, out, cache)
        if error is not None:
            return error
        fp = wl.fingerprint(w, out)
        if k not in first:
            first[k] = (fp, wl.score(w, item, out))
            return None
    except Exception as exc:  # a check that cannot run fails the image
        return f"check raised {exc!r}"
    ref = first[k][0]
    if fp.shape != ref.shape or not np.all(np.abs(fp - ref) <= wl.REPEAT_TOL):
        return f"outputs of scene {k} changed between passes"
    return None


TIME_LAYERS = (
    "clustering.cluster", "clustering.hard_labels",
    "geometry.one_hot_assignment", "geometry.pool_instance_params",
    "geometry.render_segment_depth", "metrics.recall_depth", "metrics.recall_normal",
    "geometry.backproject", "geometry.fit_plane_lsq",
    "metrics.rand_index", "metrics.variation_of_information",
    "metrics.segmentation_covering", "metrics.depth_metrics",
    "metrics.plane_count_histogram",
    "losses.balanced_bce", "losses.embedding_loss",
    "losses.pixel_param_loss", "losses.instance_param_loss",
)
SETUP_LAYERS = (
    "synth.generate_scene", "synth.generate_embeddings",
    "synth.corrupt_probability", "synth.generate_pixel_params",
)
COUNTS = {
    "clustering.pixels": "count",
    "clustering.clusters": "count",
    "clustering.clusters_per_plane": "ratio",
    "clustering.assignment_mb": "MiB",
    "metrics.matched_frac": "ratio",
}


def per_layer_metrics(tracer, traced_cpu, untraced_cpu, over_scenes) -> dict:
    """Median per-image self time of each layer call, counts, overheads.

    Self times are wall times of the traced images; the overhead compares
    the median CPU time of traced and untraced images.
    """
    images = tracer.self_times("image")
    setups = tracer.self_times("setup")
    metrics = {}
    for name in TIME_LAYERS:
        metrics[name + "_ms"] = (_median_ms(images, name), "ms")
    for name in SETUP_LAYERS:
        metrics[name + "_ms"] = (_median_ms(setups, name), "ms")
    for name, unit in COUNTS.items():
        metrics[name] = (over_scenes(name), unit)
    metrics["image.self_ms"] = (_median_ms(images, "image"), "ms")
    overhead = statistics.median(traced_cpu) / statistics.median(untraced_cpu) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def _median_ms(rows, name) -> float:
    return 1000.0 * statistics.median(row.get(name, 0.0) for row in rows)


def reconciles(tracer) -> bool:
    """Per traced image, the child spans lie within the image's span and do
    not overlap one another, so the children's self times plus
    ``image.self_ms`` (never negative) add up to the image's duration."""
    roots = {sid: (start, end, []) for sid, parent, name, start, end in tracer.spans
             if parent == -1 and name == "image"}
    for _, parent, _, start, end in tracer.spans:
        if parent in roots:
            roots[parent][2].append((start, end))
    for root_start, root_end, spans in roots.values():
        t = root_start
        for start, end in sorted(spans):
            if start < t or end < start or end > root_end:
                return False
            t = end
    return bool(roots)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads as wl

    import_cpu_s = time.process_time()  # CPU seconds since the process started
    if args.workload == "all":
        # One process per workload, so set-up and peak memory are its own.
        for name in wl.WORKLOADS:
            argv_one = ["--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv_one])
            if done.returncode != 0:
                return done.returncode
        return 0
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)} or all", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    env = environment(args.seed, wl.scene_seeds(args.seed, w.scenes))
    result, record = run(w, args.seed, args.seconds, bool(args.trace), import_cpu_s)
    print("# env " + json.dumps(env))
    lat = sorted(record["latencies_s"])
    cpu = record["cpu_s"]
    print(f"# {w.name}: {len(lat)} images; wall: image_ms_p50 "
          f"{1000 * statistics.median(lat):.1f} (min {1000 * lat[0]:.1f}, max "
          f"{1000 * lat[-1]:.1f}), images_per_s {len(lat) / record['loop_s']:.4f} "
          f"over the loop's {record['loop_s']:.1f} s; CPU: image ms p50 "
          f"{1000 * statistics.median(cpu):.1f}, scene median "
          f"{1000 * statistics.median(record['scene_cpu_s']):.1f}; probe ms p50 "
          f"{1000 * statistics.median(record['probe_cpu_s']):.2f} (mean "
          f"{1000 * statistics.fmean(record['probe_cpu_s']):.2f}) over "
          f"{len(record['probe_cpu_s'])} probes, speed factor "
          f"{record['speed_factor']:.4f}; fail_frac {record['fail_frac']}")
    print(f"# {w.name}: inputs digest {record['digest']}; first scene of seed "
          f"{REFERENCE_SEED}: {record['reference_digest']}, matches "
          f"{DIGESTS.name}: {record['reference_digest_ok']}")
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{w.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"env": env, **record}))
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
