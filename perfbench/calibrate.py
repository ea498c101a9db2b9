"""A fixed probe of the machine's speed, for normalising image times.

On a shared host the CPU time of the same image drifts by a third or more
over minutes, as other tenants load the memory system and the cores the
process runs on. The probe repeats, on fixed arrays, the two kinds of
work that take most of a workload's time: a mean-shift step over a
16 MiB kernel buffer (matrix products, ``exp`` and row sums, the shape of
``clustering``'s inner step) and per-plane depth renders over a 480x640
grid (ray products, masked reciprocals and scatters, the shape of
``render_segment_depth``). Both are plain numpy, written here, so a change
to the library never changes the probe.

A run times the probe before every image and once before each set-up
repeat. ``speed_factor`` turns the mean probe time of the run into the
factor that scales the run's CPU times to a machine on which one probe
takes ``NOMINAL_PROBE_S``.
"""

import statistics
import time

import numpy as np

NOMINAL_PROBE_S = 0.04  # about one probe's CPU time on a 2-core shared VM

_rng = np.random.default_rng(20190226)
_POINTS = _rng.normal(size=(131072, 2))
_SQ_POINTS = np.einsum("ij,ij->i", _POINTS, _POINTS)
_ANCHORS = _rng.normal(size=(16, 2))
_KERN = np.empty((16, _POINTS.shape[0]))
_SHIFTED = np.empty_like(_ANCHORS)
_RAYS = np.stack(
    [
        np.tile((np.arange(640) - 319.5) / 576.0, 480),
        np.repeat((np.arange(480) - 239.5) / 576.0, 640),
        np.ones(480 * 640),
    ],
    axis=1,
)
_LABELS = (np.arange(480 * 640) % 640 // 160 + np.arange(480 * 640) // (640 * 96)) % 3
_NORMALS = _rng.normal(size=(2, 3)) * 0.2 + np.array([0.0, 0.0, 1.0])


def _shift_step() -> None:
    k = _KERN
    np.matmul(_ANCHORS, _POINTS.T, out=k)
    k *= -2.0
    k += np.einsum("ij,ij->i", _ANCHORS, _ANCHORS)[:, None]
    k += _SQ_POINTS[None, :]
    np.maximum(k, 0.0, out=k)
    k *= -12.5
    np.exp(k, out=k)
    total = k.sum(axis=1)
    np.matmul(k, _POINTS, out=_SHIFTED)
    np.divide(_SHIFTED, total[:, None], out=_SHIFTED)


def _render() -> None:
    depth = np.zeros(_RAYS.shape[0])
    valid = np.zeros(_RAYS.shape[0], dtype=bool)
    for idx, normal in enumerate(_NORMALS, start=1):
        member = _LABELS == idx
        denom = _RAYS @ normal
        ok = denom > 1e-6
        plane_depth = np.zeros(_RAYS.shape[0])
        plane_depth[ok] = 1.0 / denom[ok]
        depth[member] = plane_depth[member]
        valid[member] = ok[member]


def probe() -> float:
    """CPU seconds of one probe."""
    c0 = time.process_time()
    _shift_step()
    _render()
    return time.process_time() - c0


def speed_factor(probe_times) -> float:
    """The factor that scales this run's CPU times to the nominal machine.

    The mean, not the median, of the probe times: over runs of one seed on
    a drifting machine it left the normalised image times a quarter less
    spread, and a CPU-time probe has no long outliers to guard against.
    """
    return NOMINAL_PROBE_S / statistics.fmean(probe_times)
