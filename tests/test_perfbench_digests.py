"""The generators still produce the inputs the benchmark's digests pin.

``perfbench/digests.json`` holds, per workload, the SHA-256 of the first
scene of the reference seed. ``python -m pytest perfbench`` checks it
too, but the default test run collects only ``tests/``; this copy keeps
a change in any generator output from passing the default run. It reads
the benchmark's files and writes nothing there.
"""

import importlib
import json
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STORED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's ``run`` and ``workloads`` modules, imported without
    writing bytecode and without keeping the thread settings ``run`` makes."""
    saved = list(sys.path), dict(os.environ), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("run"), importlib.import_module("workloads")
    finally:
        sys.path[:] = saved[0]
        os.environ.clear()
        os.environ.update(saved[1])
        sys.dont_write_bytecode = saved[2]


def test_every_workload_has_a_stored_digest(perfbench):
    _, wl = perfbench
    assert sorted(STORED) == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("name", sorted(STORED))
def test_reference_digest_matches_the_stored_one(perfbench, name):
    run, wl = perfbench
    assert wl.reference_digest(wl.WORKLOADS[name], run.REFERENCE_SEED) == STORED[name]
