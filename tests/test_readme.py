"""The README's library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    """The ``python`` block under the README's "Library example" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_runs(tmp_path):
    script = tmp_path / "example.py"
    script.write_text(library_example())
    # The example runs from a scratch directory, so a relative PYTHONPATH
    # would not find the package.
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    rand, recall = (float(line) for line in done.stdout.split())
    assert 0.0 <= rand <= 1.0 and 0.0 <= recall <= 100.0
