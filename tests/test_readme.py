"""The README's library example and command-line lines run as written."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from planarseg import cli

ROOT = Path(__file__).resolve().parents[1]


def readme_blocks(heading: str, language: str) -> list:
    """The ``language`` code blocks under the README's ``heading``."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```$", section, flags=re.M | re.S)


def library_example() -> str:
    """The ``python`` block under the README's "Library example" heading."""
    blocks = readme_blocks("Library example", "python")
    assert len(blocks) == 1
    return blocks[0]


def command_lines() -> dict:
    """The ``planarseg`` commands of the first ``bash`` block under the
    README's "Command line" heading, continuation lines joined, as
    argument lists keyed by subcommand."""
    text = readme_blocks("Command line", "bash")[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines()]
    commands = [words for words in commands if words and words[0] == "planarseg"]
    return {words[1]: words[1:] for words in commands}


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


def test_synth_and_cluster_lines_run(tmp_path, monkeypatch, capsys):
    # The eval line needs instance planes that no command writes yet
    # (ROADMAP item 2), so it is only checked to be documented.
    commands = command_lines()
    assert list(commands) == ["synth", "cluster", "eval", "gradcheck", "bench"]
    monkeypatch.chdir(tmp_path)
    assert cli.main(commands["synth"]) == 0
    assert cli.main(commands["cluster"]) == 0
    assert capsys.readouterr().err == ""
    written = sorted(path.name for path in (tmp_path / "pred").iterdir())
    assert written == ["labels.pten", "summary.json"]
    summary = json.loads((tmp_path / "pred" / "summary.json").read_text())
    assert summary["cluster_count"] >= 1 and summary["wall_ms"] > 0.0
