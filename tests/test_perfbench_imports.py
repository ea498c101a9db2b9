"""The benchmark's workloads import only names that the package exports."""

import ast
from pathlib import Path

import planarseg

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_workload_imports_are_public():
    tree = ast.parse(WORKLOADS.read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "planarseg"
        for alias in node.names
    ]
    assert imported
    assert sorted(set(imported) - set(planarseg.__all__)) == []
