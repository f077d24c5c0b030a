"""The demos import only names that closroute still has.

Each demo is parsed, not run, so the check costs milliseconds.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(demo):
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(demo.read_text(), filename=str(demo)))
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "closroute"
        for alias in node.names
    ]
    assert imported, f"{demo.name} imports nothing from closroute"
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{demo.name} imports missing names: {missing}"
