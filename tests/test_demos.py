"""The demos import only names that closroute still has, and all but the
slowest run to completion; README's scenario and library examples still
parse and run, and its command lines still parse.

Each demo is parsed for the import check, which costs milliseconds. Demos
01-05 then run in subprocesses, about two seconds together; demo 06 times
every scheme at sizes up to 1500 commodities, close to 20 seconds, so it is
only parsed. README's library example simulates one BLOOM job, about 0.3 s.
"""

import ast
import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from closroute.cli import _build_parser
from closroute.config import default_config, parse_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PARSE_ONLY = {"06_approximation_bound.py"}


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


@pytest.mark.parametrize(
    "demo", [d for d in DEMOS if d.name not in PARSE_ONLY], ids=lambda path: path.name
)
def test_demo_runs(demo):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, str(demo)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def readme_block(language: str) -> str:
    """The first fenced block of README.md in language."""
    return (ROOT / "README.md").read_text().split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_scenario_describes_the_default_fabric():
    config = parse_config(json.loads(readme_block("json")))
    assert config.topology == parse_config(default_config()).topology


def test_readme_library_example_syncs_bloom_in_criterion_3s_window(capsys):
    namespace = {}
    exec(readme_block("python"), namespace)
    assert 2.0 <= namespace["result"].records[0].allreduce_time <= 2.3


def test_readme_command_lines_parse():
    """Every ``closroute`` line of README's sh blocks names flags the CLI has."""
    blocks = (ROOT / "README.md").read_text().split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```", 1)[0].splitlines()
             if line.startswith("closroute ")]
    assert lines
    for line in lines:
        try:
            _build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README's {line!r} does not parse")
