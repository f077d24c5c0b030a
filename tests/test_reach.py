"""Every name that closroute defines is reached from outside its own
definition: by another part of the package (the simulator, the CLI) or by the
benchmark. That holds for module-level names, public and private, and for the
methods and properties of its classes. A name that only tests and demos call
is dead weight."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(paths) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(paths)}


def _loaded(node: ast.AST) -> Counter:
    """How often node loads each name, as a name or as an attribute."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
    return names


def _defined(statement: ast.stmt) -> list[str]:
    """The module-level names a top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


PACKAGE = _parse(p for p in (ROOT / "src" / "closroute").glob("*.py") if p.stem != "__init__")
BENCHMARK = set().union(*map(_loaded, _parse((ROOT / "benchmarks").glob("*.py")).values()))
LOADS = sum(map(_loaded, PACKAGE.values()), Counter())


def _unreached(definitions) -> list[str]:
    """The labels of the (label, name, node) definitions whose name neither the
    benchmark nor any package code outside node loads."""
    return [label for label, name, node in definitions
            if name not in BENCHMARK and LOADS[name] <= _loaded(node)[name]]


def _module_names(private: bool) -> list[tuple[str, str, ast.stmt]]:
    return [(f"{module}.{name}", name, statement)
            for module, tree in PACKAGE.items() for statement in tree.body
            for name in _defined(statement) if name.startswith("_") == private]


def test_every_public_name_is_reached():
    assert _unreached(_module_names(private=False)) == []


def test_every_private_name_is_reached():
    assert _unreached(_module_names(private=True)) == []


def test_every_method_is_reached():
    """Methods and properties alike, a class's dunders aside: those the
    language calls."""
    methods = [
        (f"{module}.{statement.name}.{method.name}", method.name, method)
        for module, tree in PACKAGE.items() for statement in tree.body
        if isinstance(statement, ast.ClassDef) for method in statement.body
        if isinstance(method, ast.FunctionDef)
        and not (method.name.startswith("__") and method.name.endswith("__"))
    ]
    assert _unreached(methods) == []
