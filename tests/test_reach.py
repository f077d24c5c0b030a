"""Every public module-level name of closroute is reached from outside its own
definition: by another part of the package (the simulator, the CLI) or by the
benchmark. A name that only tests and demos call is dead weight."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(paths) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(paths)}


def _loaded(node: ast.AST) -> set[str]:
    """The names node loads, as names or as attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
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


def test_every_public_name_is_reached():
    package = _parse(p for p in (ROOT / "src" / "closroute").glob("*.py") if p.stem != "__init__")
    benchmark = set().union(*map(_loaded, _parse((ROOT / "benchmarks").glob("*.py")).values()))
    statements = [(module, s, _loaded(s)) for module, tree in package.items() for s in tree.body]
    unreached = [
        f"{module}.{name}"
        for module, statement, _ in statements
        for name in _defined(statement)
        if not name.startswith("_") and name not in benchmark
        and not any(name in loads for _, other, loads in statements if other is not statement)
    ]
    assert unreached == []
