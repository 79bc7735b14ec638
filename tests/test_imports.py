"""Every library module uses each name it imports."""

import ast
from pathlib import Path

import conetypes

SRC = Path(conetypes.__file__).parent


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_no_unused_imports():
    unused = {}
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules, "no library modules found"
    for path in modules:
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        missing = sorted(imported_names(tree) - used)
        if missing:
            unused[path.name] = missing
    assert unused == {}
