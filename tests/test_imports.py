"""Every library module uses each name it imports, and every private
function, class or method it defines is used elsewhere in the library."""

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


def test_no_unreferenced_private_definitions():
    # a private definition no library code reads is dead, or used by tests only
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((name, node.lineno, node.attr))
    dead = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            # uses inside the definition itself (recursion) do not count
            if not any(ref == node.name and not (mod == name and
                                                 node.lineno <= line <= node.end_lineno)
                       for mod, line, ref in refs):
                dead.append(f"{name}:{node.name}")
    assert dead == []
