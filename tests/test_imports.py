"""Every library module uses each name it imports, and every private
definition and public function or method it defines is read elsewhere in
the library."""

import ast
import os
import subprocess
import sys
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


def library_trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def unread_definitions(trees: dict[str, ast.Module], kinds, keep) -> list[str]:
    """module:name of each definition of the given kinds that `keep`
    selects and that no library code reads; an import is not a read."""
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
            if not isinstance(node, kinds) or not keep(node):
                continue
            # uses inside the definition itself (recursion) do not count
            if not any(ref == node.name and not (mod == name and
                                                 node.lineno <= line <= node.end_lineno)
                       for mod, line, ref in refs):
                dead.append(f"{name}:{node.name}")
    return dead


def test_no_unreferenced_private_definitions():
    # a private definition no library code reads is dead, or used by tests only
    dead = unread_definitions(
        library_trees(), (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        lambda node: node.name.startswith("_") and not node.name.startswith("__"))
    assert dead == []


def is_click_command(node: ast.FunctionDef) -> bool:
    """Decorated with @<group>.command(...): click calls it, not the library."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


# read by the benchmark's warm-up only; it leaves src/ with the benchmark's
# dead metrics (ROADMAP item 5)
UNREAD_PUBLIC = {"ring.py:minpoly_2cos"}


def test_no_public_function_only_tests_read():
    # every public function or method is read by library code, so src/
    # ships no second implementation that only the tests use
    dead = unread_definitions(
        library_trees(), (ast.FunctionDef, ast.AsyncFunctionDef),
        lambda node: not node.name.startswith("_") and not is_click_command(node))
    assert sorted(dead) == sorted(UNREAD_PUBLIC)


# no annotated field is read by tests alone (FoldResult.fallback, which the
# benchmark's trace hook reads, is a plain class attribute)
UNREAD_FIELDS = set()


def test_no_field_only_tests_read():
    # every annotated class field is read as an attribute by library code,
    # so src/ computes and stores nothing that only the tests look at; a
    # write (report.upper = ...) is not a read
    trees = library_trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = [f"{name}:{cls.name}.{item.target.id}"
            for name, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read]
    assert sorted(dead) == sorted(UNREAD_FIELDS)


def test_no_library_module_reads_the_ring_module():
    # the balls and the elementary roots are built from the exponents, so
    # no library module does field arithmetic; the benchmark's warm-up
    # imports conetypes.ring itself
    reads = set()
    for name, tree in library_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and name != "ring.py":
                module = "." * node.level + (node.module or "")
                reads.update((name, a.name) for a in node.names
                             if module in (".ring", "conetypes.ring")
                             or module in (".", "conetypes") and a.name == "ring")
    assert reads == set()


def test_package_import_leaves_the_ring_module_unloaded():
    """`import conetypes` loads no conetypes.ring.

    A subprocess, because other test modules import conetypes.ring here."""
    script = "import sys, conetypes\nprint('conetypes.ring' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["False"]
