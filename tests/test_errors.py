"""Every typed error of the toolkit is raised somewhere in the library."""

import ast
from pathlib import Path

import conetypes

SRC = Path(conetypes.__file__).parent


def test_every_error_class_is_raised():
    tree = ast.parse((SRC / "errors.py").read_text())
    errors = {"ConeTypesError"}
    for node in tree.body:  # subclasses follow their bases in the file
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in errors for b in node.bases):
            errors.add(node.name)
    errors.discard("ConeTypesError")
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert errors, "no error classes found"
    assert sorted(errors - raised) == []
