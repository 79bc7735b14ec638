"""Every run option does something: each RunConfig field is read in the
library, and each global CLI option sets a RunConfig field."""

import ast
import dataclasses
from pathlib import Path

import conetypes
from conetypes.cli import main
from conetypes.pipeline import RunConfig

SRC = Path(conetypes.__file__).parent
FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def test_every_config_field_is_read():
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id == "config"):
                read.add(node.attr)
    assert FIELDS, "RunConfig has no fields"
    assert sorted(FIELDS - read) == []


def test_every_global_option_sets_a_config_field():
    tree = ast.parse((SRC / "cli.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "main")
    # option name -> the RunConfig field its value is passed as
    passed = {}
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "RunConfig"):
            passed.update({kw.value.id: kw.arg for kw in node.keywords
                           if isinstance(kw.value, ast.Name)})
    options = [o.name for o in main.params]
    assert options, "the CLI group has no options"
    assert {o: passed.get(o) for o in options if passed.get(o) not in FIELDS} == {}
