"""Every run option does something: each RunConfig field is read in the
library, each global CLI option sets a RunConfig field, and each --format a
command offers renders something other than its text output."""

import ast
import dataclasses
from pathlib import Path

from click.testing import CliRunner

import conetypes
from conetypes import automaton_to_json, extract_automaton, new_params, reduce_automaton
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


# arguments of each command that takes --format; from-automaton's file is
# filled in by the test
FORMAT_ARGS = {
    "ball": ["4", "4", "4"],
    "cone-types": ["4", "4", "4"],
    "bounds": ["4", "4", "4"],
    "table": [],
    "from-automaton": [],
}
ALL_FORMATS = {"text", "json", "csv", "dot", "markdown"}


def _formats(command) -> list[str]:
    return next(p.type.choices for p in command.params if p.name == "fmt")


def test_every_offered_format_renders(tmp_path):
    runner = CliRunner()
    doc = tmp_path / "444.json"
    a = extract_automaton(new_params(4, 4, 4))
    doc.write_text(automaton_to_json(a, reduce_automaton(a)))
    with_format = sorted(name for name, cmd in main.commands.items()
                         if any(p.name == "fmt" for p in cmd.params))
    assert with_format == sorted(FORMAT_ARGS)
    for name in with_format:
        args = [name, *FORMAT_ARGS[name]] + ([str(doc)] if name == "from-automaton" else [])
        text = runner.invoke(main, args)
        assert text.exit_code == 0, (name, text.output)
        offered = _formats(main.commands[name])
        assert offered[0] == "text" and len(offered) > 1
        for fmt in offered[1:]:
            out = runner.invoke(main, [*args, "--format", fmt])
            assert out.exit_code == 0, (name, fmt)
            assert out.output != text.output, (name, fmt)
        for fmt in sorted(ALL_FORMATS - set(offered)):
            refused = runner.invoke(main, [*args, "--format", fmt])
            assert refused.exit_code == 2, (name, fmt)
            assert "Invalid value" in refused.output, (name, fmt)
