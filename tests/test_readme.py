"""README.md's examples: each `$ conetypes ...` line of its text block prints
exactly the lines below it, and its Python block runs and prints what its
comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from conetypes.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(lang):
    """The one fenced block of README.md in lang."""
    [body] = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
    return body


def commands():
    """(arguments, expected stdout) of each `$ conetypes` example, whose
    output runs to the next blank line."""
    found = re.findall(r"^\$ (conetypes .*)\n((?:.+\n)*)", block("text"), re.MULTILINE)
    return [(shlex.split(cmd)[1:], out) for cmd, out in found]


def test_readme_has_the_four_commands():
    assert [args[0] for args, _ in commands()] == ["curvature", "ball", "cone-types", "bounds"]


@pytest.mark.parametrize("args, expected", commands(),
                         ids=[" ".join(args) for args, _ in commands()])
def test_readme_command_prints_its_lines(args, expected):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == expected


def test_readme_python_example_runs():
    # each print with a trailing comment prints that comment; one ending in
    # "..." is the printed float rounded to nearest at the comment's digits
    code = block("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    assert printed[0] == "('(i)', 6) 6"
    for line, call in zip(printed, prints):
        if "#" in call:
            claim = call.split("#", 1)[1].strip()
            if claim.endswith("..."):
                digits = claim.removesuffix("...")
                line = f"{float(line):.{len(digits.split('.')[1])}f}"
                claim = digits
            assert line == claim, call
