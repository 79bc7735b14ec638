"""Command-line interface: balls, automata, bounds, and table reproduction."""

from __future__ import annotations

import sys

import click

from .automaton import (
    automaton_to_json,
    extract_automaton,
    reduce_automaton,
    theorem_case,
    to_digraph_dot,
)
from .errors import ConeTypesError
from .pipeline import (
    RunConfig,
    curvature,
    report_to_json,
    run_from_automaton,
    run_group,
    run_table,
    table_to_csv,
    table_to_markdown,
)
from .coxeter import build_ball, new_params


def format_option(*formats: str):
    """--format offering text and the given formats, the ones the command renders."""
    return click.option("--format", "fmt", type=click.Choice(["text", *formats]),
                        default="text", show_default=True, help="Output format.")


@click.group()
@click.option("--radius", type=int, default=None,
              help="Radius of the ball a command builds: 6 for `ball`, 10 for "
                   "the check and envelope ball of `bounds` and `table`.")
@click.pass_context
def main(ctx, radius):
    """Cone-type automata and spectral-radius bounds for triangle groups."""
    ctx.obj = RunConfig(radius=radius)


@main.command()
@click.argument("exponents", nargs=3, type=int, metavar="L M N")
@format_option("json", "csv")
@click.pass_obj
def ball(config, exponents, fmt):
    """Build the Cayley-graph ball and export it."""
    params = new_params(*exponents)
    radius = config.radius if config.radius is not None else 6
    b = build_ball(params, radius)
    if fmt == "json":
        click.echo(b.to_json())
    elif fmt == "csv":
        click.echo(b.to_adjacency_csv(), nl=False)
    else:
        sizes = " ".join(str(int(s)) for s in b.sphere_sizes())
        click.echo(f"group {params.name()} radius {radius}")
        # nbr holds each edge twice, as an up-link and as a down-link
        click.echo(f"vertices {b.n_vertices} edges {int((b.nbr >= 0).sum()) // 2}")
        click.echo(f"sphere sizes {sizes}")


@main.command("cone-types")
@click.argument("exponents", nargs=3, type=int, metavar="L M N")
@format_option("json", "dot")
def cone_types(exponents, fmt):
    """Compute the cone-type automaton from the root system."""
    params = new_params(*exponents)
    diag: dict = {}
    a = extract_automaton(params, diag)
    ra = reduce_automaton(a)
    case, expected = theorem_case(*params.triple())
    matches = a.K_total == expected
    if fmt == "json":
        click.echo(automaton_to_json(a, ra))
    elif fmt == "dot":
        click.echo(to_digraph_dot(a))
    else:
        click.echo(f"group {params.name()} case {case}")
        states = diag["states"]
        click.echo(f"K_total {a.K_total} expected {expected} match {matches} "
                   f"roots {diag['roots']} states {states['before']} -> {states['after']}")
        click.echo(f"reduced size {len(ra.types)} types {list(ra.types)} "
                   f"primitive power {ra.p}")
        click.echo("M =")
        for row in a.M:
            click.echo("  " + " ".join(str(int(x)) for x in row))
    if not matches:
        sys.exit(1)


@main.command()
@click.argument("exponents", nargs=3, type=int, metavar="L M N")
@format_option("json", "csv")
@click.pass_obj
def bounds(config, exponents, fmt):
    """Lower and upper spectral-radius bounds for one group."""
    _emit([run_group(new_params(*exponents), config)], fmt)


def _emit(reports, fmt):
    """Print the reports in fmt and each failed stage on stderr; exit 1 when any fails."""
    if fmt == "json":
        for r in reports:
            click.echo(report_to_json(r))
    elif fmt == "csv":
        click.echo(table_to_csv(reports), nl=False)
    elif fmt == "markdown":
        click.echo(table_to_markdown(reports), nl=False)
    else:
        for r in reports:
            _echo_report(r)
    for r in reports:
        for stage, msg in (r.diagnostics.get("errors") or {}).items():
            click.echo(f"error[{stage}] {msg}", err=True)
    if not all(r.ok for r in reports):
        sys.exit(1)


def _echo_report(report):
    name = report.params.name() if report.params else "?"
    click.echo(f"group {name} case {report.case} K {report.K_total} "
               f"|T| {report.T_size} theorem_match {report.theorem_match}")
    lo = f"{report.lower:.10f}" if report.lower is not None else "-"
    hi = f"{report.upper:.10f}" if report.upper is not None else "-"
    env = f"{report.envelope:.10f}" if report.envelope is not None else "-"
    click.echo(f"lower {lo} upper {hi} envelope {env}")
    if report.curvature is not None:
        q = report.curvature
        click.echo(f"curvature {q.numerator}/{q.denominator} * pi")


@main.command()
@format_option("json", "csv", "markdown")
@click.pass_obj
def table(config, fmt):
    """Reproduce the full ten-group bounds table."""
    _emit(run_table(config), fmt)


@main.command("curvature")
@click.argument("exponents", nargs=3, type=int, metavar="L M N")
def curvature_cmd(exponents):
    """Exact combinatorial curvature as a rational multiple of pi."""
    q = curvature(new_params(*exponents))
    click.echo(f"{q.numerator}/{q.denominator} * pi")


@main.command("from-automaton")
@click.argument("file", type=click.File())
@format_option("json", "csv")
def from_automaton(file, fmt):
    """Bounds from an externally supplied cta-1 automaton document."""
    _emit([run_from_automaton(file.read())], fmt)


def run():  # console-script shim keeping ConeTypesError exits tidy
    try:
        main(standalone_mode=True)
    except ConeTypesError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    run()
