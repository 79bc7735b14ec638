"""Command-line interface: balls, automata, bounds, and table reproduction."""

from __future__ import annotations

import sys

import click

from .automaton import (
    automaton_to_json,
    reduce_automaton,
    to_digraph_dot,
    verify_counts,
)
from .errors import ConeTypesError
from .pipeline import (
    RunConfig,
    curvature,
    report_to_csv_row,
    report_to_json,
    run_from_automaton,
    run_group,
    run_table,
    table_to_csv,
    table_to_markdown,
    CSV_HEADER,
    extract_escalating,
)
from .coxeter import build_ball, new_params


def _config(ctx) -> RunConfig:
    return ctx.obj["config"]


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json", "csv", "dot", "markdown"]),
    default="text", show_default=True, help="Output format.",
)


@click.group()
@click.option("--tol-fold", type=float, default=1e-13, show_default=True,
              help="Fold-system Newton residual tolerance.")
@click.option("--tol-eigen", type=float, default=1e-12, show_default=True,
              help="Eigenvector residual tolerance.")
@click.option("--radius", type=int, default=None,
              help="Ball radius; extraction uses it alone, with no escalation.")
@click.option("--root-type", type=int, default=None, help="Root type override.")
@click.option("--oracle-mode", type=click.Choice(["rational", "float"]),
              default="rational", show_default=True)
@click.option("--oracle-n-max", type=int, default=20, show_default=True)
@click.pass_context
def main(ctx, tol_fold, tol_eigen, radius, root_type, oracle_mode, oracle_n_max):
    """Cone-type automata and spectral-radius bounds for triangle groups."""
    ctx.ensure_object(dict)
    ctx.obj["config"] = RunConfig(
        tol_fold=tol_fold, tol_eigen=tol_eigen,
        radius=radius, root_type=root_type,
        oracle_mode=oracle_mode, oracle_n_max=oracle_n_max,
    )


@main.command()
@click.argument("l", type=int)
@click.argument("m", type=int)
@click.argument("n", type=int)
@format_option
@click.pass_context
def ball(ctx, l, m, n, fmt):
    """Build the Cayley-graph ball and export it."""
    config = _config(ctx)
    params = new_params(l, m, n)
    radius = config.radius if config.radius is not None else 6
    b = build_ball(params, radius, config.max_vertices)
    if fmt == "json":
        click.echo(b.to_json())
    elif fmt == "csv":
        click.echo(b.to_adjacency_csv(), nl=False)
    else:
        sizes = " ".join(str(int(s)) for s in b.sphere_sizes())
        click.echo(f"group {params.name()} radius {radius}")
        click.echo(f"vertices {b.n_vertices} edges {len(b.edges)}")
        click.echo(f"sphere sizes {sizes}")


@main.command("cone-types")
@click.argument("l", type=int)
@click.argument("m", type=int)
@click.argument("n", type=int)
@format_option
@click.pass_context
def cone_types(ctx, l, m, n, fmt):
    """Extract and verify the cone-type automaton."""
    config = _config(ctx)
    params = new_params(l, m, n)
    a = extract_escalating(params, config.radius, config.max_vertices)
    ra = reduce_automaton(a)
    vr = verify_counts(params, a)
    if fmt == "json":
        click.echo(automaton_to_json(a, ra))
    elif fmt == "dot":
        click.echo(to_digraph_dot(a))
    else:
        click.echo(f"group {params.name()} case {vr.case}")
        click.echo(f"K_total {a.K_total} expected {vr.expected} "
                   f"match {vr.matches} k* {a.k_star}")
        click.echo(f"reduced size {len(ra.types)} types {list(ra.types)} "
                   f"primitive power {ra.p}")
        click.echo("M =")
        for row in a.M:
            click.echo("  " + " ".join(str(int(x)) for x in row))
    if not vr.matches:
        sys.exit(1)


@main.command()
@click.argument("l", type=int)
@click.argument("m", type=int)
@click.argument("n", type=int)
@format_option
@click.pass_context
def bounds(ctx, l, m, n, fmt):
    """Lower and upper spectral-radius bounds for one group."""
    config = _config(ctx)
    report = run_group(new_params(l, m, n), config)
    if fmt == "json":
        click.echo(report_to_json(report))
    elif fmt == "csv":
        click.echo(CSV_HEADER)
        click.echo(report_to_csv_row(report))
    else:
        _echo_report(report)
    if not report.ok:
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
    errs = report.diagnostics.get("errors") or {}
    for stage, msg in errs.items():
        click.echo(f"error[{stage}] {msg}", err=True)


@main.command()
@format_option
@click.pass_context
def table(ctx, fmt):
    """Reproduce the full ten-group bounds table."""
    config = _config(ctx)
    reports = run_table(config)
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
    if not all(r.ok for r in reports):
        sys.exit(1)


@main.command("curvature")
@click.argument("l", type=int)
@click.argument("m", type=int)
@click.argument("n", type=int)
def curvature_cmd(l, m, n):
    """Exact combinatorial curvature as a rational multiple of pi."""
    q = curvature(new_params(l, m, n))
    click.echo(f"{q.numerator}/{q.denominator} * pi")


@main.command("from-automaton")
@click.argument("file", type=click.Path(exists=True))
@click.option("--degree", "-d", type=int, default=3, show_default=True)
@format_option
@click.pass_context
def from_automaton(ctx, file, degree, fmt):
    """Bounds from an externally supplied cta-1 automaton document."""
    config = _config(ctx)
    report = run_from_automaton(file, d=degree, config=config)
    if fmt == "json":
        click.echo(report_to_json(report))
    elif fmt == "csv":
        click.echo(CSV_HEADER)
        click.echo(report_to_csv_row(report))
    else:
        _echo_report(report)
    if report.theorem_match is False or report.diagnostics.get("errors"):
        sys.exit(1)


def run():  # console-script shim keeping ConeTypesError exits tidy
    try:
        main(standalone_mode=True)
    except ConeTypesError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    run()
