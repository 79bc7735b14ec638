"""End-to-end per-group pipeline, exports, and the command-line interface."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from conetypes import (
    NotStabilized,
    RunConfig,
    SchemaError,
    automaton_to_json,
    build_ball,
    curvature,
    extract_automaton,
    extract_escalating,
    new_params,
    report_to_csv_row,
    report_to_json,
    run_from_automaton,
    run_group,
    table_params,
    table_to_csv,
    table_to_markdown,
)
from conetypes.cli import main
from conetypes.pipeline import CSV_HEADER
from conftest import LOWER_BOUNDS, TABLE, UPPER_BOUNDS

# exact combinatorial curvature, as the rational multiple q of pi
CURVATURES = {
    (2, 3, 7): Fraction(-1, 42),
    (2, 4, 5): Fraction(-1, 20),
    (3, 3, 4): Fraction(-1, 12),
    (2, 5, 5): Fraction(-1, 10),
    (2, 6, 6): Fraction(-1, 6),
    (3, 4, 4): Fraction(-1, 6),
    (3, 4, 5): Fraction(-13, 60),
    (4, 4, 4): Fraction(-1, 4),
    (3, 5, 7): Fraction(-34, 105),
    (7, 7, 7): Fraction(-4, 7),
}

TREE_DOC = json.dumps({
    "schema": "cta-1",
    "params": None,
    "K_total": 2,
    "root_type": 0,
    "M": [[0, 3], [0, 2]],
    "d": [3, 3],
    "r": [0, 1],
    "reduced": {"types": [1], "M": [[2]], "p": 1},
})
TREE_RHO = 2.0 * math.sqrt(2.0) / 3.0


def test_curvature_values():
    for triple, q in CURVATURES.items():
        assert curvature(new_params(*triple)) == q


def test_table_order_by_curvature():
    # decreasing curvature, ties (2,6,6)/(3,4,4) broken lexicographically
    got = [p.triple() for p in table_params()]
    assert got == [
        (2, 3, 7), (2, 4, 5), (3, 3, 4), (2, 5, 5), (2, 6, 6),
        (3, 4, 4), (3, 4, 5), (4, 4, 4), (3, 5, 7), (7, 7, 7),
    ]


def test_run_group_444():
    report = run_group(new_params(4, 4, 4))
    assert report.ok
    assert report.K_total == 6
    assert report.T_size == 4
    assert report.case == "(i)"
    assert report.theorem_match is True
    assert report.lower == pytest.approx(LOWER_BOUNDS[(4, 4, 4)], abs=1e-9)
    assert report.upper == pytest.approx(UPPER_BOUNDS[(4, 4, 4)], abs=1e-9)
    assert report.curvature == Fraction(-1, 4)
    assert 0.8 < report.envelope < report.upper
    diag = report.diagnostics
    assert diag["k_star"] == 3
    assert diag["radius"] == 9
    assert diag["oracle_radius"] == 10
    assert diag["escalations"] == 3
    assert 0 < diag["upper_certified"] - Fraction(report.upper) <= 2e-9
    # the fold search: a few warm-started solves, one Diverged at least (the
    # confirmation just above the fold)
    fold = diag["fold"]
    assert set(fold) == {"solves", "newton_steps", "diverged"}
    assert 1 <= fold["diverged"] < fold["solves"] <= 8
    assert fold["newton_steps"] >= fold["solves"]
    assert diag["residuals"]["lam"] < 1e-12
    assert not diag["errors"]
    for stage in ("ball", "extract", "upper", "lower", "oracle"):
        assert diag["timings"][stage] >= 0.0


@pytest.mark.parametrize("triple", TABLE)
def test_grown_ball_extraction_equals_fresh_ball(triple):
    params = new_params(*triple)
    grown = extract_escalating(params)
    fresh = extract_automaton(build_ball(params, grown.radius))
    assert (grown.K_total, grown.k_star, grown.radius) == \
        (fresh.K_total, fresh.k_star, fresh.radius)
    assert np.array_equal(grown.M, fresh.M)
    assert np.array_equal(grown.type_of, fresh.type_of)


def test_run_group_radius_too_small_fails_soft():
    report = run_group(new_params(4, 4, 4), RunConfig(radius=5, oracle_n_max=5))
    assert not report.ok
    assert "extract" in report.diagnostics["errors"]
    assert report.lower is None and report.upper is None


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(tol_fold=0.0)


def test_run_from_automaton_tree_text():
    report = run_from_automaton(TREE_DOC)
    assert report.params is None
    assert report.lower == pytest.approx(TREE_RHO, abs=1e-10)
    assert report.upper == pytest.approx(TREE_RHO, abs=1e-10)
    assert report.theorem_match is None


def test_run_from_automaton_tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(TREE_DOC)
    report = run_from_automaton(str(path))
    assert report.upper == pytest.approx(TREE_RHO, abs=1e-10)


def test_run_from_automaton_round_trip(data444):
    doc = automaton_to_json(data444["automaton"], data444["reduced"])
    report = run_from_automaton(doc)
    direct = run_group(new_params(4, 4, 4))
    assert report.theorem_match is True
    assert report.lower == pytest.approx(direct.lower, abs=1e-12)
    assert report.upper == pytest.approx(direct.upper, abs=1e-12)
    assert report.diagnostics["fold"] == direct.diagnostics["fold"]
    assert report.diagnostics["fold"]["solves"] <= 8
    assert report.diagnostics["upper_certified"] == direct.diagnostics["upper_certified"]


def test_run_from_automaton_rejects_inconsistent_block(data444):
    doc = json.loads(automaton_to_json(data444["automaton"], data444["reduced"]))
    doc["reduced"]["M"][0][0] += 1
    with pytest.raises(SchemaError):
        run_from_automaton(json.dumps(doc))
    with pytest.raises(SchemaError):
        run_from_automaton("/no/such/file.json")


def test_report_json_shape():
    report = run_group(new_params(4, 4, 4))
    text = report_to_json(report, timestamp=False)
    assert text == report_to_json(report, timestamp=False)  # deterministic
    doc = json.loads(text)
    assert doc["schema"] == "bnd-1"
    assert doc["group"] == [4, 4, 4]
    assert doc["curvature"] == {"num": -1, "den": 4}
    assert "generated_at" not in doc
    assert "generated_at" in json.loads(report_to_json(report))


def test_csv_layout():
    report = run_group(new_params(4, 4, 4))
    assert CSV_HEADER == ("group,K_total,T_size,case,lower,upper,"
                          "curvature_num,curvature_den,envelope")
    row = report_to_csv_row(report)
    fields = row.split(",")
    assert fields[0] == "(4 4 4)"
    assert fields[1] == "6" and fields[2] == "4"
    assert float(fields[4]) < float(fields[5])
    csv = table_to_csv([report])
    assert csv.splitlines()[0] == CSV_HEADER
    md = table_to_markdown([report])
    assert "Delta(4,4,4)" in md


def test_cli_curvature():
    runner = CliRunner()
    result = runner.invoke(main, ["curvature", "4", "4", "4"])
    assert result.exit_code == 0
    assert result.output.strip() == "-1/4 * pi"


def test_cli_ball():
    runner = CliRunner()
    result = runner.invoke(main, ["ball", "4", "4", "4"])
    assert result.exit_code == 0
    assert "vertices" in result.output
    assert "sphere sizes 1 3" in result.output
    result = runner.invoke(main, ["ball", "4", "4", "4", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["radius"] == 6


def test_cli_cone_types(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["cone-types", "4", "4", "4"])
    assert result.exit_code == 0
    assert "K_total 6 expected 6 match True" in result.output
    result = runner.invoke(main, ["cone-types", "4", "4", "4", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["schema"] == "cta-1"
    result = runner.invoke(main, ["cone-types", "4", "4", "4", "--format", "dot"])
    assert result.exit_code == 0
    assert result.output.startswith("digraph")


def test_cli_bounds():
    runner = CliRunner()
    args = ["bounds", "4", "4", "4", "--format", "json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["theorem_match"] is True
    cert = doc["diagnostics"]["upper_certified"]
    assert 0 < Fraction(cert["num"], cert["den"]) - Fraction(doc["upper"]) <= 2e-9
    fold = doc["diagnostics"]["fold"]
    assert 1 <= fold["diverged"] < fold["solves"] <= 8
    assert fold["newton_steps"] >= fold["solves"]
    # a second run agrees exactly
    again = json.loads(runner.invoke(main, args).output)
    assert again["lower"] == doc["lower"] and again["upper"] == doc["upper"]


@pytest.mark.parametrize("triple,K", [((2, 3, 7), 35), ((2, 3, 8), 37)])
def test_cli_cone_types_escalates(triple, K):
    runner = CliRunner()
    args = ["cone-types", *map(str, triple), "--format", "json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert json.loads(result.output)["K_total"] == K
    # a pinned radius is tried alone
    result = runner.invoke(main, ["--radius", str(max(triple)), *args])
    assert isinstance(result.exception, NotStabilized)


def test_cli_from_automaton(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(TREE_DOC)
    runner = CliRunner()
    result = runner.invoke(main, ["from-automaton", str(path)])
    assert result.exit_code == 0
    assert "lower 0.9428090416 upper 0.9428090416" in result.output


def test_cli_rejects_nonhyperbolic():
    runner = CliRunner()
    result = runner.invoke(main, ["bounds", "2", "3", "6"])
    assert result.exit_code != 0
