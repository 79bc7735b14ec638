"""End-to-end per-group pipeline, exports, and the command-line interface."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conetypes import (
    ConeTypeAutomaton,
    Diverged,
    NotConverged,
    RunConfig,
    SchemaError,
    VerificationFailed,
    automaton_to_json,
    build_ball,
    check_on_ball,
    curvature,
    extract_automaton,
    new_params,
    report_to_csv_row,
    report_to_json,
    run_from_automaton,
    run_group,
    run_table,
    table_params,
    table_to_csv,
    table_to_markdown,
    upper_bound,
)
from conetypes import cli, pipeline
from conetypes.cli import main
from conetypes.pipeline import CSV_HEADER
from conftest import LOWER_BOUNDS, TABLE, UPPER_BOUNDS, counted_solves
from reference import extract_escalating, extract_from_ball

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

# the 4-regular tree: rho = 2 sqrt(3) / 4
TREE4_DOC = json.dumps({
    "schema": "cta-1",
    "params": None,
    "K_total": 2,
    "root_type": 0,
    "M": [[0, 4], [0, 3]],
    "d": [4, 4],
    "r": [0, 1],
    "reduced": {"types": [1], "M": [[3]], "p": 1},
})


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
    with counted_solves() as solves:
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
    # 9 elementary roots in two layers (the simple roots, then six that add
    # none); 22 states, already minimal (4 Moore rounds, the last splitting
    # no class), in 6 orbits under the six generator permutations, all
    # admissible for (4,4,4)
    assert diag["roots"] == 9
    assert diag["closure_rounds"] == 2
    assert diag["states"] == {"before": 22, "after": 22}
    assert diag["moore_rounds"] == 4
    assert diag["oracle_radius"] == 10
    for key in ("radius", "k_star", "escalations", "sphere_sizes", "label_rounds",
                "verifier"):
        assert key not in diag
    assert 0 < diag["upper_certified"] - Fraction(report.upper) <= 2e-9
    # the tree walk is rooted at the lowest r = 2 type of the reduced set
    assert diag["root_type"] == 4
    # the fold search: its one solve is the confirm just above the fold,
    # Diverged
    fold = diag["fold"]
    assert set(fold) == {"newton_steps", "bordered_steps"}
    [(_, confirm)] = solves
    assert isinstance(confirm, Diverged)
    assert fold["newton_steps"] == confirm.iterations >= 1
    assert 1 <= fold["bordered_steps"] <= 5
    assert diag["residuals"]["lam"] < 1e-12
    assert not diag["errors"]
    for stage in ("extract", "upper", "lower", "ball", "guard", "oracle"):
        assert diag["timings"][stage] >= 0.0


@pytest.mark.parametrize("triple", TABLE)
def test_grown_ball_extraction_equals_fresh_ball(triple):
    # the ball reference: its ladder grows one ball, against a fresh build
    params = new_params(*triple)
    grown = extract_escalating(params)
    fresh = extract_from_ball(build_ball(params, grown.radius))
    assert (grown.K_total, grown.k_star, grown.radius) == \
        (fresh.K_total, fresh.k_star, fresh.radius)
    assert np.array_equal(grown.M, fresh.M)
    assert np.array_equal(grown.type_of, fresh.type_of)


def test_run_group_radius_too_small_fails_soft():
    # the radius sizes the check and envelope ball only: with none to build
    # the bounds still come out, and the report fails
    report = run_group(new_params(4, 4, 4), RunConfig(radius=0))
    assert not report.ok
    assert list(report.diagnostics["errors"]) == ["ball"]
    assert report.lower is not None and report.upper is not None
    assert report.envelope is None
    small = run_group(new_params(4, 4, 4), RunConfig(radius=5))
    assert small.ok and small.diagnostics["oracle_radius"] == 5
    assert small.envelope < report.upper


@pytest.mark.parametrize("stage,fn", [("extract", "extract_automaton"),
                                      ("reduce", "reduce_automaton")])
def test_run_group_fails_soft_without_an_automaton(stage, fn, monkeypatch):
    # a failed extraction or reduction ends the report there: what the
    # stages before it gave is kept, and there is no bound, ball or
    # envelope; the report is not ok and still writes a bnd-1 document
    def fail(*args):
        raise VerificationFailed(f"{stage} failed on purpose")

    monkeypatch.setattr(pipeline, fn, fail)
    report = run_group(new_params(4, 4, 4))
    diag = report.diagnostics
    assert diag["errors"] == {stage: f"{stage} failed on purpose"}
    assert not report.ok
    assert (report.case, diag["theorem_expected"]) == ("(i)", 6)
    extracted = stage == "reduce"
    assert report.K_total == (6 if extracted else None)
    assert report.theorem_match is (True if extracted else None)
    assert (report.T_size, report.lower, report.upper, report.envelope) == (None,) * 4
    assert list(diag["timings"]) == ["extract", "reduce"][:1 + extracted]
    for key in ("primitivity_power", "R_F", "fold", "nu", "oracle_radius"):
        assert key not in diag, key
    assert json.loads(report_to_json(report))["K_total"] == report.K_total


def _tree_automaton(params):
    """The 3-regular tree's automaton, which stabilization alone once gave
    for (7,7,7) on small balls: state 0 is the identity, state 1 + s the
    words ending in s."""
    M = np.array([[0, 3], [0, 2]])
    return ConeTypeAutomaton(
        params=params, K_total=2, M=M, degree=3, root_type=0,
        transitions=np.array([[1, 2, 3], [-1, 2, 3], [1, -1, 3], [1, 2, -1]]),
        state_type=np.array([0, 1, 1, 1]),
    )


def test_guard_rejects_the_tree_automaton(monkeypatch):
    params = new_params(7, 7, 7)
    ball = build_ball(params, 10)
    with pytest.raises(VerificationFailed, match="sphere 7"):
        check_on_ball(_tree_automaton(params), ball)
    monkeypatch.setattr(pipeline, "extract_automaton",
                        lambda p, diag=None: _tree_automaton(p))
    report = run_group(params)
    assert report.K_total == 2
    assert "guard" in report.diagnostics["errors"]
    assert not report.ok


def test_guard_checks_successor_types():
    # swapping two types in the state map keeps M and the sphere sizes but
    # gives some vertices successor types off their row
    params = new_params(4, 4, 4)
    a = extract_automaton(params)
    ball = build_ball(params, 10)
    check_on_ball(a, ball)
    swap = np.array([0, 1, 3, 2, 4, 5])
    a.state_type = swap[a.state_type]
    with pytest.raises(VerificationFailed, match="successor types"):
        check_on_ball(a, ball)


def test_guard_compares_the_ordered_triples():
    # both balls are the tree's out to radius 10, so only the triples differ
    with pytest.raises(VerificationFailed, match=r"Delta\(12,12,12\) automaton on a Delta\(13"):
        check_on_ball(extract_automaton(new_params(12, 12, 12)),
                      build_ball(new_params(13, 13, 13), 10))
    with pytest.raises(VerificationFailed, match=r"Delta\(4,5,6\) automaton on a Delta\(6,5,4"):
        check_on_ball(extract_automaton(new_params(4, 5, 6)), build_ball(new_params(6, 5, 4), 6))


def test_table_csv_digest_is_pinned():
    # sha256 of `conetypes table --format csv`, recorded before the envelope
    # was computed from half-length walks
    digest = hashlib.sha256(table_to_csv(run_table()).encode()).hexdigest()
    assert digest == "ece246b39920b4a90ae8bb9d8b248fe506b8d3c291ed7ec319960fdea90795d9"


def test_table_markdown_digest_is_pinned():
    # sha256 of `conetypes table --format markdown`, recorded before the
    # curvature column lost its branch for a whole multiple of pi
    digest = hashlib.sha256(table_to_markdown(run_table()).encode()).hexdigest()
    assert digest == "172f2c17f5cb6df83e8b77ef0ecf07a767447eccf9e7eabeb29e9ad6716b5866"


@pytest.mark.parametrize("triple", TABLE)
def test_guard_accepts_the_table_groups(triple):
    params = new_params(*triple)
    check_on_ball(extract_automaton(params), build_ball(params, 10))


def test_run_from_automaton_tree_text():
    report = run_from_automaton(TREE_DOC)
    assert report.params is None
    assert report.lower == pytest.approx(TREE_RHO, abs=1e-10)
    assert report.upper == pytest.approx(TREE_RHO, abs=1e-10)
    assert report.theorem_match is None


def test_run_from_automaton_reads_the_degree():
    report = run_from_automaton(TREE4_DOC)
    assert report.ok
    assert report.lower == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-10)
    assert report.upper == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-10)
    irregular = json.loads(TREE4_DOC)
    irregular["d"] = [3, 4]
    with pytest.raises(SchemaError):
        run_from_automaton(json.dumps(irregular))


def test_run_from_automaton_tree_file(tmp_path):
    # the command reads the file; the library takes document text only
    path = tmp_path / "tree.json"
    path.write_text(TREE_DOC)
    result = CliRunner().invoke(main, ["from-automaton", str(path), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["upper"] == pytest.approx(TREE_RHO, abs=1e-10)


def test_from_automaton_file_named_like_json(tmp_path, monkeypatch):
    # a relative name starting with "{" is a file name, not document text
    (tmp_path / "{g}.json").write_text(TREE_DOC)
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["from-automaton", "{g}.json", "--format", "csv"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0] == CSV_HEADER


def test_run_from_automaton_round_trip(data444):
    doc = automaton_to_json(data444["automaton"], data444["reduced"])
    with counted_solves() as solves:
        report = run_from_automaton(doc)
    direct = run_group(new_params(4, 4, 4))
    assert report.theorem_match is True
    assert report.lower == pytest.approx(direct.lower, abs=1e-12)
    assert report.upper == pytest.approx(direct.upper, abs=1e-12)
    assert report.diagnostics["fold"] == direct.diagnostics["fold"]
    assert len(solves) == 1
    assert report.diagnostics["upper_certified"] == direct.diagnostics["upper_certified"]


def test_bounds_and_from_automaton_fail_a_stage_alike(data444, tmp_path, monkeypatch):
    # a failing bound stage is recorded the same way on both paths: the
    # other bound is kept, the error is reported and the exit status is 1
    def fail(ra):
        raise NotConverged("lower stage failed on purpose")

    monkeypatch.setattr(pipeline, "lower_bound", fail)
    path = tmp_path / "cta-4-4-4.json"
    path.write_text(automaton_to_json(data444["automaton"], data444["reduced"]))
    runs = {"bounds": ["bounds", "4", "4", "4"], "from-automaton": ["from-automaton", str(path)]}
    uppers, docs = {}, {}
    for name, args in runs.items():
        text = CliRunner().invoke(main, args, catch_exceptions=False)
        assert text.exit_code == 1, name
        assert "error[lower] lower stage failed on purpose" in text.output, name
        uppers[name] = re.search(r"^lower - upper (\S+) ", text.stdout, re.M).group(1)
        res = CliRunner().invoke(main, args + ["--format", "json"], catch_exceptions=False)
        assert res.exit_code == 1, name
        docs[name] = json.loads(res.stdout)
        assert docs[name]["diagnostics"]["errors"] == {"lower": "lower stage failed on purpose"}
    assert uppers["bounds"] == uppers["from-automaton"] == f"{docs['bounds']['upper']:.10f}"
    assert docs["bounds"]["upper"] == docs["from-automaton"]["upper"]
    diag = docs["from-automaton"]["diagnostics"]
    assert set(diag["timings"]) == {"upper", "lower"}
    assert diag["theorem_expected"] == 6
    assert diag["primitivity_power"] == data444["reduced"].p


def test_ok_rests_on_the_certified_upper_bound(data444, monkeypatch):
    # a lower bound above the proven upper bound fails, however close to the
    # float upper: halfway between upper_certified and upper + 1e-12 exits 1,
    # and the largest float not above upper_certified exits 0
    ub = upper_bound(data444["reduced"])
    cert, rho_T = ub.certified_upper, ub.rho_T
    at_cert = float(cert)
    if Fraction(at_cert) > cert:
        at_cert = math.nextafter(at_cert, 0.0)
    above = (float(cert) + rho_T + 1e-12) / 2.0
    assert Fraction(above) > cert and above <= rho_T + 1e-12
    lower = pipeline.lower_bound
    for bound, code in [(above, 1), (at_cert, 0)]:
        monkeypatch.setattr(pipeline, "lower_bound",
                            lambda ra, bound=bound: replace(lower(ra), bound=bound))
        result = CliRunner().invoke(main, ["bounds", "4", "4", "4", "--format", "json"])
        assert result.exit_code == code, bound
        assert json.loads(result.output)["lower"] == bound
    # on (60,60,60) the float lower lies 2 ulps above the float upper, but
    # below the proven bound
    monkeypatch.setattr(pipeline, "lower_bound", lower)
    result = CliRunner().invoke(main, ["bounds", "60", "60", "60", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    cert = doc["diagnostics"]["upper_certified"]
    assert doc["upper"] < doc["lower"] <= Fraction(cert["num"], cert["den"])


def test_run_from_automaton_rejects_inconsistent_block(data444):
    doc = json.loads(automaton_to_json(data444["automaton"], data444["reduced"]))
    doc["reduced"]["M"][0][0] += 1
    with pytest.raises(SchemaError):
        run_from_automaton(json.dumps(doc))
    with pytest.raises(SchemaError):
        run_from_automaton("/no/such/file.json")  # not document text
    result = CliRunner().invoke(main, ["from-automaton", "/no/such/file.json"])
    assert result.exit_code == 2


def test_report_json_shape():
    report = run_group(new_params(4, 4, 4))
    doc, again = json.loads(report_to_json(report)), json.loads(report_to_json(report))
    assert "generated_at" in doc
    doc.pop("generated_at")
    again.pop("generated_at")
    assert doc == again  # deterministic apart from generated_at
    assert doc["schema"] == "bnd-1"
    assert doc["group"] == [4, 4, 4]
    assert doc["curvature"] == {"num": -1, "den": 4}
    assert doc["diagnostics"]["closure_rounds"] == 2
    assert doc["diagnostics"]["moore_rounds"] == 4
    # a value json cannot write, and that is no Fraction, is refused
    report.diagnostics["count"] = np.int64(1)
    with pytest.raises(TypeError):
        report_to_json(report)


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
    assert "K_total 6 expected 6 match True roots 9 states 22 -> 22" in result.output
    result = runner.invoke(main, ["cone-types", "4", "4", "4", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["schema"] == "cta-1"
    result = runner.invoke(main, ["cone-types", "4", "4", "4", "--format", "dot"])
    assert result.exit_code == 0
    assert result.output.startswith("digraph")


def test_cli_bounds():
    runner = CliRunner()
    args = ["bounds", "4", "4", "4", "--format", "json"]
    with counted_solves() as solves:
        result = runner.invoke(main, args)
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["theorem_match"] is True
    cert = doc["diagnostics"]["upper_certified"]
    assert 0 < Fraction(cert["num"], cert["den"]) - Fraction(doc["upper"]) <= 2e-9
    fold = doc["diagnostics"]["fold"]
    [(_, confirm)] = solves
    assert isinstance(confirm, Diverged)
    assert fold["newton_steps"] == confirm.iterations >= 1
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
    # no ball and no radius: the ball reference needs radius 20 and 22 here
    result2 = runner.invoke(main, ["--radius", str(max(triple)), *args])
    assert result2.exit_code == 0 and result2.output == result.output


def test_cli_from_automaton(tmp_path):
    runner = CliRunner()
    path = tmp_path / "tree.json"
    path.write_text(TREE_DOC)
    result = runner.invoke(main, ["from-automaton", str(path)])
    assert result.exit_code == 0
    assert "lower 0.9428090416 upper 0.9428090416" in result.output
    path.write_text(TREE4_DOC)
    result = runner.invoke(main, ["from-automaton", str(path)])
    assert result.exit_code == 0
    assert "lower 0.8660254038 upper 0.8660254038" in result.output
    result = runner.invoke(main, ["from-automaton", "--degree", "4", str(path)])
    assert result.exit_code == 2  # no such option


def test_cli_from_automaton_exits_on_report_ok(tmp_path, data444):
    # exit 1 exactly when the report fails, as for `bounds`
    runner = CliRunner()
    doc = json.loads(automaton_to_json(data444["automaton"], data444["reduced"]))
    path = tmp_path / "444.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["from-automaton", str(path)])
    assert result.exit_code == 0
    assert "theorem_match True" in result.output
    # the same automaton claimed for (4,4,5), whose closed form is 14 types
    doc["params"] = [4, 4, 5]
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["from-automaton", str(path)])
    assert result.exit_code == 1
    assert "theorem_match False" in result.output


def test_cli_cone_types_exits_1_on_a_count_mismatch(monkeypatch):
    # an automaton whose count differs from the closed form is still
    # written, and the exit status is 1
    monkeypatch.setattr(cli, "theorem_case", lambda l, m, n: ("(i)", 7))
    text = CliRunner().invoke(main, ["cone-types", "4", "4", "4"])
    assert text.exit_code == 1
    assert "K_total 6 expected 7 match False" in text.output
    doc = CliRunner().invoke(main, ["cone-types", "4", "4", "4", "--format", "json"])
    assert doc.exit_code == 1
    assert json.loads(doc.output)["K_total"] == 6


def test_console_shim_exits_2_on_a_library_error(monkeypatch, capsys):
    # run() turns a ConeTypesError into "error: ..." on stderr and exit 2,
    # in process and as python -m conetypes.cli
    monkeypatch.setattr(sys, "argv", ["conetypes", "bounds", "2", "3", "6"])
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "error: 1/l+1/m+1/n = 1 >= 1 for (2, 3, 6)\n"
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "conetypes.cli", "bounds", "2", "3", "6"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: 1/l+1/m+1/n")


@pytest.mark.parametrize("command", ["ball", "cone-types", "bounds", "curvature"])
def test_cli_takes_exactly_three_exponents(command):
    runner = CliRunner()
    for exponents in (["4", "4"], ["4", "4", "4", "4"]):
        result = runner.invoke(main, [command, *exponents])
        assert result.exit_code == 2, (exponents, result.output)
    usage = runner.invoke(main, [command, "--help"]).output.splitlines()[0]
    assert usage.endswith(" L M N"), usage


def test_cli_rejects_nonhyperbolic():
    runner = CliRunner()
    result = runner.invoke(main, ["bounds", "2", "3", "6"])
    assert result.exit_code != 0
