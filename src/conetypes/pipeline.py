"""Per-group orchestration: automaton, bounds, and one ball for the check and
the envelope.  Each stage fails soft: an error is recorded in the report
diagnostics and the dependent stages are skipped, so one bad group cannot
abort a table run.  Stage timings and residuals are kept for budget checks.
A cta-1 document is reported by the same bound stages as an extracted
automaton.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .automaton import (
    ConeTypeAutomaton,
    ReducedAutomaton,
    automaton_from_json,
    check_on_ball,
    extract_automaton,
    reduce_automaton,
    theorem_case,
)
from .coxeter import GroupParams, build_ball, new_params
from .errors import ConeTypesError
from .lower import lower_bound
from .oracle import empirical_envelope
from .upper import upper_bound

BOUND_SCHEMA = "bnd-1"
CSV_HEADER = "group,K_total,T_size,case,lower,upper,curvature_num,curvature_den,envelope"

# the ten hyperbolic triangle groups of the reference table
TABLE_PARAMS = [
    (2, 3, 7), (2, 4, 5), (2, 5, 5), (2, 6, 6), (3, 3, 4),
    (3, 4, 4), (3, 4, 5), (3, 5, 7), (4, 4, 4), (7, 7, 7),
]

# default radius of the check and envelope ball; its envelope reads walks
# of up to twice it
BALL_RADIUS = 10


@dataclass
class RunConfig:
    # radius of the ball a command builds; None gives the command's default
    radius: int | None = None


@dataclass
class BoundReport:
    params: GroupParams | None
    K_total: int | None = None
    T_size: int | None = None
    case: str = ""
    theorem_match: bool | None = None
    lower: float | None = None
    upper: float | None = None
    curvature: Fraction | None = None
    envelope: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No stage failed, the count matches where expected, and lower is
        at most the proven upper bound: float against Fraction, exactly."""
        return (
            not self.diagnostics.get("errors")
            and self.theorem_match is not False
            and self.lower is not None
            and self.upper is not None
            and self.lower <= self.diagnostics["upper_certified"]
        )


def curvature(params: GroupParams) -> Fraction:
    """kappa = q*pi with q = (1/l + 1/m + 1/n) - 1 < 0, exact."""
    return params.angle_sum() - 1


def table_params() -> list[GroupParams]:
    """The ten reference groups in decreasing order of curvature."""
    groups = [new_params(*t) for t in TABLE_PARAMS]
    return sorted(groups, key=lambda p: (-curvature(p), p.triple()))


def run_group(params: GroupParams, config: RunConfig | None = None) -> BoundReport:
    """Full pipeline for one group; stages fail soft into diagnostics.

    The ball has radius config.radius, BALL_RADIUS by default; the
    automaton is checked against it (check_on_ball) and the envelope is
    taken over its whole exact range (empirical_envelope).
    """
    config = config or RunConfig()
    diag: dict = {"timings": {}, "residuals": {}, "errors": {}}
    a = _stage(diag, "extract", extract_automaton, params, diag)
    ra = None if a is None else _stage(diag, "reduce", reduce_automaton, a)
    report = _report(params, a, ra, diag)
    if ra is None:
        return report
    radius = BALL_RADIUS if config.radius is None else config.radius
    ball = _stage(diag, "ball", build_ball, params, radius)
    if ball is not None:
        diag["oracle_radius"] = ball.radius
        _stage(diag, "guard", check_on_ball, a, ball)
        report.envelope = _stage(diag, "oracle", empirical_envelope, ball)
    return report


def _stage(diag: dict, name: str, fn, *args):
    """fn(*args), timed into diag; a ConeTypesError is recorded, giving None."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except ConeTypesError as exc:
        diag["errors"][name] = str(exc)
        return None
    finally:
        diag["timings"][name] = time.perf_counter() - t0


def _report(params: GroupParams | None, a: ConeTypeAutomaton | None,
            ra: ReducedAutomaton | None, diag: dict) -> BoundReport:
    """The report on automaton a of params and its reduction ra, either None
    where its stage failed: what each of them gives, both bounds as stages
    of their own, and the fold search's work as diagnostics["fold"]."""
    report = BoundReport(params=params, diagnostics=diag)
    if params is not None:
        report.case, diag["theorem_expected"] = theorem_case(*params.triple())
        report.curvature = curvature(params)
    if a is None:
        return report
    report.K_total = a.K_total
    if params is not None:
        report.theorem_match = a.K_total == diag["theorem_expected"]
    if ra is None:
        return report
    report.T_size = len(ra.types)
    diag["primitivity_power"] = ra.p
    ub = _stage(diag, "upper", upper_bound, ra)
    if ub is not None:
        fold = ub.fold
        report.upper = ub.rho_T
        diag["R_F"] = fold.R_F
        diag["F_at_RF"] = ub.F_at_RF
        diag["root_type"] = ub.root_type
        diag["residuals"]["fold"] = fold.residual
        diag["fold"] = {"newton_steps": fold.newton_steps, "bordered_steps": fold.bordered_steps}
        diag["upper_certified"] = ub.certified_upper
    lb = _stage(diag, "lower", lower_bound, ra)
    if lb is not None:
        report.lower = lb.bound
        diag["nu"] = lb.nu
        diag["lambda"] = lb.lam
        diag["residuals"]["nu"] = lb.residual_nu
        diag["residuals"]["lam"] = lb.residual_lam
    return report


def run_table(config: RunConfig | None = None) -> list[BoundReport]:
    """All ten reference groups, ordered by decreasing curvature."""
    return [run_group(p, config) for p in table_params()]


def run_from_automaton(text: str) -> BoundReport:
    """Bounds from the text of an externally supplied cta-1 automaton
    document, by run_group's bound stages; SchemaError if it is refused."""
    a, ra = automaton_from_json(text)
    return _report(a.params, a, ra, {"timings": {}, "residuals": {}, "errors": {}})


def report_to_json(report: BoundReport) -> str:
    """Versioned bnd-1 document, keys sorted; a Fraction is written as
    {num, den}.  Deterministic apart from generated_at."""
    doc = {
        "schema": BOUND_SCHEMA,
        "group": list(report.params.triple()) if report.params else None,
        "K_total": report.K_total,
        "T_size": report.T_size,
        "case": report.case,
        "theorem_match": report.theorem_match,
        "lower": report.lower,
        "upper": report.upper,
        "curvature": report.curvature,
        "envelope": report.envelope,
        "diagnostics": report.diagnostics,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    return json.dumps(doc, sort_keys=True, default=_fraction)


def _fraction(obj) -> dict:
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def report_to_csv_row(report: BoundReport) -> str:
    cur = report.curvature
    fields = [
        "({} {} {})".format(*report.params.triple()) if report.params else "",
        str(report.K_total if report.K_total is not None else ""),
        str(report.T_size if report.T_size is not None else ""),
        report.case,
        f"{report.lower:.10f}" if report.lower is not None else "",
        f"{report.upper:.10f}" if report.upper is not None else "",
        str(cur.numerator) if cur is not None else "",
        str(cur.denominator) if cur is not None else "",
        f"{report.envelope:.10f}" if report.envelope is not None else "",
    ]
    return ",".join(fields)


def table_to_csv(reports: list[BoundReport]) -> str:
    return "\n".join([CSV_HEADER] + [report_to_csv_row(r) for r in reports]) + "\n"


def table_to_markdown(reports: list[BoundReport]) -> str:
    """Markdown table mirroring the reference layout."""
    lines = [
        "| group | K | #T | case | lower | upper | curvature |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in reports:
        name = r.params.name() if r.params else "?"
        # a hyperbolic curvature lies strictly between -1 and 0: never whole
        q = r.curvature
        cur = f"{q.numerator}pi/{q.denominator}" if q is not None else ""
        lo = f"{r.lower:.10f}" if r.lower is not None else "-"
        hi = f"{r.upper:.10f}" if r.upper is not None else "-"
        lines.append(
            f"| {name} | {r.K_total} | {r.T_size} | {r.case} | {lo} | {hi} | {cur} |"
        )
    return "\n".join(lines) + "\n"
