"""Per-group orchestration: ball, automaton, verification, bounds, envelope.

Two balls are built per group: the extraction ball at the least radius where
a sound, verified automaton is found, and the oracle ball of radius
ceil(oracle_n_max / 2).  Each stage fails soft: an error is recorded in the
report diagnostics and the dependent stages are skipped, so one bad group
cannot abort a table run.  Stage timings and residuals are kept for budget
checks.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .automaton import (
    ConeTypeAutomaton,
    automaton_from_json,
    extract_automaton,
    reduce_automaton,
    theorem_case,
    verify_counts,
)
from .coxeter import DEFAULT_MAX_VERTICES, GroupParams, build_ball, new_params
from .errors import ConeTypesError, NotStabilized, SchemaError, VerificationFailed
from .lower import LowerBoundResult, lower_bound
from .oracle import empirical_envelope, return_probabilities
from .upper import UpperBoundResult, upper_bound

BOUND_SCHEMA = "bnd-1"
CSV_HEADER = "group,K_total,T_size,case,lower,upper,curvature_num,curvature_den,envelope"

# the ten hyperbolic triangle groups of the reference table
TABLE_PARAMS = [
    (2, 3, 7), (2, 4, 5), (2, 5, 5), (2, 6, 6), (3, 3, 4),
    (3, 4, 4), (3, 4, 5), (3, 5, 7), (4, 4, 4), (7, 7, 7),
]

# sets the largest extraction radius tried (see extract_escalating)
MAX_ESCALATIONS = 5


@dataclass
class RunConfig:
    tol_fold: float = 1e-13
    tol_eigen: float = 1e-12
    radius: int | None = None
    root_type: int | None = None
    oracle_mode: str = "rational"
    oracle_n_max: int = 20
    max_vertices: int = DEFAULT_MAX_VERTICES

    def __post_init__(self):
        if min(self.tol_fold, self.tol_eigen) <= 0:
            raise ValueError("tolerances must be positive")


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
        return (
            not self.diagnostics.get("errors")
            and self.theorem_match is not False
            and self.lower is not None
            and self.upper is not None
            and self.lower <= self.upper + 1e-12
        )


def curvature(params: GroupParams) -> Fraction:
    """kappa = q*pi with q = (1/l + 1/m + 1/n) - 1 < 0, exact."""
    return params.angle_sum() - 1


def table_params() -> list[GroupParams]:
    """The ten reference groups in decreasing order of curvature."""
    groups = [new_params(*t) for t in TABLE_PARAMS]
    return sorted(groups, key=lambda p: (-curvature(p), p.triple()))


def extract_escalating(params: GroupParams, radius: int | None = None,
                       max_vertices: int = DEFAULT_MAX_VERTICES,
                       diag: dict | None = None) -> ConeTypeAutomaton:
    """Verified automaton from the least ball radius where extraction succeeds.

    Radii run from max(l,m,n) + 2 up to 2 max(l,m,n) + 6 + 2 MAX_ESCALATIONS
    (= 2 max + 16), a ceiling that bounds the work on a group that never
    stabilizes.  One ball is built at the first radius and grown by one
    sphere per further radius.  NotStabilized and VerificationFailed both
    mean "radius too small"; the last such error is raised when every radius
    fails.  A given `radius` is tried alone.  Ball and extraction times
    accumulate into diag["timings"], and diag["escalations"] counts the radii
    tried - 1.
    """
    diag = {} if diag is None else diag
    timings = diag.setdefault("timings", {})
    maxp = max(params.triple())
    if radius is None:
        first, last = maxp + 2, 2 * maxp + 6 + 2 * MAX_ESCALATIONS
    else:
        first = last = radius
    for R in range(first, last + 1):
        diag["escalations"] = R - first
        t0 = time.perf_counter()
        if R == first:
            ball = build_ball(params, R, max_vertices)
        else:
            ball.grow(max_vertices)
        t1 = time.perf_counter()
        timings["ball"] = timings.get("ball", 0.0) + (t1 - t0)
        try:
            return extract_automaton(ball)
        except (NotStabilized, VerificationFailed) as exc:
            error = exc
        finally:
            timings["extract"] = timings.get("extract", 0.0) + (time.perf_counter() - t1)
    raise error


def run_group(params: GroupParams, config: RunConfig | None = None) -> BoundReport:
    """Full pipeline for one group; stages fail soft into diagnostics."""
    config = config or RunConfig()
    diag: dict = {"timings": {}, "residuals": {}, "errors": {}}
    report = BoundReport(params=params, diagnostics=diag)
    report.case = theorem_case(*params.triple())[0]
    report.curvature = curvature(params)

    try:
        a = extract_escalating(params, config.radius, config.max_vertices, diag)
    except (NotStabilized, VerificationFailed) as exc:
        diag["errors"]["extract"] = str(exc)
        return report
    except ConeTypesError as exc:
        diag["errors"]["ball"] = str(exc)
        return report

    diag["radius"] = a.radius
    diag["k_star"] = a.k_star
    report.K_total = a.K_total
    vr = verify_counts(params, a)
    report.theorem_match = vr.matches
    diag["theorem_expected"] = vr.expected

    try:
        ra = reduce_automaton(a)
        report.T_size = len(ra.types)
        diag["primitivity_power"] = ra.p
    except ConeTypesError as exc:
        diag["errors"]["reduce"] = str(exc)
        return report

    ub = _stage(diag, "upper", upper_bound, ra, root_type=config.root_type,
                tol_fold=config.tol_fold)
    lb = _stage(diag, "lower", lower_bound, ra, d=3, residual_tol=config.tol_eigen)
    _record_bounds(report, ub, lb)
    report.envelope = _stage(diag, "oracle", _envelope, params, config, diag)
    return report


def _stage(diag: dict, name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), timed into diag; a ConeTypesError is recorded, giving None."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except ConeTypesError as exc:
        diag["errors"][name] = str(exc)
        return None
    finally:
        diag["timings"][name] = time.perf_counter() - t0


def _envelope(params: GroupParams, config: RunConfig, diag: dict) -> float:
    # a walk returning at step k stays within distance k/2
    ball = build_ball(params, (config.oracle_n_max + 1) // 2, config.max_vertices)
    diag["oracle_radius"] = ball.radius
    rs = return_probabilities(ball, config.oracle_n_max, mode=config.oracle_mode)
    return empirical_envelope(rs)


def _record_bounds(report: BoundReport, ub: UpperBoundResult | None,
                   lb: LowerBoundResult | None) -> None:
    """Copy the bound results that exist into the report and its diagnostics."""
    diag = report.diagnostics
    if ub is not None:
        report.upper = ub.rho_T
        diag["R_F"] = ub.R_F
        diag["F_at_RF"] = ub.F_at_RF
        diag["root_type"] = ub.root_type
        diag["residuals"]["fold"] = ub.fold_residual
        diag["fold"] = {"solves": ub.fold_solves, "newton_steps": ub.fold_newton_steps,
                        "diverged": ub.fold_diverged}
        diag["upper_certified"] = ub.certified_upper
    if lb is not None:
        report.lower = lb.bound
        diag["nu"] = lb.nu
        diag["lambda"] = lb.lam
        diag["residuals"]["nu"] = lb.residual_nu
        diag["residuals"]["lam"] = lb.residual_lam


def run_table(config: RunConfig | None = None) -> list[BoundReport]:
    """All ten reference groups, ordered by decreasing curvature."""
    return [run_group(p, config) for p in table_params()]


def run_from_automaton(source: str, d: int = 3,
                       config: RunConfig | None = None) -> BoundReport:
    """Bounds from an externally supplied cta-1 automaton document."""
    config = config or RunConfig()
    text = source
    p = Path(source)
    if "\n" not in source and not source.lstrip().startswith("{"):
        if not p.exists():
            raise SchemaError(f"no such automaton file: {source}")
        text = p.read_text()
    a, reduced = automaton_from_json(text)
    # recompute the reduction: re-checks primitivity and the document block
    ra = reduce_automaton(a)
    if ra.types != reduced.types or not np.array_equal(ra.M, reduced.M):
        raise SchemaError("reduced block disagrees with the full matrix")
    diag: dict = {"timings": {}, "residuals": {}, "errors": {}}
    report = BoundReport(params=a.params, K_total=a.K_total,
                         T_size=len(ra.types), diagnostics=diag)
    if a.params is not None:
        report.case = theorem_case(*a.params.triple())[0]
        report.curvature = curvature(a.params)
        vr = verify_counts(a.params, a)
        report.theorem_match = vr.matches
    _record_bounds(
        report,
        upper_bound(ra, root_type=config.root_type, tol_fold=config.tol_fold),
        lower_bound(ra, d=d, residual_tol=config.tol_eigen),
    )
    return report


def report_to_json(report: BoundReport, timestamp: bool = True) -> str:
    """Versioned bnd-1 document; deterministic apart from the timestamp."""
    doc = {
        "schema": BOUND_SCHEMA,
        "group": list(report.params.triple()) if report.params else None,
        "K_total": report.K_total,
        "T_size": report.T_size,
        "case": report.case,
        "theorem_match": report.theorem_match,
        "lower": report.lower,
        "upper": report.upper,
        "curvature": (
            {"num": report.curvature.numerator, "den": report.curvature.denominator}
            if report.curvature is not None else None
        ),
        "envelope": report.envelope,
        "diagnostics": _jsonable(report.diagnostics),
    }
    if timestamp:
        doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return json.dumps(doc, sort_keys=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    return obj


def report_to_csv_row(report: BoundReport) -> str:
    l, m, n = report.params.triple() if report.params else ("", "", "")
    cur = report.curvature
    fields = [
        f"({l} {m} {n})" if report.params else "",
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
        cur = ""
        if r.curvature is not None:
            q = r.curvature
            cur = f"{q.numerator}pi/{q.denominator}" if q.denominator != 1 \
                else f"{q.numerator}pi"
        lo = f"{r.lower:.10f}" if r.lower is not None else "-"
        hi = f"{r.upper:.10f}" if r.upper is not None else "-"
        lines.append(
            f"| {name} | {r.K_total} | {r.T_size} | {r.case} | {lo} | {hi} | {cur} |"
        )
    return "\n".join(lines) + "\n"
