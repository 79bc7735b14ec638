"""One pass of a workload in a fresh interpreter; prints one JSON line.

Started by run.py with PYTHONPATH=src and the BLAS thread counts pinned to
1.  Each item goes through a public entry point of the program, as a user
would call it, and its outputs are checked against golden.json and the
closed-form cone-type counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from functools import partial

import numpy as np
import sympy
from click.testing import CliRunner

import conetypes.cli as cli
import conetypes.pipeline as pipeline
import conetypes.ring as ring
from conetypes.coxeter import new_params

import items
import probe
import tracing

GOLDEN_PATH = items.HERE / "golden.json"
TOL = 1e-10


def traces(M) -> list[int]:
    """tr(M^k) for k = 1..K: invariant under relabelling the cone types."""
    M = np.asarray(M, dtype=np.int64)
    P = np.eye(M.shape[0], dtype=np.int64)
    out = []
    for _ in range(M.shape[0]):
        P = P @ M
        out.append(int(np.trace(P)))
    return out


def run_table(triple, tracer=None) -> dict:
    r = pipeline.run_group(new_params(*triple), pipeline.RunConfig())
    return {"ok": r.ok, "lower": r.lower, "upper": r.upper, "envelope": r.envelope,
            "K_total": r.K_total, "T_size": r.T_size, "case": r.case,
            "theorem_match": r.theorem_match}


def run_automata(text, tracer=None) -> dict:
    r = pipeline.run_from_automaton(text)
    return {"ok": r.ok, "lower": r.lower, "upper": r.upper, "K_total": r.K_total,
            "T_size": r.T_size, "theorem_match": r.theorem_match}


def run_sweep(triple, tracer=None) -> dict:
    args = ["cone-types", *map(str, triple), "--format", "json"]
    with tracer.span("cli") if tracer else nullcontext():
        res = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    doc = json.loads(res.stdout)
    return {"exit_code": res.exit_code, "K_total": doc["K_total"],
            "T_size": len(doc["reduced"]["types"]), "traces": traces(doc["M"])}


def _close(name, got, want, problems):
    if got is None or abs(got - want) > TOL:
        problems.append(f"{name} {got!r} != golden {want!r}")


def _exact(name, got, want, problems):
    if got != want:
        problems.append(f"{name} {got!r} != golden {want!r}")


def _verdict(out) -> list[str]:
    if out["ok"]:
        return []
    return [f"report.ok is False (K_total {out['K_total']}, "
            f"theorem_match {out['theorem_match']})"]


def check_table(out, gold) -> list[str]:
    problems = _verdict(out)
    for f in ("lower", "upper", "envelope"):
        _close(f, out[f], gold[f], problems)
    for f in ("K_total", "T_size", "case", "theorem_match"):
        _exact(f, out[f], gold[f], problems)
    return problems


def check_automata(out, gold) -> list[str]:
    problems = _verdict(out)
    for f in ("lower", "upper"):
        _close(f, out[f], gold[f], problems)
    _exact("T_size", out["T_size"], gold["T_size"], problems)
    if out["lower"] is not None and out["upper"] is not None \
            and out["lower"] > out["upper"]:
        problems.append("lower > upper")
    return problems


def check_sweep(out, gold) -> list[str]:
    problems = [] if out["exit_code"] == 0 else [f"exit status {out['exit_code']}"]
    if out["K_total"] != gold["expected_K"]:
        problems.append(f"K_total {out['K_total']} != closed form {gold['expected_K']}")
    # T_size and traces are golden only where the seed matched the closed form
    if "T_size" in gold:
        _exact("T_size", out["T_size"], gold["T_size"], problems)
        if out["traces"] != gold["traces"]:
            problems.append("tr(M^k) differs from golden")
    return problems


RUN = {"table": run_table, "automata": run_automata, "sweep": run_sweep}
CHECK = {"table": check_table, "automata": check_automata, "sweep": check_sweep}


def load_inputs(workload: str, seed: int) -> list[tuple[str, object]]:
    """(golden key, argument of the run function) per item, in run order."""
    out = []
    for t in items.ordered_items(workload, seed):
        arg = items.doc_path(t).read_text() if workload == "automata" else t
        out.append((items.key(t), arg))
    return out


def warm_ring(triples) -> None:
    """Fill the minimal-polynomial cache that the balls of these triples use,
    so that an item's time does not depend on which item needs a given
    polynomial first."""
    for k in sorted({x for t in triples for x in t if x >= 4}):
        ring.minpoly_2cos(k)


def run_pass(inputs, run_one, check_one, golden: dict, tracer=None,
             prepare=None) -> dict:
    """Run and check every item once, after `prepare` if given; both count
    in the wall time.  An item fails when it raises, when the program's own
    verdict fails, or when it misses a golden check."""
    item_t0, item_s, failures = [], [], {}
    t0 = time.perf_counter()
    if prepare is not None:
        prepare()
    for key, arg in inputs:
        t = time.perf_counter()
        item_t0.append(t)
        try:
            out = run_one(arg, tracer)
        except Exception as exc:  # an item that raises is a failed item
            item_s.append(time.perf_counter() - t)
            failures[key] = [f"raised {type(exc).__name__}: {exc}"]
            continue
        item_s.append(time.perf_counter() - t)
        problems = check_one(out, golden[key])
        if problems:
            failures[key] = problems
    wall = time.perf_counter() - t0
    # a failure the seed did not have means the outputs are wrong; the seed's
    # own failures are counted in `failed` and named, but are known defects
    regressions = sorted(k for k in failures if not golden[k]["seed_problems"])
    return {"wall_s": wall, "item_t0": item_t0, "item_s": item_s,
            "attempted": len(inputs), "failures": failures, "regressions": regressions}


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__, "sympy": sympy.__version__, "seed": seed,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=items.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    golden = json.loads(GOLDEN_PATH.read_text())[a.workload]
    inputs = load_inputs(a.workload, a.seed)
    # traced passes give raw self times; untraced ones sample the host speed
    tracer, sampler = None, probe.Sampler()
    if a.trace:
        tracer, sampler = tracing.Tracer(), nullcontext()
        tracer.install()
    prepare = None
    if a.workload != "automata":  # the automata workload builds no ball
        prepare = partial(warm_ring, [arg for _, arg in inputs])
    try:
        with sampler:
            result = run_pass(inputs, RUN[a.workload], CHECK[a.workload], golden,
                              tracer, prepare)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is None:
        result["slowdown"] = sampler.slowdown()
        result["item_slowdown"] = [sampler.slowdown(t, t + s)
                                   for t, s in zip(result["item_t0"], result["item_s"])]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment(a.seed)
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_s"] = len(tracer.spans) * tracing.span_cost()
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
