"""conetypes benchmark: one workload, timed end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload table|automata|sweep --seed N \
        --seconds S --trace 0|1

The set-up time `setup_s` is the median over SETUP_SAMPLES fresh
interpreters of the time from starting one to `import conetypes` finished.
Then the workload runs in passes, each in a fresh interpreter (worker.py),
so the program's caches and the sympy import are paid on every pass as a
command-line user pays them.  Passes repeat until S seconds have gone, at
least one; the metrics are medians over passes.  With --trace 0 the passes
run untraced and give the end-to-end metrics; with --trace 1 they run with
layer wrappers installed (tracing.py) and give the per-layer metrics.

End-to-end times are scaled to an uncontended core: each is divided by the
host slowdown that probe.py measured while it ran.  The raw times and the
slowdowns are printed above the result line.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `failed` counts every failed item,
including the failures the program already had when golden.json was
recorded; those are named in the lines above it.  `correct` is false when
any other item fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from items import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run that takes longer is stopped and fails

END_TO_END = {"wall_s": "s", "item_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

LAYER_UNITS = {"_s": "s", "_mb": "MiB", "_yield": "ratio"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a fresh interpreter in ROOT; kill it if it passes the deadline."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=True,
                          timeout=max(deadline - time.monotonic(), 1.0))


def measure_setup(deadline: float) -> tuple[float, float]:
    """Median set-up time, raw and scaled by the host slowdown right after."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        out = run_child(["-c", "import time, conetypes; t = time.monotonic(); "
                               "import probe; print(t, probe.spot())"], deadline)
        t, slowdown = map(float, out.stdout.split())
        raw.append(t - t0)
        scaled.append((t - t0) / slowdown)
    return statistics.median(raw), statistics.median(scaled)


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args(argv)

    if not (ROOT / "src" / "conetypes" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'conetypes'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup_raw, setup_s = measure_setup(deadline)
        passes = []
        measure_start = time.monotonic()
        while not passes or time.monotonic() - measure_start < a.seconds:
            out = run_child([str(HERE / "worker.py"), "--workload", a.workload,
                             "--seed", str(a.seed), "--trace", str(a.trace)], deadline)
            passes.append(json.loads(out.stdout.splitlines()[-1]))
    except subprocess.CalledProcessError as exc:
        print(f"error: a benchmark process exited with status {exc.returncode}\n"
              f"{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"error: the run did not finish within {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1

    first = passes[0]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    regressions = {k for p in passes for k in p["regressions"]}
    print(f"perfbench workload={a.workload} seed={a.seed} trace={a.trace} "
          f"passes={len(passes)}")
    print("env " + json.dumps(first["env"], sort_keys=True))
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for key, problems in sorted({k: v for p in passes
                                 for k, v in p["failures"].items()}.items()):
        tag = "REGRESSION" if key in regressions else "known defect"
        print(f"  failed ({key.replace('-', ',')}) [{tag}]: {'; '.join(problems)}")

    if a.trace:
        metrics = {name: statistics.median(p["layers"][name] for p in passes)
                   for name in first["layers"]}
        units = {name: unit_of(name) for name in metrics}
    else:
        print(f"raw wall_s {statistics.median(p['wall_s'] for p in passes):.6g} s, "
              f"setup_s {setup_raw:.6g} s; host slowdown "
              + " ".join(f"{p['slowdown']:.3f}" for p in passes))
        metrics = {
            "wall_s": statistics.median(p["wall_s"] / p["slowdown"] for p in passes),
            "item_s.p50": statistics.median(
                s / sd for p in passes for s, sd in zip(p["item_s"], p["item_slowdown"])),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not regressions,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
