"""Record golden.json: the outputs of every workload item at this commit.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_golden.py

Floats are stored at full precision.  Each entry also lists the problems
the item showed when it was recorded (`seed_problems`): a failing program
verdict, or a cone-type count that misses the closed form.  For `sweep` the
golden cone-type count is the closed form of theorem_case, and T_size and
the traces tr(M^k) are recorded only where the count matched it.  Every
distinct order of a sweep triple's exponents is run, and must give the same
outputs, because a run picks the order from its seed.
"""

from __future__ import annotations

import json
from itertools import permutations

from conetypes.automaton import theorem_case

import items
import worker


def record(workload: str, arg, gold: dict) -> dict:
    try:
        out = worker.RUN[workload](arg)
    except Exception as exc:
        gold["seed_problems"] = [f"raised {type(exc).__name__}: {exc}"]
        return gold
    if workload == "sweep":
        problems = worker.check_sweep(out, gold)
        if not problems:
            gold.update(T_size=out["T_size"], traces=out["traces"])
    else:
        gold.update({k: v for k, v in out.items() if k != "ok"})
        problems = worker.CHECK[workload](out, gold)
    gold["seed_problems"] = problems
    return gold


def main():
    golden = {}
    for workload in items.WORKLOADS:
        entries = {}
        for key, arg in worker.load_inputs(workload, seed=0):
            if workload != "sweep":
                entries[key] = record(workload, arg, {})
                continue
            expected = {"expected_K": theorem_case(*arg)[1]}
            seen = [record(workload, p, dict(expected))
                    for p in sorted(set(permutations(arg)))]
            if any(s != seen[0] for s in seen):
                raise SystemExit(f"sweep {key}: outputs depend on exponent order")
            entries[key] = seen[0]
        golden[workload] = dict(sorted(entries.items()))
        bad = {k: v["seed_problems"] for k, v in entries.items() if v["seed_problems"]}
        print(workload, len(entries), "items; failing at this commit:", bad, flush=True)
    worker.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
