"""Regenerate the committed cta-1 inputs of the `automata` workload.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_automata.py

Each document is extracted with the escalation that `run_group` uses: the
radius starts at k_cap + max + 4 with k_cap = max + 2, and k_cap grows by 2
after every NotStabilized, at most MAX_ESCALATIONS times.  The CLI has no
escalation, so it cannot produce (2,3,7) or (2,3,8); hence this script.
"""

from __future__ import annotations

import time

from conetypes import (
    automaton_to_json,
    build_ball,
    extract_automaton,
    new_params,
    reduce_automaton,
)
from conetypes.errors import NotStabilized
from conetypes.pipeline import MAX_ESCALATIONS

from items import AUTOMATA_TRIPLES, doc_path


def extract_escalating(triple):
    params = new_params(*triple)
    maxp = max(triple)
    k_cap = maxp + 2
    for attempt in range(MAX_ESCALATIONS + 1):
        ball = build_ball(params, k_cap + maxp + 4)
        try:
            return extract_automaton(ball)
        except NotStabilized:
            if attempt == MAX_ESCALATIONS:
                raise
            k_cap += 2


def main():
    for triple in AUTOMATA_TRIPLES:
        t0 = time.perf_counter()
        a = extract_escalating(triple)
        ra = reduce_automaton(a)
        doc_path(triple).write_text(automaton_to_json(a, ra) + "\n")
        print(f"{triple} radius {a.radius} K {a.K_total} |T| {len(ra.types)} "
              f"{time.perf_counter() - t0:.1f} s", flush=True)


if __name__ == "__main__":
    main()
