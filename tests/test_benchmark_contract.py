"""The benchmark's hold on the program: perfbench/tracing.py wraps functions
by name, and perfbench/worker.py runs and checks items through the public
entry points.  One item of each workload runs traced here, as a traced
benchmark pass runs them, so a renamed or unreachable name fails in
the test suite rather than in the benchmark."""

import importlib
import json
import sys
from pathlib import Path

import conetypes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import items  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def test_traced_items_pass_their_checks():
    modules = [conetypes] + [importlib.import_module("conetypes." + m)
                             for m in tracing.MODULES]
    before = [dict(vars(m)) for m in modules]
    golden = json.loads(worker.GOLDEN_PATH.read_text())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        table = worker.run_table((4, 4, 4), tracer)
        sweep = worker.run_sweep((5, 3, 4), tracer)
        counts = tracer.counts.copy()
        automata = worker.run_automata(items.doc_path((4, 4, 4)).read_text(), tracer)
    finally:
        tracer.uninstall()
    assert worker.check_table(table, golden["table"]["4-4-4"]) == []
    assert worker.check_automata(automata, golden["automata"]["4-4-4"]) == []
    assert worker.check_sweep(sweep, golden["sweep"]["3-4-5"]) == []
    # every wrapper is gone again
    for mod, names in zip(modules, before):
        for name, value in names.items():
            assert vars(mod)[name] is value, (mod.__name__, name)
    # the items went through the wrapped layers
    for span in ("pipeline", "automaton.extract", "automaton.reduce", "automaton.to_json",
                 "coxeter.build_ball", "upper.upper_bound", "upper.fold_point",
                 "upper.fixed_point", "lower.lower_bound", "oracle.return_probabilities"):
        assert tracer.counts[span + ".calls"] > 0, span
    # the automata item read its document and ran both bound stages
    for span in ("automaton.from_json", "upper.fold_point", "lower.perron"):
        assert tracer.counts[span + ".calls"] > counts[span + ".calls"], span
    layers = tracing.layer_metrics(tracer)
    assert layers["automaton.cone_types"] == 6 + 22
    assert layers["automaton.extract_yield"] == 1.0
