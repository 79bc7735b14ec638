"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import items  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

GOLDEN = json.loads(worker.GOLDEN_PATH.read_text())


@pytest.mark.parametrize("field", ["lower", "upper", "envelope"])
def test_table_golden_perturbed_by_1e_9_fails(field):
    gold = GOLDEN["table"]["3-4-5"]
    out = {k: gold[k] for k in gold if k != "seed_problems"} | {"ok": True}
    assert worker.check_table(out, gold) == []
    out[field] += 1e-9
    assert worker.check_table(out, gold) != []


def test_automata_golden_perturbed_by_1e_9_fails():
    gold = GOLDEN["automata"]["4-4-4"]
    out = {k: gold[k] for k in gold if k != "seed_problems"} | {"ok": True}
    assert worker.check_automata(out, gold) == []
    out["upper"] -= 1e-9
    assert worker.check_automata(out, gold) != []


def test_sweep_trace_mismatch_fails():
    gold = GOLDEN["sweep"]["4-4-4"]
    out = {"exit_code": 0, "K_total": gold["expected_K"], "T_size": gold["T_size"],
           "traces": list(gold["traces"])}
    assert worker.check_sweep(out, gold) == []
    out["traces"][-1] += 1
    assert worker.check_sweep(out, gold) != []


def test_raising_item_counts_as_failed():
    golden = {"a": {"seed_problems": []}, "b": {"seed_problems": []}}

    def run_one(arg, tracer):
        if arg == "boom":
            raise RuntimeError("boom")
        return arg

    result = worker.run_pass([("a", "fine"), ("b", "boom")], run_one,
                             lambda out, gold: [], golden)
    assert result["attempted"] == 2
    assert list(result["failures"]) == ["b"]
    assert result["regressions"] == ["b"]
    assert len(result["item_s"]) == 2


def test_wrappers_are_removed_after_tracing():
    import conetypes
    import conetypes.pipeline as pipeline
    import conetypes.upper as upper

    modules = [conetypes] + [sys.modules["conetypes." + m] for m in tracing.MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pipeline.build_ball is not before[modules.index(pipeline)]["build_ball"]
        assert upper.minimal_fixed_point.__wrapped__ is \
            before[modules.index(upper)]["minimal_fixed_point"]
    finally:
        tracer.uninstall()
    for mod, names in zip(modules, before):
        for name, value in names.items():
            assert vars(mod)[name] is value, f"{mod.__name__}.{name} still wrapped"


def test_probe_sampler_restores_the_alarm_handler():
    import signal
    import time

    with probe.Sampler() as sampler:
        end = time.perf_counter() + 3 * probe.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) > 5
    assert sampler.slowdown() > 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    selfs = tracer.self_times()
    (_, s0, e0, _), (_, s1, e1, _) = tracer.spans
    assert selfs["outer"] == pytest.approx((e0 - s0) - (e1 - s1))
    assert selfs["inner"] == pytest.approx(e1 - s1)


def test_sweep_seed_gives_same_item_set_in_different_orders():
    orders = [items.ordered_items("sweep", seed) for seed in range(8)]
    canonical = sorted(tuple(sorted(t)) for t in orders[0])
    assert canonical == sorted(items.SWEEP_TRIPLES)
    for order in orders[1:]:
        assert sorted(tuple(sorted(t)) for t in order) == canonical
    assert len({tuple(o) for o in orders}) == len(orders)


def test_every_item_has_golden_data():
    for workload in items.WORKLOADS:
        keys = {items.key(t) for t in items.ordered_items(workload, 0)}
        assert keys == set(GOLDEN[workload])
    assert all(items.doc_path(t).is_file() for t in items.AUTOMATA_TRIPLES)
