"""Layer spans for the traced run, from wrappers installed at run time.

Nothing in the program records spans.  `Tracer.install` replaces each
public function listed in LAYERS by a wrapper, on every conetypes module
that holds the function under its own name, so that the name a caller looks
up is the wrapped one (`pipeline.build_ball` for `_ball_cached`,
`upper.minimal_fixed_point` for `fold_point`).  `uninstall` puts every
original back.

A span records its name, start, end and the span that was open when it
began.  A layer's self time is the sum of its spans' durations minus the
durations of their direct child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("automaton", "cli", "coxeter", "lower", "oracle", "pipeline", "ring", "upper")


def _on_ball(c, args, result, exc):
    if result is not None:
        c["coxeter.vertices"] += result.n_vertices
        c["coxeter.ball_bytes"] += sum(
            a.nbytes for a in (result.norms, result.offsets, result.edges,
                               result.parent, result.parent_gen))


def _on_extract(c, args, result, exc):
    if type(exc).__name__ == "NotStabilized":
        c["automaton.not_stabilized"] += 1
    if result is not None:
        c["automaton.extract_ok"] += 1
        c["automaton.cone_types"] += result.K_total


def _on_fixed_point(c, args, result, exc):
    if result is not None:
        c["upper.fixed_point_iterations"] += result.iterations
        c["upper.fixed_point_diverged"] += type(result).__name__ == "Diverged"


def _on_fold(c, args, result, exc):
    if result is not None:
        c["upper.fold_fallbacks"] += bool(result.fallback)


def _on_oracle(c, args, result, exc):
    ball, n_max = args[0], args[1]
    c["oracle.steps"] += n_max
    c["oracle.ball_vertices"] += ball.n_vertices


# (defining module, function, span name, hook on each call)
LAYERS = [
    ("coxeter", "build_ball", "coxeter.build_ball", _on_ball),
    ("ring", "minpoly_2cos", "ring.minpoly_2cos", None),
    ("automaton", "extract_automaton", "automaton.extract", _on_extract),
    ("automaton", "reduce_automaton", "automaton.reduce", None),
    ("automaton", "automaton_from_json", "automaton.from_json", None),
    ("automaton", "automaton_to_json", "automaton.to_json", None),
    ("upper", "upper_bound", "upper.upper_bound", None),
    ("upper", "fold_point", "upper.fold_point", _on_fold),
    ("upper", "minimal_fixed_point", "upper.fixed_point", _on_fixed_point),
    ("lower", "lower_bound", "lower.lower_bound", None),
    ("lower", "perron", "lower.perron", None),
    ("oracle", "return_probabilities", "oracle.return_probabilities", _on_oracle),
    ("pipeline", "run_group", "pipeline", None),
    ("pipeline", "run_from_automaton", "pipeline", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self.counts[name + ".calls"] += 1
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, hook=None):
        def wrapper(*args, **kwargs):
            result = exc = None
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    if hook is not None:
                        hook(self.counts, args, result, exc)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module("conetypes")] + [
            importlib.import_module("conetypes." + m) for m in MODULES]
        for home, fname, name, hook in LAYERS:
            original = getattr(importlib.import_module("conetypes." + home), fname)
            wrapper = self.wrap(original, name, hook)
            for mod in modules:
                if mod.__dict__.get(fname) is original:
                    self._patched.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, fname, original = self._patched.pop()
            setattr(mod, fname, original)

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out


def span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call, measured here."""
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see PER_LAYER)."""
    selfs, c = tracer.self_times(), tracer.counts
    extract_calls = c["automaton.extract.calls"]
    return {
        "coxeter.build_ball_s": selfs["coxeter.build_ball"],
        "coxeter.build_ball_calls": c["coxeter.build_ball.calls"],
        "coxeter.vertices": c["coxeter.vertices"],
        "coxeter.ball_mb": c["coxeter.ball_bytes"] / 2**20,
        "ring.minpoly_2cos_s": selfs["ring.minpoly_2cos"],
        "ring.minpoly_2cos_calls": c["ring.minpoly_2cos.calls"],
        "automaton.extract_s": selfs["automaton.extract"],
        "automaton.extract_calls": extract_calls,
        "automaton.not_stabilized": c["automaton.not_stabilized"],
        "automaton.extract_yield": (c["automaton.extract_ok"] / extract_calls
                                    if extract_calls else 0.0),
        "automaton.cone_types": c["automaton.cone_types"],
        "automaton.reduce_s": selfs["automaton.reduce"],
        "automaton.from_json_s": selfs["automaton.from_json"],
        "automaton.to_json_s": selfs["automaton.to_json"],
        "upper.upper_bound_s": selfs["upper.upper_bound"],
        "upper.fold_point_s": selfs["upper.fold_point"],
        "upper.fixed_point_s": selfs["upper.fixed_point"],
        "upper.fixed_point_calls": c["upper.fixed_point.calls"],
        "upper.fixed_point_iterations": c["upper.fixed_point_iterations"],
        "upper.fixed_point_diverged": c["upper.fixed_point_diverged"],
        "upper.fold_fallbacks": c["upper.fold_fallbacks"],
        "lower.lower_bound_s": selfs["lower.lower_bound"],
        "lower.perron_s": selfs["lower.perron"],
        "oracle.return_probabilities_s": selfs["oracle.return_probabilities"],
        "oracle.steps": c["oracle.steps"],
        "oracle.ball_vertices": c["oracle.ball_vertices"],
        "pipeline.self_s": selfs["pipeline"],
        "cli.self_s": selfs["cli"],
    }
