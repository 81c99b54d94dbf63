"""Spans and counters around the library's public calls, for the traced
run only.

Wrappers are installed from outside: each public function is rebound in
every ``ringload`` module namespace that holds it (``from .core import
additive_performance`` copies the binding, so patching ``ringload.core``
alone would miss the calls from ``rounding``), and methods, properties
and ``__post_init__`` hooks are replaced on their classes.  Spans stay in
memory as (name, start, end, parent, op) tuples; a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import ringload.cli  # noqa: F401  (parse_input_text is wrapped)
import ringload.rounding

# name -> (module, attribute path, workloads that must call it)
SPANS = {
    "core.additive_performance": ("ringload.core", "additive_performance", ("round_corpus",)),
    "core.classify_delta": ("ringload.core", "CrossingRouting.classify_delta", ("round_corpus",)),
    "greedy.forward_greedy": ("ringload.greedy", "forward_greedy", ("round_corpus",)),
    "greedy.backward_greedy": ("ringload.greedy", "backward_greedy", ("round_corpus",)),
    "greedy.is_proper": ("ringload.greedy", "is_proper", ("round_corpus",)),
    "rounding.round_main": ("ringload.rounding", "round_main", ("round_corpus", "ring_reduce")),
    "rounding.ssw_round": ("ringload.rounding", "ssw_round", ("round_corpus",)),
    "rounding.round_medium": ("ringload.rounding", "round_medium", ("round_corpus",)),
    "rounding.round_upper": ("ringload.rounding", "round_upper", ("round_corpus",)),
    "rounding.round_via_induced": ("ringload.rounding", "round_via_induced", ("round_corpus",)),
    "rounding.induced_patterns": ("ringload.rounding", "induced_patterns", ("round_corpus",)),
    "rounding.closeness": ("ringload.rounding", "closeness", ("round_corpus",)),
    "rounding.crossover": ("ringload.rounding", "crossover", ("round_corpus",)),
    "exact.min_additive_performance": (
        "ringload.exact", "min_additive_performance", ("oracle_boost", "search_grid"),
    ),
    "exact.optimal_unsplittable_boosted": (
        "ringload.exact", "optimal_unsplittable_boosted", ("oracle_boost",),
    ),
    "exact.split_optimum_boosted": ("ringload.exact", "split_optimum_boosted", ("oracle_boost",)),
    "boost.boost": ("ringload.boost", "boost", ("oracle_boost",)),
    "boost.verify_boost": ("ringload.boost", "verify_boost", ("oracle_boost",)),
    "reduce.uncross_parallel": ("ringload.reduce", "uncross_parallel", ("ring_reduce",)),
    "reduce.to_crossing_form": ("ringload.reduce", "to_crossing_form", ("ring_reduce",)),
    "reduce.ReductionTrace.lift": ("ringload.reduce", "ReductionTrace.lift", ("ring_reduce",)),
    "reduce.GeneralSplitRouting.loads": (
        "ringload.reduce", "GeneralSplitRouting.loads", ("ring_reduce",),
    ),
    "adversary.heuristic_search": ("ringload.adversary", "heuristic_search", ("search_grid",)),
    "adversary.build_milp": ("ringload.adversary", "build_milp", ("search_grid",)),
    "adversary.render_lp": ("ringload.adversary", "render_lp", ("search_grid",)),
    "adversary.parse_lp": ("ringload.adversary", "parse_lp", ("search_grid",)),
    "adversary.max_feasible_performance": (
        "ringload.adversary", "max_feasible_performance", ("search_grid",),
    ),
    "cli.parse_input_text": ("ringload.cli", "parse_input_text", ("round_corpus", "ring_reduce")),
}

# counted, not timed: these run too often for a span each
COUNTS = {
    "core.prefix_walks": ("ringload.core", "Pattern.prefix_values", ("round_corpus",)),
    "core.routing_builds": (
        "ringload.core", "CrossingRouting.__post_init__", ("round_corpus", "search_grid"),
    ),
    "rounding.certificate_checks": (
        "ringload.rounding", "BoundedRounding.__post_init__", ("round_corpus",),
    ),
}

LAYERS = ("core", "greedy", "rounding", "exact", "boost", "reduce", "adversary", "cli")


def _observe_round_main(tracer, out):
    if out.method is ringload.rounding.RoundingMethod.SSW:
        tracer.tally["rounding.baseline_kept"] += 1


def _observe_boost(tracer, out):
    tracer.tally["boost.ring_nodes"] += out.instance.n
    tracer.tally["boost.demands"] += len(out.instance.demands)


def _observe_uncross(tracer, out):
    tracer.tally["reduce.uncross_steps"] += len(out[1])


def _observe_reduction(tracer, out):
    if out.routing is not None:
        tracer.tally["reduce.reduced"] += 1
        tracer.tally["reduce.reduced_m"] += out.routing.m


def _observe_oracle(tracer, out):
    tracer.tally["exact.masks"] += 1 << out.pattern.routing.m


def _observe_lp(tracer, out):
    tracer.tally["adversary.lp_bytes"] += len(out.encode())


OBSERVERS = {
    "rounding.round_main": _observe_round_main,
    "boost.boost": _observe_boost,
    "reduce.uncross_parallel": _observe_uncross,
    "reduce.to_crossing_form": _observe_reduction,
    "exact.min_additive_performance": _observe_oracle,
    "adversary.render_lp": _observe_lp,
}


class MissingTarget(LookupError):
    """A wrapped name no longer exists in the library."""


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingTarget(f"{module_name}.{path}")
    if attr not in vars(owner):
        raise MissingTarget(f"{module_name}.{path}")
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Collects spans and counts while ``active``; wrappers pass calls
    straight through otherwise (set-up, checks)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.tally: Counter = Counter()
        self.op = -1
        self.active = False

    def span(self, name, fn, observe=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if observe is not None:
                observe(tracer, out)
            return out

        return wrapper

    def counter(self, name, fn):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target; returns the names that no longer resolve."""
        targets, missing = {}, []
        for name, (module_name, path, _) in {**SPANS, **COUNTS}.items():
            try:
                targets[name] = _resolve(module_name, path)
            except MissingTarget:
                missing.append(name)
        library = [mod for name, mod in sys.modules.items()
                   if name == "ringload" or name.startswith("ringload.")]
        for name, (owner, attr, original) in targets.items():
            timed = name in SPANS
            if isinstance(original, property):
                fget = self.span(name, original.fget) if timed else self.counter(name, original.fget)
                setattr(owner, attr, property(fget))
                continue
            wrapper = (self.span(name, original, OBSERVERS.get(name)) if timed
                       else self.counter(name, original))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in library:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return missing

    def self_times(self, slowdown: float = 1.0):
        """Per span name: call count, total self seconds and call
        durations, both divided by the machine slowdown."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        own = defaultdict(float)
        durations = defaultdict(list)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (end - start - child[idx]) / slowdown
            durations[name].append((end - start) / slowdown)
        return calls, own, durations

    def parent_layer_calls(self, name: str, layer: str) -> int:
        """Calls of ``name`` made directly from a span of ``layer``."""
        spans = self.spans
        return sum(1 for s in spans
                   if s[0] == name and s[3] >= 0 and spans[s[3]][0].startswith(layer + "."))

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("op,parent,name,start_ns,end_ns\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op},{parent},{name},{int(start * 1e9)},{int(end * 1e9)}\n")


def missing_calls(calls: Counter, counts: Counter, workload: str) -> list[str]:
    """Wrapped names that the workload should call but did not."""
    out = []
    for name, (_, _, homes) in SPANS.items():
        if workload in homes and calls[name] == 0:
            out.append(name)
    for name, (_, _, homes) in COUNTS.items():
        if workload in homes and counts[name] == 0:
            out.append(name)
    return out
