"""The four benchmark workloads: seeded inputs, one op per library call
path, output checks and output fingerprints.

Every workload builds a fixed list of ops (one "pass") from its seed.
The timed loop replays that pass until the run's time is used up, so
every pass does the same work and per-pass figures are comparable.

Ops reach the library through attribute lookups on the ``ringload``
package at call time, so the wrappers a traced run installs there are
seen.  The checks recompute loads and performances with the benchmark's
own arithmetic (``arith.py``); they call the library only to compare two
of its answers with each other.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from random import Random

import ringload as rl
from arith import (
    brute_min_performance,
    certified_formula,
    crossing_performance,
    max_split_load,
    ring_loads,
)


class CheckFailed(Exception):
    """An op returned an output that fails the benchmark's check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# input generators (same shapes as the test suite's random_crossing and
# random_general, kept here so a test edit cannot shift benchmark inputs)


def random_crossing(rng: Random, max_m: int = 16, max_den: int = 12, m: int | None = None):
    """Crossing routing with parts p/q, p <= 3*max_den, q <= max_den."""
    if m is None:
        m = rng.randint(1, max_m)
    u = []
    v = []
    for _ in range(m):
        u.append(Fraction(rng.randint(1, 3 * max_den), rng.randint(1, max_den)))
        v.append(Fraction(rng.randint(1, 3 * max_den), rng.randint(1, max_den)))
    return rl.CrossingRouting(tuple(u), tuple(v))


def random_general(rng: Random, max_split: int = 30, max_unsplit: int = 30):
    """General ring routing mixing split and one-sided demands on
    distinct node pairs."""
    n = rng.randint(6, 14)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rng.shuffle(pairs)
    want_split = rng.randint(1, max_split)
    want_unsplit = rng.randint(0, max_unsplit)
    demands = []
    parts = []
    for idx, (i, j) in enumerate(pairs[: want_split + want_unsplit]):
        den = rng.randint(1, 8)
        value = Fraction(rng.randint(1, 24), den)
        demands.append((i, j, value))
        if idx < want_split:
            parts.append(value * Fraction(rng.randint(1, den * 4), den * 4 + 1))
        else:
            parts.append(value if rng.random() < 0.5 else Fraction(0))
    return rl.GeneralSplitRouting(rl.RingInstance(n, tuple(demands)), tuple(parts))


def _routing_text(r) -> str:
    lines = [f"split {r.m}"] + [f"pair {a} {b}" for a, b in zip(r.u, r.v)]
    return "\n".join(lines) + "\n"


def _ring_text(g) -> str:
    lines = [f"ring {g.instance.n}"]
    for (i, j, value), part in zip(g.instance.demands, g.clockwise):
        lines.append(f"demand {i} {j} {value} {part}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One pass of ops built from the seed.

    ``ops`` is the pass; ``warmup`` the number of its leading ops run
    once, untimed, during set-up.  Subclasses set ``cli_text``, the input
    file a traced run times through ``ringload round``, and may set
    ``parse_texts``, the inputs it parses in process.
    """

    name = ""
    warmup = 0
    cli_text: str

    def __init__(self, seed: int):
        self.rng = Random(f"perfbench:{self.name}:{seed}")
        self.ops = self.build()
        self.parse_texts: list[str] = []

    def build(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> None:
        """Raise CheckFailed unless ``out`` is a correct output for ``op``."""
        raise NotImplementedError

    def fingerprint(self, op, out) -> str:
        """Canonical text of the output parts the digest pins."""
        raise NotImplementedError


class RoundCorpus(Workload):
    """round_main on acceptance-corpus-shaped routings."""

    name = "round_corpus"
    warmup = 20
    size = 1000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cli_text = _routing_text(max(self.ops[:50], key=lambda r: r.m))
        self.parse_texts = [_routing_text(r) for r in self.ops]

    def build(self):
        # the crossover branch is rare in random routings; these two take
        # it, so every pass exercises crossover and closeness
        pinned = [
            rl.CrossingRouting(
                (Fraction(19, 8), Fraction(22, 7), Fraction(29, 2), Fraction(15, 7), 3, Fraction(1, 2)),
                (3, 8, 22, Fraction(35, 4), Fraction(4, 5), Fraction(3, 4)),
            ),
            rl.CrossingRouting(
                (Fraction(15, 11), Fraction(5, 8), Fraction(32, 3), Fraction(11, 9), 13,
                 Fraction(29, 10), Fraction(35, 4), Fraction(11, 3)),
                (4, Fraction(8, 7), 12, Fraction(13, 9), Fraction(5, 2), Fraction(7, 6),
                 Fraction(20, 3), Fraction(7, 2)),
            ),
        ]
        return pinned + [random_crossing(self.rng) for _ in range(self.size)]

    def run(self, r):
        return rl.round_main(r)

    def check(self, r, out):
        big = r.max_demand
        expected = certified_formula(r.u, r.v)
        _require(out.certified_bound == expected,
                 f"certified {out.certified_bound}, delta formula gives {expected}")
        realized = crossing_performance(r.u, r.v, out.pattern.choices)
        _require(out.realized == realized,
                 f"stated realized {out.realized}, per-edge loads give {realized}")
        _require(realized <= out.certified_bound * big,
                 f"realized {realized} exceeds {out.certified_bound} * D")

    def fingerprint(self, r, out):
        p = out.pattern
        return f"{p.choices}|{p.start}|{out.realized}|{out.certified_bound}|{out.method.value}"


class RingReduce(Workload):
    """The `ringload round` path on general ring instances."""

    name = "ring_reduce"
    warmup = 10
    size = 600

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cli_text = _ring_text(max(self.ops[:50], key=lambda g: len(g.instance.demands)))
        self.parse_texts = [_ring_text(g) for g in self.ops]

    def build(self):
        return [random_general(self.rng) for _ in range(self.size)]

    def run(self, g):
        reduction = rl.to_crossing_form(g)
        if reduction.trivial:
            lifted = reduction.trace.base
            rounded = None
        else:
            r = reduction.routing
            if r.m == 1:
                # a single split demand goes to its larger side, as the CLI does
                rounded = None
                choices = 1 if r.u[0] >= r.v[0] else 0
            else:
                rounded = rl.round_main(r)
                choices = rounded.pattern.choices
            lifted = reduction.trace.lift(choices)
        return reduction, rounded, lifted, lifted.loads()

    def check(self, g, out):
        reduction, rounded, lifted, loads = out
        instance = g.instance
        base = reduction.trace.base
        base_max = max(ring_loads(instance.n, instance.demands, base.clockwise))
        own = ring_loads(instance.n, instance.demands, lifted.clockwise)
        _require(tuple(own) == tuple(loads.loads), "lifted loads disagree with per-edge loads")
        for (_, _, value), part in zip(instance.demands, lifted.clockwise):
            _require(part in (0, value), "lifted routing still splits a demand")
        if reduction.trivial:
            realized = Fraction(0)
        else:
            r = reduction.routing
            choices = rounded.pattern.choices if rounded else (1 if r.u[0] >= r.v[0] else 0)
            realized = crossing_performance(r.u, r.v, choices)
            if rounded is not None:
                _require(rounded.realized == realized,
                         f"stated realized {rounded.realized}, per-edge loads give {realized}")
        _require(max(own) <= base_max + realized,
                 f"lifted max {max(own)} exceeds base max {base_max} + realized {realized}")

    def fingerprint(self, g, out):
        reduction, rounded, lifted, loads = out
        m = 0 if reduction.trivial else reduction.routing.m
        method = rounded.method.value if rounded else "-"
        cw = ",".join(str(x) for x in lifted.clockwise)
        return f"{m}|{method}|{cw}|{loads.max_load}"


class OracleBoost(Workload):
    """Exact oracles and boost on a fixed mix of sizes."""

    name = "oracle_boost"
    warmup = 3
    boosts_per_size = 30
    brute_limit = 8  # sources up to this size are also checked by brute force

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cli_text = _routing_text(self.ops[0][1][0])

    def build(self):
        rng = self.rng
        eps = Fraction(rng.randint(0, 10), rng.randint(1, 5))
        pinned = [
            ("skutella8", (rl.skutella8(eps), 11 + 2 * eps)),
            ("seven18", (rl.seven18(), Fraction(19))),
            ("tight_even", (rl.tight_even(16), Fraction(2))),
        ]
        oracle = [("min", random_crossing(rng, m=m)) for m in range(12, 19)]
        boosted = [("boost", r) for r in (rl.tight3(), rl.tight5(), rl.tight6())]
        for _ in range(self.boosts_per_size):
            boosted += [("boost", random_crossing(rng, m=m)) for m in range(6, 11)]
        # the cheap pinned ops lead, so the warm-up touches every code
        # path; the long oracle calls are spread evenly through the pass
        heavy = oracle + pinned[2:]
        ops = pinned[:2]
        stride = len(boosted) // len(heavy)
        for k, op in enumerate(heavy):
            ops += boosted[k * stride:(k + 1) * stride] + [op]
        return ops + boosted[len(heavy) * stride:]

    def run(self, op):
        kind, payload = op
        if kind == "boost":
            b = rl.boost(payload)
            return b, rl.verify_boost(b)
        r = payload if kind == "min" else payload[0]
        return rl.min_additive_performance(r)

    def check(self, op, out):
        kind, payload = op
        if kind == "boost":
            r = payload
            b, report = out
            _require(report.gap >= report.source_performance,
                     f"boost gap {report.gap} below source performance {report.source_performance}")
            if r.m <= self.brute_limit:
                brute = brute_min_performance(r.u, r.v)
                _require(report.source_performance == brute,
                         f"source performance {report.source_performance}, brute force {brute}")
            top = max_split_load(r.u, r.v)
            _require(report.split_optimum == top == b.equalized_load,
                     f"split optimum {report.split_optimum}, source max split load {top}")
            return
        r = payload if kind == "min" else payload[0]
        value, witness = out
        _require(witness.routing == r, "witness lives on another routing")
        recomputed = crossing_performance(r.u, r.v, witness.choices)
        _require(recomputed == value, f"witness performance {recomputed} != value {value}")
        rounded = rl.round_main(r).realized
        _require(value <= rounded, f"optimum {value} above round_main realized {rounded}")
        if kind != "min":
            _require(value == payload[1], f"{kind}: value {value}, pinned {payload[1]}")

    def fingerprint(self, op, out):
        kind, _ = op
        if kind == "boost":
            b, report = out
            return (f"boost|{b.instance.n}|{len(b.instance.demands)}|{report.source_performance}"
                    f"|{report.split_optimum}|{report.unsplittable_optimum}")
        value, witness = out
        return f"{kind}|{value}|{witness.choices}"


class SearchGrid(Workload):
    """Single-restart searches and MILP round trips."""

    name = "search_grid"
    warmup = 2
    searches = 160

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cli_text = _routing_text(next(op[2] for op in self.ops if op[0] == "milp"))

    def build(self):
        rng = self.rng
        tag = rng.randrange(1 << 30)
        ops = []
        for i in range(self.searches):
            ops.append(("search", 6 if i % 2 == 0 else 8, f"{tag}:{i}"))
            if i % 10 == 9:
                u = tuple(Fraction(rng.randint(1, 9)) for _ in range(6))
                v = tuple(Fraction(rng.randint(1, 9)) for _ in range(6))
                ops.append(("milp", 6, rl.CrossingRouting(u, v)))
        return ops

    def run(self, op):
        kind, m, arg = op
        if kind == "search":
            return rl.heuristic_search(m, 1, arg, workers=1)
        # symmetry rows would reject routings whose u_1 is not the
        # smallest entry, so the pinned routings use the model without them
        model = rl.build_milp(m, symmetry_break=False)
        text = rl.render_lp(model)
        parsed = rl.parse_lp(text)
        return model, text, parsed, rl.max_feasible_performance(parsed, arg)

    def check(self, op, out):
        kind, m, arg = op
        if kind == "search":
            r, value = out
            _require(r.m == m, f"search returned m={r.m}, asked {m}")
            oracle = rl.min_additive_performance(r).value / r.max_demand
            _require(value == oracle, f"search value {value}, oracle over D {oracle}")
            brute = brute_min_performance(r.u, r.v) / r.max_demand
            _require(value == brute, f"search value {value}, brute force over D {brute}")
            return
        model, text, parsed, value = out
        _require(parsed == model, "parse_lp(render_lp(model)) != model")
        _require(rl.render_lp(parsed) == text, "LP text does not round-trip byte-exactly")
        brute = brute_min_performance(arg.u, arg.v) / arg.max_demand
        _require(value == brute, f"MILP value {value}, brute force over D {brute}")

    def fingerprint(self, op, out):
        kind, m, _ = op
        if kind == "search":
            r, value = out
            parts = ",".join(str(x) for x in r.u + r.v)
            return f"search|{m}|{value}|{parts}"
        _, text, _, value = out
        return f"milp|{m}|{value}|{hashlib.sha256(text.encode()).hexdigest()}"


WORKLOADS = {w.name: w for w in (RoundCorpus, RingReduce, OracleBoost, SearchGrid)}
